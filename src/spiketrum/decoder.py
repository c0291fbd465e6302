"""Waveform reconstruction and encoding-quality metrics.

Reconstruction is linear superposition: each code contributes its scaled
kernel starting at the code's absolute position in the stream. The code
path uses the exact signed intensities; the spike path only knows each
code's quantized level, so it bounds the code path from below on SNR.
"""

from __future__ import annotations

import numpy as np

from .kernel_bank import FFT_SIZE

SNR_CAP_DB = 300.0


def _check_kernels(kernels, bank):
    """Raise naming the first kernel index outside the bank."""
    bad = (kernels < 0) | (kernels >= bank.kernel_count)
    if bad.any():
        raise ValueError(f"kernel index {kernels[bad][0]} outside bank of {bank.kernel_count}")


def _overlap_add(starts, rows, table, length, scales=None):
    """Sum of table[rows[i]], times scales[i] if given, placed at starts[i].

    Each output sample sums its events in the order given, one slice add
    per event, so the result does not depend on how the work is arranged.
    Samples falling outside [0, length) are dropped.
    """
    out = np.zeros(length)
    width = table.shape[1]
    # clipped first, so starts + width cannot overflow; a start clipped to
    # -width or length still covers no sample
    starts = np.clip(starts, -width, length).astype(np.int64)
    lo = np.maximum(starts, 0)
    hi = np.minimum(starts + width, length)
    keep = np.flatnonzero(lo < hi)
    events = zip(lo[keep].tolist(), hi[keep].tolist(),
                 (lo - starts)[keep].tolist(), (hi - starts)[keep].tolist(),
                 rows[keep].tolist())
    # adding into a view skips the write-back that out[a:b] += x makes
    if scales is None:
        for a, b, first, last, row in events:
            view = out[a:b]
            view += table[row, first:last]
    else:
        for (a, b, first, last, row), scale in zip(events, scales[keep].tolist()):
            view = out[a:b]
            view += scale * table[row, first:last]
    return out


def reconstruct_from_codes(codes, bank, output_length):
    """Sum of s * kernel(m) placed at segment_index * S + tau for each code.

    tau keeps its sign here; contributions falling outside the output
    range are dropped.
    """
    seg_len = bank.segment_length
    kernels = np.array([c.m for c in codes])
    _check_kernels(kernels, bank)
    return _overlap_add(np.array([c.segment_index * seg_len + c.tau for c in codes]),
                        kernels, bank.samples_matrix, output_length,
                        np.array([c.s for c in codes], dtype=np.float64))


def reconstruct_from_spikes(spikes, bank, channel_map, output_length):
    """Like reconstruct_from_codes with the channel's level as intensity.

    The spike time already encodes segment start plus clamped shift. Each
    kernel is scaled once per (kernel, level): row c of the table is channel
    c's product, and each spike adds a slice of its channel's row. Each
    output sample sums its spikes in the train's order, so the output does
    not depend on how the work is arranged.
    """
    channel = spikes["channel"]
    _check_kernels(channel_map.decode(channel)[0], bank)
    kernel, level = channel_map.decode(np.arange(channel_map.total_channels))
    # a map wider than the bank has rows past it: no spike reads them (checked
    # above), so mode="clip" only has to fill them with something
    table = bank.samples_matrix.take(kernel, axis=0, mode="clip")
    table *= level[:, None]
    # clipped in uint64: a time past int64 must not wrap to a negative start
    starts = np.minimum(spikes["time"], output_length).astype(np.int64)
    return _overlap_add(starts, channel, table, output_length)


def reconstruct_segment_window(codes, bank):
    """Circular reconstruction of one segment's 2048 window.

    Inverts the encoder exactly: adding these contributions back to the
    final residual reproduces the original buffer elementwise. Wrapped
    placements (negative tau) stay wrapped here, unlike the linear
    stream reconstruction.
    """
    out = np.zeros(FFT_SIZE)
    offsets = np.arange(bank.kernel_length)
    for c in codes:
        idx = (c.tau % FFT_SIZE + offsets) % FFT_SIZE
        out[idx] += c.s * bank.samples_matrix[c.m]
    return out


def snr_db(original, reconstructed):
    """10 * log10(signal energy / error energy), capped at 300 dB."""
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError(
            f"length mismatch: {original.shape} vs {reconstructed.shape}")
    signal = float(original @ original)
    if signal <= 0.0:
        raise ValueError("original signal has zero energy")
    error = original - reconstructed
    noise = float(error @ error)
    if noise == 0.0:
        return SNR_CAP_DB
    return min(10.0 * np.log10(signal / noise), SNR_CAP_DB)


def spike_entropy(spikes, total_channels):
    """Shannon entropy in bits of the empirical channel-usage distribution."""
    if not len(spikes):
        return 0.0
    counts = np.bincount(spikes["channel"], minlength=total_channels)
    p = counts[counts > 0] / len(spikes)
    return float(0.0 - p @ np.log2(p))  # 0.0 - x, not -x: +0.0 for one channel


def sparsity_percent(spikes, total_channels):
    """Percentage of channels that fired at least once."""
    return 100.0 * int(np.count_nonzero(np.bincount(spikes["channel"]))) / total_channels


def encoding_report(samples, codes, spikes, bank, channel_map, sample_rate):
    """Quality summary of one encoding run as a JSON-ready dict.

    residual_energy is the energy the codes failed to capture, computed
    from the per-iteration energy decrements (each code removes exactly
    s**2 from its segment window). SNR keys are None when the input is
    silent, since the ratio is undefined.
    """
    samples = np.asarray(samples, dtype=np.float64)
    duration = len(samples) / sample_rate
    signal_energy = float(samples @ samples)
    captured = sum(c.s * c.s for c in codes)
    report = {
        "code_count": len(codes),
        "spike_count": len(spikes),
        "spikes_per_second": len(spikes) / duration if duration > 0 else 0.0,
        "residual_energy": max(signal_energy - captured, 0.0),
        "snr_code_db": None,
        "snr_spike_db": None,
        "entropy_bits": spike_entropy(spikes, channel_map.total_channels),
        "sparsity_percent": sparsity_percent(spikes, channel_map.total_channels),
    }
    if signal_energy > 0.0:
        recon_codes = reconstruct_from_codes(codes, bank, len(samples))
        recon_spikes = reconstruct_from_spikes(spikes, bank, channel_map,
                                               len(samples))
        report["snr_code_db"] = snr_db(samples, recon_codes)
        report["snr_spike_db"] = snr_db(samples, recon_spikes)
    return report
