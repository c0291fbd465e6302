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


def _overlap_add(starts, kernels, scales, bank, length):
    """Sum of scales[i] * kernel kernels[i] placed at starts[i], in order.

    Samples falling outside [0, length) are dropped; the kernels are checked first.
    """
    if kernels and not (min(kernels) >= 0 and max(kernels) < bank.kernel_count):
        bad = next(m for m in kernels if not 0 <= m < bank.kernel_count)
        raise ValueError(f"kernel index {bad} outside bank of {bank.kernel_count}")
    out = np.zeros(length)
    samples = bank.samples_matrix
    width = bank.kernel_length
    for start, m, scale in zip(starts, kernels, scales):
        lo = max(start, 0)
        hi = min(start + width, length)
        if lo < hi:
            out[lo:hi] += scale * samples[m, lo - start:hi - start]
    return out


def reconstruct_from_codes(codes, bank, output_length):
    """Sum of s * kernel(m) placed at segment_index * S + tau for each code.

    tau keeps its sign here; contributions falling outside the output
    range are dropped.
    """
    seg_len = bank.segment_length
    return _overlap_add([c.segment_index * seg_len + c.tau for c in codes],
                        [c.m for c in codes], [c.s for c in codes],
                        bank, output_length)


def reconstruct_from_spikes(spikes, bank, channel_map, output_length):
    """Like reconstruct_from_codes with the channel's level as intensity.

    The spike time already encodes segment start plus clamped shift.
    """
    kernel, level = channel_map.decode(spikes["channel"])
    return _overlap_add(spikes["time"].tolist(), kernel.tolist(), level.tolist(),
                        bank, output_length)


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
    return 100.0 * len(np.unique(spikes["channel"])) / total_channels


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
