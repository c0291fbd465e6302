"""Acceptance gate: ten end-to-end checks, one test per criterion.

Run with -v to get one PASSED/FAILED line per criterion. Each test prints
its headline numbers; pytest shows them whenever a criterion fails.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.signal import chirp
from scipy.stats import spearmanr

from spiketrum import decoder, fixed_point as fx, itp, kernel_bank
from spiketrum import encoder as enc

SEGMENT = 696
BUFFER = 2048


def place_component(bank, m, tau, s):
    """A segment buffer holding exactly s times kernel m at circular slot tau."""
    buf = enc.SegmentBuffer(np.zeros(BUFFER))
    idx = (tau + np.arange(bank.kernel_length)) % BUFFER
    buf.data[idx] += s * bank.samples_matrix[m]
    return buf


def brute_quantize(s, levels):
    return int(np.argmin(np.abs(abs(s) - np.asarray(levels))))


def fixed_test_signal(seconds=3.0, rate=16000):
    """Deterministic tone mixture with a noise floor, peak 0.5."""
    rng = np.random.default_rng(7)
    t = np.arange(int(seconds * rate)) / rate
    x = (0.4 * np.sin(2 * np.pi * 440 * t)
         + 0.25 * np.sin(2 * np.pi * 1320 * t)
         + 0.15 * np.sin(2 * np.pi * 97 * t)
         + 0.1 * rng.standard_normal(len(t)))
    return 0.5 * x / np.max(np.abs(x))


def test_criterion_01_correlation_engines_agree(bank):
    """Both correlation engines give the same numbers on a random corpus."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        buf = enc.SegmentBuffer.from_samples(rng.uniform(-1, 1, SEGMENT))
        diff = enc.correlate_all_fft(buf, bank) - enc.correlate_all_direct(buf, bank)
        assert diff.shape == (bank.kernel_count, BUFFER)
        worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max engine difference {worst:.3e} over 100x40 "
          f"correlations in {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_02_single_component_transform_is_one_to_one(bank, channel_map):
    """Every (kernel, shift, scale) cell comes back exactly, spike included."""
    config = enc.EncoderConfig(sps=1)
    checked = 0
    for m in range(bank.kernel_count):
        for tau in (0, 100, 500, 695):
            for s in (0.01, 0.5, 20.0):
                buf = place_component(bank, m, tau, s)
                codes = enc.encode_segment(buf, bank, config)
                assert len(codes) == 1, (m, tau, s)
                code = codes[0]
                assert (code.m, code.tau) == (m, tau), (m, tau, s)
                assert abs(code.s - s) < 1e-6, (m, tau, s, code.s)
                spikes = itp.codes_to_spikes(codes, channel_map, SEGMENT)
                want_level = brute_quantize(code.s, channel_map.levels)
                assert spikes[0].channel == itp.channel_of(m, want_level,
                                                           channel_map)
                assert spikes[0].time == tau
                checked += 1
    print(f"criterion 2: {checked} (kernel, shift, scale) cells recovered")
    assert checked == 40 * 4 * 3


def test_criterion_03_energy_bookkeeping(bank):
    """Each extraction removes exactly s**2; leftover equals rebuild error."""
    rng = np.random.default_rng(103)
    worst_step = 0.0
    worst_final = 0.0
    for _ in range(50):
        buf = enc.SegmentBuffer.from_samples(rng.uniform(-1, 1, SEGMENT))
        original = buf.data.copy()
        codes = []
        for iteration in range(16):
            energy = float(buf.data @ buf.data)
            code = enc.find_best_code(enc.correlate_all_fft(buf, bank),
                                      buf.segment_index, iteration)
            enc.subtract_component(buf, bank.samples_matrix[code.m], code.tau, code.s)
            new_energy = float(buf.data @ buf.data)
            gap = abs(new_energy - (energy - code.s ** 2))
            worst_step = max(worst_step, gap / energy)
            assert gap <= 1e-9 * energy
            codes.append(code)
        residual_energy = float(buf.data @ buf.data)
        error = original - decoder.reconstruct_segment_window(codes, bank)
        error_energy = float(error @ error)
        gap = abs(residual_energy - error_energy)
        rel = gap / max(residual_energy, error_energy)
        worst_final = max(worst_final, rel)
        assert gap <= 1e-9 * max(residual_energy, error_energy)
    print(f"criterion 3: worst step identity {worst_step:.3e}, "
          f"worst residual-vs-error gap {worst_final:.3e} (relative)")


def test_criterion_04_quality_rises_with_spike_budget(bank):
    """More extractions per segment never hurt, and help while error remains."""
    samples = fixed_test_signal()
    signal_energy = float(samples @ samples)
    snrs = []
    residuals = []
    for k in (1, 2, 4, 8, 16, 32, 64, 80):
        codes = enc.encode_stream(samples, bank, enc.EncoderConfig(sps=k))
        recon = decoder.reconstruct_from_codes(codes, bank, len(samples))
        snrs.append(decoder.snr_db(samples, recon))
        residuals.append(signal_energy - sum(c.s ** 2 for c in codes))
    print("criterion 4: snr by budget "
          + ", ".join(f"{snr:.3f}" for snr in snrs))
    for i in range(1, len(snrs)):
        assert snrs[i] >= snrs[i - 1], snrs
        if residuals[i - 1] >= 1e-12:
            assert snrs[i] > snrs[i - 1], snrs


def test_criterion_05_log_sweep_walks_the_bank(bank, channel_map):
    """A rising log sweep visits kernels in frequency order, one per segment."""
    rate = bank.sample_rate
    t = np.arange(int(5.0 * rate)) / rate
    samples = 0.5 * chirp(t, f0=bank.fmin, f1=bank.fmax, t1=5.0,
                          method="logarithmic")
    codes = enc.encode_stream(samples, bank, enc.EncoderConfig(sps=1))
    spikes = itp.codes_to_spikes(codes, channel_map, SEGMENT)
    segments = -(-len(samples) // SEGMENT)
    assert len(codes) == segments
    assert len(spikes) == segments
    assert sorted(c.segment_index for c in codes) == list(range(segments))
    rho = spearmanr([c.segment_index for c in codes],
                    [c.m for c in codes]).correlation
    print(f"criterion 5: rank correlation {rho:.4f} over {segments} segments")
    assert rho >= 0.95


def test_criterion_06_spike_rate_arithmetic(bank, channel_map):
    """Budget times segment rate fixes the spike rate on non-silent input."""
    rng = np.random.default_rng(106)
    samples = 0.3 * rng.uniform(-1, 1, 80000)
    seconds = len(samples) / bank.sample_rate
    rates = {}
    for sps, target, tol in ((16, 367.8, 1.0), (80, 1839.0, 5.0)):
        codes = enc.encode_stream(samples, bank, enc.EncoderConfig(sps=sps))
        spikes = itp.codes_to_spikes(codes, channel_map, SEGMENT)
        rates[sps] = len(spikes) / seconds
        assert abs(rates[sps] - target) <= tol, (sps, rates[sps])
    print(f"criterion 6: {rates[16]:.1f} spikes/s at budget 16, "
          f"{rates[80]:.1f} at budget 80")


def test_criterion_07_feedback_threshold_saves_spikes(bank, channel_map):
    """Threshold 0.01 silences quiet content and never adds spikes."""
    config = enc.EncoderConfig(sps=16, threshold=0.01)

    silence = enc.encode_stream(np.zeros(16000), bank, config)
    assert len(itp.codes_to_spikes(silence, channel_map, SEGMENT)) == 0

    weak = place_component(bank, 20, 100, 0.005)
    assert enc.encode_segment(weak, bank, config) == []

    rng = np.random.default_rng(107)
    inputs = [
        0.02 * rng.uniform(-1, 1, 16000),
        0.3 * rng.uniform(-1, 1, 16000),
        0.1 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000.0),
        fixed_test_signal(seconds=1.0),
    ]
    emitted = 0
    for samples in inputs:
        with_feedback = enc.encode_stream(samples, bank,
                                          enc.EncoderConfig(sps=16,
                                                            threshold=0.01))
        without = enc.encode_stream(samples, bank, enc.EncoderConfig(sps=16))
        assert all(abs(c.s) >= 0.01 for c in with_feedback)
        assert len(with_feedback) <= len(without)
        emitted += len(with_feedback)
    print(f"criterion 7: silence silent, weak segment silent, "
          f"{emitted} thresholded codes all at or above 0.01")


def test_criterion_08_quantizer_equals_brute_force(channel_map):
    """The comparator-chain quantizer is the argmin, everywhere."""
    rng = np.random.default_rng(108)
    levels = np.asarray(channel_map.levels)
    values = np.concatenate([
        rng.uniform(-30, 30, 9000),
        rng.uniform(-0.5, 0.5, 994),
        levels, -levels,
        (levels[:-1] + levels[1:]) / 2,
        [0.0],
    ])
    assert len(values) == 10003
    for value in values:
        got = itp.quantize_intensity(float(value), channel_map)
        assert got == brute_quantize(value, levels), value
    print(f"criterion 8: {len(values)} intensities, quantizer exact")


def test_criterion_09_integer_datapath_parity(bank):
    """The integer encoder tracks the float one; its primitives are exact."""
    result = fx.parity_harness(bank, segments=100, sps=16)
    for float_code, fixed_code in result.mismatches:
        line = (f"parity mismatch: float (m={float_code.m}, tau={float_code.tau}, "
                f"s={float_code.s:.9g}) vs fixed (m={fixed_code.m}, "
                f"tau={fixed_code.tau}, s={fixed_code.s:.9g}) "
                f"in segment {float_code.segment_index}")
        print(line)
        warnings.warn(line)
    print(f"criterion 9: parity {result.matched}/{result.total} "
          f"({100 * result.match_rate:.2f}%), "
          f"{len(result.energy_increases)} energy increases")
    assert result.total == 100 * 16
    assert result.match_rate >= 0.95

    # primitive ops against an unbounded-integer model, one million pairs each
    rng = np.random.default_rng(109)
    frac, raw_min, raw_max = fx.FRAC_BITS, fx.RAW_MIN, fx.RAW_MAX
    n = 1_000_000
    a = rng.integers(raw_min, raw_max + 1, n)
    b = rng.integers(raw_min, raw_max + 1, n)
    # salt in exact rounding ties: force low halves that put the product
    # remainder exactly on the half step
    a[:1000] = (np.arange(1000) - 500) * 2
    b[:1000] = 1 << 27

    wide = a.astype(object) * b.astype(object)
    q = wide >> frac
    rem = wide - (q << frac)
    half = 1 << (frac - 1)
    q = q + (rem > half) + ((rem == half) & (q % 2 == 1))
    want_mul = np.minimum(np.maximum(q, raw_min), raw_max)
    got_mul = fx.q_mul(a, b)
    mul_ok = int(np.sum(got_mul == want_mul))

    want_add = np.minimum(np.maximum(a.astype(object) + b.astype(object),
                                     raw_min), raw_max)
    got_add = fx.q_add(a, b)
    add_ok = int(np.sum(got_add == want_add))

    print(f"criterion 9: multiply {mul_ok}/{n} exact, add {add_ok}/{n} exact")
    assert mul_ok == n
    assert add_ok == n


def test_criterion_10_round_trips(bank, channel_map, tmp_path):
    """Files survive write-read-write byte for byte; spikes keep the code."""
    spikes = np.rec.fromarrays([[0, 3, 2188, 10 ** 7], [0, 119, 22, 64]],
                               dtype=itp.SPIKE_DTYPE)

    text_a, text_b = tmp_path / "a.txt", tmp_path / "b.txt"
    itp.write_aer_text(spikes, text_a)
    assert np.array_equal(itp.read_aer_text(text_a), spikes)
    itp.write_aer_text(itp.read_aer_text(text_a), text_b)
    assert text_a.read_bytes() == text_b.read_bytes()

    bin_a, bin_b = tmp_path / "a.spka", tmp_path / "b.spka"
    itp.write_aer_binary(spikes, bin_a, bank.sample_rate)
    back, rate, channels = itp.read_aer_binary(bin_a)
    assert np.array_equal(back, spikes)
    itp.write_aer_binary(back, bin_b, rate, channel_count=channels)
    assert bin_a.read_bytes() == bin_b.read_bytes()

    bank_a, bank_b = tmp_path / "a.spkb", tmp_path / "b.spkb"
    kernel_bank.save_bank(bank, bank_a)
    loaded = kernel_bank.load_bank(bank_a)
    np.testing.assert_array_equal(loaded.center_frequencies, bank.center_frequencies)
    np.testing.assert_array_equal(loaded.samples_matrix, bank.samples_matrix)
    kernel_bank.save_bank(loaded, bank_b)
    assert bank_a.read_bytes() == bank_b.read_bytes()

    rng = np.random.default_rng(110)
    codes = [enc.Code(m=int(rng.integers(40)), tau=int(rng.integers(0, 696)),
                      s=float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-2.5, 1.4)),
                      segment_index=int(rng.integers(20)))
             for _ in range(500)]
    through = itp.spikes_to_codes(
        itp.codes_to_spikes(codes, channel_map, SEGMENT), channel_map, SEGMENT)
    got = sorted((c.segment_index, c.tau, c.m,
                  itp.quantize_intensity(c.s, channel_map)) for c in through)
    want = sorted((c.segment_index, c.tau, c.m,
                   itp.quantize_intensity(c.s, channel_map)) for c in codes)
    assert got == want
    print("criterion 10: file and code round trips exact")
