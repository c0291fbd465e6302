"""Matching pursuit loop: correlation oracles, greedy selection, energy laws."""

import dataclasses
import os
import re
import tracemalloc

import numpy as np
import pytest

from spiketrum import decoder
from spiketrum import encoder as enc
from spiketrum import fixed_point as fx


def place_kernel(bank, m, start, scale):
    """Buffer containing scale * kernel m at the given circular slot."""
    buf = enc.SegmentBuffer(np.zeros(enc.FFT_SIZE))
    idx = (start + np.arange(bank.kernel_length)) % enc.FFT_SIZE
    buf.data[idx] += scale * bank.samples_matrix[m]
    return buf


def brute_correlate(data, kernel_samples):
    """Independent sliding-dot oracle built on np.correlate."""
    ext = np.concatenate([data, data[: len(kernel_samples) - 1]])
    return np.correlate(ext, kernel_samples, mode="valid")


class TestSegmentStream:
    """One zero-padded 2048-sample float64 window per segment, as array rows."""

    def test_exact_multiple(self):
        windows = enc.segment_stream(np.ones(1392), 696)
        assert windows.shape == (2, enc.FFT_SIZE) and windows.dtype == np.float64
        assert np.all(windows[:, :696] == 1.0) and np.all(windows[:, 696:] == 0.0)

    def test_padded_tail(self):
        windows = enc.segment_stream(np.ones(700), 696)
        assert windows.shape == (2, enc.FFT_SIZE)
        assert np.all(windows[1, :4] == 1.0)
        assert np.all(windows[1, 4:] == 0.0)

    def test_empty_input(self):
        assert enc.segment_stream(np.array([]), 696).shape == (0, enc.FFT_SIZE)

    def test_indices_and_content(self):
        samples = np.arange(1500, dtype=float)
        windows = enc.segment_stream(samples, 696)
        assert len(windows) == 3  # row i holds segment i
        np.testing.assert_array_equal(windows[0, :696], samples[:696])
        np.testing.assert_array_equal(windows[1, :696], samples[696:1392])
        np.testing.assert_array_equal(windows[2, :108], samples[1392:])
        assert np.all(windows[2, 108:] == 0.0) and np.all(windows[:, 696:] == 0.0)

    def test_rows_equal_single_buffers(self):
        samples = np.random.default_rng(43).uniform(-1, 1, 5 * 331 + 7)
        windows = enc.segment_stream(samples, 331)
        assert len(windows) == 6
        for i, row in enumerate(windows):
            buffer = enc.SegmentBuffer.from_samples(samples[331 * i:331 * (i + 1)], i)
            np.testing.assert_array_equal(row, buffer.data)

    def test_full_window_segments(self):
        samples = np.arange(2 * enc.FFT_SIZE + 1, dtype=float)
        windows = enc.segment_stream(samples, enc.FFT_SIZE)
        np.testing.assert_array_equal(windows.ravel()[:len(samples)], samples)
        assert np.all(windows[2, 1:] == 0.0)

    def test_bad_segment_length(self):
        with pytest.raises(ValueError, match=r"segment length 0 outside \[1, 2048\]"):
            enc.segment_stream(np.ones(10), 0)
        with pytest.raises(ValueError, match=r"segment length 5000 outside \[1, 2048\]"):
            enc.segment_stream(np.ones(10), 5000)


class TestCorrelate:
    """Rows of the batched (40, 2048) correlations, one row per kernel."""

    def test_direct_matches_brute_force(self, bank):
        rng = np.random.default_rng(10)
        buf = enc.SegmentBuffer(np.zeros(2048))
        buf.data[:696] = rng.uniform(-1, 1, 696)
        np.testing.assert_allclose(enc.correlate_all_direct(buf, bank)[13],
                                   brute_correlate(buf.data, bank.samples_matrix[13]),
                                   atol=1e-12)

    def test_impulse_sifts_kernel(self, bank):
        buf = enc.SegmentBuffer(np.zeros(2048))
        buf.data[0] = 1.0
        kernel = bank.samples_matrix[20]
        r = enc.correlate_all_direct(buf, bank)[20]
        # r[u] picks out kernel[(-u) mod 2048] where that index exists
        assert r[0] == kernel[0]
        assert r[2047] == kernel[1]
        assert r[2048 - 1352] == kernel[1352]
        assert r[2048 - 1353] == 0.0

    def test_placed_kernel_peaks_at_slot(self, bank):
        buf = place_kernel(bank, 7, 100, 1.0)
        r = enc.correlate_all_direct(buf, bank)[7]
        assert np.argmax(r) == 100
        assert abs(r[100] - 1.0) < 1e-9

    def test_zero_buffer(self, bank):
        buf = enc.SegmentBuffer(np.zeros(2048))
        assert np.all(enc.correlate_all_direct(buf, bank) == 0.0)
        assert np.all(enc.correlate_all_fft(buf, bank) == 0.0)

    def test_fft_equals_direct(self, bank):
        rng = np.random.default_rng(11)
        for _ in range(5):
            buf = enc.SegmentBuffer(np.zeros(2048))
            buf.data[:696] = rng.uniform(-1, 1, 696)
            diff = enc.correlate_all_fft(buf, bank) - enc.correlate_all_direct(buf, bank)
            assert np.max(np.abs(diff)) < 1e-9

    def test_batched_matches_single(self, bank):
        rng = np.random.default_rng(12)
        buf = enc.SegmentBuffer(np.zeros(2048))
        buf.data[:696] = rng.uniform(-1, 1, 696)
        all_direct = enc.correlate_all_direct(buf, bank)
        all_fft = enc.correlate_all_fft(buf, bank)
        assert all_direct.shape == all_fft.shape == (40, 2048)
        for m in (0, 9, 39):
            single = brute_correlate(buf.data, bank.samples_matrix[m])
            np.testing.assert_allclose(all_direct[m], single, atol=1e-12)
            np.testing.assert_allclose(all_fft[m], single, atol=1e-12)


class TestFindBestCode:
    def test_zero_input_tie_break(self):
        code = enc.find_best_code(np.zeros((40, 2048)), 3, 5)
        assert (code.m, code.tau, code.s) == (0, 0, 0.0)
        assert code.segment_index == 3 and code.iteration == 5

    def test_tie_prefers_smaller_kernel_then_lag(self):
        r = np.zeros((40, 2048))
        r[2, 5] = 1.0
        r[1, 7] = 1.0
        assert enc.find_best_code(r).m == 1
        r = np.zeros((40, 2048))
        r[4, 9] = -1.0
        r[4, 3] = 1.0
        code = enc.find_best_code(r)
        assert (code.m, code.tau) == (4, 3)

    def test_lag_wraps_to_negative(self):
        r = np.zeros((40, 2048))
        r[6, 2000] = 2.0
        assert enc.find_best_code(r).tau == 2000 - 2048
        r[6, 2000] = 0.0
        r[6, 1023] = 2.0
        assert enc.find_best_code(r).tau == 1023

    def test_sign_retained(self):
        r = np.zeros((40, 2048))
        r[8, 40] = -3.0
        assert enc.find_best_code(r).s == -3.0

    def test_recovers_placed_kernel(self, bank):
        buf = place_kernel(bank, 7, 100, 0.5)
        code = enc.find_best_code(enc.correlate_all_fft(buf, bank))
        assert (code.m, code.tau) == (7, 100)
        assert abs(code.s - 0.5) < 1e-6

    def test_larger_component_wins(self, bank):
        buf = place_kernel(bank, 3, 0, 0.8)
        idx = (300 + np.arange(bank.kernel_length)) % 2048
        buf.data[idx] += 0.2 * bank.samples_matrix[30]
        code = enc.find_best_code(enc.correlate_all_fft(buf, bank))
        assert code.m == 3

    def test_greedy_attains_brute_force_maximum(self, bank):
        rng = np.random.default_rng(13)
        for _ in range(3):
            buf = enc.SegmentBuffer(np.zeros(2048))
            buf.data[:696] = rng.uniform(-1, 1, 696)
            brute = np.stack([brute_correlate(buf.data, k)
                              for k in bank.samples_matrix])
            best = np.max(np.abs(brute))
            code = enc.find_best_code(enc.correlate_all_fft(buf, bank))
            assert abs(abs(code.s) - best) < 1e-9


class TestSubtractComponent:
    def test_exact_cancellation(self, bank):
        buf = place_kernel(bank, 5, 100, 0.7)
        enc.subtract_component(buf, bank.samples_matrix[5], 100, 0.7)
        assert float(buf.data @ buf.data) < 1e-12

    def test_zero_scale_is_noop(self, bank):
        rng = np.random.default_rng(14)
        buf = enc.SegmentBuffer(rng.uniform(-1, 1, 2048))
        before = buf.data.copy()
        enc.subtract_component(buf, bank.samples_matrix[0], 50, 0.0)
        np.testing.assert_array_equal(buf.data, before)

    def test_energy_identity_single_step(self, bank):
        rng = np.random.default_rng(15)
        buf = enc.SegmentBuffer(np.zeros(2048))
        buf.data[:696] = rng.uniform(-1, 1, 696)
        energy = float(buf.data @ buf.data)
        code = enc.find_best_code(enc.correlate_all_fft(buf, bank))
        enc.subtract_component(buf, bank.samples_matrix[code.m], code.tau, code.s)
        new_energy = float(buf.data @ buf.data)
        assert abs(new_energy - (energy - code.s ** 2)) <= 1e-9 * energy

    def test_negative_tau_wraps(self, bank):
        buf = place_kernel(bank, 9, -50 % 2048, 0.3)
        enc.subtract_component(buf, bank.samples_matrix[9], -50, 0.3)
        assert float(buf.data @ buf.data) < 1e-12

    def test_tau_out_of_range(self, bank):
        buf = enc.SegmentBuffer(np.zeros(2048))
        with pytest.raises(ValueError):
            enc.subtract_component(buf, bank.samples_matrix[0], 1500, 1.0)
        with pytest.raises(ValueError):
            enc.subtract_component(buf, bank.samples_matrix[0], -1025, 1.0)


class TestFeedback:
    def test_below_threshold_stops(self):
        assert enc.feedback_should_stop(enc.Code(0, 0, 0.005), 0.01)

    def test_above_threshold_continues(self):
        assert not enc.feedback_should_stop(enc.Code(0, 0, 0.5), 0.01)

    def test_zero_threshold_disables(self):
        assert not enc.feedback_should_stop(enc.Code(0, 0, 0.0), 0.0)


class TestEncodeSegment:
    def test_zero_buffer_with_threshold(self, bank):
        buf = enc.SegmentBuffer(np.zeros(2048))
        config = enc.EncoderConfig(sps=16, threshold=0.01)
        assert enc.encode_segment(buf, bank, config) == []

    def test_fixed_config_is_an_error(self, bank):
        # this path would run the float pursuit and ignore the format
        buf = enc.SegmentBuffer.from_samples(np.random.default_rng(3).uniform(-1, 1, 696))
        before = buf.data.copy()
        with pytest.raises(ValueError, match="fixed_point.encode_segment_fixed"):
            enc.encode_segment(buf, bank, enc.EncoderConfig(sps=3, fixed=(5, 28)))
        np.testing.assert_array_equal(buf.data, before)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("path", ["fft", "direct"])
    def test_non_finite_sample_rejected(self, bank, value, path):
        # the index is the one within the buffer, whatever its segment
        samples = np.random.default_rng(3).uniform(-1, 1, 696)
        samples[10] = value
        buf = enc.SegmentBuffer.from_samples(samples, 7)
        with pytest.raises(ValueError,
                           match=re.escape(f"non-finite sample {value} at index 10")):
            enc.encode_segment(buf, bank, enc.EncoderConfig(sps=3, path=path))
        np.testing.assert_array_equal(buf.data[:696], samples)

    def test_single_component_recovery(self, bank):
        buf = place_kernel(bank, 7, 100, 0.5)
        codes = enc.encode_segment(buf, bank, enc.EncoderConfig(sps=1))
        assert len(codes) == 1
        assert (codes[0].m, codes[0].tau) == (7, 100)
        assert abs(codes[0].s - 0.5) < 1e-6

    def test_full_budget_on_noise(self, bank):
        rng = np.random.default_rng(16)
        buf = enc.SegmentBuffer.from_samples(rng.uniform(-1, 1, 696))
        codes = enc.encode_segment(buf, bank, enc.EncoderConfig(sps=16))
        assert len(codes) == 16
        assert [c.iteration for c in codes] == list(range(16))

    def test_all_codes_clear_threshold(self, bank):
        rng = np.random.default_rng(17)
        buf = enc.SegmentBuffer.from_samples(0.05 * rng.uniform(-1, 1, 696))
        config = enc.EncoderConfig(sps=64, threshold=0.01)
        codes = enc.encode_segment(buf, bank, config)
        assert codes, "expected some codes above threshold"
        assert all(abs(c.s) >= 0.01 for c in codes)

    def test_residual_energy_decreases(self, bank):
        rng = np.random.default_rng(18)
        samples = rng.uniform(-1, 1, 696)
        energies = []
        for sps in (1, 4, 16):
            buf = enc.SegmentBuffer.from_samples(samples)
            enc.encode_segment(buf, bank, enc.EncoderConfig(sps=sps))
            energies.append(float(buf.data @ buf.data))
        assert energies[0] > energies[1] > energies[2]

    def test_window_reconstruction_identity(self, bank):
        rng = np.random.default_rng(19)
        buf = enc.SegmentBuffer.from_samples(rng.uniform(-1, 1, 696))
        original = buf.data.copy()
        codes = enc.encode_segment(buf, bank, enc.EncoderConfig(sps=16))
        rebuilt = decoder.reconstruct_segment_window(codes, bank) + buf.data
        np.testing.assert_allclose(rebuilt, original, atol=1e-9)

    def test_direct_and_fft_paths_agree(self, bank):
        rng = np.random.default_rng(20)
        samples = rng.uniform(-1, 1, 696)
        out = {}
        for path in ("direct", "fft"):
            buf = enc.SegmentBuffer.from_samples(samples)
            out[path] = enc.encode_segment(buf, bank,
                                           enc.EncoderConfig(sps=8, path=path))
        assert [(c.m, c.tau) for c in out["direct"]] == \
            [(c.m, c.tau) for c in out["fft"]]


def full_recompute(buffer, bank, config):
    """The unpruned FFT pursuit loop: every kernel row recomputed every iteration."""
    codes = []
    for iteration in range(config.sps):
        code = enc.find_best_code(enc.correlate_all_fft(buffer, bank),
                                  buffer.segment_index, iteration)
        if enc.feedback_should_stop(code, config.threshold):
            break
        enc.subtract_component(buffer, bank.samples_matrix[code.m], code.tau, code.s)
        codes.append(code)
    return codes


class TestPrunedRefresh:
    """The bound-pruned FFT loop against the full recompute, bit for bit."""

    def test_peak_bound_is_sound(self, bank):
        spectra = bank.conj_spectra
        for m in range(bank.kernel_count):
            cross = np.fft.irfft(np.conj(spectra[m]) * spectra, n=enc.FFT_SIZE, axis=1)
            assert np.all(bank.peak_bound[m] >= np.max(np.abs(cross), axis=1))

    def assert_parity(self, bank, samples, config, segment_index=0):
        pruned = enc.SegmentBuffer.from_samples(samples, segment_index)
        full = enc.SegmentBuffer.from_samples(samples, segment_index)
        codes = enc.encode_segment(pruned, bank, config)
        assert codes == full_recompute(full, bank, config)
        np.testing.assert_array_equal(pruned.data, full.data)
        return codes

    def test_white_noise_sps_256(self, bank):
        rng = np.random.default_rng(30)
        for index in range(3):
            codes = self.assert_parity(bank, rng.uniform(-1, 1, 696),
                                       enc.EncoderConfig(sps=256), index)
            assert len(codes) == 256

    def test_two_tones_sps_64(self, bank):
        rng = np.random.default_rng(31)
        t = np.arange(696) / 16000.0
        for index in range(4):
            f1, f2 = rng.uniform(60.0, 7000.0, 2)
            tones = 0.4 * np.sin(2 * np.pi * f1 * t) + 0.1 * np.cos(2 * np.pi * f2 * t)
            self.assert_parity(bank, tones, enc.EncoderConfig(sps=64), index)

    def test_zero_buffer_ties_to_first_row_and_lag(self, bank):
        codes = self.assert_parity(bank, np.zeros(696), enc.EncoderConfig(sps=4))
        assert [(c.m, c.tau, c.s) for c in codes] == [(0, 0, 0.0)] * 4

    def test_zero_budget(self, bank):
        samples = np.random.default_rng(32).uniform(-1, 1, 696)
        assert self.assert_parity(bank, samples, enc.EncoderConfig(sps=0)) == []

    def test_feedback_stop(self, bank):
        samples = 0.05 * np.random.default_rng(33).uniform(-1, 1, 696)
        codes = self.assert_parity(bank, samples,
                                   enc.EncoderConfig(sps=64, threshold=0.07))
        assert 0 < len(codes) < 64

    def test_refreshes_fewer_rows_than_full_recompute(self, bank, monkeypatch):
        rows = []
        original = enc.correlate_all_fft

        def counting(buffer, bank, chunk=slice(None), *args):
            rows.append(np.size(np.arange(bank.kernel_count)[chunk]))
            return original(buffer, bank, chunk, *args)

        monkeypatch.setattr(enc, "correlate_all_fft", counting)
        samples = np.random.default_rng(34).uniform(-1, 1, 696)
        buf = enc.SegmentBuffer.from_samples(samples)
        enc.encode_segment(buf, bank, enc.EncoderConfig(sps=64))
        assert sum(rows) < 0.5 * 64 * bank.kernel_count


def mixed_segments():
    """Eight segments that leave a pursuit under threshold 0.1 at different
    iterations: silence at iteration 0, noise at the full budget, tones between."""
    rng = np.random.default_rng(40)
    t = np.arange(696) / 16000.0
    return [np.zeros(696), rng.uniform(-1, 1, 696), 0.3 * np.sin(2 * np.pi * 440 * t),
            0.1 * np.sin(2 * np.pi * 1230 * t) + 0.05 * np.cos(2 * np.pi * 210 * t),
            np.zeros(696), 0.5 * rng.uniform(-1, 1, 696),
            0.15 * np.sin(2 * np.pi * 3000 * t), 0.06 * np.sin(2 * np.pi * 800 * t)]


def stream_segments(samples, bank, config, encode_segment):
    """Codes of a stream pursued one segment at a time."""
    seg = bank.segment_length
    return [code for start in range(0, len(samples), seg) for code in encode_segment(
        enc.SegmentBuffer.from_samples(samples[start:start + seg], start // seg), bank, config)]


class TestBlockPursuit:
    """Segments pursued in lockstep give the codes they give alone, bit for bit."""

    def test_mixed_block_matches_each_segment_alone(self, bank):
        config = enc.EncoderConfig(sps=32, threshold=0.1)
        segments = mixed_segments()
        windows = enc.segment_stream(np.concatenate(segments), 696)
        codes = enc._encode_block(windows, 3, bank, config)  # segments 3 to 10
        assert {len(c) for c in codes} >= {0, 32} and len({len(c) for c in codes}) >= 4
        for i, samples in enumerate(segments):
            alone = enc.SegmentBuffer.from_samples(samples, 3 + i)
            full = enc.SegmentBuffer.from_samples(samples, 3 + i)
            assert codes[i] == enc.encode_segment(alone, bank, config)
            assert codes[i] == full_recompute(full, bank, config)
            np.testing.assert_array_equal(windows[i], alone.data)
            np.testing.assert_array_equal(windows[i], full.data)

    def test_direct_block_pursues_each_row_in_place(self, bank):
        config = enc.EncoderConfig(sps=4, threshold=0.1, path="direct")
        segments = mixed_segments()[:4]
        windows = enc.segment_stream(np.concatenate(segments), 696)
        codes = enc._encode_block(windows, 5, bank, config)
        for i, samples in enumerate(segments):
            alone = enc.SegmentBuffer.from_samples(samples, 5 + i)
            assert codes[i] == enc._encode_segment_direct(alone, bank, config)
            np.testing.assert_array_equal(windows[i], alone.data)

    @pytest.mark.parametrize("count", [1, enc._BLOCK - 1, enc._BLOCK, enc._BLOCK + 1,
                                       2 * enc._BLOCK + 1])
    def test_stream_of_blocks(self, bank, count):
        rng = np.random.default_rng(41)
        samples = 0.4 * rng.uniform(-1, 1, count * 696 - 300)
        config = enc.EncoderConfig(sps=6, threshold=0.05)
        assert enc.encode_stream(samples, bank, config) == \
            stream_segments(samples, bank, config, enc.encode_segment)

    def test_thread_counts_give_identical_codes(self, bank, monkeypatch):
        samples = np.concatenate(mixed_segments() * 3)[:-100]
        config = enc.EncoderConfig(sps=8, threshold=0.1)
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("SPIKETRUM_THREADS", threads)
            runs.append(enc.encode_stream(samples, bank, config))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0] == stream_segments(samples, bank, config, enc.encode_segment)

    @pytest.mark.parametrize("fixed", [None, (5, 28)])
    def test_workspace_does_not_grow_with_segments(self, bank, monkeypatch, fixed):
        # Traced allocations at the peak, beyond the output codes: within
        # 64 KB for 8 and 512 segments, since each block cuts its own
        # windows, and below the (block, 40, 2048) float64 rows a block's
        # first iteration would need if its refresh were not chunked.
        monkeypatch.setenv("SPIKETRUM_THREADS", "1")
        config = enc.EncoderConfig(sps=16, fixed=fixed)
        rng = np.random.default_rng(42)
        enc.encode_stream(rng.uniform(-1, 1, 2000), bank, config)  # fill lazy tables
        beyond = {}
        for count in (8, 512):
            samples = rng.uniform(-1, 1, count * 696)
            tracemalloc.start()
            try:
                codes = enc.encode_stream(samples, bank, config)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(codes) == 16 * count
            beyond[count] = peak - current
        rows = enc._BLOCK * bank.kernel_count * enc.FFT_SIZE * 8
        assert abs(beyond[512] - beyond[8]) < 64 * 1024, beyond
        assert beyond[512] < rows, beyond


class TestEncodeStream:
    def test_five_second_code_budget(self, bank):
        rng = np.random.default_rng(21)
        samples = 0.3 * rng.uniform(-1, 1, 5 * 16000)
        codes = enc.encode_stream(samples, bank, enc.EncoderConfig(sps=16))
        assert len(codes) == 115 * 16

    def test_empty_stream(self, bank):
        assert enc.encode_stream(np.array([]), bank, enc.EncoderConfig()) == []

    def test_segment_independence(self, bank):
        rng = np.random.default_rng(22)
        segment = rng.uniform(-1, 1, 696)
        codes = enc.encode_stream(np.tile(segment, 2), bank,
                                  enc.EncoderConfig(sps=4))
        first, second = codes[:4], codes[4:]
        assert [(c.m, c.tau, c.s) for c in first] == \
            [(c.m, c.tau, c.s) for c in second]
        assert {c.segment_index for c in second} == {1}

    def test_deterministic(self, bank):
        rng = np.random.default_rng(23)
        samples = rng.uniform(-1, 1, 2000)
        config = enc.EncoderConfig(sps=8)
        assert enc.encode_stream(samples, bank, config) == \
            enc.encode_stream(samples, bank, config)

    def test_thread_count_does_not_change_output(self, bank, monkeypatch):
        rng = np.random.default_rng(24)
        samples = rng.uniform(-1, 1, 4000)
        config = enc.EncoderConfig(sps=6)
        monkeypatch.setenv("SPIKETRUM_THREADS", "1")
        serial = enc.encode_stream(samples, bank, config)
        monkeypatch.setenv("SPIKETRUM_THREADS", "3")
        assert enc.encode_stream(samples, bank, config) == serial

    def test_default_thread_count_is_one_per_cpu(self, monkeypatch):
        monkeypatch.delenv("SPIKETRUM_THREADS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            assert enc._worker_count() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert enc._worker_count() == os.cpu_count()

    def test_non_finite_sample_rejected_on_both_datapaths(self, bank):
        samples = np.zeros(1000)
        samples[5] = np.nan
        samples[700] = np.inf
        for config in (enc.EncoderConfig(), enc.EncoderConfig(fixed=(5, 28))):
            with pytest.raises(ValueError, match="non-finite sample nan at index 5"):
                enc.encode_stream(samples, bank, config)

    def test_fixed_rejects_samples_outside_the_format(self, bank):
        for value in (100.0, 1e300, -32.5):
            samples = np.zeros(1000)
            samples[800] = value
            message = f"sample {value} at index 800 outside the Q5.28 range " \
                "[-32.0, 31.99999999627471]"
            with pytest.raises(ValueError, match=re.escape(message)):
                enc.encode_stream(samples, bank, enc.EncoderConfig(fixed=(5, 28)))

    def test_fixed_accepts_the_format_extremes(self, bank):
        samples = np.zeros(1000)
        samples[3] = 32.0 - 2.0 ** -28
        samples[900] = -32.0
        codes = enc.encode_stream(samples, bank, enc.EncoderConfig(sps=2, fixed=(5, 28)))
        assert len(codes) == 4

    def test_fixed_rejects_a_threshold_outside_the_format(self, bank):
        samples = np.random.default_rng(25).uniform(-31.9, 31.9, 1000)
        message = "threshold 100.0 outside the Q5.28 range [-32.0, 31.99999999627471]"
        with pytest.raises(ValueError, match=re.escape(message)):
            enc.encode_stream(samples, bank,
                              enc.EncoderConfig(sps=4, threshold=100.0, fixed=(5, 28)))

    @pytest.mark.parametrize("fixed", [None, (5, 28)])
    def test_input_check_allocates_nothing(self, bank, monkeypatch, fixed):
        # five minutes of samples: a check that built one boolean mask of
        # the input would alone take 4.8 MB
        monkeypatch.setenv("SPIKETRUM_THREADS", "1")
        config = enc.EncoderConfig(sps=0, fixed=fixed)
        samples = np.random.default_rng(28).uniform(-1, 1, 300 * 16000)
        enc.encode_stream(samples[:2000], bank, config)  # fill lazy tables
        tracemalloc.start()
        try:
            assert enc.encode_stream(samples, bank, config) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6, peak

    def test_fixed_saturation_flag(self, bank):
        rng = np.random.default_rng(26)
        config = enc.EncoderConfig(sps=4, fixed=(5, 28))
        quiet, loud = fx.SaturationFlag(), fx.SaturationFlag()
        enc.encode_stream(rng.uniform(-1, 1, 1000), bank, config, quiet)
        enc.encode_stream(rng.uniform(-31.9, 31.9, 1000), bank, config, loud)
        assert not quiet and loud

    def test_saturation_flag_needs_the_fixed_datapath(self, bank):
        with pytest.raises(ValueError, match="saturation flag needs the fixed-point"):
            enc.encode_stream(np.ones(100), bank, enc.EncoderConfig(), fx.SaturationFlag())

    def test_float_path_takes_large_samples(self, bank):
        samples = np.zeros(1000)
        samples[800] = 100.0
        codes = enc.encode_stream(samples, bank, enc.EncoderConfig(sps=1))
        assert abs(codes[1].s) > 32.0

    def test_bad_thread_env(self, bank, monkeypatch):
        monkeypatch.setenv("SPIKETRUM_THREADS", "lots")
        with pytest.raises(ValueError):
            enc.encode_stream(np.ones(100), bank, enc.EncoderConfig())


class TestEncoderConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            enc.EncoderConfig(sps=-1)
        with pytest.raises(ValueError):
            enc.EncoderConfig(sps=4096)
        with pytest.raises(ValueError):
            enc.EncoderConfig(threshold=-0.1)
        with pytest.raises(ValueError):
            enc.EncoderConfig(path="walsh")

    def test_fixed_takes_no_path_but_the_default(self):
        # the integer datapath has its own correlation: "direct" would be inert
        with pytest.raises(ValueError, match="path 'direct' does not apply with fixed"):
            enc.EncoderConfig(path="direct", fixed=(5, 28))
        assert enc.EncoderConfig(path="fft", fixed=(5, 28)).path == "fft"

    def test_frozen_so_every_change_is_checked(self):
        config = enc.EncoderConfig(sps=4, fixed=(5, 28))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.threshold = 100.0
        assert config.threshold == 0.0
        message = "threshold 100.0 outside the Q5.28 range [-32.0, 31.99999999627471]"
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(config, threshold=100.0)
        assert dataclasses.replace(config, threshold=0.5).threshold == 0.5


class TestCodesCsv:
    def test_round_trip(self, bank, tmp_path):
        rng = np.random.default_rng(25)
        samples = rng.uniform(-1, 1, 1500)
        codes = enc.encode_stream(samples, bank, enc.EncoderConfig(sps=5))
        path = tmp_path / "codes.csv"
        enc.write_codes_csv(codes, path)
        loaded = enc.read_codes_csv(path)
        assert len(loaded) == len(codes)
        for a, b in zip(codes, loaded):
            assert (a.m, a.tau, a.segment_index, a.iteration) == \
                (b.m, b.tau, b.segment_index, b.iteration)
            assert b.s == pytest.approx(a.s, rel=1e-8)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            enc.read_codes_csv(path)
