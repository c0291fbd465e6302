"""Integer datapath: quantization, saturating primitives, exact correlation.

The reference model here is deliberately separate from the production code:
plain Python integers, unbounded width, floor divmod and an explicit
ties-to-even rule. Every primitive is checked against it.
"""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from spiketrum import encoder
from spiketrum import fixed_point as fx
from spiketrum.encoder import MAX_SHIFT, Code, EncoderConfig, SegmentBuffer
from spiketrum.kernel_bank import FFT_SIZE


def model_round(value, fmt):
    """Unbounded-integer round-to-nearest-even of value / 2**frac_bits."""
    q, rem = divmod(value, 1 << fmt.frac_bits)
    half = 1 << (fmt.frac_bits - 1)
    if rem > half or (rem == half and q & 1):
        q += 1
    return max(fmt.raw_min, min(fmt.raw_max, q))


def model_mul(a, b, fmt):
    return model_round(int(a) * int(b), fmt)


Q20_13 = fx.QFormat(20, 13)


class TestQFormat:
    def test_default_properties(self):
        fmt = fx.Q5_28
        assert (fmt.int_bits, fmt.frac_bits) == (5, 28)
        assert fmt.scale == 2 ** 28
        assert fmt.raw_max == 2 ** 33 - 1
        assert fmt.raw_min == -(2 ** 33)
        assert str(fmt) == "Q5.28"

    def test_width_must_total_34(self):
        with pytest.raises(ValueError):
            fx.QFormat(5, 29)
        with pytest.raises(ValueError):
            fx.QFormat(4, 28)
        with pytest.raises(ValueError):
            fx.QFormat(-1, 34)
        with pytest.raises(ValueError):
            fx.QFormat(33, 0)

    def test_parse(self):
        assert fx.parse_qformat("Q5.28") == fx.Q5_28
        assert fx.parse_qformat("Q20.13") == Q20_13
        for bad in ("5.28", "Q5", "Q5.28.1", "Qx.y", "Q5.29"):
            with pytest.raises(ValueError):
                fx.parse_qformat(bad)


class TestToFixed:
    def test_examples(self):
        assert fx.to_fixed(0.0) == 0
        assert fx.to_fixed(1.0) == 2 ** 28
        assert fx.to_fixed(-1.0) == -(2 ** 28)
        assert fx.to_fixed(2.0 ** -28) == 1

    def test_round_half_to_even(self):
        assert fx.to_fixed(1.5 * 2.0 ** -28) == 2
        assert fx.to_fixed(2.5 * 2.0 ** -28) == 2
        assert fx.to_fixed(-1.5 * 2.0 ** -28) == -2

    def test_saturation_sets_flag(self):
        # the primitives saturate without reporting it: only the value shows
        assert fx.to_fixed(40.0) == 2 ** 33 - 1
        assert fx.to_fixed(-40.0) == -(2 ** 33)
        np.testing.assert_array_equal(fx.to_fixed(np.array([1e30, -np.inf, 31.9])),
                                      [2 ** 33 - 1, -(2 ** 33), fx.to_fixed(31.9)])

    def test_round_trip_identity_on_grid(self):
        raw = np.arange(-1000, 1000, dtype=np.int64)
        np.testing.assert_array_equal(fx.to_fixed(fx.to_float(raw)), raw)

    def test_scalar_returns_int(self):
        assert isinstance(fx.to_fixed(0.5), int)
        assert isinstance(fx.to_float(1), float)


class TestQAdd:
    def test_exact_in_range(self):
        assert fx.q_add(fx.to_fixed(0.25), fx.to_fixed(0.5)) == fx.to_fixed(0.75)

    def test_saturates_and_flags(self):
        # saturation is reported by the value alone
        big = fx.to_fixed(31.0)
        assert fx.q_add(big, big) == 2 ** 33 - 1
        assert fx.q_add(-big, -big) == -(2 ** 33)
        assert fx.q_add(big, -big) == 0

    def test_vectorized(self):
        rng = np.random.default_rng(50)
        a = rng.integers(-(2 ** 32), 2 ** 32, 1000)
        b = rng.integers(-(2 ** 32), 2 ** 32, 1000)
        got = fx.q_add(a, b)
        want = np.clip(a + b, fx.Q5_28.raw_min, fx.Q5_28.raw_max)
        np.testing.assert_array_equal(got, want)


class TestQMul:
    def test_unit_identity(self):
        one = fx.to_fixed(1.0)
        assert fx.q_mul(one, one) == one
        assert fx.q_mul(fx.to_fixed(0.5), fx.to_fixed(0.5)) == fx.to_fixed(0.25)

    def test_sign_combinations(self):
        half = fx.to_fixed(0.5)
        assert fx.q_mul(-half, half) == fx.to_fixed(-0.25)
        assert fx.q_mul(-half, -half) == fx.to_fixed(0.25)

    def test_tie_rounds_to_even(self):
        # raw product 3 * 2**27 sits exactly between output integers 1 and 2
        assert fx.q_mul(3, 2 ** 27) == 2
        # and 1 * 2**27 between 0 and 1; the even side is 0
        assert fx.q_mul(1, 2 ** 27) == 0

    def test_saturates_and_flags(self):
        # saturation is reported by the value alone
        big = fx.to_fixed(30.0)
        assert fx.q_mul(big, big) == 2 ** 33 - 1
        assert fx.q_mul(-big, big) == -(2 ** 33)

    def test_matches_model_q5_28(self):
        rng = np.random.default_rng(51)
        a = rng.integers(fx.Q5_28.raw_min, fx.Q5_28.raw_max + 1, 20000)
        b = rng.integers(fx.Q5_28.raw_min, fx.Q5_28.raw_max + 1, 20000)
        got = fx.q_mul(a, b)
        for i in range(len(a)):
            assert got[i] == model_mul(a[i], b[i], fx.Q5_28), (a[i], b[i])

    def test_matches_model_low_frac_format(self):
        # frac_bits < 17 exercises the other half of the combine step
        rng = np.random.default_rng(52)
        a = rng.integers(Q20_13.raw_min, Q20_13.raw_max + 1, 20000)
        b = rng.integers(Q20_13.raw_min, Q20_13.raw_max + 1, 20000)
        got = fx.q_mul(a, b, Q20_13)
        for i in range(len(a)):
            assert got[i] == model_mul(a[i], b[i], Q20_13), (a[i], b[i])

    def test_near_tie_neighborhood(self):
        # sweep raw products around every multiple of 2**27 near zero
        for k in range(-8, 9):
            for eps in (-1, 0, 1):
                a = k * 2 ** 27 + eps
                assert fx.q_mul(a, 1) == model_mul(a, 1, fx.Q5_28)


class TestCorrelateFixed:
    """Rows of the exact matrix-route correlation, one row per kernel."""

    def test_matches_bigint_accumulator(self, bank):
        rng = np.random.default_rng(53)
        buf = SegmentBuffer.from_samples(rng.uniform(-1, 1, 696))
        raw_data = fx.to_fixed(buf.data)
        r = fx._correlate_raw_gemm(raw_data, fx._tables_for(bank, fx.Q5_28),
                                   fx.Q5_28)[13]
        raw_kernel = fx.to_fixed(bank.samples_matrix[13])
        length = len(raw_kernel)
        for u in range(0, FFT_SIZE, 137):
            acc = sum(int(raw_data[(u + t) % FFT_SIZE]) * int(raw_kernel[t])
                      for t in range(length))
            assert r[u] == model_round(acc, fx.Q5_28), u

    def test_zero_data(self, bank):
        raw = np.zeros(2048, dtype=np.int64)
        r = fx._correlate_raw_gemm(raw, fx._tables_for(bank, fx.Q5_28), fx.Q5_28)
        assert r.shape == (40, 2048)
        assert np.all(r == 0)


def screen_of(raw, tables, rows=slice(None)):
    """The float64 screen of raw in the given rows, zeros elsewhere."""
    count = tables.kernel_raw.shape[0]
    chunk = np.arange(count)[rows]
    out = np.zeros((count, FFT_SIZE))
    prod = np.empty((len(chunk), FFT_SIZE // 2 + 1), dtype=complex)
    out[chunk] = fx._correlate_raw_fft(np.fft.rfft(raw.astype(np.float64)), tables,
                                       fx.Q5_28, chunk, prod,
                                       np.empty((len(chunk), FFT_SIZE)))
    return out


def screen_delta(raw, tables):
    """The screen's error bound for a buffer of raw values."""
    data = raw.astype(np.float64)
    return fx._SCREEN_ERROR * np.sqrt(data @ data) * tables.kernel_norm


def exact_rows(exact):
    """An exact_row callback of _exact_peak that reads a table of exact values."""
    return lambda n, lags: exact[n, lags]


def exact_peaks(screen, delta, exact):
    """_exact_peak over every row of screen, the cut and delta of the pursuit."""
    rows = len(screen)
    return fx._exact_peak(screen, np.full(rows, 1.0 + 2.0 * delta), np.full(rows, delta),
                          exact_rows(exact))


def assert_exact_peaks(screen, delta, exact):
    """Every row's exact peak, first lag and value are those of the exact table,
    and the smallest row at the largest one is the exact table's winner."""
    peak, lag, value = exact_peaks(screen, delta, exact)
    np.testing.assert_array_equal(peak, np.max(np.abs(screen), axis=1))
    first = np.argmax(np.abs(exact), axis=1)
    np.testing.assert_array_equal(lag, first)
    np.testing.assert_array_equal(value, exact[np.arange(len(exact)), first])
    m, u = divmod(int(np.argmax(np.abs(exact))), FFT_SIZE)
    n = int(np.argmax(np.abs(value)))
    assert (n, lag[n], value[n]) == (m, u, exact[m, u])


def assert_screen_rounds_to_gemm(raw, tables):
    """The FFT route (screen, rounded or recomputed) gives the GEMM route's values."""
    screen = screen_of(raw, tables)
    exact = fx._correlate_raw_gemm(raw, tables, fx.Q5_28)
    delta = screen_delta(raw, tables)
    assert 0.0 < delta < 0.4
    assert np.max(np.abs(screen - exact)) <= 0.5 + delta
    # away from a rounding boundary the screen rounds to the exact value
    clear = np.abs(screen - np.rint(screen)) < 0.5 - delta
    np.testing.assert_array_equal(np.rint(screen)[clear], exact[clear])
    # and the peak taken from it in every row is the GEMM route's
    assert_exact_peaks(screen, delta, exact)


class TestDualRoute:
    def test_fft_route_equals_gemm_route(self, bank):
        rng = np.random.default_rng(54)
        tables = fx._tables_for(bank, fx.Q5_28)
        for amplitude in (1.0, 8.0, 30.0):
            raw = fx.to_fixed(
                np.pad(amplitude * rng.uniform(-1, 1, 696), (0, 2048 - 696)))
            assert_screen_rounds_to_gemm(raw, tables)

    def test_saturated_input_still_exact(self, bank):
        # raw values pinned at the format limits stress the largest products
        tables = fx._tables_for(bank, fx.Q5_28)
        raw = np.zeros(2048, dtype=np.int64)
        raw[:696:2] = fx.Q5_28.raw_max
        raw[1:696:2] = fx.Q5_28.raw_min
        assert_screen_rounds_to_gemm(raw, tables)


class TestScreen:
    """The float64 screen and the exact values taken from it."""

    def test_a_band_matches_the_full_screen(self, bank):
        rng = np.random.default_rng(67)
        tables = fx._tables_for(bank, fx.Q5_28)
        raw = fx.to_fixed(np.pad(rng.uniform(-1, 1, 696), (0, 2048 - 696)))
        full = screen_of(raw, tables)
        band = slice(11, 17)
        out = screen_of(raw, tables, band)
        np.testing.assert_array_equal(out[band], full[band])
        assert not out[:11].any() and not out[17:].any()

    def test_a_chunk_of_pairs_matches_each_buffer_alone(self, bank):
        # a chunk mixes (segment, row) pairs: one spectrum per entry
        rng = np.random.default_rng(69)
        tables = fx._tables_for(bank, fx.Q5_28)
        raws = [fx.to_fixed(np.pad(a * rng.uniform(-1, 1, 696), (0, 2048 - 696)))
                for a in (0.3, 1.0, 30.0)]
        segments = np.array([2, 0, 1, 0, 2])
        rows = np.array([39, 3, 3, 17, 0])
        spectra = np.fft.rfft(np.array(raws, dtype=np.float64), axis=1)[segments]
        out = fx._correlate_raw_fft(spectra, tables, fx.Q5_28, rows,
                                    np.empty((5, FFT_SIZE // 2 + 1), dtype=complex),
                                    np.empty((5, FFT_SIZE)))
        for j, (segment, row) in enumerate(zip(segments, rows)):
            np.testing.assert_array_equal(out[j], screen_of(raws[segment], tables)[row])

    def test_screens_near_a_rounding_boundary_take_the_exact_values(self, bank):
        # every screen moved to within delta of a half-integer, on the side
        # that rounds away from the exact value: only the recompute is right
        rng = np.random.default_rng(68)
        tables = fx._tables_for(bank, fx.Q5_28)
        raw = fx.to_fixed(np.pad(rng.uniform(-1, 1, 696), (0, 2048 - 696)))
        exact = fx._correlate_raw_gemm(raw, tables, fx.Q5_28)
        delta = screen_delta(raw, tables)
        m, u = divmod(int(np.argmax(np.abs(exact))), FFT_SIZE)
        for offset in (0.5 + 0.5 * delta, 0.5 - 0.5 * delta):
            screen = exact + np.where(exact < 0, -offset, offset)
            assert_exact_peaks(screen, delta, exact)

    def test_exact_ties_go_to_the_first_row_and_lag(self):
        # the exact values tie at 1000 over two rows and several lags, and the
        # screens of the later row and lags lie higher (all within half a unit)
        exact = np.zeros((4, FFT_SIZE))
        exact[1, [700, 50, 900]] = [1000, -1000, 999]
        exact[2, 10] = 1000
        screen = exact.copy()
        screen[1, [700, 50, 900]] = [999.8, -999.6, 999.4]
        screen[2, 10] = 1000.3
        _, lag, value = exact_peaks(screen, 0.0, exact)
        assert (lag[1], value[1]) == (50, -1000) and (lag[2], value[2]) == (10, 1000)
        assert int(np.argmax(np.abs(value))) == 1
        assert_exact_peaks(screen, 0.0, exact)
        # a chunk without row 1: row 2 holds the largest value
        _, lag, value = exact_peaks(screen[[0, 2, 3]], 0.0, exact[[0, 2, 3]])
        assert int(np.argmax(np.abs(value))) == 1 and (lag[1], value[1]) == (10, 1000)


class TestEncodeSegmentFixed:
    @pytest.mark.parametrize("value, message", [
        (np.nan, "non-finite sample nan at index 10"),
        (np.inf, "non-finite sample inf at index 10"),
        (-np.inf, "non-finite sample -inf at index 10"),
        (100.0, "sample 100.0 at index 10 outside the Q5.28 range "
                "[-32.0, 31.99999999627471]"),
        (-32.5, "sample -32.5 at index 10 outside the Q5.28 range "
                "[-32.0, 31.99999999627471]")])
    def test_bad_samples_rejected(self, bank, value, message):
        # the index is the one within the buffer, whatever its segment
        samples = np.random.default_rng(3).uniform(-1, 1, 696)
        samples[10] = value
        buf = SegmentBuffer.from_samples(samples, 7)
        with pytest.raises(ValueError, match=re.escape(message)):
            fx.encode_segment_fixed(buf, bank, EncoderConfig(sps=4, fixed=(5, 28)))
        np.testing.assert_array_equal(buf.data[:696], samples)

    def test_non_finite_sample_reported_first(self, bank):
        samples = np.zeros(696)
        samples[[3, 10]] = [100.0, np.nan]
        with pytest.raises(ValueError, match="non-finite sample nan at index 10"):
            fx.encode_segment_fixed(SegmentBuffer.from_samples(samples), bank,
                                    EncoderConfig(sps=4, fixed=(5, 28)))

    def test_direct_call_checks_the_threshold(self, bank):
        samples = np.random.default_rng(59).uniform(-31.9, 31.9, 696)
        message = "threshold 100.0 outside the Q5.28 range [-32.0, 31.99999999627471]"
        with pytest.raises(ValueError, match=re.escape(message)):
            fx.encode_segment_fixed(SegmentBuffer.from_samples(samples), bank,
                                    EncoderConfig(sps=4, threshold=100.0, fixed=(5, 28)))

    def test_float_config_is_an_error(self, bank):
        # without config.fixed there is no format: no silent Q5.28, whose
        # range this threshold is outside
        samples = np.random.default_rng(59).uniform(-31.9, 31.9, 696)
        with pytest.raises(ValueError, match=re.escape("needs a format (config.fixed)")):
            fx.encode_segment_fixed(SegmentBuffer.from_samples(samples), bank,
                                    EncoderConfig(sps=4, threshold=100.0))

    def test_zero_buffer_with_threshold(self, bank):
        buf = SegmentBuffer(np.zeros(2048))
        config = EncoderConfig(sps=16, threshold=0.01, fixed=(5, 28))
        assert fx.encode_segment_fixed(buf, bank, config) == []

    def test_recovers_placed_component(self, bank):
        buf = SegmentBuffer(np.zeros(2048))
        idx = (100 + np.arange(bank.kernel_length)) % 2048
        buf.data[idx] += 0.5 * bank.samples_matrix[7]
        config = EncoderConfig(sps=1, fixed=(5, 28))
        codes = fx.encode_segment_fixed(buf, bank, config)
        assert len(codes) == 1
        assert (codes[0].m, codes[0].tau) == (7, 100)
        assert abs(codes[0].s - 0.5) < 2 ** -20

    def test_buffer_holds_quantized_residual(self, bank):
        rng = np.random.default_rng(55)
        buf = SegmentBuffer.from_samples(rng.uniform(-1, 1, 696))
        config = EncoderConfig(sps=4, fixed=(5, 28))
        fx.encode_segment_fixed(buf, bank, config)
        scaled = buf.data * fx.Q5_28.scale
        np.testing.assert_array_equal(scaled, np.rint(scaled))

    def test_energy_trace_net_decrease(self, bank):
        rng = np.random.default_rng(56)
        buf = SegmentBuffer.from_samples(rng.uniform(-1, 1, 696))
        config = EncoderConfig(sps=8, fixed=(5, 28))
        (codes,), (trace,) = step_fixed(buf.data[None], 0, bank, config)
        assert len(trace) == len(codes) + 1
        assert trace[-1] < trace[0]

    def test_saturation_flag_clear_in_range(self, bank):
        rng = np.random.default_rng(58)
        flag = fx.SaturationFlag()
        fx.encode_segment_fixed(SegmentBuffer.from_samples(rng.uniform(-1, 1, 696)),
                                bank, EncoderConfig(sps=16, fixed=(5, 28)), flag=flag)
        assert not flag

    def test_saturation_flag_on_a_clipped_subtraction(self, bank):
        # seven full-scale impulses: no correlation reaches the format's
        # limit, but a subtraction pushes a sample past it
        samples = np.zeros(696)
        samples[[300, 301, 304, 305, 306, 310, 324]] = [-31.9] + [31.9] * 6
        config = EncoderConfig(sps=2, fixed=(5, 28))
        _, clips = full_recompute_fixed(SegmentBuffer.from_samples(samples), bank, config)
        flag = fx.SaturationFlag()
        codes = fx.encode_segment_fixed(SegmentBuffer.from_samples(samples), bank,
                                        config, flag=flag)
        assert clips > 0
        assert all(abs(c.s) < 31.9 for c in codes)
        assert flag

    def test_saturation_flag_on_a_saturated_correlation(self, bank):
        # 40 times a unit-norm kernel correlates to 40, past Q5.28's top,
        # while its samples and the subtraction stay far inside the range
        buf = SegmentBuffer(np.zeros(2048))
        buf.data[100:100 + bank.kernel_length] = 40.0 * bank.samples_matrix[7]
        assert np.max(np.abs(buf.data)) < 16.0
        flag = fx.SaturationFlag()
        codes = fx.encode_segment_fixed(buf, bank, EncoderConfig(sps=1, fixed=(5, 28)),
                                        flag=flag)
        assert fx.to_fixed(codes[0].s) in (fx.Q5_28.raw_min, fx.Q5_28.raw_max)
        assert flag

    def test_iteration_numbers(self, bank):
        rng = np.random.default_rng(57)
        buf = SegmentBuffer.from_samples(rng.uniform(-1, 1, 696))
        config = EncoderConfig(sps=5, fixed=(5, 28))
        codes = fx.encode_segment_fixed(buf, bank, config)
        assert [c.iteration for c in codes] == list(range(5))


def full_recompute_fixed(buffer, bank, config):
    """The unpruned fixed loop: every kernel row recomputed every iteration.

    Returns the codes and the number of subtractions that clipped the
    residual or the product.
    """
    fmt = fx.QFormat(*config.fixed)
    tables = fx._tables_for(bank, fmt)
    raw = fx.to_fixed(buffer.data, fmt)
    threshold_raw = fx.to_fixed(config.threshold, fmt)
    offsets = np.arange(bank.kernel_length)
    codes = []
    clips = 0
    for iteration in range(config.sps):
        r = fx._correlate_raw_gemm(raw, tables, fmt)
        m, u = divmod(int(np.argmax(np.abs(r))), FFT_SIZE)
        s_raw = int(r[m, u])
        if abs(s_raw) < threshold_raw:
            break
        tau = u if u < MAX_SHIFT else u - FFT_SIZE
        codes.append(Code(m, tau, fx.to_float(s_raw, fmt),
                          buffer.segment_index, iteration))
        idx = (u + offsets) % FFT_SIZE
        product = fx.q_mul(s_raw, tables.kernel_raw[m], fmt)
        update = raw[idx] - product
        clips += bool(np.any((product != fx._rounded_product(s_raw, tables.kernel_raw[m], fmt))
                             | (update < fmt.raw_min) | (update > fmt.raw_max)))
        raw[idx] = np.clip(update, fmt.raw_min, fmt.raw_max)
    buffer.data[:] = fx.to_float(raw, fmt)
    return codes, clips


def step_fixed(windows, first, bank, config):
    """_encode_block_fixed one code at a time, config.sps times: the codes per
    window, renumbered, and each window's residual energy before the first
    step and after each of its codes. The windows end up as the residuals.
    """
    one_code = dataclasses.replace(config, sps=1)
    windows[:] = fx.to_float(fx.to_fixed(windows))
    codes, traces = [[] for _ in windows], [[float(x @ x)] for x in windows]
    for iteration in range(config.sps):
        for j, got in enumerate(fx._encode_block_fixed(windows, first, bank, one_code)):
            codes[j] += [dataclasses.replace(c, iteration=iteration) for c in got]
            traces[j] += [float(windows[j] @ windows[j])] * len(got)
    return codes, traces


def record_candidates(monkeypatch):
    """Record how many candidate lags each refreshed row takes, in refresh order."""
    sizes = []
    original = fx._exact_peak

    def recording(screen, cut, *args):
        mag = np.abs(screen)
        peak = mag.max(axis=1)
        sizes.extend(np.count_nonzero(mag >= (peak - cut)[:, None], axis=1).tolist())
        return original(screen, cut, *args)

    monkeypatch.setattr(fx, "_exact_peak", recording)
    return sizes


class TestPrunedRefreshFixed:
    """The bound-pruned fixed loop against the full recompute, bit for bit."""

    def assert_parity(self, bank, samples, config, segment_index=0):
        pruned = SegmentBuffer.from_samples(samples, segment_index)
        full = SegmentBuffer.from_samples(samples, segment_index)
        codes = fx.encode_segment_fixed(pruned, bank, config)
        want, clips = full_recompute_fixed(full, bank, config)
        assert codes == want
        np.testing.assert_array_equal(pruned.data, full.data)
        return codes, clips

    def test_white_noise_sps_256(self, bank):
        rng = np.random.default_rng(60)
        for index in range(2):
            codes, _ = self.assert_parity(bank, rng.uniform(-1, 1, 696),
                                          EncoderConfig(sps=256, fixed=(5, 28)), index)
            assert len(codes) == 256

    def test_two_tones_sps_64(self, bank):
        rng = np.random.default_rng(61)
        t = np.arange(696) / 16000.0
        for index in range(4):
            f1, f2 = rng.uniform(60.0, 7000.0, 2)
            tones = 0.4 * np.sin(2 * np.pi * f1 * t) + 0.1 * np.cos(2 * np.pi * f2 * t)
            self.assert_parity(bank, tones, EncoderConfig(sps=64, fixed=(5, 28)), index)

    def test_silence_ties_to_first_row_and_lag(self, bank, monkeypatch):
        sizes = record_candidates(monkeypatch)
        codes, _ = self.assert_parity(bank, np.zeros(696),
                                      EncoderConfig(sps=4, fixed=(5, 28)))
        assert [(c.m, c.tau, c.s) for c in codes] == [(0, 0, 0.0)] * 4
        # every row is refreshed in each of the four iterations, with every lag
        assert sizes == [FFT_SIZE] * (4 * bank.kernel_count)

    def test_exact_ties_over_several_lags(self, bank, monkeypatch):
        # A buffer repeating with period 341 correlates to the same integer at
        # six lags of its best row, and for these seeds a later one of those
        # lags has the largest screen, so only a candidate window finds the
        # first. At full scale the ties sit at the format's limits.
        sizes = record_candidates(monkeypatch)
        inputs = [0.5 * np.random.default_rng(seed).uniform(-1, 1, 341) for seed in (0, 1)]
        inputs.append(31.9 * np.sign(inputs[0]))
        for index, samples in enumerate(inputs):
            sizes.clear()
            buffer = SegmentBuffer(np.resize(samples, FFT_SIZE), index)
            pruned = SegmentBuffer(buffer.data.copy(), index)
            config = EncoderConfig(sps=4, fixed=(5, 28))
            want, _ = full_recompute_fixed(buffer, bank, config)
            assert fx.encode_segment_fixed(pruned, bank, config) == want
            np.testing.assert_array_equal(pruned.data, buffer.data)
            # the first iteration refreshes every row: the best one holds the ties
            assert max(sizes[:bank.kernel_count]) >= 6

    def test_zero_budget(self, bank):
        samples = np.random.default_rng(62).uniform(-1, 1, 696)
        codes, _ = self.assert_parity(bank, samples, EncoderConfig(sps=0, fixed=(5, 28)))
        assert codes == []

    def test_feedback_stop(self, bank):
        samples = 0.05 * np.random.default_rng(63).uniform(-1, 1, 696)
        codes, _ = self.assert_parity(
            bank, samples, EncoderConfig(sps=64, threshold=0.07, fixed=(5, 28)))
        assert 0 < len(codes) < 64

    def test_full_scale_reaches_the_clip_fallback(self, bank):
        # full-scale noise, and full-scale square waves whose codes the loop
        # gets wrong if a clipped subtraction only raises the bounds as usual
        rng = np.random.default_rng(64)
        t = np.arange(696) / 16000.0
        inputs = [rng.uniform(-31.9, 31.9, 696) for _ in range(2)]
        inputs += [31.9 * np.sign(np.sin(2 * np.pi * f * t + phase))
                   for f, phase in ((2806.1, 1.98), (2918.2, 0.11), (3682.4, 0.45))]
        for index, samples in enumerate(inputs):
            _, clips = self.assert_parity(bank, samples,
                                          EncoderConfig(sps=16, fixed=(5, 28)), index)
            assert clips > 0

    def test_quantized_peak_bound_is_sound(self, bank):
        tables = fx._tables_for(bank, fx.Q5_28)
        spectra = np.fft.rfft(tables.kernel_raw / fx.Q5_28.scale, n=FFT_SIZE, axis=1)
        for m in range(bank.kernel_count):
            cross = np.fft.irfft(spectra[m] * np.conj(spectra), n=FFT_SIZE, axis=1)
            assert np.all(tables.bank.peak_bound[m] >= np.max(np.abs(cross), axis=1))

    def test_step_bounds_the_change_of_every_row(self, bank):
        # Over all 1600 kernel pairs (m, n): subtracting a product within half
        # a unit of s times kernel m moves row n by at most the step, both for
        # q_mul's own rounding and for the worst rounding of exact ties.
        fmt = fx.Q5_28
        tables = fx._tables_for(bank, fmt)
        rng = np.random.default_rng(65)
        raw = fx.to_fixed(np.pad(0.5 * rng.uniform(-1, 1, 696), (0, FFT_SIZE - 696)))
        before = fx._correlate_raw_gemm(raw, tables, fmt)
        offsets = np.arange(bank.kernel_length)
        # s = 0.5: s_raw times an odd tap lies exactly between two integers,
        # so either neighbour is a valid product there
        tie_s_raw = 1 << (fmt.frac_bits - 1)
        for m in range(bank.kernel_count):
            idx = (int(rng.integers(FFT_SIZE)) + offsets) % FFT_SIZE
            s_raw = int(rng.integers(-8 * fmt.scale, 8 * fmt.scale))
            after_raw = raw.copy()
            after_raw[idx] -= fx.q_mul(s_raw, tables.kernel_raw[m], fmt)
            change = np.abs(fx._correlate_raw_gemm(after_raw, tables, fmt) - before)
            assert np.all(change.max(axis=1) <= fx._peak_step(tables, m, s_raw)), m

            exact = tie_s_raw * tables.kernel_raw[m]
            low = exact >> fmt.frac_bits
            tie = (exact & (fmt.scale - 1)) != 0
            step = fx._peak_step(tables, m, tie_s_raw)
            for n in range(bank.kernel_count):
                # round every tie so that it adds to row n's change at the shared lag
                kernel_n = tables.kernel_raw[n]
                direction = np.sign(int(tables.kernel_raw[m] @ kernel_n)) or 1
                after_raw = raw.copy()
                after_raw[idx] -= low + (tie & (direction * kernel_n > 0))
                row = fx._correlate_raw_gemm(after_raw, tables, fmt, slice(n, n + 1))
                assert np.max(np.abs(row[0] - before[n])) <= step[n], (m, n)

    def test_refreshes_fewer_than_half_the_rows(self, bank, monkeypatch):
        rows = []
        original = fx._correlate_raw_fft

        def counting(spectrum, tables, fmt, chunk, prod, out):
            rows.append(len(chunk))
            return original(spectrum, tables, fmt, chunk, prod, out)

        monkeypatch.setattr(fx, "_correlate_raw_fft", counting)
        samples = np.random.default_rng(66).uniform(-1, 1, 696)
        fx.encode_segment_fixed(SegmentBuffer.from_samples(samples), bank,
                                EncoderConfig(sps=64, fixed=(5, 28)))
        assert sum(rows) < 0.5 * 64 * bank.kernel_count


class TestBlockPursuitFixed:
    """Segments pursued in lockstep give the codes they give alone, bit for bit."""

    def segments(self):
        # under threshold 0.2 these leave an 8-code pursuit at different
        # iterations: silence at 0, noise at the full budget, a quiet tone between
        rng = np.random.default_rng(70)
        t = np.arange(696) / 16000.0
        return [np.zeros(696), rng.uniform(-1, 1, 696), 0.3 * np.sin(2 * np.pi * 440 * t),
                rng.uniform(-31.9, 31.9, 696), np.zeros(696),
                0.15 * np.sin(2 * np.pi * 3000 * t), 0.06 * np.sin(2 * np.pi * 800 * t)]

    def test_mixed_block_matches_each_segment_alone(self, bank):
        config = EncoderConfig(sps=8, threshold=0.2, fixed=(5, 28))
        segments = self.segments()
        windows = encoder.segment_stream(np.concatenate(segments), 696)
        flag = fx.SaturationFlag()
        codes = fx._encode_block_fixed(windows, 4, bank, config, flag)  # segments 4-10
        assert {len(c) for c in codes} == {0, 5, 8}
        assert flag  # the full-scale noise clips
        for i, samples in enumerate(segments):
            alone = SegmentBuffer.from_samples(samples, 4 + i)
            full = SegmentBuffer.from_samples(samples, 4 + i)
            own = fx.SaturationFlag()
            assert codes[i] == fx.encode_segment_fixed(alone, bank, config, own)
            assert codes[i] == full_recompute_fixed(full, bank, config)[0]
            np.testing.assert_array_equal(windows[i], alone.data)
            np.testing.assert_array_equal(windows[i], full.data)
            assert bool(own) == (i == 3)

    def test_stepping_one_code_at_a_time_matches_one_call(self, bank):
        # the engine keeps no state between calls beyond the residuals, so
        # energies can be read between steps (as parity_harness does)
        config = EncoderConfig(sps=8, threshold=0.2, fixed=(5, 28))
        windows = encoder.segment_stream(np.concatenate(self.segments()), 696)
        stepped = windows.copy()
        codes = fx._encode_block_fixed(windows, 4, bank, config)
        steps, traces = step_fixed(stepped, 4, bank, config)
        assert steps == codes
        np.testing.assert_array_equal(stepped, windows)
        assert [len(trace) for trace in traces] == [len(c) + 1 for c in codes]

    @pytest.mark.parametrize("sps", [1, 2])
    def test_saturated_products_in_a_mixed_block(self, bank, sps):
        # Six times the bank: kernel 30 placed at amplitude 5 correlates to 30,
        # inside Q5.28, but 30 times the scaled kernel's largest tap (1.9)
        # saturates the product, while the residual stays in range. At sps 1
        # only the product check can flag the loud segment.
        loud = dataclasses.replace(bank, samples_matrix=6 * bank.samples_matrix)
        rng = np.random.default_rng(72)
        quiet = [np.pad(a * rng.uniform(-1, 1, 696), (0, FFT_SIZE - 696)) for a in (0.01, 0.02)]
        placed = np.zeros(FFT_SIZE)
        placed[200:200 + bank.kernel_length] = 5 * bank.samples_matrix[30]
        segments = [quiet[0], placed, quiet[1]]
        config = EncoderConfig(sps=sps, fixed=(5, 28))
        windows = np.array(segments)
        flag = fx.SaturationFlag()
        codes = fx._encode_block_fixed(windows, 0, loud, config, flag)
        assert (codes[1][0].m, codes[1][0].tau, codes[1][0].s) == (30, 200, 30.0)
        assert flag
        for i, x in enumerate(segments):
            alone, full = SegmentBuffer(x.copy(), i), SegmentBuffer(x.copy(), i)
            own = fx.SaturationFlag()
            assert codes[i] == fx.encode_segment_fixed(alone, loud, config, flag=own)
            want, clips = full_recompute_fixed(full, loud, config)
            assert codes[i] == want
            np.testing.assert_array_equal(windows[i], alone.data)
            np.testing.assert_array_equal(windows[i], full.data)
            assert bool(own) == (clips > 0) == (i == 1)

    @pytest.mark.parametrize("count", [1, encoder._BLOCK - 1, encoder._BLOCK,
                                       encoder._BLOCK + 1, 2 * encoder._BLOCK + 1])
    def test_stream_of_blocks(self, bank, count):
        rng = np.random.default_rng(71)
        samples = 0.4 * rng.uniform(-1, 1, count * 696 - 300)
        config = EncoderConfig(sps=4, threshold=0.05, fixed=(5, 28))
        per_segment = [code for start in range(0, len(samples), 696)
                       for code in fx.encode_segment_fixed(SegmentBuffer.from_samples(
                           samples[start:start + 696], start // 696), bank, config)]
        assert encoder.encode_stream(samples, bank, config) == per_segment

    def test_thread_counts_give_identical_codes(self, bank, monkeypatch):
        samples = np.concatenate(self.segments() * 3)[:-100]
        config = EncoderConfig(sps=4, threshold=0.2, fixed=(5, 28))
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("SPIKETRUM_THREADS", threads)
            flag = fx.SaturationFlag()
            runs.append((encoder.encode_stream(samples, bank, config, flag), bool(flag)))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][1]


class TestParityHarness:
    def test_smoke_high_match_rate(self, bank):
        result = fx.parity_harness(bank, segments=5)
        assert result.total == 5 * 16
        assert result.match_rate >= 0.95
        assert result.matched + len(result.mismatches) == result.total


def lcg_uniform(seed, count):
    """count values in [0, 1) from a 64-bit LCG: the same on every platform."""
    state, out = seed, []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        out.append(state >> 11)
    return np.array(out, dtype=np.float64) / 2.0 ** 53


def tones(index):
    """Eight harmonics of a 110 + 37 * index Hz tone, on a 2**-16 grid."""
    t = np.arange(696) / 16000.0
    f0 = 110.0 + 37.0 * index
    x = sum(0.3 / h * np.sin(2 * np.pi * h * f0 * t + 0.5 * h) for h in range(1, 9))
    # the coarse grid keeps a last-bit difference in sin from changing the input
    return np.round(x * 2.0 ** 16) / 2.0 ** 16


def square(f, phase):
    """Full-scale square wave from exactly rounded arithmetic only."""
    return 31.9 * np.where((np.arange(696) * (f / 8000.0) + phase) % 2.0 < 1.0, 1.0, -1.0)


# (inputs, sps, threshold) -> sha256 of the codes (m, tau, s_raw) and of the
# raw residuals, as little-endian int64
GOLDEN = {
    "tones_sps16": (
        lambda: [tones(i) for i in range(3)], 16, 0.01,
        "b4f94e2097a5c117ab27f8d70a7b8552004448c5b9ade19d0e7f01e79418c445",
        "a7582d5b302f8eb46128717daa19ebe86143083d66365c9c0cf08a8440892f7d"),
    "tones_sps64": (
        lambda: [tones(i) for i in range(3)], 64, 0.0,
        "93da5effce6fade35861867b1557819fbc1fcaef343876fa8265df39b910ce0b",
        "a1ba5e858218031b96ff4dc8760fbadffc5bc564cbb63c7ee82c3291425bcaa4"),
    "silence": (
        lambda: [np.zeros(696)], 16, 0.0,
        "a1a4f5721c1c4610af7f71078f3a68c330536d679803b0e0507ee8dc10c5dfca",
        "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe"),
    "noise_full_scale": (
        lambda: [31.9 * (2.0 * lcg_uniform(seed, 696) - 1.0) for seed in (1, 2)], 16, 0.0,
        "cffe6de4ce6a786100891ed5770b92a8162984becbcc662e03226f2b0f958130",
        "1d656f040070308587a6bd9fbced0803675d902a88d19400aeae2353845b8d0d"),
    "square_full_scale": (
        lambda: [square(2806.1, 0.63)], 16, 0.0,
        "6c99445e589de978e389760c6954daa0b0585f042bae4a9b76175657a1c9b590",
        "6b85be3a40fdcd4b481039455fe0915203a09b5d2a2a6ade1592b65a06ff8172"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(bank, name):
    """The integer datapath is exact, so its outputs are pinned bit for bit.

    They must not depend on the platform or the numpy version (the float
    datapath is not pinned: its last bits may vary between FFT builds).
    """
    make_inputs, sps, threshold, codes_digest, residual_digest = GOLDEN[name]
    config = EncoderConfig(sps=sps, threshold=threshold, fixed=(5, 28))
    codes_hash, residual_hash = hashlib.sha256(), hashlib.sha256()
    for index, samples in enumerate(make_inputs()):
        buffer = SegmentBuffer.from_samples(samples, index)
        codes = fx.encode_segment_fixed(buffer, bank, config)
        table = [(c.m, c.tau, fx.to_fixed(c.s)) for c in codes]
        codes_hash.update(np.array(table, dtype="<i8").tobytes())
        residual_hash.update(fx.to_fixed(buffer.data).astype("<i8").tobytes())
    assert (codes_hash.hexdigest(), residual_hash.hexdigest()) == \
        (codes_digest, residual_digest)
