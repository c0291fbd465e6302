"""34-bit fixed-point datapath emulation for the encoder.

Values live in a signed 34-bit Q format (default Q5.28): raw integers in
[-2**33, 2**33 - 1] representing raw / 2**frac_bits. Primitive operations
compute exact wide-integer results, round once to the format's fractional
precision (round to nearest, ties to even), and saturate at the format
bounds without reporting it: the encode entries reject samples outside
the range, so only the pursuit can saturate (SaturationFlag). The fixed
encoding loop mirrors the float loop with every correlation lag
accumulated exactly in a wide accumulator and rounded once, the
subtraction products rounded elementwise, and all comparisons done on
raw integers. Splitting 34-bit operands at bit 17 keeps partial
products below 2**50 and 1353-tap correlation partials below 2**46, exact
in int64 and in float64 matrix products.

The quantized kernels k_q = kernel_raw / 2**frac_bits are a KernelBank of
their own, so the loop screens each row with the float engine
(encoder.correlate_all_fft on that bank) in raw units, S = irfft(rfft(raw)
* conj(rfft(k_q))), clipped to the format, within delta = _SCREEN_ERROR *
||raw||_2 * max ||k_q||_2 of the exact value before rounding. Higham,
Accuracy and Stability of Numerical Algorithms (2nd ed., SIAM 2002), ch.
24, bounds a length-2048 FFT's relative error by about 11 * (1 + 4 *
sqrt(2)) * 2**-53 = 8e-15; through three transforms, a product and the
norm inequalities that gives a worst case just under 1e-12, the value
_SCREEN_ERROR takes (measured: at most 6e-17, amplitudes 1e-4 to 31.9).
For unit-norm kernels delta_max, the delta of 2048 samples at the
format's limit, is below 0.4.

Rounding moves a value by at most half a unit and clipping never widens a
difference, so every exact integer lies within 0.5 + delta of its screen.
A row's exact maximum therefore sits only at lags whose |screen| is
within 1 + 2 * delta of the row's peak screen, and every other lag rounds
below it. Such a candidate's screen rounds to its exact integer unless it
lies within delta of a half-integer; then the row's candidates are
computed exactly (_correlate_raw_gemm, also the tests' oracle). Each
chunk of the lockstep refresh is reduced this way to every pair's exact
peak, its first lag and value (_exact_peak). The winner is the smallest
row at the largest exact |value|, then its first lag.

Blocks of segments are pursued in lockstep with the float loop's
bookkeeping (encoder._RowBounds), with cut 1 + 2 * delta per segment.
After a code (m, tau, s_raw) row n's bound rises by
|s_raw| * B_q[m, n] + 0.5 * ||k_q,n||_1 + 1 + 2 * delta_max: B_q bounds
the quantized kernels' cross-correlation peaks, the L1 term the q_mul
product's rounding, the rest the screen's error before and after and the
exact values' rounding. Clipping only shrinks differences; a subtraction
whose product or residual clips is no longer s times a kernel, so its
step is +inf (a product clips where its saturated value differs from the
rounded one). Codes and residual are bit-identical to an exact full
recompute of each segment alone.
"""

from __future__ import annotations

import dataclasses
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .encoder import (EncoderConfig, _check_samples, _circular_windows, _emit,
                      _encode_block, _RowBounds, correlate_all_fft, segment_stream)
from .kernel_bank import FFT_SIZE, KernelBank

_WIDTH = 34
_SPLIT = 17  # low-half width for the bit-17 operand split
_SPLIT_MASK = (1 << _SPLIT) - 1

# Screen error bound relative to ||raw||_2 * max ||k_q||_2 (module docstring)
_SCREEN_ERROR = 1e-12


@dataclass(frozen=True)
class QFormat:
    """Signed 34-bit fixed-point format: 1 sign + int_bits + frac_bits."""

    int_bits: int = 5
    frac_bits: int = 28

    def __post_init__(self):
        if self.int_bits < 0 or self.frac_bits < 1:
            raise ValueError(
                f"invalid Q{self.int_bits}.{self.frac_bits}: need int_bits >= 0 "
                f"and frac_bits >= 1")
        if 1 + self.int_bits + self.frac_bits != _WIDTH:
            raise ValueError(
                f"Q{self.int_bits}.{self.frac_bits} is not a {_WIDTH}-bit format")

    @property
    def raw_max(self):
        return (1 << (_WIDTH - 1)) - 1

    @property
    def raw_min(self):
        return -(1 << (_WIDTH - 1))

    @property
    def scale(self):
        return 1 << self.frac_bits

    def __str__(self):
        return f"Q{self.int_bits}.{self.frac_bits}"


Q5_28 = QFormat(5, 28)


def parse_qformat(text):
    """Parse a format string like "Q5.28"."""
    if not text.startswith(("Q", "q")) or "." not in text:
        raise ValueError(f"bad fixed-point format {text!r}, expected Q<I>.<F>")
    int_part, _, frac_part = text[1:].partition(".")
    try:
        return QFormat(int(int_part), int(frac_part))
    except ValueError as exc:
        raise ValueError(f"bad fixed-point format {text!r}: {exc}") from exc


class SaturationFlag:
    """Sticky status bit set whenever the fixed pursuit saturates."""

    __slots__ = ("seen",)

    def __init__(self):
        self.seen = False

    def __bool__(self):
        return self.seen


def _as_result(raw, scalar):
    return int(raw) if scalar else raw


def to_fixed(x, fmt=Q5_28):
    """Quantize real values to raw integers: round to nearest even, saturate."""
    scalar = np.ndim(x) == 0
    scaled = np.rint(np.asarray(x, dtype=np.float64) * fmt.scale)
    # clip in float first; the bounds are exactly representable in float64
    raw = np.clip(scaled, fmt.raw_min, fmt.raw_max).astype(np.int64)
    return _as_result(raw, scalar)


def to_float(raw, fmt=Q5_28):
    """Exact real value of raw integers."""
    scalar = np.ndim(raw) == 0
    values = np.asarray(raw, dtype=np.float64) / fmt.scale
    return float(values) if scalar else values


def q_add(a, b, fmt=Q5_28):
    """Saturating add; exact whenever the sum is in range."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    total = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
    return _as_result(np.clip(total, fmt.raw_min, fmt.raw_max), scalar)


def _rne_combine(m, r0, fmt):
    """Round V = m * 2**17 + r0 (0 <= r0 < 2**17) to fmt's precision, ties
    to even, without saturating.

    The split avoids materializing V, which can exceed int64 for 34x34-bit
    products. A result out of the format's range stays out of it (never
    wrapped back in), so saturating the result afterwards is exact.
    """
    frac = fmt.frac_bits
    if frac >= _SPLIT:
        shift = frac - _SPLIT
        q = m >> shift
        rem = ((m & ((1 << shift) - 1)) << _SPLIT) | r0
    else:
        # |V| <= (raw_max + 1) * 2**frac requires |m| < 2**33; anything
        # clamped here saturates regardless, and the clamp keeps the sign
        m = np.clip(m, -(1 << 40), 1 << 40)
        q = (m << (_SPLIT - frac)) + (r0 >> frac)
        rem = r0 & ((1 << frac) - 1)
    half = 1 << (frac - 1)
    return q + (rem > half) + ((rem == half) & ((q & 1) == 1))


def _rounded_product(a, b, fmt):
    """Exact wide product of raw integers, rounded once to fmt, not saturated.

    Vectorized over int64 by splitting b at bit 17; both partial products
    stay below 2**50 so the arithmetic never overflows.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    p_lo = a * (b & _SPLIT_MASK)
    m = a * (b >> _SPLIT) + (p_lo >> _SPLIT)
    return _rne_combine(m, p_lo & _SPLIT_MASK, fmt)


def q_mul(a, b, fmt=Q5_28):
    """Saturating multiply: exact wide product, one rounding to fmt."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    product = np.clip(_rounded_product(a, b, fmt), fmt.raw_min, fmt.raw_max)
    return _as_result(product, scalar)


@dataclass(eq=False)
class _FixedTables:
    """Per-bank, per-format caches for the integer correlation."""

    kernel_raw: np.ndarray          # (kernels, L) int64
    bank: KernelBank                # the quantized kernels, kernel_raw / 2**frac_bits
    gemm_hi: np.ndarray = field(init=False)     # (L, kernels) float64, high halves
    gemm_lo: np.ndarray = field(init=False)     # (L, kernels) float64, low halves
    kernel_norm: float = field(init=False)      # largest L2 norm of the quantized kernels
    step_floor: np.ndarray = field(init=False)  # (kernels,) _peak_step at s_raw = 0

    def __post_init__(self):
        self.gemm_hi = np.ascontiguousarray((self.kernel_raw >> _SPLIT).T, dtype=np.float64)
        self.gemm_lo = np.ascontiguousarray((self.kernel_raw & _SPLIT_MASK).T,
                                            dtype=np.float64)
        self.kernel_norm = float(np.sqrt(np.max(np.diag(self.bank.peak_bound))))
        largest = 2.0 ** (_WIDTH - 1) * np.sqrt(FFT_SIZE)  # ||raw||_2 at the format's limit
        delta_max = _SCREEN_ERROR * largest * self.kernel_norm
        kernel_l1 = np.abs(self.bank.samples_matrix).sum(axis=1)
        self.step_floor = 0.5 * kernel_l1 + (1.0 + 2.0 * delta_max)


_tables_lock = threading.Lock()
_tables_cache = weakref.WeakKeyDictionary()


def _tables_for(bank, fmt):
    with _tables_lock:
        per_bank = _tables_cache.setdefault(bank, {})
        tables = per_bank.get(fmt)
        if tables is None:
            kernel_raw = to_fixed(bank.samples_matrix, fmt)
            # exact: |kernel_raw| < 2**53
            quantized = dataclasses.replace(bank, samples_matrix=kernel_raw / fmt.scale)
            tables = per_bank[fmt] = _FixedTables(kernel_raw, quantized)
        return tables


def _correlate_raw_gemm(raw_data, tables, fmt, rows=slice(None), lags=slice(None)):
    """Exact integer correlation of the selected rows at the selected lags.

    Float64 products of split halves are integer-exact (module docstring);
    the accumulator p_hh * 2**34 + p_x * 2**17 + p_ll, regrouped as
    m * 2**17 + r0 with every term below 2**60 in int64, is rounded once.
    """
    length = tables.bank.kernel_length
    gemm_hi, gemm_lo = tables.gemm_hi[:, rows], tables.gemm_lo[:, rows]
    w_hi = _circular_windows((raw_data >> _SPLIT).astype(np.float64), length, lags)
    w_lo = _circular_windows((raw_data & _SPLIT_MASK).astype(np.float64), length, lags)
    p_hh = (w_hi @ gemm_hi).astype(np.int64).T
    p_x = ((w_hi @ gemm_lo) + (w_lo @ gemm_hi)).astype(np.int64).T
    p_ll = (w_lo @ gemm_lo).astype(np.int64).T
    m = (p_hh << _SPLIT) + p_x + (p_ll >> _SPLIT)
    return np.clip(_rne_combine(m, p_ll & _SPLIT_MASK, fmt), fmt.raw_min, fmt.raw_max)


def _correlate_raw_fft(spectrum, tables, fmt, rows, prod, out):
    """Screen a chunk of rows of the integer correlation into out (module docstring).

    spectrum is rfft(raw), one per entry of the index array rows or one
    for all of them; prod and out are workspaces as for
    encoder.correlate_all_fft.
    """
    screen = correlate_all_fft(None, tables.bank, rows, spectrum, prod, out)
    return np.clip(screen, fmt.raw_min, fmt.raw_max, out=screen)


def _exact_peak(screen, cut, delta, exact_row):
    """Per row of screen: its peak |screen|, and the lag and exact value of
    its largest exact |value|, the first such lag on ties.

    cut and delta are per row. The candidates, lags whose |screen| is
    within cut of the row's peak, hold every lag at the row's exact
    maximum. Their screens round to the exact integers, unless one lies
    within delta of a half-integer: then the row's candidates take
    exact_row(j, lags).
    """
    peak = np.maximum(screen.max(axis=1), -screen.min(axis=1))
    low = (peak - cut)[:, None]
    row, lag = np.nonzero((screen >= low) | (screen <= -low))
    values = screen[row, lag]
    exact = np.rint(values)
    # a set, not np.unique, which imports numpy.ma (tens of ms, 1.7 MB)
    for j in set(row[np.abs(values - exact) >= (0.5 - delta)[row]].tolist()):
        own = row == j
        exact[own] = exact_row(j, lag[own])
    # one key per candidate, larger for a larger |value| and then an earlier
    # lag (exact in float64: |value| <= 2**33); each row's largest is its winner
    key = np.abs(exact) * FFT_SIZE + (FFT_SIZE - 1 - lag)
    best = np.maximum.reduceat(key, np.searchsorted(row, np.arange(len(screen))))
    win = np.flatnonzero(key == best[row])
    return peak, lag[win], exact[win]


def _peak_step(tables, m, s_raw):
    """Most that subtracting q_mul(s_raw, kernel m) moves each row's peak, in raw units.

    The terms are those of the module docstring: the scaled cross-
    correlation bound, half a unit of product rounding per kernel tap, and
    the screen's error and the exact values' rounding.
    """
    return abs(s_raw) * tables.bank.peak_bound[m] + tables.step_floor


def encode_segment_fixed(buffer, bank, config, flag=None):
    """Matching pursuit on the integer datapath; mutates buffer to the residual.

    Mirrors the float loop on raw integers: exact correlations rounded once
    per lag (screened, and refreshed or taken exactly only where they can
    win: see the module docstring), the same tie order, the quantized
    feedback threshold, and a rounded, saturating subtraction. The buffer
    ends up holding the dequantized residual. Samples are checked as by
    encoder.encode_stream. flag (a SaturationFlag), when given, is set if a
    code's correlation sits at the format's limit or a subtraction clips.
    A one-buffer block of the lockstep pursuit.
    """
    if config.fixed is None:
        raise ValueError("the fixed-point datapath needs a format (config.fixed); "
                         "encode_segment is the float datapath")
    _check_samples(buffer.data, config)
    return _encode_block_fixed(buffer.data[None], buffer.segment_index, bank, config,
                               flag)[0]


def _encode_block_fixed(windows, first, bank, config, flag=None):
    """The integer pursuit on a block of windows in lockstep; one code list per window.

    windows and first are as for encoder._encode_block, each row ending up
    dequantized; its samples must lie in the format's range (_check_samples).
    """
    fmt = QFormat(*config.fixed)
    tables = _tables_for(bank, fmt)
    raw = to_fixed(windows, fmt)
    threshold_raw = to_fixed(config.threshold, fmt)
    offsets = np.arange(bank.kernel_length)
    rows = _RowBounds(len(windows), bank.kernel_count)
    codes = [[] for _ in windows]

    def reduce(segments, kernels, screen):
        peak, lag, value = _exact_peak(
            screen, cut[segments], delta[segments],
            lambda j, lags: _correlate_raw_gemm(raw[segments[j]], tables, fmt,
                                                slice(kernels[j], kernels[j] + 1), lags)[0])
        return peak, np.abs(value), lag, value

    for iteration in range(config.sps):
        data = raw.astype(np.float64)
        delta = _SCREEN_ERROR * np.sqrt(np.einsum("ij,ij->i", data, data)) * tables.kernel_norm
        cut = 1.0 + 2.0 * delta
        rows.refresh(np.fft.rfft(data, axis=1), lambda kernels, spectra, prod, out:
                     _correlate_raw_fft(spectra, tables, fmt, kernels, prod, out),
                     reduce, cut)
        m, u, value = rows.pick()
        s_raw = value.astype(np.int64)
        stop = np.abs(s_raw) < threshold_raw
        if stop.any():
            rows.retire(stop, windows, to_float(raw, fmt))
            keep = ~stop
            raw, m, u, s_raw = raw[keep], m[keep], u[keep], s_raw[keep]
            if not keep.any():
                break
        if flag is not None and np.any((s_raw == fmt.raw_min) | (s_raw == fmt.raw_max)):
            flag.seen = True
        _emit(codes, first, rows.live, m, u, to_float(s_raw, fmt).tolist(), iteration)
        seg = np.arange(len(m))[:, None]
        idx = (u[:, None] + offsets) % FFT_SIZE
        wide = _rounded_product(s_raw[:, None], tables.kernel_raw[m], fmt)
        product = np.clip(wide, fmt.raw_min, fmt.raw_max)
        update = raw[seg, idx] - product
        over = np.any((product != wide) | (update < fmt.raw_min) | (update > fmt.raw_max),
                      axis=1)
        raw[seg, idx] = np.clip(update, fmt.raw_min, fmt.raw_max)
        if flag is not None and over.any():
            flag.seen = True
        # a clipped update is no longer s times a kernel: refresh every row
        step = _peak_step(tables, m, s_raw[:, None])
        step[over] = np.inf
        rows.raise_bounds(step)
    rows.retire(np.ones(len(rows.live), dtype=bool), windows, to_float(raw, fmt))
    return codes


@dataclass
class ParityResult:
    """Outcome of a float-versus-fixed comparison over a random corpus."""

    total: int
    matched: int
    mismatches: list
    energy_increases: list

    @property
    def match_rate(self):
        return self.matched / self.total if self.total else 1.0


def parity_harness(bank, fmt=Q5_28, segments=100, sps=16, seed=2024):
    """Encode random segments on both datapaths and compare (m, tau) pairs.

    Returns every mismatch as a (float_code, fixed_code) pair, plus any
    iteration where the quantized subtraction increased residual energy,
    read between steps of the fixed pursuit, one code each.
    """
    rng, seg_len = np.random.default_rng(seed), bank.segment_length
    windows = segment_stream(rng.uniform(-1.0, 1.0, segments * seg_len), seg_len)
    # the float pursuit turns its windows into residuals, so it gets a copy
    per_float = _encode_block(windows.copy(), 0, bank, EncoderConfig(sps=sps))
    one_code = EncoderConfig(sps=1, fixed=(fmt.int_bits, fmt.frac_bits))
    residuals = to_float(to_fixed(windows, fmt), fmt)
    traces = [[float(row @ row)] for row in residuals]
    per_fixed = [[] for _ in residuals]
    for iteration in range(sps):  # at threshold 0 each step emits one code per segment
        for j, (code,) in enumerate(_encode_block_fixed(residuals, 0, bank, one_code)):
            per_fixed[j].append(dataclasses.replace(code, iteration=iteration))
            traces[j].append(float(residuals[j] @ residuals[j]))
    pairs = [pair for codes in zip(per_float, per_fixed) for pair in zip(*codes)]
    mismatches = [(a, b) for a, b in pairs if (a.m, a.tau) != (b.m, b.tau)]
    energy_increases = [(index, step, before, after) for index, trace in enumerate(traces)
                        for step, (before, after) in enumerate(zip(trace, trace[1:]))
                        if after > before]
    return ParityResult(len(pairs), len(pairs) - len(mismatches), mismatches,
                        energy_increases)
