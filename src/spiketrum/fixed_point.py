"""34-bit fixed-point datapath emulation for the encoder.

Values live in Q5.28, the cochlea's one signed 34-bit format (1 sign, 5
integer and 28 fraction bits): raw integers in [-2**33, 2**33 - 1]
representing raw / 2**28, reals in [-32, 32). Primitive operations compute
exact wide-integer results, round once to 28 fraction bits (round to
nearest, ties to even), and saturate at the format bounds without
reporting it: the encode entries reject samples outside the range, so
only the pursuit can saturate (SaturationFlag). The one pursuit loop,
encoder._encode_block, runs on this datapath (_Fixed) in raw integers,
held in float64 (exact: |raw| <= 2**33): every correlation lag
accumulated exactly and rounded once, the subtraction products rounded
elementwise. Splitting 34-bit operands at bit 17 keeps partial products
below 2**50 and 1353-tap correlation partials below 2**46, exact in int64
and in float64 matrix products. The subtraction needs no split: its
products pair |s_raw| <= 2**33 with quantized taps below 4 in magnitude
(|kernel_raw| < 2**30), so |p| + 2**27 < 2**63 and each is one int64
product, rounded by a shift. _tables_for rejects a bank with a larger tap;
a unit-norm kernel's taps are at most 1.

The quantized kernels k_q = kernel_raw / 2**28 are a KernelBank of their
own, so the loop screens each row with the float engine
(encoder.correlate_all_fft on that bank) in raw units, S = irfft(rfft(raw)
* conj(rfft(k_q))), within delta = _SCREEN_ERROR * ||raw||_2 *
max ||k_q||_2 of the exact value before rounding and clipping. Higham,
Accuracy and Stability of Numerical Algorithms (2nd ed., SIAM 2002), ch.
24, bounds a length-2048 FFT's relative error by about 11 * (1 + 4 *
sqrt(2)) * 2**-53 = 8e-15; through three transforms, a product and the
norm inequalities that gives a worst case just under 1e-12, the value
_SCREEN_ERROR takes (measured: at most 6e-17, amplitudes 1e-4 to 31.9).
For unit-norm kernels delta stays below 0.4, even for 2048 samples at
the format's limit.

Rounding moves a value by at most half a unit and clipping never widens a
difference, so every exact integer lies within 0.5 + delta of its screen
clipped to the format. A row's exact maximum therefore sits only at lags
whose clipped |screen| is within 1 + 2 * delta of the row's clipped peak,
and every other lag rounds below it. Such a candidate's clipped screen
rounds to its exact integer unless it lies within delta of a
half-integer; then the row's candidates are computed exactly
(_correlate_raw_gemm, also the tests' oracle). Each chunk of the lockstep
refresh is reduced this way to every pair's first lag at its largest
exact |value|, and that value (_exact_peak); the clipped peak only
chooses the candidates. The winner is the smallest row at the largest
exact |value|, then its first lag.

The screen itself is never clipped. The clip is monotone, so a row's
clipped peak is max(min(max S, RAW_MAX), -max(min S, RAW_MIN)); and as
the candidates' cut is at least 1, the peak less the cut is at most
RAW_MAX, so a clipped |screen| reaches it exactly where the unclipped
|screen| does. The unclipped screen thus gives the same candidates, in
the same order, and only their values are clipped.

Nearly every row has one candidate, and _exact_peak finds such rows
without forming a candidate set. It takes each row's first lag at the
largest |screen| (the top) and the largest |screen| at any other lag (the
runner-up). Where the top is at most RAW_MAX the clip leaves the whole row
as it is, so the top is the row's clipped peak; where the runner-up also
lies below the top less 1 + 2 * delta, no other lag is a candidate. The
top's lag then holds the row's exact maximum, and its value is rint of
its screen, or the exact value at that one lag where the screen lies
within delta of a half-integer: what the candidate logic gives a set of
one. The other rows (a lag tied with or within the cut of the top, or a
top past the format) take the candidate logic, _candidate_peaks.

A subtraction clips only where a rounded product or a residual passes
the format. Code (m, s_raw)'s products are at most |s_raw| * max |k_raw,m|
in magnitude (_FixedTables.tap_max), so rounded at most that plus 2**27,
shifted right by 28; a residual is at most its row's largest |window|
plus that. Where the sum stays at or below RAW_MAX for every code, nothing
clips (RAW_MIN lies further out), and _Fixed.subtract takes the rounded
products away without its range tests and clips.

The loop's peaks, floors and bounds are exact |values|, and its cut is
0.5 + delta per segment: a pair's bound plus the cut is at least every
exact |value| the pair would give if refreshed now. After a code
(m, tau, s_raw) row n's bound rises by
|s_raw| * B_q[m, n] + 0.5 * ||k_q,n||_1 + 1, the last two terms _Fixed's
step_floor (encoder._RowBounds.raise_bounds): B_q bounds the quantized
kernels' cross-correlation peaks, the L1 term the q_mul product's
rounding, and the 1 the exact values' rounding before and after, so a
step from a refreshed peak needs no cut. A row whose exact value clipped
has a bound of at least RAW_MAX, and no exact |value| exceeds RAW_MAX + 1.
Clipping only shrinks differences; a subtraction whose product or
residual clips is no longer s times a kernel, so its step is +inf (a
product clips where its saturated value differs from the rounded one),
which leaves the pair only the cap.

The cap is |rfft(raw)| @ the quantized bank's spectrum_bound (encoder
module docstring): in exact arithmetic it bounds the real correlation of
raw with k_q at every lag, whose exact values, rounded once and clipped,
lie within 0.5 of it. The rfft's rounding moves the cap by at most about
8e-15 * ||raw||_2 * ||k_q||_2, within delta, so the cut covers a cap;
after a step from one, its half unit covers that error (below 0.4), as
it covers the float64 rounding of the summed steps. A pair whose bound
plus the cut stays below its segment's best exact peak therefore cannot
win. Floors (refreshed peaks lowered by the steps) need no soundness,
and their clamp to the bounds keeps every refresh from starting empty.
Codes and residual are bit-identical to an exact full recompute of each
segment alone.
"""

from __future__ import annotations

import dataclasses
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .encoder import (EncoderConfig, _check_samples, _circular_windows, _encode_block,
                      correlate_all_fft, segment_stream)
from .kernel_bank import FFT_SIZE, KernelBank

# the one format, Q5.28 (module docstring)
FRAC_BITS = 28
SCALE = 1 << FRAC_BITS
RAW_MIN = -(1 << 33)
RAW_MAX = (1 << 33) - 1

_SPLIT = 17  # low-half width for the bit-17 operand split
_SPLIT_MASK = (1 << _SPLIT) - 1

# Largest tap magnitude (exclusive) the subtraction's int64 product allows
_TAP_LIMIT = 4

# Screen error bound relative to ||raw||_2 * max ||k_q||_2 (module docstring)
_SCREEN_ERROR = 1e-12


class SaturationFlag:
    """Sticky status bit set whenever the fixed pursuit saturates.

    Only samples far past full scale get there: a 16-bit WAV (|x| < 1)
    gives segments of norm below sqrt(696) = 26.4, and with unit-norm
    kernels every correlation, product and residual stays below 32.
    """

    __slots__ = ("seen",)

    def __init__(self):
        self.seen = False

    def __bool__(self):
        return self.seen


def _as_result(raw, scalar):
    return int(raw) if scalar else raw


def to_fixed(x):
    """Quantize real values to raw integers: round to nearest even, saturate.

    +-inf saturate too; NaN has no value, so it is a ValueError naming the
    first one's index.
    """
    scalar = np.ndim(x) == 0
    # clip the real value first, so that scaling cannot overflow: the bounds
    # and their products with the power-of-two scale are exact in float64
    real = np.clip(np.asarray(x, dtype=np.float64), RAW_MIN / SCALE, RAW_MAX / SCALE)
    nan = np.isnan(real)
    if nan.any():
        index = tuple(np.argwhere(nan)[0].tolist())
        where = f" at index {index[0] if len(index) == 1 else index}" if index else ""
        raise ValueError(f"NaN{where} cannot be quantized")
    return _as_result(np.rint(real * SCALE).astype(np.int64), scalar)


def to_float(raw):
    """Exact real value of raw integers."""
    scalar = np.ndim(raw) == 0
    values = np.asarray(raw, dtype=np.float64) / SCALE
    return float(values) if scalar else values


def q_add(a, b):
    """Saturating add; exact whenever the sum is in range."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    total = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
    return _as_result(np.clip(total, RAW_MIN, RAW_MAX), scalar)


def _rne_combine(m, r0):
    """Round V = m * 2**17 + r0 (0 <= r0 < 2**17) to 28 fraction bits, ties
    to even, without saturating.

    The split avoids materializing V, which can exceed int64 for 34x34-bit
    products. A result out of the format's range stays out of it (never
    wrapped back in), so saturating the result afterwards is exact.
    """
    shift = FRAC_BITS - _SPLIT
    q = m >> shift
    rem = ((m & ((1 << shift) - 1)) << _SPLIT) | r0
    half = 1 << (FRAC_BITS - 1)
    return q + (rem > half) + ((rem == half) & ((q & 1) == 1))


def _rounded_product(a, b):
    """Exact wide product of raw integers, rounded once, not saturated.

    Vectorized over int64 by splitting b at bit 17; both partial products
    stay below 2**50 so the arithmetic never overflows.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    p_lo = a * (b & _SPLIT_MASK)
    m = a * (b >> _SPLIT) + (p_lo >> _SPLIT)
    return _rne_combine(m, p_lo & _SPLIT_MASK)


def q_mul(a, b):
    """Saturating multiply: exact wide product, one rounding."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    product = np.clip(_rounded_product(a, b), RAW_MIN, RAW_MAX)
    return _as_result(product, scalar)


@dataclass(eq=False)
class _FixedTables:
    """Per-bank caches for the integer correlation."""

    kernel_raw: np.ndarray          # (kernels, L) int64
    bank: KernelBank                # the quantized kernels, kernel_raw / 2**28
    gemm_hi: np.ndarray = field(init=False)     # (L, kernels) float64, high halves
    gemm_lo: np.ndarray = field(init=False)     # (L, kernels) float64, low halves
    kernel_norm: float = field(init=False)      # largest L2 norm of the quantized kernels
    step_floor: np.ndarray = field(init=False)  # (kernels,) 0.5 * L1 + 1: the step at s_raw = 0
    tap_max: np.ndarray = field(init=False)     # (kernels,) int64, largest |kernel_raw|

    def __post_init__(self):
        self.gemm_hi = np.ascontiguousarray((self.kernel_raw >> _SPLIT).T, dtype=np.float64)
        self.gemm_lo = np.ascontiguousarray((self.kernel_raw & _SPLIT_MASK).T,
                                            dtype=np.float64)
        self.kernel_norm = float(np.sqrt(np.max(np.diag(self.bank.peak_bound))))
        self.step_floor = 0.5 * np.abs(self.bank.samples_matrix).sum(axis=1) + 1.0
        self.tap_max = np.abs(self.kernel_raw).max(axis=1)


_tables_lock = threading.Lock()
_tables_cache = weakref.WeakKeyDictionary()


def _tables_for(bank):
    with _tables_lock:
        tables = _tables_cache.get(bank)
        if tables is None:
            kernel_raw = to_fixed(bank.samples_matrix)
            # _Fixed.subtract's one int64 product needs |kernel_raw| < 2**30
            large = np.abs(kernel_raw) >= _TAP_LIMIT * SCALE
            if large.any():
                m, tap = np.argwhere(large)[0].tolist()
                raise ValueError(
                    f"kernel {m} tap {tap} is {float(bank.samples_matrix[m, tap])}: the "
                    f"Q5.28 datapath needs every quantized tap below {_TAP_LIMIT} in magnitude")
            # exact: |kernel_raw| < 2**53
            quantized = dataclasses.replace(bank, samples_matrix=kernel_raw / SCALE)
            tables = _tables_cache[bank] = _FixedTables(kernel_raw, quantized)
        return tables


def _correlate_raw_gemm(raw_data, tables, rows=slice(None), lags=slice(None)):
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
    return np.clip(_rne_combine(m, p_ll & _SPLIT_MASK), RAW_MIN, RAW_MAX)


def _correlate_raw_fft(spectrum, tables, rows, prod, out):
    """Screen a chunk of rows of the integer correlation into out (module docstring).

    spectrum is rfft(raw), one per entry of the index array rows or one
    for all of them; prod and out are workspaces as for
    encoder.correlate_all_fft. The screen is not clipped to the format:
    _exact_peak clips only the peaks and candidates it reads.
    """
    return correlate_all_fft(None, tables.bank, rows, spectrum, prod, out)


def _exact_peak(screen, delta, exact_row, work=None):
    """Per row of screen: the lag and exact value of its largest exact
    |value|, the first such lag on ties.

    screen is unclipped and left as it is; the result is that of the
    clipped screen (module docstring). delta is the screen's error bound
    per row. The candidates, lags whose |screen| is within 1 + 2 * delta of
    the row's clipped peak |screen|, hold every lag at the row's exact
    maximum. Their clipped screens round to the exact integers, unless one
    lies within delta of a half-integer: then the row's candidates take
    exact_row(j, lags). A row whose runner-up |screen| is below its top less
    1 + 2 * delta, and whose top is within the format, has its argmax as its
    one candidate; only the other rows go through _candidate_peaks. work, if
    given, is a flat float64 array of at least screen.size entries, and
    takes |screen| (contiguous: a strided workspace slows every pass).
    """
    pair = np.arange(len(screen))
    mag = np.abs(screen, out=None if work is None else work[:screen.size].reshape(screen.shape))
    lag = mag.argmax(axis=1)
    top = mag[pair, lag]
    mag[pair, lag] = -1.0
    slow = (np.maximum.reduce(mag, axis=1) >= top - (1.0 + 2.0 * delta)) | (top > RAW_MAX)
    value = screen[pair, lag]
    exact = np.rint(value)
    odd = (slow | (np.abs(value - exact) >= 0.5 - delta)).nonzero()[0].tolist()
    if odd:  # rare: rows with several candidates, or one near a half-integer
        for j in odd:
            if not slow[j]:
                exact[j] = exact_row(j, lag[j:j + 1])[0]
        rows = slow.nonzero()[0]
        if len(rows):
            lag[rows], exact[rows] = _candidate_peaks(
                screen[rows], delta[rows], lambda i, lags: exact_row(int(rows[i]), lags))
    return lag, exact


def _candidate_peaks(screen, delta, exact_row):
    """_exact_peak by every row's candidates, for rows that may have several."""
    peak = np.maximum(np.minimum(screen.max(axis=1), RAW_MAX),
                      -np.maximum(screen.min(axis=1), RAW_MIN))
    flat = np.flatnonzero(np.abs(screen) >= (peak - (1.0 + 2.0 * delta))[:, None])
    row, lag = np.divmod(flat, screen.shape[1])
    values = np.clip(screen.ravel()[flat], RAW_MIN, RAW_MAX)
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
    return lag[win], exact[win]


def encode_segment_fixed(buffer, bank, config, flag=None):
    """Matching pursuit on the integer datapath; mutates buffer to the residual.

    encoder.encode_segment on a fixed config, plus flag (a SaturationFlag),
    set when given if a code's correlation sits at the format's limit or a
    subtraction clips. A float config is an error.
    """
    if not config.fixed:
        raise ValueError("the fixed-point datapath needs config.fixed; "
                         "encode_segment takes either datapath's config")
    _check_samples(buffer.data, config, FFT_SIZE)
    return _encode_block(buffer.data[None], buffer.segment_index, bank, config, flag)[0]


class _Fixed:
    """The integer datapath of encoder._encode_block (module docstring); the
    windows' samples must lie in the format's range (_check_samples)."""

    def __init__(self, bank, config, flag):
        self.tables = _tables_for(bank)
        self.bank = self.tables.bank
        self.step_floor = self.tables.step_floor
        self.threshold = to_fixed(config.threshold)
        self.flag = flag

    def units(self, windows):
        return to_fixed(windows).astype(np.float64)

    def real(self, raw):
        return to_float(raw)

    def cut(self, raw, live):
        """0.5 + delta per segment; keeps raw and delta for peaks."""
        self.raw = raw
        self.delta = _SCREEN_ERROR * np.sqrt(np.einsum("ij,ij->i", raw, raw)) * \
            self.tables.kernel_norm
        return 0.5 + self.delta

    def peaks(self, segments, kernels, spectra, prod, out):
        """Per pair of a chunk: the lag and exact value of its largest exact |value|."""
        screen = _correlate_raw_fft(spectra, self.tables, kernels, prod, out)
        return _exact_peak(
            screen, self.delta[segments],
            lambda j, lags: _correlate_raw_gemm(self.raw[segments[j]].astype(np.int64),
                                                self.tables, slice(kernels[j], kernels[j] + 1),
                                                lags)[0],
            prod.view(np.float64).reshape(-1))  # prod is spent once the screen is made

    def subtract(self, window, m, s_raw):
        """Take q_mul(s_raw, kernel m) from each row of window, in place and
        saturating; True for the rows whose product or residual clipped.

        Each product is one int64 multiply, exact as the taps lie below 4
        in magnitude (_tables_for), rounded to nearest even by adding
        2**27 - 1 plus the kept part's lowest bit and shifting. Where no
        code's largest rounded product (|s_raw| times its kernel's largest
        |tap|) plus its row's largest |window| can pass RAW_MAX, nothing
        clips and the products are taken away without the range tests and
        clips (module docstring).
        """
        s = s_raw.astype(np.int64)
        wide = self.tables.kernel_raw[m]  # a copy: the products are formed in place
        wide *= s[:, None]
        rounding = wide >> FRAC_BITS
        rounding &= 1
        rounding += (1 << (FRAC_BITS - 1)) - 1
        wide += rounding
        wide >>= FRAC_BITS
        # (|p| + 2**27) >> 28 bounds a product |p|'s rounded magnitude
        reach = (np.abs(s) * self.tables.tap_max[m] + (1 << (FRAC_BITS - 1))) >> FRAC_BITS
        # ufunc reductions: ndarray.max and .min add a Python layer per call
        largest = np.maximum(np.maximum.reduce(window, axis=1),
                             -np.minimum.reduce(window, axis=1))
        if (reach + largest <= RAW_MAX).all():
            window -= wide
            over = np.zeros(len(m), dtype=bool)
        else:
            over = (wide.max(axis=1) > RAW_MAX) | (wide.min(axis=1) < RAW_MIN)
            window -= np.clip(wide, RAW_MIN, RAW_MAX, out=wide)
            over |= (window.max(axis=1) > RAW_MAX) | (window.min(axis=1) < RAW_MIN)
            np.clip(window, RAW_MIN, RAW_MAX, out=window)
        if self.flag is not None and (over.any() or
                                      np.any((s_raw == RAW_MIN) | (s_raw == RAW_MAX))):
            self.flag.seen = True
        return over


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


def parity_harness(bank, segments=100, sps=16, seed=2024):
    """Encode random segments on both datapaths and compare (m, tau) pairs.

    Returns every mismatch as a (float_code, fixed_code) pair, plus any
    iteration where the quantized subtraction increased residual energy,
    read between steps of the fixed pursuit, one code each.
    """
    rng, seg_len = np.random.default_rng(seed), bank.segment_length
    windows = segment_stream(rng.uniform(-1.0, 1.0, segments * seg_len), seg_len)
    # the float pursuit turns its windows into residuals, so it gets a copy
    per_float = _encode_block(windows.copy(), 0, bank, EncoderConfig(sps=sps))
    one_code = EncoderConfig(sps=1, fixed=True)
    residuals = to_float(to_fixed(windows))
    traces = [[float(row @ row)] for row in residuals]
    per_fixed = [[] for _ in residuals]
    for iteration in range(sps):  # at threshold 0 each step emits one code per segment
        for j, (code,) in enumerate(_encode_block(residuals, 0, bank, one_code)):
            per_fixed[j].append(dataclasses.replace(code, iteration=iteration))
            traces[j].append(float(residuals[j] @ residuals[j]))
    pairs = [pair for codes in zip(per_float, per_fixed) for pair in zip(*codes)]
    mismatches = [(a, b) for a, b in pairs if (a.m, a.tau) != (b.m, b.tau)]
    energy_increases = [(index, step, before, after) for index, trace in enumerate(traces)
                        for step, (before, after) in enumerate(zip(trace, trace[1:]))
                        if after > before]
    return ParityResult(len(pairs), len(pairs) - len(mismatches), mismatches,
                        energy_increases)
