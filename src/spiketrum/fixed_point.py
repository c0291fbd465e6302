"""34-bit fixed-point datapath emulation for the encoder.

Values live in a signed 34-bit Q format (default Q5.28): raw integers in
[-2**33, 2**33 - 1] representing raw / 2**frac_bits. Primitive operations
compute exact wide-integer results, round once to the format's fractional
precision (round to nearest, ties to even), and saturate at the format
bounds. The fixed encoding loop mirrors the float loop with every
correlation lag accumulated exactly in a wide accumulator and rounded
once, the subtraction products rounded elementwise, and all comparisons
done on raw integers.

Exactness under int64 is kept by splitting 34-bit operands at bit 17:
with a = ah * 2**17 + al, partial products stay below 2**50 and the
1353-tap correlation partials below 2**46, so every intermediate fits
comfortably in int64 (and, where routed through float64 matrix products
or FFTs, below the 2**53 integer-exact ceiling).

Like the float loop, the fixed loop refreshes only the kernel rows that
can still win. Each row n carries an upper bound on its peak |r[n, :]| in
raw units: its peak when last computed, raised after every code (m, tau,
s_raw) by

    |s_raw| * B_q[m, n] + 0.5 * ||k_q,n||_1 + 2,

where k_q,n = kernel_raw[n] / 2**frac_bits is the quantized kernel and
B_q the spectral peak bound of their cross-correlations. The first term
bounds s_raw times the quantized kernels' cross-correlation; the second
covers the elementwise rounding of the q_mul product (each tap off by at
most half a unit, weighted by kernel n's taps); the +2 covers the rounding
of the correlation to raw units before and after, with margin. Clipping
the correlation to the format only shrinks differences, so the bound
holds for saturated rows too. A subtraction whose product or residual
clips is no longer s times a kernel, so it sets every bound to +inf and
the next iteration refreshes all rows. Each iteration takes the two
split-half rffts once, then transforms contiguous bands of rows until
every row left stale has a bound below the best exact peak. Correlations
are exact integers, so the winner (the smallest kernel index at the best
peak, then its first lag) and the residual are bit-identical to
recomputing every row.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .encoder import Code, MAX_SHIFT, _circular_windows, _run_around
from .kernel_bank import FFT_SIZE, cross_peak_bound

_WIDTH = 34
_SPLIT = 17  # low-half width for the bit-17 operand split
_SPLIT_MASK = (1 << _SPLIT) - 1

# Largest absolute deviation from an integer tolerated on the transform
# route before falling back to the exact matrix route. The true partial
# sums are integers below 2**46 whose float64 transform error stays under
# about 2e-3 in practice (worst-case bound about 0.2), so 0.25 separates
# the rounding decision with a wide margin.
_FFT_GUARD = 0.25


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
    """Sticky status bit set whenever an operation saturates."""

    __slots__ = ("seen",)

    def __init__(self):
        self.seen = False

    def __bool__(self):
        return self.seen


def _saturate_int(values, fmt, flag):
    values = np.asarray(values)
    if flag is not None and (np.any(values > fmt.raw_max)
                             or np.any(values < fmt.raw_min)):
        flag.seen = True
    return np.clip(values, fmt.raw_min, fmt.raw_max)


def _as_result(raw, scalar):
    return int(raw) if scalar else raw


def to_fixed(x, fmt=Q5_28, flag=None):
    """Quantize real values to raw integers: round to nearest even, saturate."""
    scalar = np.ndim(x) == 0
    scaled = np.rint(np.asarray(x, dtype=np.float64) * fmt.scale)
    if flag is not None and (np.any(scaled > fmt.raw_max)
                             or np.any(scaled < fmt.raw_min)):
        flag.seen = True
    # clip in float first; the bounds are exactly representable in float64
    raw = np.clip(scaled, fmt.raw_min, fmt.raw_max).astype(np.int64)
    return _as_result(raw, scalar)


def to_float(raw, fmt=Q5_28):
    """Exact real value of raw integers."""
    scalar = np.ndim(raw) == 0
    values = np.asarray(raw, dtype=np.float64) / fmt.scale
    return float(values) if scalar else values


def q_add(a, b, fmt=Q5_28, flag=None):
    """Saturating add; exact whenever the sum is in range."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    total = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
    return _as_result(_saturate_int(total, fmt, flag), scalar)


def _rne_combine(m, r0, fmt, flag):
    """Round V = m * 2**17 + r0 (0 <= r0 < 2**17) to fmt, ties to even.

    The split avoids materializing V, which can exceed int64 for 34x34-bit
    products. Saturating cases are detected before any overflowing shift.
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
    q = q + (rem > half) + ((rem == half) & ((q & 1) == 1))
    return _saturate_int(q, fmt, flag)


def q_mul(a, b, fmt=Q5_28, flag=None):
    """Saturating multiply: exact wide product, one rounding to fmt.

    Vectorized over int64 by splitting b at bit 17; both partial products
    stay below 2**50 so the arithmetic never overflows.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    b_hi = b >> _SPLIT
    b_lo = b & _SPLIT_MASK
    p_lo = a * b_lo
    m = a * b_hi + (p_lo >> _SPLIT)
    r0 = p_lo & _SPLIT_MASK
    return _as_result(_rne_combine(m, r0, fmt, flag), scalar)


@dataclass(eq=False)
class _FixedTables:
    """Per-bank, per-format caches for the integer correlation."""

    kernel_raw: np.ndarray          # (kernels, L) int64
    gemm_hi: np.ndarray             # (L, kernels) float64, high halves
    gemm_lo: np.ndarray             # (L, kernels) float64, low halves
    spec_hi: np.ndarray             # (kernels, bins) conjugate spectra
    spec_lo: np.ndarray
    peak_bound: np.ndarray          # (kernels, kernels) B_q of the quantized kernels
    kernel_l1: np.ndarray           # (kernels,) L1 norms of the quantized kernels
    kernel_length: int = field(init=False)

    def __post_init__(self):
        self.kernel_length = self.kernel_raw.shape[1]


_tables_lock = threading.Lock()
_tables_cache = weakref.WeakKeyDictionary()


def _tables_for(bank, fmt):
    with _tables_lock:
        per_bank = _tables_cache.setdefault(bank, {})
        tables = per_bank.get(fmt)
        if tables is None:
            kernel_raw = to_fixed(bank.samples_matrix, fmt)
            quantized = kernel_raw / fmt.scale  # exact: |kernel_raw| < 2**53
            hi = (kernel_raw >> _SPLIT).astype(np.float64)
            lo = (kernel_raw & _SPLIT_MASK).astype(np.float64)
            tables = _FixedTables(
                kernel_raw=kernel_raw,
                gemm_hi=np.ascontiguousarray(hi.T),
                gemm_lo=np.ascontiguousarray(lo.T),
                spec_hi=np.conj(np.fft.rfft(hi, n=FFT_SIZE, axis=1)),
                spec_lo=np.conj(np.fft.rfft(lo, n=FFT_SIZE, axis=1)),
                peak_bound=cross_peak_bound(np.fft.rfft(quantized, n=FFT_SIZE, axis=1)),
                kernel_l1=np.abs(quantized).sum(axis=1),
            )
            per_bank[fmt] = tables
        return tables


def _combine_parts(p_hh, p_x, p_ll, fmt):
    """Assemble split correlation partials and round once per lag.

    The exact accumulator is p_hh * 2**34 + p_x * 2**17 + p_ll; regrouped
    as m * 2**17 + r0 every term stays below 2**60 in int64.
    """
    m = (p_hh << _SPLIT) + p_x + (p_ll >> _SPLIT)
    r0 = p_ll & _SPLIT_MASK
    return _rne_combine(m, r0, fmt, None)


def _correlate_raw_gemm(raw_data, tables, fmt, rows=slice(None)):
    """Exact integer correlation through float64 matrix products.

    Returns the kernel rows selected by rows, one row per kernel. Windowed
    split halves are at most 2**17, so each 1353-tap partial sum is below
    2**46 and float64 dot products are integer-exact.
    """
    length = tables.kernel_length
    gemm_hi, gemm_lo = tables.gemm_hi[:, rows], tables.gemm_lo[:, rows]
    w_hi = _circular_windows((raw_data >> _SPLIT).astype(np.float64), length)
    w_lo = _circular_windows((raw_data & _SPLIT_MASK).astype(np.float64), length)
    p_hh = (w_hi @ gemm_hi).astype(np.int64).T
    p_x = ((w_hi @ gemm_lo) + (w_lo @ gemm_hi)).astype(np.int64).T
    p_ll = (w_lo @ gemm_lo).astype(np.int64).T
    return _combine_parts(p_hh, p_x, p_ll, fmt)


def _split_spectra(raw_data):
    """rffts of the high and low 17-bit halves of raw data."""
    return (np.fft.rfft((raw_data >> _SPLIT).astype(np.float64)),
            np.fft.rfft((raw_data & _SPLIT_MASK).astype(np.float64)))


def _correlate_raw_fft(raw_data, tables, fmt, rows=slice(None), spectra=None):
    """Same integers through the frequency domain.

    The float64 transforms of the split halves land within _FFT_GUARD of
    the exact integer partials, so rounding recovers them; if a partial
    ever drifts past the guard the call reruns the same rows on the exact
    matrix route. spectra, when given, is _split_spectra(raw_data), so a
    caller refreshing several bands of rows transforms the data once.
    """
    b_hi, b_lo = _split_spectra(raw_data) if spectra is None else spectra
    spec_hi, spec_lo = tables.spec_hi[rows], tables.spec_lo[rows]
    parts = (
        np.fft.irfft(b_hi * spec_hi, n=FFT_SIZE, axis=1),
        np.fft.irfft(b_hi * spec_lo + b_lo * spec_hi, n=FFT_SIZE, axis=1),
        np.fft.irfft(b_lo * spec_lo, n=FFT_SIZE, axis=1),
    )
    rounded = []
    for part in parts:
        snapped = np.rint(part)
        if np.max(np.abs(part - snapped)) >= _FFT_GUARD:
            return _correlate_raw_gemm(raw_data, tables, fmt, rows)
        rounded.append(snapped.astype(np.int64))
    return _combine_parts(*rounded, fmt)


def _peak_step(tables, m, s_raw):
    """Most that subtracting q_mul(s_raw, kernel m) moves each row's peak, in raw units.

    The terms are those of the module docstring: the scaled cross-
    correlation bound, half a unit of product rounding per kernel tap, and
    the correlation's own rounding before and after, with margin.
    """
    return abs(s_raw) * tables.peak_bound[m] + (0.5 * tables.kernel_l1 + 2.0)


def encode_segment_fixed(buffer, bank, config, energy_trace=None, flag=None):
    """Matching pursuit on the integer datapath; mutates buffer to the residual.

    Mirrors the float loop: exact wide-accumulator correlation rounded once
    per lag, integer argmax with the same tie order, raw-integer feedback
    comparison against the quantized threshold, and a rounded, saturating
    subtraction. Only rows whose peak bound can still win are recomputed
    (see the module docstring); the codes and residual are those of a full
    recompute. The buffer ends up holding the dequantized residual.
    When given, energy_trace collects the residual energy before the loop
    and after every subtraction so callers can watch for quantization
    pushing energy up instead of down, and flag (a SaturationFlag) is set
    if the buffer saturates on quantization, a code's correlation sits at
    the format's limit, or a subtraction clips.
    """
    fmt = QFormat(*config.fixed) if config.fixed is not None else Q5_28
    tables = _tables_for(bank, fmt)
    raw = to_fixed(buffer.data, fmt, flag)
    threshold_raw = to_fixed(config.threshold, fmt)
    offsets = np.arange(tables.kernel_length)
    count = bank.kernel_count
    r = np.empty((count, FFT_SIZE), dtype=np.int64)
    peak = np.empty(count)               # max |r[n, :]| of rows refreshed this iteration, else -1
    bound = np.full(count, np.inf)       # >= the peak row n would have if refreshed now
    floor = np.zeros(count)              # lower bound on that peak; only picks the first band
    stale = np.empty(count)              # bound of rows not refreshed yet, else -inf
    lo, hi = 0, count
    if energy_trace is not None:
        residual = to_float(raw, fmt)
        energy_trace.append(float(residual @ residual))
    codes = []
    for iteration in range(config.sps):
        spectra = _split_spectra(raw)
        peak.fill(-1.0)
        stale[:] = bound
        best = 0
        while True:
            r[lo:hi] = _correlate_raw_fft(raw, tables, fmt, slice(lo, hi), spectra)
            band = r[lo:hi]
            top = np.maximum(band.max(axis=1), -band.min(axis=1))
            peak[lo:hi] = bound[lo:hi] = floor[lo:hi] = top
            stale[lo:hi] = -np.inf
            best = max(best, int(top.max()))
            reach = stale >= best
            if not reach.any():
                break
            lo, hi = _run_around(reach.tolist(), int(np.argmax(stale)))
        m = int(np.argmax(peak))
        u = int(np.argmax(np.abs(r[m])))
        s_raw = int(r[m, u])
        if abs(s_raw) < threshold_raw:
            break
        if flag is not None and s_raw in (fmt.raw_min, fmt.raw_max):
            flag.seen = True
        tau = u if u < MAX_SHIFT else u - FFT_SIZE
        codes.append(Code(m, tau, to_float(s_raw, fmt),
                          buffer.segment_index, iteration))
        idx = (u + offsets) % FFT_SIZE
        clipped = SaturationFlag()
        product = q_mul(s_raw, tables.kernel_raw[m], fmt, clipped)
        raw[idx] = _saturate_int(raw[idx] - product, fmt, clipped)
        if clipped:
            # a clipped update is no longer s times a kernel: recompute all rows
            bound.fill(np.inf)
            if flag is not None:
                flag.seen = True
        else:
            step = _peak_step(tables, m, s_raw)
            bound += step
            floor -= step
        lo, hi = _run_around((bound >= floor.max()).tolist(), int(np.argmax(floor)))
        if energy_trace is not None:
            residual = to_float(raw, fmt)
            energy_trace.append(float(residual @ residual))
    buffer.data[:] = to_float(raw, fmt)
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
    iteration where the quantized subtraction increased residual energy.
    """
    from . import encoder

    rng = np.random.default_rng(seed)
    seg_len = bank.segment_length
    config_float = encoder.EncoderConfig(sps=sps, path="fft")
    config_fixed = encoder.EncoderConfig(sps=sps,
                                         fixed=(fmt.int_bits, fmt.frac_bits))
    total = matched = 0
    mismatches = []
    energy_increases = []
    for index in range(segments):
        samples = rng.uniform(-1.0, 1.0, seg_len)
        buf_float = encoder.SegmentBuffer.from_samples(samples, index)
        buf_fixed = encoder.SegmentBuffer.from_samples(samples, index)
        float_codes = encoder.encode_segment(buf_float, bank, config_float)
        trace = []
        fixed_codes = encode_segment_fixed(buf_fixed, bank, config_fixed,
                                           energy_trace=trace)
        for a, b in zip(float_codes, fixed_codes):
            total += 1
            if (a.m, a.tau) == (b.m, b.tau):
                matched += 1
            else:
                mismatches.append((a, b))
        for step in range(1, len(trace)):
            if trace[step] > trace[step - 1]:
                energy_increases.append((index, step - 1, trace[step - 1],
                                         trace[step]))
    return ParityResult(total, matched, mismatches, energy_increases)
