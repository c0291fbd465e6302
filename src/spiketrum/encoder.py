"""Greedy matching pursuit over the kernel dictionary.

The input stream is cut into disjoint 696-sample segments. Each segment
is loaded into a 2048-sample working buffer (zeros past the segment) and
decomposed greedily: correlate the buffer against all kernels at all
circular lags, take the strongest response as a code (m, tau, s), subtract
s times the shifted kernel from the buffer, repeat. The spike rate knob is
simply the number of iterations allowed per segment, and an optional
feedback threshold stops early once responses become negligible.

Correlation is circular over the 2048 window, which makes each subtraction
an exact orthogonal projection: the residual energy drops by s**2 per
iteration. The transform path and the sliding-dot-product path compute the
same quantity and stay interchangeable.

The float and the fixed-point loop refresh only the kernel rows that can
still win, through one piece of bookkeeping (_RowBounds). Each row
carries an upper bound on its peak |r[m, :]|: its peak when last
transformed, raised after every code by a step bounding how far that
subtraction moves the row at any lag (here |s| * bank.peak_bound[n, m]
for a code (n, tau, s); +inf forces a full refresh). Each iteration takes
one rfft of the residual, then inverse-transforms contiguous bands of
rows until every stale row's bound plus the datapath's cut is below the
best refreshed peak. Here the winner is the smallest kernel index at
that peak, then its first lag: bit for bit the code a full recompute
picks, since each row is transformed on its own. The direct path
recomputes every row every iteration and is the oracle.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernel_bank import FFT_SIZE

MAX_SHIFT = 1024  # shifter range: tau in [-1024, 1023]
# Margin on the pruning test, relative to the segment's norm: far above the
# drift FFT and subtraction rounding can give a row's peak over 2048
# iterations, far below any response the pursuit acts on.
_ROUNDING_SLACK = 1e-9


@dataclass
class SegmentBuffer:
    """One 2048-sample working buffer; holds the residual during encoding."""

    data: np.ndarray
    segment_index: int = 0
    valid_samples: int = 0

    @classmethod
    def from_samples(cls, samples, segment_index=0, buffer_len=FFT_SIZE):
        """Load up to ``buffer_len`` samples into a fresh zero-padded buffer."""
        samples = np.asarray(samples, dtype=np.float64)
        if len(samples) > buffer_len:
            raise ValueError(f"{len(samples)} samples exceed buffer ({buffer_len})")
        data = np.zeros(buffer_len)
        data[: len(samples)] = samples
        return cls(data, segment_index, len(samples))


@dataclass(frozen=True)
class Code:
    """One matching pursuit result: kernel m shifted by tau, scaled by s."""

    m: int
    tau: int
    s: float
    segment_index: int = 0
    iteration: int = 0


@dataclass
class EncoderConfig:
    """Knobs for one encoding run.

    sps caps codes per segment; threshold below which a response stops the
    segment (0 disables feedback); path picks the correlation engine; fixed
    switches to the integer datapath emulation, given as (int_bits,
    frac_bits) of the 34-bit format, and the threshold must then lie in
    that format's range.
    """

    sps: int = 16
    threshold: float = 0.0
    path: str = "fft"
    fixed: tuple[int, int] | None = None

    def __post_init__(self):
        if not 0 <= self.sps <= FFT_SIZE:
            raise ValueError(f"sps must be in [0, {FFT_SIZE}], got {self.sps}")
        if not (np.isfinite(self.threshold) and self.threshold >= 0):
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold}")
        if self.path not in ("direct", "fft"):
            raise ValueError(f"unknown correlation path {self.path!r}")
        if self.fixed is not None:
            from .fixed_point import QFormat  # deferred: fixed_point imports this module

            fmt = QFormat(*self.fixed)
            if self.threshold > fmt.raw_max / fmt.scale:
                raise ValueError(f"threshold {self.threshold} outside the {fmt} range "
                                 f"[{fmt.raw_min / fmt.scale}, {fmt.raw_max / fmt.scale}]")


def segment_stream(samples, segment_len, buffer_len=FFT_SIZE):
    """Cut a sample stream into zero-padded working buffers.

    Returns ceil(len / segment_len) buffers; the last one is zero-padded
    and records how many samples were real. Empty input gives no buffers.
    """
    if segment_len < 1 or segment_len > buffer_len:
        raise ValueError(f"segment length {segment_len} outside [1, {buffer_len}]")
    samples = np.asarray(samples, dtype=np.float64)
    buffers = []
    for i in range(0, len(samples), segment_len):
        chunk = samples[i:i + segment_len]
        buffers.append(SegmentBuffer.from_samples(
            chunk, segment_index=i // segment_len, buffer_len=buffer_len))
    return buffers


def _circular_windows(data, length, lags=slice(None)):
    """Contiguous matrix whose rows are data circularly shifted by each of lags."""
    ext = np.concatenate([data, data[: length - 1]])
    return np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(ext, length)[lags])


def correlate_all_direct(buffer, bank):
    """Sliding-dot-product correlation against every kernel, one (40, 2048) pass.

    r[m, u] = sum_t data[(u + t) mod 2048] * kernel_m[t], for every lag u.
    This is the slow oracle the transform path is checked against.
    """
    windows = _circular_windows(buffer.data, bank.kernel_length)
    return (windows @ bank.samples_matrix.T).T


def correlate_all_fft(buffer, bank, rows=slice(None), spectrum=None,
                      prod=None, out=None):
    """Transform-path correlation against every kernel at once.

    Multiplying the buffer spectrum by the conjugate kernel spectra and
    transforming back yields the circular correlation at every lag. The
    pursuit loop refreshes a band of rows in place: it passes the row
    slice, the buffer spectrum and preallocated (K, 1025) product and
    (K, 2048) correlation arrays, and rows outside the band keep their
    values. Each row is transformed on its own, so a row comes out
    bit-identical whatever band it is computed in.
    """
    if spectrum is None:
        spectrum = np.fft.rfft(buffer.data)
    conj = bank.conj_spectra[rows]
    if out is None:
        return np.fft.irfft(spectrum * conj, n=FFT_SIZE, axis=1)
    np.fft.irfft(np.multiply(spectrum, conj, out=prod[rows]), n=FFT_SIZE,
                 axis=1, out=out[rows])
    return out


def find_best_code(correlations, segment_index=0, iteration=0, m=None):
    """Pick the strongest response over all kernels and lags.

    The winner maximizes |r|; s keeps its sign. Lags past 1023 wrap to
    negative shifts. Ties resolve to the smallest kernel index, then the
    smallest lag (row-major argmax order). With m given, the kernel is
    already chosen and only its row is searched.
    """
    correlations = np.asarray(correlations)
    if m is None:
        flat = int(np.argmax(np.abs(correlations)))
        m, u = divmod(flat, correlations.shape[1])
    else:
        u = int(np.argmax(np.abs(correlations[m])))
    tau = u if u < MAX_SHIFT else u - FFT_SIZE
    return Code(m, tau, float(correlations[m, u]), segment_index, iteration)


def subtract_component(buffer, kernel, tau, s):
    """Remove s times the kernel placed at circular lag tau, in place."""
    if abs(tau) > MAX_SHIFT:
        raise ValueError(f"tau {tau} outside [{-MAX_SHIFT}, {MAX_SHIFT}]")
    start = tau % FFT_SIZE
    head = min(len(kernel.samples), FFT_SIZE - start)  # taps before the wrap
    buffer.data[start:start + head] -= s * kernel.samples[:head]
    buffer.data[:len(kernel.samples) - head] -= s * kernel.samples[head:]
    return buffer


def feedback_should_stop(code, threshold):
    """True when the response is too weak to keep encoding this segment."""
    return abs(code.s) < threshold


def encode_segment(buffer, bank, config):
    """Run matching pursuit on one buffer; mutates it into the residual.

    Stops after config.sps codes or on the first response below the
    feedback threshold, which is discarded rather than emitted, so every
    returned code satisfies |s| >= threshold. The FFT path refreshes only
    the kernel rows whose peak can still win (see the module docstring);
    the direct path recomputes every row every iteration and is the
    oracle the FFT path is checked against.
    """
    if config.path == "direct":
        return _encode_segment_direct(buffer, bank, config)
    rows = _RowBounds(bank.kernel_count)
    energy = np.max(np.diag(bank.peak_bound))  # largest kernel energy
    slack = _ROUNDING_SLACK * np.sqrt(buffer.data @ buffer.data * energy) * (1.0 + energy)
    codes = []
    for iteration in range(config.sps):
        spectrum = np.fft.rfft(buffer.data)
        rows.refresh(lambda band: correlate_all_fft(buffer, bank, band, spectrum,
                                                    rows.prod, rows.r), slack)
        m = int(np.argmax(rows.peak))
        code = find_best_code(rows.r, buffer.segment_index, iteration, m)
        if feedback_should_stop(code, config.threshold):
            break
        subtract_component(buffer, bank.kernels[m], code.tau, code.s)
        codes.append(code)
        rows.raise_bounds(abs(code.s) * bank.peak_bound[m])
    return codes


class _RowBounds:
    """Correlation rows and their peak bounds over one segment's pursuit."""

    def __init__(self, count):
        self.r = np.empty((count, FFT_SIZE))  # correlation (or screen) rows
        self.prod = np.empty((count, FFT_SIZE // 2 + 1), dtype=complex)
        self.peak = np.empty(count)           # max |r[m, :]| of rows refreshed this iteration, else -1
        self.bound = np.full(count, np.inf)   # >= the peak row m would have if refreshed now
        self.floor = np.zeros(count)          # <= that peak, up to the cut; only picks the first band
        self.stale = np.empty(count)          # bound + cut of rows not refreshed yet, else -inf
        self.band = slice(0, count)

    def refresh(self, correlate, cut):
        """Refresh bands of rows, written into r by correlate(band), until
        no stale row's bound plus cut reaches the best peak; returns it."""
        r, peak, bound, floor, stale = self.r, self.peak, self.bound, self.floor, self.stale
        peak.fill(-1.0)
        np.add(bound, cut, out=stale)
        band = self.band
        best = 0.0
        while True:
            correlate(band)
            top = np.maximum(r[band].max(axis=1), -r[band].min(axis=1), out=peak[band])
            bound[band] = floor[band] = top
            stale[band] = -np.inf
            best = max(best, top.max())
            reach = stale >= best
            if not reach.any():
                return best
            band = _run_around(reach.tolist(), int(np.argmax(stale)))

    def raise_bounds(self, step):
        """Raise every bound by step after a subtraction; +inf refreshes all rows next."""
        self.bound += step
        self.floor -= step
        self.band = _run_around((self.bound >= self.floor.max()).tolist(),
                                int(np.argmax(self.floor)))


def _run_around(mask, row):
    """Slice of the run of true entries in mask that contains row."""
    lo = hi = row
    while lo > 0 and mask[lo - 1]:
        lo -= 1
    while hi + 1 < len(mask) and mask[hi + 1]:
        hi += 1
    return slice(lo, hi + 1)


def _encode_segment_direct(buffer, bank, config):
    """The unpruned pursuit loop on the sliding-dot-product correlation."""
    codes = []
    for iteration in range(config.sps):
        code = find_best_code(correlate_all_direct(buffer, bank),
                              buffer.segment_index, iteration)
        if feedback_should_stop(code, config.threshold):
            break
        subtract_component(buffer, bank.kernels[code.m], code.tau, code.s)
        codes.append(code)
    return codes


def _worker_count():
    """SPIKETRUM_THREADS if set, else one worker per CPU this process may use."""
    raw = os.environ.get("SPIKETRUM_THREADS")
    if raw is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"SPIKETRUM_THREADS must be an integer, got {raw!r}") from exc
    return max(1, workers)


def encode_stream(samples, bank, config, flag=None):
    """Encode a whole sample stream; returns all codes in segment order.

    Segments are independent, so with SPIKETRUM_THREADS > 1 they encode on
    a thread pool; results are concatenated in segment order either way and
    the output is identical for any worker count. Non-finite samples are
    rejected, naming the first one's index; so are samples outside the
    fixed-point format's range, which would otherwise saturate silently.
    On the fixed datapath, flag (a fixed_point.SaturationFlag) is set when
    the arithmetic saturates during the pursuit; passing one without
    config.fixed is an error.
    """
    samples = np.asarray(samples, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ValueError(f"non-finite sample {samples[bad[0]]} at index {bad[0]}")
    buffers = segment_stream(samples, bank.segment_length)
    if config.fixed is not None:
        from . import fixed_point  # deferred: fixed_point imports this module

        fmt = fixed_point.QFormat(*config.fixed)
        lo, hi = fmt.raw_min / fmt.scale, fmt.raw_max / fmt.scale
        bad = np.flatnonzero((samples < lo) | (samples > hi))
        if bad.size:
            raise ValueError(f"sample {samples[bad[0]]} at index {bad[0]} outside "
                             f"the {fmt} range [{lo}, {hi}]")
        encode_one = lambda buf: fixed_point.encode_segment_fixed(buf, bank, config,
                                                                  flag=flag)
    elif flag is not None:
        raise ValueError("a saturation flag needs the fixed-point datapath "
                         "(config.fixed); the float datapath does not saturate")
    else:
        encode_one = lambda buf: encode_segment(buf, bank, config)
    workers = _worker_count()
    if workers > 1 and len(buffers) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_segment = list(pool.map(encode_one, buffers))
    else:
        per_segment = [encode_one(buf) for buf in buffers]
    return [code for segment in per_segment for code in segment]


CSV_HEADER = ["segment", "iteration", "kernel", "tau", "intensity"]


def write_codes_csv(codes, path):
    """Write codes as CSV, intensities at 9 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for c in codes:
            writer.writerow([c.segment_index, c.iteration, c.m, c.tau, f"{c.s:.9g}"])


def read_codes_csv(path):
    """Read a code CSV written by :func:`write_codes_csv`."""
    codes = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected code CSV header {header!r}")
        for row in reader:
            seg, iteration, m, tau, s = row
            codes.append(Code(int(m), int(tau), float(s), int(seg), int(iteration)))
    return codes
