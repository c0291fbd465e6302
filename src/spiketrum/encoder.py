"""Greedy matching pursuit over the kernel dictionary.

The input stream is cut into disjoint 696-sample segments, each one row
of a (segments, 2048) window array (zeros past the segment), cut block
by block so that memory does not grow with the input. Each row is
decomposed greedily: correlate it against all kernels at all circular
lags, take the strongest response as a code (m, tau, s), subtract s
times the shifted kernel from the row, repeat; the row ends up holding
the residual. The spike rate knob is simply the number of iterations
allowed per segment, and an optional feedback threshold stops early once
responses become negligible.

Correlation is circular over the 2048 window, which makes each subtraction
an exact orthogonal projection: the residual energy drops by s**2 per
iteration. The transform path and the sliding-dot-product path compute the
same quantity and stay interchangeable.

The float and the fixed-point loop pursue a block of segments in
lockstep, so that one round of numpy calls serves every segment in the
block, and refresh only the kernel rows that can still win, through one
piece of bookkeeping (_RowBounds). Each (segment, row) pair carries an
upper bound on its peak |r[m, :]|: its peak when last transformed,
raised after every code by a step bounding how far that subtraction
moves the row at any lag (here |s| * bank.peak_bound[n, m] for a code
(n, tau, s); +inf forces a full refresh). Each iteration takes one rfft
of the block's live residuals, gathers the pairs whose bound plus the
datapath's cut reaches their segment's best refreshed peak, and
inverse-transforms them _CHUNK at a time through a workspace allocated
once per block. Each chunk is reduced on the spot to per-pair results
(here the peak, its first lag and the value there), so no (40, 2048) row
matrix is kept. A segment's winner is the smallest kernel index at its
best peak, then that row's first lag; one fancy-indexed update subtracts
the codes of the whole block, and segments that stop leave the block.

Codes and residuals are bit for bit those of a full recompute of each
segment alone: each row is transformed and reduced on its own, so its
values do not depend on the chunk or block it is computed in, and any
refreshed set that holds every pair that can reach picks the same winner.
The direct path recomputes every row every iteration, one segment at a
time, and is the oracle.
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
_BLOCK = 8    # segments one pool task pursues in lockstep
_CHUNK = 24   # (segment, row) pairs per correlation engine call


@dataclass
class SegmentBuffer:
    """One 2048-sample working buffer; holds the residual during encoding."""

    data: np.ndarray
    segment_index: int = 0

    @classmethod
    def from_samples(cls, samples, segment_index=0):
        """Load up to 2048 samples into a fresh zero-padded buffer."""
        samples = np.asarray(samples, dtype=np.float64)
        if len(samples) > FFT_SIZE:
            raise ValueError(f"{len(samples)} samples exceed buffer ({FFT_SIZE})")
        return cls(np.pad(samples, (0, FFT_SIZE - len(samples))), segment_index)


@dataclass(frozen=True)
class Code:
    """One matching pursuit result: kernel m shifted by tau, scaled by s."""

    m: int
    tau: int
    s: float
    segment_index: int = 0
    iteration: int = 0


@dataclass(frozen=True)
class EncoderConfig:
    """Knobs for one encoding run.

    sps caps codes per segment; threshold below which a response stops the
    segment (0 disables feedback); path picks the correlation engine; fixed
    switches to the integer datapath, given as (int_bits, frac_bits) of the
    34-bit format, whose own correlation leaves path at "fft" and whose
    range must hold the threshold. Frozen, so every value passes the checks
    below: change one with dataclasses.replace.
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
            fmt, low, high = _format_range(self.fixed)
            if self.path != "fft":
                raise ValueError(f"path {self.path!r} does not apply with fixed: the "
                                 f"integer datapath has its own correlation")
            if self.threshold > high:
                raise ValueError(f"threshold {self.threshold} outside the {fmt} range "
                                 f"[{low}, {high}]")


def _format_range(fixed):
    """The fixed-point format of (int_bits, frac_bits) and its real-valued range."""
    from .fixed_point import QFormat  # deferred: fixed_point imports this module

    fmt = QFormat(*fixed)
    return fmt, fmt.raw_min / fmt.scale, fmt.raw_max / fmt.scale


def _check_samples(samples, config):
    """The samples as float64 if finite and, on the fixed datapath, in range;
    else a ValueError naming the first bad index. Only a failure allocates."""
    samples = np.asarray(samples, dtype=np.float64)
    limit = np.finfo(np.float64).max
    fmt, low, high = (None, -limit, limit) if config.fixed is None else \
        _format_range(config.fixed)
    # a NaN sample makes min and max NaN, and every comparison with it false
    if not samples.size or (low <= samples.min() and samples.max() <= high):
        return samples
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ValueError(f"non-finite sample {samples[bad[0]]} at index {bad[0]}")
    first = np.flatnonzero((samples < low) | (samples > high))[0]
    raise ValueError(f"sample {samples[first]} at index {first} outside "
                     f"the {fmt} range [{low}, {high}]")


def segment_stream(samples, segment_len):
    """Cut a sample stream into zero-padded 2048-sample windows.

    Returns a (ceil(len / segment_len), 2048) float64 array whose row i
    holds segment i, zeros past its end. Empty input gives 0 rows.
    """
    if segment_len < 1 or segment_len > FFT_SIZE:
        raise ValueError(f"segment length {segment_len} outside [1, {FFT_SIZE}]")
    samples = np.asarray(samples, dtype=np.float64)
    full, tail = divmod(len(samples), segment_len)
    windows = np.zeros((full + (tail > 0), FFT_SIZE))
    windows[:full, :segment_len] = samples[:full * segment_len].reshape(full, segment_len)
    windows[full:, :tail] = samples[full * segment_len:]
    return windows


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
    pursuit calls it as its chunk engine: rows is an index array of
    kernel rows, spectrum holds one buffer spectrum per entry of rows (or
    one for all of them), and prod (len(rows), 1025) and out (len(rows),
    2048) are preallocated workspaces; buffer is then unused. Each row is
    transformed on its own, so a row comes out bit-identical whatever
    chunk it is computed in.
    """
    if spectrum is None:
        spectrum = np.fft.rfft(buffer.data)
    if out is None:
        return np.fft.irfft(spectrum * bank.conj_spectra[rows], n=FFT_SIZE, axis=1)
    np.take(bank.conj_spectra, rows, axis=0, out=prod, mode="clip")
    return np.fft.irfft(np.multiply(spectrum, prod, out=prod), n=FFT_SIZE,
                        axis=1, out=out)


def find_best_code(correlations, segment_index=0, iteration=0):
    """Pick the strongest response over all kernels and lags.

    The winner maximizes |r|; s keeps its sign. Lags past 1023 wrap to
    negative shifts. Ties resolve to the smallest kernel index, then the
    smallest lag (row-major argmax order).
    """
    correlations = np.asarray(correlations)
    flat = int(np.argmax(np.abs(correlations)))
    m, u = divmod(flat, correlations.shape[1])
    tau = u if u < MAX_SHIFT else u - FFT_SIZE
    return Code(m, tau, float(correlations[m, u]), segment_index, iteration)


def subtract_component(buffer, kernel, tau, s):
    """Remove s times kernel (a bank.samples_matrix row) at circular lag tau, in place."""
    if abs(tau) > MAX_SHIFT:
        raise ValueError(f"tau {tau} outside [{-MAX_SHIFT}, {MAX_SHIFT}]")
    start = tau % FFT_SIZE
    head = min(len(kernel), FFT_SIZE - start)  # taps before the wrap
    buffer.data[start:start + head] -= s * kernel[:head]
    buffer.data[:len(kernel) - head] -= s * kernel[head:]
    return buffer


def feedback_should_stop(code, threshold):
    """True when the response is too weak to keep encoding this segment."""
    return abs(code.s) < threshold


def encode_segment(buffer, bank, config):
    """Run matching pursuit on one buffer; mutates it into the residual.

    Stops after config.sps codes or on the first response below the
    feedback threshold, which is discarded rather than emitted, so every
    returned code satisfies |s| >= threshold. A one-buffer block of the
    lockstep pursuit (see the module docstring) on the FFT path; the
    direct path recomputes every row every iteration and is the oracle
    the FFT path is checked against. Samples are checked as by
    encode_stream. A fixed-point config is an error.
    """
    if config.fixed is not None:
        raise ValueError("encode_segment is the float datapath; a fixed-point config "
                         "(config.fixed) needs fixed_point.encode_segment_fixed")
    _check_samples(buffer.data, config)
    return _encode_block(buffer.data[None], buffer.segment_index, bank, config)[0]


def _encode_block(windows, first, bank, config):
    """Pursue a block of windows in lockstep; one code list per window.

    Row j of windows (see segment_stream) holds segment first + j and ends
    up holding its residual, exactly as if it had been pursued on its own.
    """
    if config.path == "direct":
        return [_encode_segment_direct(SegmentBuffer(x, first + j), bank, config)
                for j, x in enumerate(windows)]
    x = windows  # pursued in place until a stop compacts x into a copy
    energy = np.max(np.diag(bank.peak_bound))  # largest kernel energy
    slack = _ROUNDING_SLACK * np.sqrt(np.einsum("ij,ij->i", x, x) * energy) * (1.0 + energy)
    offsets = np.arange(bank.kernel_length)
    rows = _RowBounds(len(windows), bank.kernel_count)
    codes = [[] for _ in windows]
    for iteration in range(config.sps):
        rows.refresh(np.fft.rfft(x, axis=1), lambda kernels, spectra, prod, out:
                     correlate_all_fft(None, bank, kernels, spectra, prod, out),
                     _peak_lag_value, slack)
        m, u, s = rows.pick()
        stop = np.abs(s) < config.threshold
        if stop.any():
            rows.retire(stop, windows, x)
            keep = ~stop
            x, slack, m, u, s = x[keep], slack[keep], m[keep], u[keep], s[keep]
            if not keep.any():
                break
        _emit(codes, first, rows.live, m, u, s.tolist(), iteration)
        seg = np.arange(len(m))[:, None]
        idx = (u[:, None] + offsets) % FFT_SIZE
        x[seg, idx] -= s[:, None] * bank.samples_matrix[m]
        rows.raise_bounds(np.abs(s)[:, None] * bank.peak_bound[m])
    rows.retire(np.ones(len(rows.live), dtype=bool), windows, x)
    return codes


def _peak_lag_value(segments, kernels, r):
    """Float chunk reduction: per pair the peak |r|, its first lag and r there."""
    pair = np.arange(len(r))
    up, down = r.argmax(axis=1), r.argmin(axis=1)
    high, low = r[pair, up], -r[pair, down]
    # |r| peaks first at the earlier of the two extremes that reach it
    use_down = (low > high) | ((low == high) & (down < up))
    peak = np.maximum(high, low)
    return peak, peak, np.where(use_down, down, up), np.where(use_down, -low, high)


def _emit(codes, first, live, m, u, s, iteration):
    """Append one code per live segment: kernel m at lag u with intensity s."""
    tau = np.where(u < MAX_SHIFT, u, u - FFT_SIZE)
    for j, kernel, shift, value in zip(live.tolist(), m.tolist(), tau.tolist(), s):
        codes[j].append(Code(kernel, shift, value, first + j, iteration))


class _RowBounds:
    """Peak bounds of every (segment, row) pair over a block's lockstep pursuit.

    Arrays are (live segments, rows); segments that stop are dropped from
    them (retire). The chunk workspace is allocated once per block.
    """

    def __init__(self, segments, count):
        shape = (segments, count)
        self.live = np.arange(segments)      # block position of each live segment
        self.peak = np.empty(shape)          # max |r| if refreshed this iteration, else -1
        self.top = np.empty(shape)           # the key the winner maximizes, else -1
        self.lag = np.zeros(shape, dtype=np.intp)  # first lag at the top
        self.value = np.empty(shape)         # r (or the exact value) at that lag
        self.bound = np.full(shape, np.inf)  # >= the peak if refreshed now
        self.floor = np.zeros(shape)         # <= that peak, up to the cut
        self.first = np.ones(shape, dtype=bool)  # pairs the next refresh starts with
        self.spectra = np.empty((_CHUNK, FFT_SIZE // 2 + 1), dtype=complex)
        self.prod = np.empty_like(self.spectra)
        self.rows = np.empty((_CHUNK, FFT_SIZE))

    def refresh(self, spectra, correlate, reduce, cut):
        """Refresh pairs until no stale pair's bound plus its segment's cut
        reaches that segment's best peak.

        spectra holds one spectrum per live segment. correlate(kernels,
        spectra, prod, out) writes the rows of a chunk of pairs into out;
        reduce(segments, kernels, rows) returns the chunk's peak, top, lag
        and value per pair.
        """
        peak, top = self.peak, self.top
        peak.fill(-1.0)
        top.fill(-1.0)
        stale = self.bound + cut[:, None]
        todo = self.first
        while todo.any():
            seg, row = np.nonzero(todo)
            for lo in range(0, len(seg), _CHUNK):
                s, n = seg[lo:lo + _CHUNK], row[lo:lo + _CHUNK]
                k = len(s)
                np.take(spectra, s, axis=0, out=self.spectra[:k], mode="clip")
                r = correlate(n, self.spectra[:k], self.prod[:k], self.rows[:k])
                peak[s, n], top[s, n], self.lag[s, n], self.value[s, n] = \
                    reduce(s, n, r)
            self.bound[todo] = self.floor[todo] = peak[todo]
            stale[todo] = -np.inf
            todo = stale >= peak.max(axis=1)[:, None]

    def pick(self):
        """Per live segment: the smallest row at the largest top, its lag and value."""
        m = self.top.argmax(axis=1)
        pair = np.arange(len(m))
        return m, self.lag[pair, m], self.value[pair, m]

    def raise_bounds(self, step):
        """Raise the bounds by step (segments, rows) after the subtractions;
        +inf refreshes a pair next. The next refresh starts with the pairs
        that reach the largest floor, a lower bound on the best peak."""
        self.bound += step
        self.floor -= step
        self.first = self.bound >= self.floor.max(axis=1)[:, None]

    def retire(self, done, windows, residuals):
        """Write the residuals of the done segments back into windows and drop them."""
        windows[self.live[done]] = residuals[done]
        keep = ~done
        for name in ("live", "peak", "top", "lag", "value", "bound", "floor", "first"):
            setattr(self, name, getattr(self, name)[keep])


def _encode_segment_direct(buffer, bank, config):
    """The unpruned pursuit loop on the sliding-dot-product correlation."""
    codes = []
    for iteration in range(config.sps):
        code = find_best_code(correlate_all_direct(buffer, bank),
                              buffer.segment_index, iteration)
        if feedback_should_stop(code, config.threshold):
            break
        subtract_component(buffer, bank.samples_matrix[code.m], code.tau, code.s)
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

    Segments are independent: each task cuts the windows of _BLOCK
    segments (segment_stream) and pursues them in lockstep, so working
    memory does not grow with the input; with SPIKETRUM_THREADS > 1 the
    blocks encode on a thread pool, and the output is identical for any
    worker count. Non-finite samples are rejected, naming the first one's
    index; so are samples outside the fixed-point format's range, which
    would otherwise saturate silently; the per-segment entries share this check.
    On the fixed datapath, flag (a fixed_point.SaturationFlag) is set when
    the pursuit saturates: a code's correlation sits at the format's limit,
    or a subtraction clips. Passing one without config.fixed is an error.
    """
    samples = _check_samples(samples, config)
    if config.fixed is not None:
        from . import fixed_point  # deferred: fixed_point imports this module

        engine = lambda *block: fixed_point._encode_block_fixed(*block, flag=flag)
    elif flag is not None:
        raise ValueError("a saturation flag needs the fixed-point datapath "
                         "(config.fixed); the float datapath does not saturate")
    else:
        engine = _encode_block
    seg, span = bank.segment_length, _BLOCK * bank.segment_length
    encode_block = lambda start: engine(segment_stream(samples[start:start + span], seg),
                                        start // seg, bank, config)
    starts = range(0, len(samples), span)
    workers = _worker_count()
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_block = list(pool.map(encode_block, starts))
    else:
        per_block = [encode_block(start) for start in starts]
    return [code for block in per_block for segment in block for code in segment]


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
