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

One loop (_encode_block) pursues a block of segments in lockstep, so
that one round of numpy calls serves every segment in the block, on
either datapath: the float reference (_Float) or the 34-bit integer one
(fixed_point._Fixed). A datapath holds only its arithmetic and its
constants: units and real, threshold, cut and step_floor, the bank whose
spectrum_bound and peak_bound scale the bounds, one chunk call (peaks)
and the subtraction. The loop refreshes only the kernel rows that can
still win, and _RowBounds forms every cap, cut and step. Each (segment,
row) pair carries an upper bound on its peak |r[m, :]|: its peak when
last transformed, raised after every code by a step bounding how far
that subtraction moves the row at any lag (|s| * bank.peak_bound[n, m] +
step_floor for a code (n, tau, s); +inf where it clipped leaves only the
cap below), and capped every iteration by a bound read from the
residual's spectrum. Each iteration takes one rfft of the block's live
residuals, caps the bounds, gathers the pairs whose bound plus the
datapath's cut reaches their segment's best refreshed peak, and
inverse-transforms them _CHUNK at a time through a workspace allocated
once per block. Each chunk is reduced on the spot to each pair's first
lag at its peak |r| and the value there (the peak is that value's
magnitude), so no (40, 2048) row matrix is kept. A segment's winner is
the smallest kernel index at its best peak, then that row's first lag.
Each code's taps, two slices of its row before and after the circular
wrap, are gathered into one (codes, taps) window for the datapath to
subtract from in place; stopped segments leave the block.

The cap. Row m is the inverse transform of X * conj(K_m), X the rfft of
the residual and K_m the kernel's, so in exact arithmetic every
|r[m, u]| <= (1/2048) * sum_k w_k * |X_k| * |K_m(k)|, w_k being 1 at DC
and Nyquist and 2 elsewhere: |X| @ bank.spectrum_bound[m], one small
matrix product on the rfft the iteration takes anyway. Rounding in the
products and sums of that bound sits inside spectrum_bound's relative
1e-9. The computed X differs from the exact one by an FFT error of
relative norm eta (about 1e-15; see fixed_point), which by Parseval and
Cauchy-Schwarz moves the cap by at most eta * ||x|| * ||k_m||, and the
computed row by as much: far inside the cut, _ROUNDING_SLACK of the
segment's norm. Each pair also carries a floor, a lower bound on its peak
that only chooses the pairs a refresh starts with, those whose bound
reaches their segment's largest floor: a refresh sets it to the peak it
finds and every code lowers it by the step; a segment with no floor yet
starts from the pair with its largest bound. A wrong floor costs
refreshes, never a code, since refreshing goes on until no stale bound
can reach; so the floor needs no soundness, only a clamp to its own
bound, which keeps the pair with the largest floor in the first set when
rounding puts the floor above the bound (on the fixed datapath an exact
peak may exceed its cap by up to the cut).

Codes and residuals are bit for bit those of a full recompute of each
segment alone: each row is transformed and reduced on its own, so its
values do not depend on the chunk or block it is computed in, and any
refreshed set that holds every pair that can reach picks the same winner.
The direct path recomputes every row every iteration, one segment at a
time, and is the oracle.
"""

from __future__ import annotations

import csv
import operator
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
    switches to the Q5.28 integer datapath (fixed_point), whose own
    correlation leaves path at "fft" and whose range must hold the
    threshold. fixed=(5, 28) and fixed=None are kept as spellings of True
    and False. Frozen, so every value passes the checks below: change one
    with dataclasses.replace.
    """

    sps: int = 16
    threshold: float = 0.0
    path: str = "fft"
    fixed: bool = False

    def __post_init__(self):
        try:
            operator.index(self.sps)  # numpy integers pass, floats do not
        except TypeError:
            raise ValueError(f"sps must be an integer, got {self.sps!r}") from None
        if not 0 <= self.sps <= FFT_SIZE:
            raise ValueError(f"sps must be in [0, {FFT_SIZE}], got {self.sps}")
        if not (np.isfinite(self.threshold) and self.threshold >= 0):
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold}")
        if self.path not in ("direct", "fft"):
            raise ValueError(f"unknown correlation path {self.path!r}")
        if self.fixed in (None, (5, 28)):
            object.__setattr__(self, "fixed", self.fixed is not None)
        elif not isinstance(self.fixed, bool):
            raise ValueError(f"fixed must be a bool (the Q5.28 datapath), "
                             f"got {self.fixed!r}")
        if self.fixed:
            low, high = _fixed_range()
            if self.path != "fft":
                raise ValueError(f"path {self.path!r} does not apply with fixed: the "
                                 f"integer datapath has its own correlation")
            if self.threshold > high:
                raise ValueError(f"threshold {self.threshold} outside the Q5.28 range "
                                 f"[{low}, {high}]")


def _fixed_range():
    """The real values Q5.28 holds, as (lowest, highest)."""
    from .fixed_point import RAW_MAX, RAW_MIN, SCALE  # deferred: fixed_point imports this

    return RAW_MIN / SCALE, RAW_MAX / SCALE


def _check_samples(samples, config, length=None):
    """The samples as float64 if 1-D (length long, when given), finite and, on
    the fixed datapath, in range; else a ValueError naming the shape or the
    first bad index. Only a failure allocates."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or length not in (None, len(samples)):
        need = "one axis" if length is None else f"shape ({length},)"
        raise ValueError(f"samples need {need}, got shape {samples.shape}")
    limit = np.finfo(np.float64).max
    low, high = _fixed_range() if config.fixed else (-limit, limit)
    # a NaN sample makes min and max NaN, and every comparison with it false
    if not samples.size or (low <= samples.min() and samples.max() <= high):
        return samples
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ValueError(f"non-finite sample {samples[bad[0]]} at index {bad[0]}")
    first = np.flatnonzero((samples < low) | (samples > high))[0]
    raise ValueError(f"sample {samples[first]} at index {first} outside "
                     f"the Q5.28 range [{low}, {high}]")


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
    lockstep pursuit (see the module docstring) on the datapath config
    picks; the direct path recomputes every row every iteration and is the
    oracle. Samples are checked as by encode_stream.
    """
    _check_samples(buffer.data, config, FFT_SIZE)
    return _encode_block(buffer.data[None], buffer.segment_index, bank, config)[0]


def _encode_block(windows, first, bank, config, flag=None):
    """Pursue a block of windows in lockstep; one code list per window.

    Row j of windows (see segment_stream) holds segment first + j and ends
    up holding its residual, exactly as if it had been pursued on its own;
    flag is as for encode_stream.
    """
    if config.path == "direct":
        return [_encode_segment_direct(SegmentBuffer(x, first + j), bank, config)
                for j, x in enumerate(windows)]
    if not config.fixed:
        path = _Float(windows, bank, config)
    else:
        from .fixed_point import _Fixed  # deferred: fixed_point imports this module

        path = _Fixed(bank, config, flag)
    x = path.units(windows)  # the float path pursues windows in place
    length = bank.kernel_length
    rows = _RowBounds(len(windows), bank.kernel_count)
    codes = [[] for _ in windows]
    for iteration in range(config.sps):
        rows.refresh(x, path)
        m, u, s = rows.pick()
        stop = np.abs(s) < path.threshold
        if stop.any():
            windows[rows.live[stop]] = path.real(x[stop])
            rows.retire(stop)
            x, m, u, s = (a[~stop] for a in (x, m, u, s))
            if stop.all():
                break
        tau = np.where(u < MAX_SHIFT, u, u - FFT_SIZE)
        for j, n, shift, value in zip(rows.live.tolist(), m.tolist(), tau.tolist(),
                                      path.real(s).tolist()):
            codes[j].append(Code(n, shift, value, first + j, iteration))
        # each code's taps as two slices of its row, before and after the wrap
        slices = [(j, lag, min(length, FFT_SIZE - lag)) for j, lag in enumerate(u.tolist())]
        window = np.empty((len(m), length))
        for j, lag, head in slices:
            window[j, :head] = x[j, lag:lag + head]
            window[j, head:] = x[j, :length - head]
        clipped = path.subtract(window, m, s)
        for j, lag, head in slices:
            x[j, lag:lag + head] = window[j, :head]
            x[j, :length - head] = window[j, head:]
        rows.raise_bounds(m, s, clipped, path)
    windows[rows.live] = path.real(x)
    return codes


class _Float:
    """The float datapath of _encode_block: real units, the bank as given."""

    units = real = staticmethod(np.asarray)  # the residuals are the windows
    step_floor = 0.0  # the steps are |s| * peak_bound >= 0: adding 0.0 keeps their bits

    def __init__(self, windows, bank, config):
        self.bank, self.threshold = bank, config.threshold
        # the cut: _ROUNDING_SLACK of each segment's norm at the block's start
        energy = np.max(np.diag(bank.peak_bound))  # largest kernel energy
        self.slack = _ROUNDING_SLACK * np.sqrt(
            np.einsum("ij,ij->i", windows, windows) * energy) * (1.0 + energy)

    def cut(self, x, live):
        return self.slack[live]

    def peaks(self, segments, kernels, spectra, prod, out):
        """Per pair of a chunk: the first lag of the peak |r|, and r there."""
        r = correlate_all_fft(None, self.bank, kernels, spectra, prod, out)
        lag = np.abs(r).argmax(axis=1)
        return lag, r[np.arange(len(r)), lag]

    def subtract(self, window, m, s):
        """Take s times kernel m from each row of window, in place; nothing clips."""
        window -= s[:, None] * self.bank.samples_matrix[m]
        return np.zeros(len(m), dtype=bool)


class _RowBounds:
    """Peak bounds of every (segment, row) pair over a block's lockstep pursuit.

    Arrays are (live segments, rows); segments that stop are dropped from
    them (retire). It forms every cap, cut and step from what a datapath
    (path) supplies; the chunk workspace is allocated once per block.
    """

    def __init__(self, segments, kernels):
        shape = (segments, kernels)
        self.live = np.arange(segments)      # block position of each live segment
        self.peak = np.empty(shape)          # |value| if refreshed this iteration, else -1
        self.lag = np.zeros(shape, dtype=np.intp)  # first lag at the peak
        self.value = np.empty(shape)         # r (or the exact value) at that lag
        self.bound = np.full(shape, np.inf)  # + the cut >= the peak if refreshed now
        self.floor = np.full(shape, -np.inf)  # <= that peak, up to the cut
        self.spectra = np.empty((_CHUNK, FFT_SIZE // 2 + 1), dtype=complex)
        self.prod = np.empty_like(self.spectra)
        self.rows = np.empty((_CHUNK, FFT_SIZE))

    def refresh(self, x, path):
        """Refresh pairs until no stale pair's bound plus its segment's cut
        reaches that segment's best peak.

        x holds the live residuals in path's units. Every bound is first
        capped by its residual's spectrum, |rfft(x)| @ path.bank.spectrum_bound.T,
        and path.cut(x, live) gives each segment's cut. path.peaks(segments,
        kernels, spectra, prod, out) returns a chunk's lag and value per
        pair, and |value| is the pair's peak. The refresh starts with the
        pairs that reach their segment's largest floor, a lower bound on its
        best peak (a peak refreshed before, lowered by the steps since), or
        its largest bound where no floor is set yet; the clamp of each floor
        to its bound keeps the pair with the largest floor among them.
        Refreshed peaks become the bounds and the floors.
        """
        spectra = np.fft.rfft(x, axis=1)
        np.minimum(self.bound, np.abs(spectra) @ path.bank.spectrum_bound.T, out=self.bound)
        np.minimum(self.floor, self.bound, out=self.floor)
        self.peak.fill(-1.0)
        stale = self.bound + path.cut(x, self.live)[:, None]
        start = self.floor.max(axis=1)
        start = np.where(np.isfinite(start), start, self.bound.max(axis=1))
        todo = self.bound >= start[:, None]
        while todo.any():
            seg, row = np.nonzero(todo)
            for lo in range(0, len(seg), _CHUNK):
                s, n = seg[lo:lo + _CHUNK], row[lo:lo + _CHUNK]
                k = len(s)
                np.take(spectra, s, axis=0, out=self.spectra[:k], mode="clip")
                self.lag[s, n], self.value[s, n] = path.peaks(
                    s, n, self.spectra[:k], self.prod[:k], self.rows[:k])
            self.bound[todo] = self.floor[todo] = self.peak[todo] = np.abs(self.value[todo])
            stale[todo] = -np.inf
            todo = stale >= self.peak.max(axis=1)[:, None]

    def pick(self):
        """Per live segment: the smallest row at the largest peak, its lag and value."""
        m = self.peak.argmax(axis=1)
        pair = np.arange(len(m))
        return m, self.lag[pair, m], self.value[pair, m]

    def raise_bounds(self, m, s, clipped, path):
        """Raise the bounds and lower the floors after each live segment's code
        (m, s) by |s| * path.bank.peak_bound[m] + path.step_floor; a clipped
        subtraction is no longer s times a kernel, and +inf leaves its
        segment's pairs only the spectrum's cap."""
        step = np.abs(s)[:, None] * path.bank.peak_bound[m] + path.step_floor
        step[clipped] = np.inf
        self.bound += step
        self.floor -= step

    def retire(self, done):
        """Drop the done segments."""
        keep = ~done
        for name in ("live", "peak", "lag", "value", "bound", "floor"):
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
    worker count. Input that is not 1-D is rejected, naming its shape;
    non-finite samples are rejected, naming the first one's index; so are
    samples outside the fixed-point format's range, which would otherwise
    saturate silently. The per-segment entries share this check and also
    reject a buffer that does not hold exactly 2048 samples.
    On the fixed datapath, flag (a fixed_point.SaturationFlag) is set when
    the pursuit saturates: a code's correlation sits at the format's limit,
    or a subtraction clips. Passing one without config.fixed is an error.
    """
    samples = _check_samples(samples, config)
    if flag is not None and not config.fixed:
        raise ValueError("a saturation flag needs the fixed-point datapath "
                         "(config.fixed); the float datapath does not saturate")
    seg, span = bank.segment_length, _BLOCK * bank.segment_length
    encode_block = lambda start: _encode_block(
        segment_stream(samples[start:start + span], seg), start // seg, bank, config, flag)
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
    """Write codes as CSV, intensities at 9 significant digits.

    The bytes are csv.writer's: no field needs quoting, and rows end in
    its default \\r\\n.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines([f"{c.segment_index},{c.iteration},{c.m},{c.tau},{c.s:.9g}\r\n"
                       for c in codes])


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
