"""Gammatone kernel dictionary: generation, persistence, and spectra.

The encoder works against a fixed dictionary of 40 unit-norm gammatone
kernels whose center frequencies are spaced uniformly on the ERB-rate
scale. Each kernel is 1353 samples long at 16 kHz; correlation happens
in a 2048-sample window, so a 696-sample segment plus the kernel tail
exactly fills the window (2048 = 696 + 1353 - 1).

A bank is its arrays: a (kernels, taps) waveform matrix and the center
frequencies, plus the spectra and bounds derived from them on
construction. Every consumer reads matrix rows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

FFT_SIZE = 2048
DEFAULT_SAMPLE_RATE = 16000.0
DEFAULT_KERNEL_COUNT = 40
DEFAULT_KERNEL_LENGTH = 1353
DEFAULT_FMIN = 20.0
DEFAULT_FMAX = 8000.0
DEFAULT_ORDER = 4

# Glasberg-Moore ERB model constants.
_ERB_Q = 21.4
_ERB_SCALE = 4.37
_BANDWIDTH_FACTOR = 1.019

# relative margin on peak_bound for rounding in its sum and in the FFTs
_BOUND_SLACK = 1e-9
_NORM_TOLERANCE = 1e-9  # |L2 norm - 1| allowed on load (generated kernels: ~1e-16)

_BANK_MAGIC = b"SPKB"
_BANK_VERSION = 1
_HEADER = struct.Struct("<4sIII d d d I")


class BankFormatError(ValueError):
    """Raised when a kernel bank file is malformed."""


def erb_rate(freq_hz):
    """Map frequency in Hz to the ERB-rate (ERB-number) scale.

    Parameters
    ----------
    freq_hz : float or ndarray
        Frequency in Hz, nonnegative.

    Returns
    -------
    float or ndarray
        ERB-rate value, 21.4 * log10(4.37 * f / 1000 + 1).
    """
    return _ERB_Q * np.log10(_ERB_SCALE * np.asarray(freq_hz) / 1000.0 + 1.0)


def erb_rate_inverse(erb):
    """Invert :func:`erb_rate`, mapping ERB-rate back to Hz."""
    return (1000.0 / _ERB_SCALE) * (10.0 ** (np.asarray(erb) / _ERB_Q) - 1.0)


def erb_bandwidth(freq_hz):
    """Equivalent rectangular bandwidth in Hz at a given center frequency."""
    return 24.7 * (_ERB_SCALE * np.asarray(freq_hz) / 1000.0 + 1.0)


def erb_center_frequencies(count, fmin=DEFAULT_FMIN, fmax=DEFAULT_FMAX):
    """Center frequencies spaced uniformly on the ERB-rate scale.

    Parameters
    ----------
    count : int
        Number of frequencies, at least 2.
    fmin, fmax : float
        Endpoint frequencies in Hz, 0 < fmin < fmax.

    Returns
    -------
    ndarray
        ``count`` strictly increasing frequencies; the first is exactly
        ``fmin`` and the last exactly ``fmax``.
    """
    if count < 2:
        raise ValueError(f"need at least 2 center frequencies, got {count}")
    if not (0.0 < fmin < fmax):
        raise ValueError(f"invalid frequency range [{fmin}, {fmax}]")
    freqs = erb_rate_inverse(np.linspace(erb_rate(fmin), erb_rate(fmax), count))
    # pin the endpoints; the round trip through log10/power is not exact
    freqs[0] = fmin
    freqs[-1] = fmax
    return freqs


def generate_gammatone(fc, fs=DEFAULT_SAMPLE_RATE, length=DEFAULT_KERNEL_LENGTH,
                       order=DEFAULT_ORDER):
    """Generate one unit-norm gammatone kernel.

    The kernel is t^(order-1) * exp(-2*pi*b*ERB(fc)*t) * cos(2*pi*fc*t)
    sampled from t = 0, truncated at ``length`` samples, then scaled to
    unit L2 norm. Low center frequencies do not fully decay inside the
    window; the truncation is accepted and the normalization absorbs it.

    Parameters
    ----------
    fc : float
        Center frequency in Hz, 0 < fc < fs / 2.
    fs : float
        Sample rate in Hz.
    length : int
        Number of samples, at least 1.
    order : int
        Gammatone order, at least 1.

    Returns
    -------
    ndarray
        ``length`` float64 samples with L2 norm 1.0.
    """
    # inclusive upper bound: the default bank tops out exactly at Nyquist
    if not (0.0 < fc <= fs / 2.0):
        raise ValueError(f"center frequency {fc} Hz outside (0, {fs / 2.0}] Hz")
    if length < 1:
        raise ValueError(f"kernel length must be positive, got {length}")
    if order < 1:
        raise ValueError(f"gammatone order must be positive, got {order}")
    t = np.arange(length, dtype=np.float64) / fs
    envelope = t ** (order - 1) * np.exp(
        -2.0 * np.pi * _BANDWIDTH_FACTOR * erb_bandwidth(fc) * t)
    g = envelope * np.cos(2.0 * np.pi * fc * t)
    norm = np.linalg.norm(g)
    if norm == 0.0:  # e.g. one tap at t = 0, where t**(order - 1) vanishes
        raise ValueError(f"all-zero gammatone at {fc} Hz, length {length}, order {order}")
    return g / norm


@dataclass
class BankConfig:
    """Generation parameters for a kernel bank."""

    kernel_count: int = DEFAULT_KERNEL_COUNT
    kernel_length: int = DEFAULT_KERNEL_LENGTH
    sample_rate: float = DEFAULT_SAMPLE_RATE
    fmin: float = DEFAULT_FMIN
    fmax: float = DEFAULT_FMAX
    order: int = DEFAULT_ORDER


@dataclass(eq=False)
class KernelBank:
    """The kernel dictionary as arrays, one row per kernel.

    ``samples_matrix`` holds the waveforms (kernels x taps: at least one
    kernel, at most FFT_SIZE taps) and ``center_frequencies`` their center
    frequencies in Hz. ``conj_spectra`` holds the conjugated
    nonnegative-frequency half of each row's 2048-point transform,
    zero-padded (the waveforms are real, so the negative half is redundant
    by conjugate symmetry). ``peak_bound[m, n]`` bounds the peak over all
    lags of the circular cross-correlation of kernels m and n (see
    :func:`cross_peak_bound`); both pursuit loops prune with it. Treat as
    read-only after construction; encoders on any number of threads may
    share one bank.
    """

    samples_matrix: np.ndarray = field(repr=False)
    center_frequencies: np.ndarray = field(repr=False)
    sample_rate: float = DEFAULT_SAMPLE_RATE
    fmin: float = DEFAULT_FMIN
    fmax: float = DEFAULT_FMAX
    order: int = DEFAULT_ORDER
    conj_spectra: np.ndarray = field(init=False, repr=False)
    peak_bound: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_shape(*self.samples_matrix.shape)
        self.conj_spectra = np.conj(
            np.fft.rfft(self.samples_matrix, n=FFT_SIZE, axis=1))
        self.peak_bound = cross_peak_bound(self.conj_spectra)

    @property
    def kernel_count(self):
        return len(self.samples_matrix)  # not .shape[0]: decode reads it once per event

    @property
    def kernel_length(self):
        return self.samples_matrix.shape[1]

    @property
    def segment_length(self):
        """Samples consumed per analysis window (window minus kernel tail)."""
        return FFT_SIZE - self.kernel_length + 1


def _check_shape(count, length):
    """Reject a bank of no kernels, or of kernels outside [1, FFT_SIZE] taps."""
    if count < 1:
        raise ValueError(f"a bank needs at least one kernel, got {count}")
    if not 1 <= length <= FFT_SIZE:
        raise ValueError(f"kernel length {length} outside [1, {FFT_SIZE}]")


def cross_peak_bound(spectra):
    """Bound on the peak over all lags of every pair's circular cross-correlation.

    spectra holds one row per kernel: the nonnegative-frequency half of its
    FFT_SIZE-point transform (conjugated or not). Entry [m, n] is (1/2048)
    * sum_k w_k * |K_m(k)| * |K_n(k)|, where w_k is 1 at DC and Nyquist and
    2 elsewhere, raised by a relative 1e-9 so that rounding never pulls it
    below the peak an FFT computes.
    """
    magnitude = np.abs(spectra)
    weight = np.full(magnitude.shape[1], 2.0)
    weight[[0, -1]] = 1.0
    # einsum rather than @: a BLAS product allocates BLAS work buffers
    # that the transform-only encode paths otherwise never need
    return np.einsum("mk,nk->mn", magnitude * weight, magnitude) * (
        (1.0 + _BOUND_SLACK) / FFT_SIZE)


def build_bank(config=None):
    """Build the kernel dictionary for a given configuration.

    Deterministic: identical configurations produce bit-identical banks.

    Parameters
    ----------
    config : BankConfig, optional
        Defaults to the standard 40-kernel bank, 20 Hz to 8 kHz at 16 kHz.

    Returns
    -------
    KernelBank
    """
    cfg = config or BankConfig()
    if cfg.fmax > cfg.sample_rate / 2.0:
        raise ValueError(
            f"fmax {cfg.fmax} Hz exceeds Nyquist {cfg.sample_rate / 2.0} Hz")
    _check_shape(cfg.kernel_count, cfg.kernel_length)  # before generating any taps
    freqs = erb_center_frequencies(cfg.kernel_count, cfg.fmin, cfg.fmax)
    samples = np.array([generate_gammatone(fc, cfg.sample_rate, cfg.kernel_length,
                                           cfg.order) for fc in freqs])
    return KernelBank(samples, freqs, cfg.sample_rate, cfg.fmin, cfg.fmax, cfg.order)


def _record_dtype(length):
    """One kernel record of the bank file: its center frequency, then its taps."""
    return np.dtype([("fc", "<f8"), ("samples", "<f8", (length,))])


def save_bank(bank, path):
    """Write a bank to its binary file format.

    Layout (little-endian): magic "SPKB", u32 version, u32 kernel count,
    u32 kernel length, f64 sample rate, f64 fmin, f64 fmax, u32 order,
    then per kernel one f64 center frequency followed by the f64 samples.
    Spectra are not stored; they are recomputed on load.
    """
    records = np.empty(bank.kernel_count, _record_dtype(bank.kernel_length))
    records["fc"] = bank.center_frequencies
    records["samples"] = bank.samples_matrix
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_BANK_MAGIC, _BANK_VERSION, bank.kernel_count,
                              bank.kernel_length, bank.sample_rate,
                              bank.fmin, bank.fmax, bank.order))
        fh.write(records.tobytes())


def load_bank(path):
    """Read a bank written by :func:`save_bank`.

    Raises
    ------
    BankFormatError
        On wrong magic, unsupported version, a kernel count or length the
        bank rejects, truncation, trailing bytes, or a kernel with a
        non-finite tap or a norm off 1 (the pursuit needs unit-norm
        kernels); the message names the failing byte offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _BANK_MAGIC:
        raise BankFormatError(f"bad magic {blob[:4]!r} at offset 0")
    if len(blob) < _HEADER.size:
        raise BankFormatError(
            f"truncated header: {len(blob)} bytes, need {_HEADER.size}")
    magic, version, count, length, rate, fmin, fmax, order = _HEADER.unpack_from(blob)
    if version != _BANK_VERSION:
        raise BankFormatError(f"unsupported version {version} at offset 4")
    try:
        _check_shape(count, length)
    except ValueError as exc:
        name, at = ("count", 8) if count < 1 else ("length", 12)
        raise BankFormatError(f"bad bank header at offset {at} (kernel {name}): "
                              f"{exc}") from exc
    offset = _HEADER.size
    record = 8 + 8 * length
    end = offset + count * record
    if end > len(blob):
        i = (len(blob) - offset) // record  # the first kernel cut short
        at = offset + i * record
        raise BankFormatError(f"truncated kernel {i}: need {record} bytes at offset {at}, "
                              f"file has {len(blob) - at}")
    if end != len(blob):
        raise BankFormatError(f"{len(blob) - end} trailing bytes at offset {end}")
    records = np.frombuffer(blob, _record_dtype(length), count, offset)
    norms = np.linalg.norm(records["samples"], axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _NORM_TOLERANCE))  # nan too
    if bad.size:
        i = bad[0]
        problem = ("a non-finite tap" if not np.isfinite(records["samples"][i]).all()
                   else f"L2 norm {float(norms[i])!r}, not 1 within {_NORM_TOLERANCE}")
        raise BankFormatError(f"kernel {i} at offset {offset + i * record} has {problem}")
    return KernelBank(records["samples"].copy(), records["fc"].copy(),
                      rate, fmin, fmax, order)
