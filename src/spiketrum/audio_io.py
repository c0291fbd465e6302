"""WAV ingestion and emission, 16-bit PCM mono only, no resampling."""

from __future__ import annotations

import os
import wave

import numpy as np

_SCALE = 32768.0

# The RIFF size field (32 bits) counts 36 header bytes plus the data bytes.
MAX_WAV_SAMPLES = (2 ** 32 - 1 - 36) // 2
# The header holds the rate and the byte rate, 2 * rate, in 32 bits each.
MAX_WAV_RATE = 2 ** 31 - 1


def read_wav(path, expected_rate=None):
    """Read a mono 16-bit PCM WAV as float64 samples in [-1, 1].

    Returns (samples, sample_rate). Rejects stereo and non-16-bit files,
    and a file holding fewer frames than its header declares, naming both
    counts and any stray byte; when expected_rate is given a differing file
    rate is an error naming both rates, never a silent resample.
    """
    try:
        with wave.open(os.fspath(path), "rb") as wav:
            channels = wav.getnchannels()
            if channels != 1:
                raise ValueError(f"mono required, file has {channels} channels")
            width = wav.getsampwidth()
            if width != 2:
                raise ValueError(
                    f"16-bit PCM required, file has {8 * width}-bit samples")
            rate = wav.getframerate()
            declared = wav.getnframes()
            frames = wav.readframes(declared)
    except wave.Error as exc:
        raise ValueError(f"not a readable WAV file: {exc}") from exc
    present, stray = divmod(len(frames), 2)
    if present != declared:
        extra = f" and {stray} stray byte" if stray else ""
        raise ValueError(f"truncated WAV file: the header declares {declared} frames, "
                         f"the file holds {present}{extra}")
    if expected_rate is not None and rate != expected_rate:
        raise ValueError(
            f"file sample rate {rate} Hz does not match bank rate "
            f"{expected_rate:g} Hz (resampling is not performed)")
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / _SCALE
    return samples, rate


def write_wav(path, samples, rate):
    """Write float samples as mono 16-bit PCM, clamping to [-1, 1].

    Uses the same 32768 scale as read_wav, so a round trip moves any
    sample by at most one quantization step. +-inf clamp to full scale;
    NaN has no PCM value, so it is a ValueError naming the first one's
    index, raised before the file is opened. So is a rate that is not a
    whole number in [1, MAX_WAV_RATE] Hz, which the header cannot hold,
    and samples that are not one axis (mono), naming their shape.
    """
    if not (float(rate).is_integer() and 1 <= rate <= MAX_WAV_RATE):
        raise ValueError(f"sample rate {rate!r} Hz is not a whole number in "
                         f"[1, {MAX_WAV_RATE}]")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError(f"mono samples need one axis, got shape {samples.shape}")
    nan = np.flatnonzero(np.isnan(samples))
    if nan.size:
        raise ValueError(f"NaN at index {nan[0]} cannot be written as PCM")
    pcm = np.clip(np.rint(samples * _SCALE), -32768, 32767).astype("<i2")
    with wave.open(os.fspath(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(rate))
        wav.writeframes(pcm.tobytes())
