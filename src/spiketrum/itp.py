"""Intensity-to-place coding: codes to spikes on 120 channels, and back.

Every kernel owns three output channels, one per discrete intensity level.
A code becomes a single spike: the channel names the kernel and the level
nearest to |s|, the spike time is the segment start plus the (nonnegative,
clamped) shift. The levels are the paper's three, fixed because spike
files do not record them; ChannelMap.decode is the one place a channel
turns back into a kernel and a level. A spike train is a numpy record
array of SPIKE_DTYPE, the binary file's record layout; it serializes to a
plain text event list or to a header followed by the records' bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .encoder import Code

DEFAULT_LEVELS = (0.0065, 0.4115, 25.8744)

# One spike: absolute sample time and output channel, packed little-endian
# exactly as each record of a .spka file.
SPIKE_DTYPE = np.dtype([("time", "<u8"), ("channel", "<u2")])
_TIME_MAX = int(np.iinfo(SPIKE_DTYPE["time"]).max)
_INT64 = np.iinfo(np.int64)

_AER_MAGIC = b"SPKA"
_AER_VERSION = 1
_AER_HEADER = struct.Struct("<4sII d")


class AerFormatError(ValueError):
    """Raised when a spike train file is malformed."""


@dataclass(frozen=True)
class ChannelMap:
    """Channel layout: kernel index major, intensity level minor.

    The paper's three levels are constants: spike files do not record them."""

    kernel_count: int = 40

    levels = DEFAULT_LEVELS
    channels_per_kernel = len(DEFAULT_LEVELS)

    def __post_init__(self):
        # channel ids must fit the spike record's u2 field
        most = (np.iinfo(SPIKE_DTYPE["channel"]).max + 1) // self.channels_per_kernel
        if not 1 <= self.kernel_count <= most:
            raise ValueError(f"kernel_count {self.kernel_count} outside [1, {most}]: "
                             f"spike channels are 16-bit")

    @property
    def total_channels(self):
        return self.kernel_count * self.channels_per_kernel

    def decode(self, channel):
        """(kernel index, level value) arrays of a channel id array; an id
        outside [0, total_channels) is an AerFormatError (a ValueError)."""
        bad = (channel < 0) | (channel >= self.total_channels)
        if bad.any():
            raise AerFormatError(
                f"channel {channel[bad][0]} outside [0, {self.total_channels})")
        kernel, level = np.divmod(channel, self.channels_per_kernel)
        return kernel, np.take(self.levels, level)


def channel_of(m, level, channel_map=ChannelMap()):
    """Channel id for kernel m at intensity level; bijective over the grid."""
    if not 0 <= m < channel_map.kernel_count:
        raise ValueError(f"kernel index {m} outside [0, {channel_map.kernel_count})")
    if not 0 <= level < channel_map.channels_per_kernel:
        raise ValueError(
            f"level {level} outside [0, {channel_map.channels_per_kernel})")
    return m * channel_map.channels_per_kernel + level


def quantize_intensity(s, channel_map=ChannelMap()):
    """Index of the level nearest to |s|, ties to the lower level.

    Implemented as the subtract-and-compare chain the selection reduces to
    in a datapath: pairwise comparisons of the absolute differences, with
    <= steering toward the lower index.
    """
    mag = abs(s)
    d0, d1, d2 = (abs(mag - c) for c in channel_map.levels)
    if d0 <= d1:
        return 0 if d0 <= d2 else 2
    return 1 if d1 <= d2 else 2


def _spike_time(code, segment_len):
    """A code's spike time as a Python int: its segment's start plus the clamped shift."""
    return code.segment_index * int(segment_len) + min(max(code.tau, 0), segment_len - 1)


def _held(value):
    """A Python int held to int64's range."""
    return min(max(value, _INT64.min), _INT64.max)


def _time_error(index, code, segment_len):
    return ValueError(f"code {index} (segment {code.segment_index}, tau {code.tau}) has "
                      f"spike time {_spike_time(code, segment_len)}, outside the spike "
                      f"record's time field [0, {_TIME_MAX}]")


def codes_to_spikes(codes, channel_map, segment_len):
    """One spike per code, sorted by time then channel.

    The shift clamps to [0, segment_len) so the event never precedes its
    segment; the full signed shift survives only at the code level. The
    level is quantize_intensity's: argmin takes the first of equal
    distances, so ties go to the lower level. A kernel index outside the
    map, a negative segment, a non-finite intensity and a spike time past
    the record's u8 field are ValueErrors raised before any spike is built,
    the last naming the first such code; a field past int64 meets the same
    checks.
    """
    codes = list(codes)
    fields = [("segment", "i8"), ("tau", "i8"), ("m", "i8"), ("s", "f8")]
    try:
        table = np.array([(c.segment_index, c.tau, c.m, c.s) for c in codes], dtype=fields)
    except OverflowError:
        # a field past int64: its shift clamps as below, and a kernel index or
        # segment held at the int64 limit fails its check as it would unheld
        last = int(segment_len) - 1
        table = np.array([(_held(c.segment_index), min(max(c.tau, 0), last), _held(c.m), c.s)
                          for c in codes], dtype=fields)
    bad = np.flatnonzero((table["m"] < 0) | (table["m"] >= channel_map.kernel_count))
    if bad.size:
        raise ValueError(f"kernel index {codes[bad[0]].m} outside "
                         f"[0, {channel_map.kernel_count})")
    if (table["segment"] < 0).any():
        raise ValueError(f"negative segment index {min(c.segment_index for c in codes)}")
    if not np.isfinite(table["s"]).all():
        raise ValueError("non-finite intensity: no level is nearest to it")
    distance = np.abs(np.abs(table["s"])[:, None] - np.array(channel_map.levels))
    channel = (table["m"] * channel_map.channels_per_kernel
               + np.argmin(distance, axis=1))
    # u8 arithmetic, exact for every segment at or below its limit
    shift = np.clip(table["tau"], 0, segment_len - 1).astype(np.uint64)
    segment = table["segment"].astype(np.uint64)
    late = np.flatnonzero(segment > (np.uint64(_TIME_MAX) - shift) // np.uint64(segment_len))
    if late.size:
        raise _time_error(late[0], codes[late[0]], segment_len)
    time = segment * np.uint64(segment_len) + shift
    order = np.lexsort((channel, time))
    return np.rec.fromarrays([time[order], channel[order]], dtype=SPIKE_DTYPE)


def spikes_to_codes(spikes, channel_map, segment_len):
    """Recover quantized codes from spikes; s becomes the level center value.

    Iteration numbers restart per segment in arrival order; they are not
    recoverable from the spike train.
    """
    kernel, level = channel_map.decode(spikes["channel"])
    counters = {}
    codes = []
    for time, m, s in zip(spikes["time"].tolist(), kernel.tolist(), level.tolist()):
        segment, tau = divmod(time, segment_len)
        iteration = counters.get(segment, 0)
        counters[segment] = iteration + 1
        codes.append(Code(m=m, tau=tau, s=s, segment_index=segment,
                          iteration=iteration))
    return codes


def write_aer_text(spikes, path):
    """One `time,channel` line per event."""
    with open(path, "w") as fh:
        for time, channel in spikes.tolist():
            fh.write(f"{time},{channel}\n")


def read_aer_text(path):
    """Parse `time,channel` lines; each value must fit its SPIKE_DTYPE field."""
    times, channels = [], []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    time, channel = map(int, line.split(","))
                except ValueError as exc:
                    raise AerFormatError(
                        f"bad event on line {lineno}: {line!r}") from exc
                if not (0 <= time < 2 ** 64 and 0 <= channel < 2 ** 16):
                    raise AerFormatError(
                        f"event out of range on line {lineno}: {line!r} "
                        f"(time in [0, 2**64), channel in [0, 2**16))")
                times.append(time)
                channels.append(channel)
    except UnicodeDecodeError as exc:
        raise AerFormatError(
            f"binary content at byte {exc.start}; not a text spike file") from exc
    return np.rec.fromarrays([np.array(times, dtype=np.uint64), channels],
                             dtype=SPIKE_DTYPE)


def write_aer_binary(spikes, path, sample_rate, channel_count=120):
    """Header (magic, version, channel count, sample rate) then fixed records.

    A spike on a channel at or past channel_count, which read_aer_binary
    would reject, is a ValueError naming the first one; nothing is written.
    """
    records = np.asarray(spikes, dtype=SPIKE_DTYPE)
    bad = np.flatnonzero(records["channel"] >= channel_count)
    if bad.size:
        raise ValueError(f"spike {bad[0]} on channel {records['channel'][bad[0]]} "
                         f"exceeds declared count {channel_count}")
    with open(path, "wb") as fh:
        fh.write(_AER_HEADER.pack(_AER_MAGIC, _AER_VERSION, channel_count,
                                  sample_rate))
        fh.write(records.tobytes())


def read_aer_binary(path):
    """Returns (spikes, sample_rate, channel_count); spikes is read-only."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _AER_MAGIC:
        raise AerFormatError(f"bad magic {blob[:4]!r} at offset 0")
    if len(blob) < _AER_HEADER.size:
        raise AerFormatError(
            f"truncated header: {len(blob)} bytes, need {_AER_HEADER.size}")
    magic, version, channel_count, sample_rate = _AER_HEADER.unpack_from(blob)
    if version != _AER_VERSION:
        raise AerFormatError(f"unsupported version {version} at offset 4")
    body = len(blob) - _AER_HEADER.size
    record = SPIKE_DTYPE.itemsize
    if body % record:
        raise AerFormatError(
            f"truncated record at offset {_AER_HEADER.size + body - body % record}")
    spikes = np.frombuffer(blob, SPIKE_DTYPE, offset=_AER_HEADER.size).view(np.recarray)
    bad = np.flatnonzero(spikes.channel >= channel_count)
    if len(bad):
        raise AerFormatError(
            f"channel {spikes.channel[bad[0]]} at offset "
            f"{_AER_HEADER.size + bad[0] * record} exceeds declared count {channel_count}")
    return spikes, sample_rate, channel_count


def read_aer(path):
    """Read either spike format, sniffing the binary magic.

    Returns (spikes, sample_rate or None, channel_count or None); the text
    format carries no header so its metadata comes back as None.
    """
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _AER_MAGIC:
        return read_aer_binary(path)
    spikes = read_aer_text(path)
    return spikes, None, None
