"""The benchmark's workloads: seeded inputs, the timed chain, output checks.

Inputs are generated from the seed with numpy alone; the program under
test only ever receives the generated WAV files and code lists. Each
workload cycles over a fixed corpus in a closed loop with one client: the
next clip starts when the previous one has finished.

Every check here is independent of the code it checks where it can be:
spike mapping, spike-file bytes, overlap-add reconstruction and WAV
parsing are re-implemented below from the file formats and the paper's
constants, not taken from the package.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import struct
import wave

import numpy as np

from spiketrum import audio_io, decoder, encoder, fixed_point, itp

RATE = 16000
SEGMENT = 696          # samples per segment: 2048-sample window minus the kernel tail
WINDOW = 2048
KERNELS = 40
MAX_SHIFT = 1024
LEVELS = np.array([0.0065, 0.4115, 25.8744])   # intensity level per channel
CHANNELS = KERNELS * len(LEVELS)

SPS = 16
THRESHOLD = 0.01
QFORMAT = (5, 28)
DENSE_SPS = 64

NOISE_FLOOR = 10.0 ** (-80.0 / 20.0)   # -80 dB re full scale, as rms
PAUSE_SHARE = 0.3
S_TOLERANCE = 1e-9     # |s| agreement of the FFT path with the direct oracle
RECON_TOLERANCE = 1e-9  # relative, spike path against codes recovered from spikes

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_AER_HEADER = struct.Struct("<4sII d")
_AER_RECORD = np.dtype([("time", "<u8"), ("channel", "<u2")])


@dataclasses.dataclass
class Clip:
    """One corpus item. Utterances carry a WAV; dense chunks carry code columns."""

    index: int
    segments: int
    audio_s: float
    path: str = ""
    samples: np.ndarray | None = None  # the WAV as the program reads it
    sampled: int = 0                    # segment compared against a reference
    table: np.ndarray | None = None     # the same codes: segment, iteration, m, tau, s
    signal: np.ndarray | None = None    # exact reconstruction of those codes


@dataclasses.dataclass
class Context:
    """Per-run objects shared by the chain and the checks."""

    bank: object
    channel_map: object
    workdir: str

    def file(self, name):
        return os.path.join(self.workdir, name)


def even_fill(count, lo, hi):
    """count values that cover [lo, hi] evenly in every prefix.

    A golden-ratio sequence: whatever number of clips a run reaches, their
    lengths spread over the whole range, and every seed gets the same
    lengths, so seeds differ in content only.
    """
    return lo + (hi - lo) * ((np.arange(1, count + 1) * _GOLDEN) % 1.0)


# ---------------------------------------------------------------- inputs

def _split(rng, total, parts):
    """Split total samples into parts lengths of roughly equal size."""
    weights = rng.uniform(0.5, 1.5, parts)
    cuts = np.floor(np.cumsum(weights) / weights.sum() * total).astype(int)
    return np.diff(np.concatenate([[0], cuts]))


def _stratified(k, lo, hi, root):
    """Element k of a Kronecker sequence over [lo, hi], step frac(sqrt(root))."""
    return lo + (hi - lo) * ((k * math.sqrt(root)) % 1.0)


def _syllable(rng, n, k):
    """Voiced stretch number k of the corpus: gliding pitch, three formants.

    Pitch, glide, formants and loudness, which set how well 16 codes per
    segment capture a stretch, follow low-discrepancy sequences in k, so
    every corpus spans the same ranges evenly and seeds differ in phases,
    pause layout and noise. That keeps the corpus SNR steady across seeds.
    """
    t = np.arange(n) / RATE
    f0 = _stratified(k, 90.0, 240.0, 5) * (
        1.0 + _stratified(k, -0.2, 0.2, 11) * t / max(t[-1], 1e-9))
    phase = 2.0 * np.pi * np.cumsum(f0) / RATE
    formants = ((_stratified(k, 300, 900, 3), 90.0), (_stratified(k, 900, 2400, 7), 140.0),
                (_stratified(k, 2400, 3500, 13), 220.0))
    mean_f0 = float(f0.mean())
    out = np.zeros(n)
    for h in range(1, int(7000.0 / f0.max()) + 1):
        fh = h * mean_f0
        gain = 0.05 / h + sum(math.exp(-0.5 * ((fh - fc) / bw) ** 2)
                              for fc, bw in formants)
        out += gain * np.cos(h * phase + rng.uniform(0.0, 2.0 * np.pi))
    edge = min(int(0.02 * RATE), n // 2)
    if edge > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
        out[:edge] *= ramp
        out[n - edge:] *= ramp[::-1]
    peak = np.max(np.abs(out))
    level = _stratified(k, 0.05, 0.4, 2)
    return out * (level / peak) if peak > 0 else out


def utterance(rng, n, first):
    """Speech-like clip of n samples: harmonic syllables, 30% pauses, noise floor.

    Syllables are numbered from first; returns the clip and the next number.
    """
    syllables = max(1, int(round(n / (0.2 * RATE))))
    voiced = int(round(n * (1.0 - PAUSE_SHARE)))
    spans = _split(rng, voiced, syllables)
    gaps = _split(rng, n - voiced, syllables + 1)
    out = np.zeros(n)
    pos = int(gaps[0])
    for k, (span, gap) in enumerate(zip(spans, gaps[1:]), start=first):
        if span > 0:
            out[pos:pos + span] = _syllable(rng, int(span), k)
        pos += int(span + gap)
    return out + rng.normal(0.0, NOISE_FLOOR, n), first + syllables


def write_pcm16(path, samples):
    """Write mono 16-bit PCM; returns the samples as the file holds them."""
    pcm = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(RATE)
        fh.writeframes(pcm.tobytes())
    return pcm.astype(np.float64) / 32768.0


def read_pcm16(path):
    with wave.open(path, "rb") as fh:
        return np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")


# ----------------------------------------------------- reference helpers

def code_table(codes):
    """Codes as float64 columns: segment, iteration, m, tau, s."""
    return np.array([(c.segment_index, c.iteration, c.m, c.tau, c.s) for c in codes],
                    dtype=np.float64).reshape(-1, 5)


def expected_spikes(table):
    """Spike (time, channel) arrays for codes, sorted by time then channel.

    Nearest level to |s| with ties to the lower level; the spike sits at the
    segment start plus the shift clamped into the segment.
    """
    seg, m, tau, s = table[:, 0], table[:, 2], table[:, 3], table[:, 4]
    time = (seg * SEGMENT + np.clip(tau, 0, SEGMENT - 1)).astype(np.int64)
    level = np.argmin(np.abs(np.abs(s)[:, None] - LEVELS[None, :]), axis=1)
    channel = m.astype(np.int64) * len(LEVELS) + level
    order = np.lexsort((channel, time))
    return time[order], channel[order]


def aer_bytes(time, channel):
    """The binary spike file (.spka) for these events."""
    records = np.empty(len(time), dtype=_AER_RECORD)
    records["time"] = time
    records["channel"] = channel
    return _AER_HEADER.pack(b"SPKA", 1, CHANNELS, float(RATE)) + records.tobytes()


def spike_arrays(spikes):
    return (np.array([e.time for e in spikes], dtype=np.int64),
            np.array([e.channel for e in spikes], dtype=np.int64))


def overlap_add(table, kernels, length):
    """Linear reconstruction: s * kernel m at segment * 696 + tau, clipped to length."""
    out = np.zeros(length)
    klen = kernels.shape[1]
    for seg, _, m, tau, s in table:
        start = int(seg) * SEGMENT + int(tau)
        lo, hi = max(start, 0), min(start + klen, length)
        if lo < hi:
            out[lo:hi] += s * kernels[int(m), lo - start:hi - start]
    return out


def code_problems(table, segments, sps, threshold):
    """Range and ordering invariants every encoder output must satisfy."""
    if not len(table):
        return []
    seg, it, m, tau, s = table.T
    problems = []
    if not np.all(np.isfinite(s)):
        problems.append("non-finite intensity")
    if np.any((m < 0) | (m >= KERNELS)):
        problems.append("kernel index out of range")
    if np.any((tau < -MAX_SHIFT) | (tau >= MAX_SHIFT)):
        problems.append("shift out of range")
    if np.any((seg < 0) | (seg >= segments)):
        problems.append("segment index out of range")
    if np.any(np.abs(s) < threshold):
        problems.append("code below the feedback threshold")
    key = seg * (WINDOW + 1) + it
    if np.any(np.diff(key) <= 0):
        problems.append("codes not in segment, iteration order")
    starts = np.concatenate([[True], seg[1:] != seg[:-1]])
    first = np.maximum.accumulate(np.where(starts, np.arange(len(seg)), 0))
    if np.any(it != np.arange(len(seg)) - first):
        problems.append("iterations not numbered 0.. within a segment")
    if np.any(it >= sps):
        problems.append("more codes than the spike budget in a segment")
    return problems


def plant_wrong_code(codes, segment):
    """Swap the kernel of the first code in segment: an error the checks must catch."""
    codes = list(codes)
    for i, c in enumerate(codes):
        if c.segment_index == segment:
            codes[i] = dataclasses.replace(c, m=(c.m + 1) % KERNELS)
            break
    return codes


# ----------------------------------------------------------- workloads

class Utterance:
    """The ``spiketrum encode`` chain on speech-like WAV clips.

    read_wav -> encode_stream -> codes_to_spikes -> write_aer_binary, at
    sps 16 with feedback threshold 0.01. The direct correlation path is
    left out of the timed chain on purpose: it is the test oracle, and runs
    only in the reference check after timing.
    """

    def __init__(self, clips, seconds, fixed, parallel):
        self.clips = clips
        self.seconds = seconds
        self.fixed = fixed
        self.parallel = parallel
        self.config = encoder.EncoderConfig(
            sps=SPS, threshold=THRESHOLD, path="fft",
            fixed=QFORMAT if fixed else None)
        self.tables = {}   # clip index -> codes of its first run, for the SNR

    def threads(self, cpus):
        return cpus if self.parallel else 1

    def warm_up(self, bank):
        """Fill lazy per-bank state (fixed-point tables, FFT plans, the pool)."""
        t = np.arange(2 * SEGMENT) / RATE
        encoder.encode_stream(0.2 * np.sin(2 * np.pi * 440.0 * t), bank,
                              dataclasses.replace(self.config, sps=1))

    def make_corpus(self, rng, ctx):
        corpus = []
        syllable = 1
        for index, seconds in enumerate(even_fill(self.clips, *self.seconds)):
            n = int(round(seconds * RATE))
            path = ctx.file(f"clip{index:03d}.wav")
            waveform, syllable = utterance(rng, n, syllable)
            samples = write_pcm16(path, waveform)
            segments = -(-n // SEGMENT)
            peaks = [np.max(np.abs(samples[i * SEGMENT:(i + 1) * SEGMENT]))
                     for i in range(segments)]
            voiced = [i for i, peak in enumerate(peaks) if peak > 0.05]
            sampled = int(rng.choice(voiced)) if voiced else int(np.argmax(peaks))
            corpus.append(Clip(index, segments, n / RATE, path=path,
                               samples=samples, sampled=sampled))
        return corpus

    def prepare(self, clip):
        """The program's input for one run: the clip's WAV file."""
        return clip.path

    def run(self, ctx, clip, path, plant):
        """The timed chain for one clip."""
        bank = ctx.bank
        samples, _ = audio_io.read_wav(path, expected_rate=bank.sample_rate)
        codes = encoder.encode_stream(samples, bank, self.config)
        if plant:
            codes = plant_wrong_code(codes, clip.sampled)
        spikes = itp.codes_to_spikes(codes, ctx.channel_map, bank.segment_length)
        itp.write_aer_binary(spikes, ctx.file("out.spka"), bank.sample_rate,
                             ctx.channel_map.total_channels)
        return codes

    def check(self, ctx, clip, codes):
        """Untimed checks of one run; returns (problems, codes of the sampled segment)."""
        table = code_table(codes)
        problems = code_problems(table, clip.segments, SPS, THRESHOLD)
        if self.fixed:
            raw = table[:, 4] * 2.0 ** QFORMAT[1]
            if np.any(raw != np.rint(raw)) or np.any(np.abs(table[:, 4]) > 2.0 ** QFORMAT[0]):
                problems.append("intensity off the Q5.28 grid")
        else:
            seg = table[:, 0].astype(int)
            captured = np.bincount(seg, weights=table[:, 4] ** 2, minlength=clip.segments)
            pad = clip.segments * SEGMENT - len(clip.samples)
            energy = np.sum(np.pad(clip.samples, (0, pad)).reshape(-1, SEGMENT) ** 2, axis=1)
            if np.any(captured > energy * (1 + 1e-9) + 1e-12):
                problems.append("codes capture more energy than their segment holds")
        with open(ctx.file("out.spka"), "rb") as fh:
            if fh.read() != aer_bytes(*expected_spikes(table)):
                problems.append("spike file differs from the codes' spikes")
        self.tables.setdefault(clip.index, table)
        return problems, table[table[:, 0] == clip.sampled]

    def finish(self, ctx, corpus, kept):
        """Reference checks on each clip's sampled segment, after timing.

        kept maps clip index to a list of (op number, sampled codes). Returns
        the failed op numbers and the exact counts of the fixed datapath.
        """
        failed = set()
        counts = {"iterations": 0, "parity_matched": 0, "parity_checked": 0}
        for clip in corpus:
            start = clip.sampled * SEGMENT
            window = clip.samples[start:start + SEGMENT]
            buffer = encoder.SegmentBuffer.from_samples(window, clip.sampled)
            if self.fixed:
                reference = code_table(fixed_point.encode_segment_fixed(
                    buffer, ctx.bank, self.config))
                floating = code_table(encoder.encode_segment(
                    encoder.SegmentBuffer.from_samples(window, clip.sampled),
                    ctx.bank, dataclasses.replace(self.config, fixed=None)))
                pairs = min(len(reference), len(floating))
                counts["iterations"] += len(reference) + (len(reference) < SPS)
                counts["parity_checked"] += pairs
                counts["parity_matched"] += int(np.sum(np.all(
                    reference[:pairs, 2:4] == floating[:pairs, 2:4], axis=1)))
            else:
                reference = code_table(encoder.encode_segment(
                    buffer, ctx.bank, dataclasses.replace(self.config, path="direct")))
            for op, got in kept.get(clip.index, ()):
                same = (len(got) == len(reference)
                        and np.array_equal(got[:, :4], reference[:, :4]))
                if same and self.fixed:
                    same = np.array_equal(got[:, 4], reference[:, 4])
                elif same:
                    same = bool(np.all(np.abs(got[:, 4] - reference[:, 4]) <= S_TOLERANCE))
                if not same:
                    failed.add(op)
        return failed, counts

    def snr_parts(self, ctx, corpus):
        """(signal energy, error energy) of the code-path reconstruction.

        Clips the timed loop did not reach are encoded here, so the SNR
        covers the whole corpus whatever the speed of the run.
        """
        signal = error = 0.0
        for clip in corpus:
            table = self.tables.get(clip.index)
            if table is None:
                table = code_table(encoder.encode_stream(clip.samples, ctx.bank, self.config))
            recon = overlap_add(table, ctx.bank.samples_matrix, len(clip.samples))
            signal += float(clip.samples @ clip.samples)
            error += float((clip.samples - recon) @ (clip.samples - recon))
        return signal, error


class DenseDecode:
    """Everything downstream of the encoder, on dense synthetic code streams.

    codes_to_spikes -> write_aer_binary -> write_codes_csv -> encoding_report
    -> read_aer -> reconstruct_from_spikes -> write_wav, per chunk.
    """

    def __init__(self, clips, segments):
        self.clips = clips
        self.segments = segments
        self.energy = {}   # clip index -> (signal energy, CSV code-path error energy)

    def threads(self, cpus):
        return 1

    def warm_up(self, bank):
        channel_map = itp.ChannelMap(kernel_count=bank.kernel_count)
        codes = [encoder.Code(m, 0, s, 0, i)
                 for i, (m, s) in enumerate(((0, 0.01), (1, 0.5), (2, 30.0)))]
        spikes = itp.codes_to_spikes(codes, channel_map, bank.segment_length)
        decoder.reconstruct_from_spikes(spikes, bank, channel_map, WINDOW)

    def make_corpus(self, rng, ctx):
        corpus = []
        sizes = np.rint(even_fill(self.clips, *self.segments)).astype(int)
        for index, segments in enumerate(sizes):
            count = segments * DENSE_SPS
            seg = np.repeat(np.arange(segments), DENSE_SPS)
            it = np.tile(np.arange(DENSE_SPS), segments)
            m = rng.integers(0, KERNELS, count)
            tau = rng.integers(-MAX_SHIFT, MAX_SHIFT, count)
            # log-uniform |s| over 1e-3..1e2 lands on all three levels
            # (about 46%, 36% and 18% of codes)
            s = np.exp(rng.uniform(math.log(1e-3), math.log(1e2), count))
            s *= rng.choice((-1.0, 1.0), count)
            table = np.column_stack([seg, it, m, tau, s]).astype(np.float64)
            length = segments * SEGMENT + WINDOW
            corpus.append(Clip(index, int(segments), float(segments * SEGMENT / RATE),
                               table=table,
                               signal=overlap_add(table, ctx.bank.samples_matrix, length)))
        return corpus

    def prepare(self, clip):
        """The chunk's codes as the program takes them, built outside timing.

        Built per run and dropped after it, so only one chunk's code objects
        are alive at a time.
        """
        return [encoder.Code(int(c[2]), int(c[3]), float(c[4]), int(c[0]), int(c[1]))
                for c in clip.table]

    def run(self, ctx, clip, codes, plant):
        bank, channel_map = ctx.bank, ctx.channel_map
        if plant:
            codes = plant_wrong_code(codes, 0)
        spikes = itp.codes_to_spikes(codes, channel_map, bank.segment_length)
        itp.write_aer_binary(spikes, ctx.file("out.spka"), bank.sample_rate,
                             channel_map.total_channels)
        encoder.write_codes_csv(codes, ctx.file("out.csv"))
        report = decoder.encoding_report(clip.signal, codes, spikes, bank,
                                         channel_map, bank.sample_rate)
        read, _, _ = itp.read_aer(ctx.file("out.spka"))
        recon = decoder.reconstruct_from_spikes(read, bank, channel_map, len(clip.signal))
        audio_io.write_wav(ctx.file("out.wav"), recon, bank.sample_rate)
        return spikes, report, read, recon

    def check(self, ctx, clip, out):
        spikes, report, read, recon = out
        bank, channel_map = ctx.bank, ctx.channel_map
        problems = []
        time, channel = expected_spikes(clip.table)
        got = spike_arrays(spikes)
        if not (np.array_equal(got[0], time) and np.array_equal(got[1], channel)):
            problems.append("spikes differ from the codes' level mapping")
        expected = aer_bytes(time, channel)
        with open(ctx.file("out.spka"), "rb") as fh:
            if fh.read() != expected:
                problems.append("spike file bytes differ")
        itp.write_aer_binary(read, ctx.file("again.spka"), bank.sample_rate,
                             channel_map.total_channels)
        with open(ctx.file("again.spka"), "rb") as fh:
            if fh.read() != expected:
                problems.append("spike file does not round-trip byte for byte")
        with open(ctx.file("out.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["segment", "iteration", "kernel", "tau", "intensity"] \
                or len(rows) != len(clip.table) + 1:
            problems.append("code CSV header or row count wrong")
        else:
            parsed = np.array(rows[1:], dtype=np.float64)
            if not (np.array_equal(parsed[:, :4], clip.table[:, :4])
                    and np.all(np.abs(parsed[:, 4] - clip.table[:, 4])
                               <= 1e-8 * np.abs(clip.table[:, 4]))):
                problems.append("code CSV rows differ from the codes")
            if clip.index not in self.energy:
                error = clip.signal - overlap_add(parsed, bank.samples_matrix,
                                                  len(clip.signal))
                self.energy[clip.index] = (float(clip.signal @ clip.signal),
                                           float(error @ error))
        if (report["code_count"] != len(clip.table)
                or report["spike_count"] != len(clip.table)
                or report["snr_code_db"] is None or report["snr_code_db"] < 100.0):
            problems.append("encoding report disagrees with the codes")
        recovered = decoder.reconstruct_from_codes(
            itp.spikes_to_codes(read, channel_map, bank.segment_length), bank, len(recon))
        if np.max(np.abs(recon - recovered)) > RECON_TOLERANCE * (1.0 + np.max(np.abs(recon))):
            problems.append("spike reconstruction differs from its codes' reconstruction")
        wav = read_pcm16(ctx.file("out.wav"))
        if not np.array_equal(wav, np.clip(np.rint(recon * 32768.0), -32768, 32767)):
            problems.append("decoded WAV differs from the reconstruction")
        return problems, None

    def finish(self, ctx, corpus, kept):
        return set(), {}

    def snr_parts(self, ctx, corpus):
        """(signal energy, error energy) of the codes as the code CSV stores them.

        The spike path is no measure of quality here: it clamps the shift
        into the segment, and most synthetic shifts lie outside it.
        """
        parts = list(self.energy.values())
        return sum(p[0] for p in parts), sum(p[1] for p in parts)


def build(name):
    """A fresh workload object by name (each keeps per-run state)."""
    if name == "utterance_encode":
        # The production path: what `spiketrum encode` does to each clip.
        # Float correlation takes about 80% of its time, and it is the only
        # workload that uses the thread pool. Pauses end segments early, so
        # both the per-segment and the per-iteration costs show.
        return Utterance(clips=16, seconds=(0.5, 3.0), fixed=False, parallel=True)
    if name == "utterance_fixed":
        # The Q5.28 integer datapath, one thread, shorter clips: fixed_point
        # does nearly all the work, below real time. The float correlation
        # and the pool are bypassed, so a float-path change should leave
        # this workload unchanged.
        return Utterance(clips=24, seconds=(0.12, 0.42), fixed=True, parallel=False)
    if name == "dense_decode":
        # Everything downstream of the encoder: per-event Python objects in
        # itp and decoder take all of its time, and no pursuit runs. Spike
        # files are written and read through the same layer, so a change
        # that speeds one side and slows the other shows here.
        return DenseDecode(clips=24, segments=(40, 120))
    raise KeyError(name)


NAMES = ("utterance_encode", "utterance_fixed", "dense_decode")
