"""Intensity-to-place coding and spike file formats."""

import re
import struct

import numpy as np
import pytest

from spiketrum import itp
from spiketrum.decoder import reconstruct_from_spikes
from spiketrum.encoder import Code, EncoderConfig, SegmentBuffer, encode_segment


def train(times, channels):
    return np.rec.fromarrays([times, channels], dtype=itp.SPIKE_DTYPE)


class TestChannelMap:
    def test_defaults(self, channel_map):
        assert channel_map.levels == itp.DEFAULT_LEVELS
        assert channel_map.channels_per_kernel == 3
        assert channel_map.total_channels == 120

    def test_levels_are_not_settable(self):
        # a spike file does not record its levels: a train made with other
        # levels would decode at the default amplitudes
        with pytest.raises(TypeError):
            itp.ChannelMap(levels=(0.01, 1.0, 10.0))

    @pytest.mark.parametrize("count", [0, -2, 21846, 30000])
    def test_kernel_count_must_fit_the_channel_field(self, count):
        # 21845 kernels fill the u2 channel field; one more would wrap
        with pytest.raises(ValueError, match=rf"^kernel_count {count} outside \[1, 21845\]"):
            itp.ChannelMap(kernel_count=count)
        assert itp.ChannelMap(kernel_count=21845).total_channels == 65535

    def test_decode(self, channel_map):
        kernel, level = channel_map.decode(np.array([0, 22, 119], dtype=np.uint16))
        assert kernel.tolist() == [0, 7, 39]
        assert level.tolist() == [0.0065, 0.4115, 25.8744]
        for m in range(40):
            for idx in range(3):
                kernel, level = channel_map.decode(np.array([itp.channel_of(m, idx)]))
                assert (kernel[0], level[0]) == (m, channel_map.levels[idx])

    def test_decode_names_the_first_channel_out_of_range(self, channel_map):
        for channels, first in (([5, 130, 120], 130), ([-1, 200], -1)):
            with pytest.raises(itp.AerFormatError,
                               match=rf"^channel {first} outside \[0, 120\)$"):
                channel_map.decode(np.array(channels))

    def test_channel_of(self, channel_map):
        assert itp.channel_of(0, 0, channel_map) == 0
        assert itp.channel_of(7, 1, channel_map) == 22
        assert itp.channel_of(39, 2, channel_map) == 119

    def test_channel_of_bijective(self, channel_map):
        seen = {itp.channel_of(m, level, channel_map)
                for m in range(40) for level in range(3)}
        assert seen == set(range(120))

    def test_channel_of_range_errors(self, channel_map):
        with pytest.raises(ValueError):
            itp.channel_of(40, 0, channel_map)
        with pytest.raises(ValueError):
            itp.channel_of(0, 3, channel_map)
        with pytest.raises(ValueError):
            itp.channel_of(-1, 0, channel_map)


class TestQuantizeIntensity:
    def test_level_values_map_to_themselves(self, channel_map):
        for idx, value in enumerate(channel_map.levels):
            assert itp.quantize_intensity(value, channel_map) == idx

    def test_examples(self, channel_map):
        assert itp.quantize_intensity(0.0, channel_map) == 0
        assert itp.quantize_intensity(0.3, channel_map) == 1
        assert itp.quantize_intensity(30.0, channel_map) == 2
        assert itp.quantize_intensity(-0.4, channel_map) == 1

    def test_exact_tie_goes_low(self, channel_map):
        # midpoint of the two small levels is representable exactly enough
        # that both distances compare equal in float64
        tie = 0.2090
        lo, hi = channel_map.levels[0], channel_map.levels[1]
        assert tie - lo == hi - tie
        assert itp.quantize_intensity(tie, channel_map) == 0

    def test_matches_argmin_brute_force(self, channel_map):
        rng = np.random.default_rng(30)
        levels = np.asarray(channel_map.levels)
        values = np.concatenate([
            rng.uniform(0, 30, 3000),
            rng.uniform(-30, 0, 3000),
            levels,
            (levels[:-1] + levels[1:]) / 2,
        ])
        for value in values:
            want = int(np.argmin(np.abs(abs(value) - levels)))
            assert itp.quantize_intensity(float(value), channel_map) == want


class TestCodesToSpikes:
    def test_single_code_example(self, channel_map):
        codes = [Code(m=7, tau=100, s=0.4, segment_index=3)]
        spikes = itp.codes_to_spikes(codes, channel_map, 696)
        assert spikes.dtype == itp.SPIKE_DTYPE
        assert np.array_equal(spikes, train([3 * 696 + 100], [22]))

    def test_negative_tau_clamps_to_segment_start(self, channel_map):
        codes = [Code(m=0, tau=-50, s=1.0, segment_index=2)]
        spikes = itp.codes_to_spikes(codes, channel_map, 696)
        assert spikes[0].time == 2 * 696

    def test_large_tau_clamps_to_segment_end(self, channel_map):
        codes = [Code(m=0, tau=700, s=1.0, segment_index=0)]
        spikes = itp.codes_to_spikes(codes, channel_map, 696)
        assert spikes[0].time == 695

    def test_spike_count_matches_code_count(self, bank, channel_map):
        rng = np.random.default_rng(31)
        buf = SegmentBuffer.from_samples(rng.uniform(-1, 1, 696))
        codes = encode_segment(buf, bank, EncoderConfig(sps=16))
        spikes = itp.codes_to_spikes(codes, channel_map, 696)
        assert len(spikes) == len(codes)

    def test_sorted_by_time_then_channel(self, channel_map):
        codes = [
            Code(m=5, tau=10, s=0.5, segment_index=1),
            Code(m=2, tau=10, s=0.5, segment_index=1),
            Code(m=0, tau=600, s=0.5, segment_index=0),
        ]
        spikes = itp.codes_to_spikes(codes, channel_map, 696)
        keys = [(sp.time, sp.channel) for sp in spikes]
        assert keys == sorted(keys)
        assert spikes[0].time == 600

    def test_input_order_does_not_matter(self, channel_map):
        rng = np.random.default_rng(32)
        codes = [Code(m=int(rng.integers(40)), tau=int(rng.integers(696)),
                      s=float(rng.uniform(0.01, 1)), segment_index=int(rng.integers(4)))
                 for _ in range(50)]
        shuffled = list(codes)
        rng.shuffle(shuffled)
        assert np.array_equal(itp.codes_to_spikes(codes, channel_map, 696),
                              itp.codes_to_spikes(shuffled, channel_map, 696))

    def test_constant_tone_lands_on_one_channel_per_kernel(self, bank, channel_map):
        for m in (0, 19, 39):
            codes = [Code(m=m, tau=t, s=0.4115, segment_index=0)
                     for t in range(0, 600, 100)]
            spikes = itp.codes_to_spikes(codes, channel_map, 696)
            assert {sp.channel for sp in spikes} == {m * 3 + 1}

    def test_matches_scalar_reference_on_criterion_08_intensities(self, channel_map):
        # the same 10,003 intensities as acceptance criterion 08, for every kernel
        rng = np.random.default_rng(108)
        levels = np.asarray(channel_map.levels)
        values = np.concatenate([
            rng.uniform(-30, 30, 9000),
            rng.uniform(-0.5, 0.5, 994),
            levels, -levels,
            (levels[:-1] + levels[1:]) / 2,
            [0.0],
        ])
        assert len(values) == 10003
        distance = np.abs(np.abs(values)[:, None] - levels)
        nearest = distance.min(axis=1, keepdims=True)
        assert np.any(np.sum(distance == nearest, axis=1) > 1)  # ties present
        quantized = [itp.quantize_intensity(float(v), channel_map) for v in values]
        for m in range(channel_map.kernel_count):
            codes = [Code(m=m, tau=0, s=float(v), segment_index=i)
                     for i, v in enumerate(values)]
            spikes = itp.codes_to_spikes(codes, channel_map, 696)
            want = [itp.channel_of(m, q, channel_map) for q in quantized]
            assert spikes.channel.tolist() == want, m

    def test_kernel_out_of_range(self, channel_map):
        for m in (-1, 40):
            with pytest.raises(ValueError, match=f"kernel index {m}"):
                itp.codes_to_spikes([Code(m=0, tau=0, s=1.0), Code(m=m, tau=0, s=1.0)],
                                    channel_map, 696)

    @pytest.mark.parametrize("m", [2 ** 63, -2 ** 63 - 1, 2 ** 70],
                             ids=["2**63", "-2**63-1", "2**70"])
    def test_kernel_index_past_int64_is_out_of_range(self, channel_map, m):
        # a bare OverflowError before
        with pytest.raises(ValueError, match=re.escape(f"kernel index {m} outside [0, 40)")):
            itp.codes_to_spikes([Code(m=0, tau=0, s=1.0), Code(m=m, tau=0, s=1.0)],
                                channel_map, 696)

    @pytest.mark.parametrize("tau, shift", [(2 ** 63, 695), (-2 ** 63 - 1, 0), (2 ** 70, 695)],
                             ids=["2**63", "-2**63-1", "2**70"])
    def test_shift_past_int64_clamps(self, channel_map, tau, shift):
        # a bare OverflowError before; the shift clamps into the segment as any other
        codes = [Code(m=1, tau=3, s=1.0), Code(m=0, tau=tau, s=1.0, segment_index=2)]
        spikes = itp.codes_to_spikes(codes, channel_map, 696)
        assert spikes.time.tolist() == [3, 2 * 696 + shift]
        assert spikes.channel.tolist() == [itp.channel_of(1, 1, channel_map),
                                           itp.channel_of(0, 1, channel_map)]

    def test_negative_segment_past_int64_named(self, channel_map):
        with pytest.raises(ValueError, match=f"negative segment index {-2 ** 64}$"):
            itp.codes_to_spikes([Code(m=0, tau=0, s=1.0, segment_index=-2 ** 63 - 1),
                                 Code(m=0, tau=2 ** 63, s=1.0, segment_index=-2 ** 64)],
                                channel_map, 696)

    def test_negative_segment_index(self, channel_map):
        with pytest.raises(ValueError, match="negative segment index -1"):
            itp.codes_to_spikes([Code(m=0, tau=0, s=1.0, segment_index=-1)],
                                channel_map, 696)

    @pytest.mark.parametrize("segment", [2 ** 62, 2 ** 63, 2 ** 70],
                             ids=["2**62", "2**63", "2**70"])
    def test_time_past_the_record_field_names_the_code(self, channel_map, segment):
        # 2**62 wrapped to a spike at time 5, 2**63 raised OverflowError
        codes = [Code(m=0, tau=0, s=1.0), Code(m=0, tau=5, s=1.0, segment_index=segment)]
        message = (f"code 1 (segment {segment}, tau 5) has spike time {segment * 696 + 5}, "
                   f"outside the spike record's time field [0, {2 ** 64 - 1}]")
        with pytest.raises(ValueError, match=re.escape(message)):
            itp.codes_to_spikes(codes, channel_map, 696)

    def test_last_time_the_record_holds(self, channel_map):
        last = (2 ** 64 - 1) // 696  # its segment holds times up to 2**64 - 1, at shift 255
        assert (2 ** 64 - 1) - last * 696 == 255
        spikes = itp.codes_to_spikes([Code(m=0, tau=0, s=1.0, segment_index=last),
                                      Code(m=1, tau=255, s=1.0, segment_index=last)],
                                     channel_map, 696)
        assert spikes.time.tolist() == [last * 696, 2 ** 64 - 1]
        with pytest.raises(ValueError, match=r"^code 0 \(segment \d+, tau 256\)"):
            itp.codes_to_spikes([Code(m=0, tau=256, s=1.0, segment_index=last)],
                                channel_map, 696)

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_intensity(self, channel_map, s):
        with pytest.raises(ValueError, match="non-finite intensity"):
            itp.codes_to_spikes([Code(m=0, tau=0, s=1.0), Code(m=1, tau=0, s=s)],
                                channel_map, 696)

    def test_empty(self, channel_map):
        spikes = itp.codes_to_spikes([], channel_map, 696)
        assert len(spikes) == 0 and spikes.dtype == itp.SPIKE_DTYPE


class TestSpikesToCodes:
    def test_inverse_on_clamp_free_codes(self, channel_map):
        codes = [
            Code(m=7, tau=100, s=0.4115, segment_index=3),
            Code(m=0, tau=0, s=0.0065, segment_index=0),
            Code(m=39, tau=695, s=25.8744, segment_index=1),
        ]
        spikes = itp.codes_to_spikes(codes, channel_map, 696)
        back = itp.spikes_to_codes(spikes, channel_map, 696)
        got = {(c.m, c.tau, c.s, c.segment_index) for c in back}
        want = {(c.m, c.tau, c.s, c.segment_index) for c in codes}
        assert got == want

    def test_intensity_snaps_to_level(self, channel_map):
        codes = [Code(m=4, tau=50, s=0.37, segment_index=0)]
        spikes = itp.codes_to_spikes(codes, channel_map, 696)
        back = itp.spikes_to_codes(spikes, channel_map, 696)
        assert back[0].s == 0.4115

    def test_iteration_counts_per_segment(self, channel_map):
        spikes = train([10, 20, 700], [0, 5, 9])
        back = itp.spikes_to_codes(spikes, channel_map, 696)
        assert [c.iteration for c in back] == [0, 1, 0]

    def test_channel_out_of_range(self, channel_map):
        with pytest.raises(itp.AerFormatError):
            itp.spikes_to_codes(train([0], [120]), channel_map, 696)

    def test_out_of_range_message_matches_the_decoder(self, bank, channel_map):
        spikes = train([0, 5, 9], [3, 130, 121])
        errors = []
        for decode in (lambda: itp.spikes_to_codes(spikes, channel_map, 696),
                       lambda: reconstruct_from_spikes(spikes, bank, channel_map, 500)):
            with pytest.raises(itp.AerFormatError) as info:
                decode()
            errors.append(str(info.value))
        assert errors == ["channel 130 outside [0, 120)"] * 2


def write_declaring(path, spikes, channel_count):
    """A .spka file whose header declares channel_count whatever the spikes'
    channels: the writer refuses a spike past the count, the reader must too."""
    itp.write_aer_binary(spikes, path, 16000.0, channel_count=2 ** 16)
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", channel_count)
    path.write_bytes(bytes(blob))


def sample_spikes():
    return train([0, 696, 696, 123456], [0, 22, 97, 119])


class TestAerText:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "spikes.txt"
        itp.write_aer_text(sample_spikes(), path)
        assert np.array_equal(itp.read_aer_text(path), sample_spikes())

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        itp.write_aer_text(sample_spikes(), a)
        itp.write_aer_text(itp.read_aer_text(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty(self, tmp_path):
        path = tmp_path / "none.txt"
        itp.write_aer_text(train([], []), path)
        spikes = itp.read_aer_text(path)
        assert len(spikes) == 0 and spikes.dtype == itp.SPIKE_DTYPE

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0\n12,wat\n")
        with pytest.raises(itp.AerFormatError, match="line 2"):
            itp.read_aer_text(path)

    @pytest.mark.parametrize("line", ["-5,3", f"{2 ** 64},3", f"0,{2 ** 16}", "0,-1"])
    def test_out_of_range_event_names_lineno(self, tmp_path, line):
        path = tmp_path / "range.txt"
        path.write_text(f"0,0\n{line}\n")
        with pytest.raises(itp.AerFormatError, match="out of range on line 2"):
            itp.read_aer_text(path)

    def test_largest_values_accepted(self, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text(f"{2 ** 64 - 1},{2 ** 16 - 1}\n")
        spikes = itp.read_aer_text(path)
        assert spikes.time.tolist() == [2 ** 64 - 1]
        assert spikes.channel.tolist() == [2 ** 16 - 1]

    def test_binary_content_detected(self, tmp_path):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff\xfe\x00\x01")
        with pytest.raises(itp.AerFormatError, match="not a text spike file"):
            itp.read_aer_text(path)


class TestAerBinary:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "spikes.spka"
        itp.write_aer_binary(sample_spikes(), path, 16000.0)
        spikes, rate, channel_count = itp.read_aer_binary(path)
        assert np.array_equal(spikes, sample_spikes())
        assert channel_count == 120
        assert rate == 16000.0

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.spka", tmp_path / "b.spka"
        itp.write_aer_binary(sample_spikes(), a, 16000.0)
        spikes, rate, channel_count = itp.read_aer_binary(a)
        itp.write_aer_binary(spikes, b, rate, channel_count=channel_count)
        assert a.read_bytes() == b.read_bytes()

    def test_empty(self, tmp_path):
        path = tmp_path / "none.spka"
        itp.write_aer_binary(train([], []), path, 16000.0)
        spikes, _, _ = itp.read_aer_binary(path)
        assert len(spikes) == 0 and spikes.dtype == itp.SPIKE_DTYPE

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spka"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(itp.AerFormatError, match="magic"):
            itp.read_aer_binary(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.spka"
        itp.write_aer_binary(train([], []), path, 16000.0)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(itp.AerFormatError, match="version"):
            itp.read_aer_binary(path)

    def test_truncated_record_names_offset(self, tmp_path):
        path = tmp_path / "cut.spka"
        itp.write_aer_binary(sample_spikes(), path, 16000.0)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(itp.AerFormatError, match=r"offset \d+"):
            itp.read_aer_binary(path)

    def test_channel_exceeding_declared_count(self, tmp_path):
        path = tmp_path / "over.spka"
        write_declaring(path, train([0], [119]), 64)
        with pytest.raises(itp.AerFormatError, match="channel"):
            itp.read_aer_binary(path)

    def test_first_bad_channel_and_offset_named(self, tmp_path):
        path = tmp_path / "over.spka"
        write_declaring(path, train([0, 1, 2], [3, 70, 90]), 64)
        # 20-byte header, 10-byte records: the second record starts at 30
        with pytest.raises(itp.AerFormatError,
                           match="channel 70 at offset 30 exceeds declared count 64"):
            itp.read_aer_binary(path)


class TestWriteAerBinary:
    def test_channel_past_the_count_rejected_before_writing(self, tmp_path):
        path = tmp_path / "over.spka"
        with pytest.raises(ValueError, match=re.escape(
                "spike 1 on channel 200 exceeds declared count 120")):
            itp.write_aer_binary(train([0, 5, 9], [3, 200, 130]), path, 16000.0)
        assert not path.exists()

    def test_last_channel_of_the_count_written(self, tmp_path):
        path = tmp_path / "edge.spka"
        itp.write_aer_binary(train([0, 5], [0, 63]), path, 16000.0, channel_count=64)
        spikes, _, channel_count = itp.read_aer_binary(path)
        assert spikes.channel.tolist() == [0, 63] and channel_count == 64


class TestReadAerSniff:
    def test_dispatches_binary(self, tmp_path):
        path = tmp_path / "spikes.dat"
        itp.write_aer_binary(sample_spikes(), path, 16000.0)
        spikes, rate, channel_count = itp.read_aer(path)
        assert np.array_equal(spikes, sample_spikes())
        assert (rate, channel_count) == (16000.0, 120)

    def test_dispatches_text(self, tmp_path):
        path = tmp_path / "spikes.txt"
        itp.write_aer_text(sample_spikes(), path)
        spikes, rate, channel_count = itp.read_aer(path)
        assert np.array_equal(spikes, sample_spikes())
        assert rate is None and channel_count is None
