"""Reconstruction and quality metrics."""

import hashlib
import json
import math

import numpy as np
import pytest

from spiketrum import decoder, itp
from spiketrum.encoder import Code, EncoderConfig, encode_stream, write_codes_csv


def train(times, channels):
    return np.rec.fromarrays([times, channels], dtype=itp.SPIKE_DTYPE)


class TestReconstructFromCodes:
    def test_no_codes_gives_silence(self, bank):
        out = decoder.reconstruct_from_codes([], bank, 2000)
        assert out.shape == (2000,)
        assert np.all(out == 0.0)

    def test_single_code_places_scaled_kernel(self, bank):
        code = Code(m=7, tau=100, s=0.5, segment_index=0)
        out = decoder.reconstruct_from_codes([code], bank, 2048)
        np.testing.assert_allclose(out[100:100 + 1353],
                                   0.5 * bank.samples_matrix[7], atol=1e-15)
        assert np.all(out[:100] == 0.0)
        assert np.all(out[100 + 1353:] == 0.0)

    def test_segment_offset_applied(self, bank):
        code = Code(m=0, tau=10, s=1.0, segment_index=2)
        out = decoder.reconstruct_from_codes([code], bank, 4000)
        start = 2 * 696 + 10
        np.testing.assert_allclose(out[start:start + 1353][:2000],
                                   bank.samples_matrix[0][:4000 - start][:2000],
                                   atol=1e-15)

    def test_negative_tau_clips_head(self, bank):
        code = Code(m=3, tau=-50, s=1.0, segment_index=0)
        out = decoder.reconstruct_from_codes([code], bank, 2048)
        np.testing.assert_allclose(out[:1353 - 50],
                                   bank.samples_matrix[3][50:], atol=1e-15)

    def test_tail_past_length_dropped(self, bank):
        # starts past int64 (a code CSV may hold any integer) are dropped too
        codes = [Code(m=3, tau=0, s=1.0, segment_index=0),
                 Code(m=3, tau=-5, s=1.0, segment_index=2**70),
                 Code(m=3, tau=-2**64, s=1.0, segment_index=0)]
        out = decoder.reconstruct_from_codes(codes, bank, 100)
        np.testing.assert_allclose(out, bank.samples_matrix[3][:100], atol=1e-15)

    def test_overlapping_codes_sum(self, bank):
        codes = [Code(m=5, tau=0, s=1.0, segment_index=0),
                 Code(m=5, tau=0, s=0.5, segment_index=0)]
        out = decoder.reconstruct_from_codes(codes, bank, 2048)
        np.testing.assert_allclose(out[:1353], 1.5 * bank.samples_matrix[5],
                                   atol=1e-15)

    def test_bad_kernel_index(self, bank):
        with pytest.raises(ValueError):
            decoder.reconstruct_from_codes([Code(m=40, tau=0, s=1.0)], bank, 100)

    def test_bad_kernel_in_the_middle_names_the_first(self, bank):
        codes = [Code(m=3, tau=0, s=1.0), Code(m=40, tau=5, s=1.0),
                 Code(m=-1, tau=9, s=1.0), Code(m=39, tau=0, s=1.0)]
        with pytest.raises(ValueError, match="kernel index 40 outside bank of 40"):
            decoder.reconstruct_from_codes(codes, bank, 3000)


class TestReconstructFromSpikes:
    def test_spike_places_level_amplitude(self, bank, channel_map):
        out = decoder.reconstruct_from_spikes(train([2188], [22]), bank,
                                              channel_map, 4000)
        np.testing.assert_allclose(out[2188:2188 + 1353],
                                   0.4115 * bank.samples_matrix[7], atol=1e-15)
        assert np.all(out[:2188] == 0.0)
        assert np.all(out[2188 + 1353:] == 0.0)

    def test_channel_zero(self, bank, channel_map):
        out = decoder.reconstruct_from_spikes(train([0], [0]), bank,
                                              channel_map, 1353)
        np.testing.assert_allclose(out, 0.0065 * bank.samples_matrix[0],
                                   atol=1e-15)

    def test_empty(self, bank, channel_map):
        out = decoder.reconstruct_from_spikes(train([], []), bank, channel_map, 500)
        assert np.all(out == 0.0)

    def test_channel_out_of_range(self, bank, channel_map):
        with pytest.raises(ValueError, match="channel 120"):
            decoder.reconstruct_from_spikes(train([0, 5], [3, 120]), bank,
                                            channel_map, 500)

    def test_channel_map_wider_than_the_bank(self, bank):
        # channel 135 exists in a 50-kernel map, but its kernel 45 is not in the bank
        wide = itp.ChannelMap(kernel_count=50)
        with pytest.raises(ValueError, match="kernel index 45 outside bank of 40"):
            decoder.reconstruct_from_spikes(train([0, 5, 9], [3, 135, 149]), bank, wide, 500)

    def test_equals_codes_recovered_from_spikes(self, bank, channel_map):
        rng = np.random.default_rng(43)
        spikes = train(np.sort(rng.integers(0, 5000, 300)), rng.integers(0, 120, 300))
        codes = itp.spikes_to_codes(spikes, channel_map, bank.segment_length)
        np.testing.assert_array_equal(
            decoder.reconstruct_from_spikes(spikes, bank, channel_map, 6000),
            decoder.reconstruct_from_codes(codes, bank, 6000))

    def test_spike_reconstruction_is_lossier(self, bank, channel_map):
        rng = np.random.default_rng(40)
        t = np.arange(16000) / 16000.0
        samples = 0.4 * np.sin(2 * np.pi * 440 * t) + 0.05 * rng.standard_normal(16000)
        codes = encode_stream(samples, bank, EncoderConfig(sps=16))
        spikes = itp.codes_to_spikes(codes, channel_map, bank.segment_length)
        from_codes = decoder.reconstruct_from_codes(codes, bank, len(samples))
        from_spikes = decoder.reconstruct_from_spikes(spikes, bank, channel_map,
                                                      len(samples))
        assert decoder.snr_db(samples, from_spikes) <= \
            decoder.snr_db(samples, from_codes)


class TestSnr:
    def test_perfect_match_capped(self):
        x = np.ones(100)
        assert decoder.snr_db(x, x) == 300.0

    def test_zero_estimate(self):
        x = np.ones(100)
        assert decoder.snr_db(x, np.zeros(100)) == 0.0

    def test_known_ratio(self):
        x = np.ones(100)
        y = 0.5 * np.ones(100)
        assert decoder.snr_db(x, y) == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_zero_reference_is_an_error(self):
        with pytest.raises(ValueError):
            decoder.snr_db(np.zeros(10), np.ones(10))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            decoder.snr_db(np.ones(10), np.ones(11))


class TestEntropy:
    def test_uniform_over_all_channels(self):
        spikes = train([t for c in range(120) for t in (0, 5)],
                       [c for c in range(120) for t in (0, 5)])
        assert decoder.spike_entropy(spikes, 120) == pytest.approx(math.log2(120))

    def test_single_channel_is_zero(self):
        spikes = train(range(10), [7] * 10)
        entropy = decoder.spike_entropy(spikes, 120)
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    def test_empty_is_zero(self):
        entropy = decoder.spike_entropy(train([], []), 120)
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    def test_two_equal_channels(self):
        spikes = train([0, 1], [1, 2])
        assert decoder.spike_entropy(spikes, 120) == pytest.approx(1.0)


class TestSparsity:
    def test_fraction_of_channels_used(self):
        spikes = train([0, 1, 2, 3], [0, 0, 5, 11])
        sparsity = decoder.sparsity_percent(spikes, 120)
        assert sparsity == pytest.approx(2.5)
        assert type(sparsity) is float  # like the report's other keys

    def test_no_spikes(self):
        sparsity = decoder.sparsity_percent(train([], []), 120)
        assert sparsity == 0.0 and math.copysign(1.0, sparsity) == 1.0

    def test_all_channels(self):
        spikes = train(range(120), range(120))
        assert decoder.sparsity_percent(spikes, 120) == 100.0


class TestEncodingReport:
    def test_keys_and_consistency(self, bank, channel_map):
        rng = np.random.default_rng(41)
        samples = 0.3 * rng.uniform(-1, 1, 16000)
        codes = encode_stream(samples, bank, EncoderConfig(sps=16))
        spikes = itp.codes_to_spikes(codes, channel_map, bank.segment_length)
        d = decoder.encoding_report(samples, codes, spikes, bank, channel_map,
                                    bank.sample_rate)
        want = {"code_count", "spike_count", "spikes_per_second",
                "residual_energy", "snr_code_db", "snr_spike_db",
                "entropy_bits", "sparsity_percent"}
        assert set(d) == want
        assert d["code_count"] == d["spike_count"] == 23 * 16
        assert d["spikes_per_second"] == pytest.approx(16 * 16000 / 696, rel=0.05)
        assert d["residual_energy"] >= 0.0
        assert d["snr_code_db"] > 0.0
        assert 0.0 <= d["entropy_bits"] <= math.log2(120)
        assert 0.0 < d["sparsity_percent"] <= 100.0

    def test_residual_matches_energy_decrements(self, bank, channel_map):
        rng = np.random.default_rng(42)
        samples = rng.uniform(-1, 1, 696)
        codes = encode_stream(samples, bank, EncoderConfig(sps=16))
        spikes = itp.codes_to_spikes(codes, channel_map, bank.segment_length)
        d = decoder.encoding_report(samples, codes, spikes, bank, channel_map,
                                    bank.sample_rate)
        signal_energy = float(samples @ samples)
        captured = sum(c.s ** 2 for c in codes)
        assert d["residual_energy"] == pytest.approx(signal_energy - captured,
                                                     rel=1e-9)

    def test_silence_reports_none_snr(self, bank, channel_map):
        d = decoder.encoding_report(np.zeros(2000), [], train([], []), bank,
                                    channel_map, bank.sample_rate)
        assert d["code_count"] == 0
        assert d["snr_code_db"] is None
        assert d["snr_spike_db"] is None


def dense_codes(seed, segments, per_segment=64):
    """Seeded dense codes: tau over [-1024, 1023] and a log-uniform |s| over
    1e-3..1e2, which lands on all three levels."""
    rng = np.random.default_rng(seed)
    count = segments * per_segment
    m = rng.integers(0, 40, count)
    tau = rng.integers(-1024, 1024, count)
    s = np.exp(rng.uniform(math.log(1e-3), math.log(1e2), count))
    s *= rng.choice((-1.0, 1.0), count)
    return [Code(int(m[i]), int(tau[i]), float(s[i]), i // per_segment, i % per_segment)
            for i in range(count)]


def test_golden_decode_digest(bank, channel_map, tmp_path):
    """The decode chain, pinned bit for bit.

    Both reconstructions add each event's product in the train's order, and
    the CSV formats each code alone, so their bytes do not depend on the
    platform. The output length cuts the last kernels' tails, and two spikes
    past any length (at 2**63 and 2**64 - 1) must be dropped. The report's
    floats come from BLAS dot products, logarithms and Python's float sum,
    whose last bits may vary between builds and versions, so they are pinned
    to 12 significant digits.
    """
    codes = dense_codes(17, 12)
    length = 12 * 696 + 300
    spikes = itp.codes_to_spikes(codes, channel_map, bank.segment_length)
    spikes = train(np.append(spikes["time"], np.array([2**63, 2**64 - 1], np.uint64)),
                   np.append(spikes["channel"], [5, 119]))
    samples = 0.3 * np.random.default_rng(18).uniform(-1, 1, length)
    write_codes_csv(codes, tmp_path / "codes.csv")
    report = decoder.encoding_report(samples, codes, spikes, bank, channel_map,
                                     bank.sample_rate)
    report = {k: float(f"{v:.12g}") if isinstance(v, float) else v
              for k, v in report.items()}
    digest = hashlib.sha256()
    digest.update(decoder.reconstruct_from_codes(codes, bank, length).astype("<f8").tobytes())
    digest.update(decoder.reconstruct_from_spikes(spikes, bank, channel_map, length)
                  .astype("<f8").tobytes())
    digest.update((tmp_path / "codes.csv").read_bytes())
    digest.update(json.dumps(report).encode())
    assert digest.hexdigest() == \
        "85550f341e98e85221c2fb974dea5d4e925e13c22c589edfe681e3ba83616e41"
