"""WAV reading and writing."""

import re
import wave

import numpy as np
import pytest

from spiketrum import audio_io


class TestRoundTrip:
    def test_error_within_one_step(self, tmp_path):
        rng = np.random.default_rng(60)
        samples = rng.uniform(-0.99, 0.99, 16000)
        path = tmp_path / "x.wav"
        audio_io.write_wav(path, samples, 16000)
        back, rate = audio_io.read_wav(path)
        assert rate == 16000
        assert len(back) == 16000
        assert np.max(np.abs(back - samples)) <= 1.0 / 32768.0

    def test_zeros_survive_exactly(self, tmp_path):
        path = tmp_path / "z.wav"
        audio_io.write_wav(path, np.zeros(100), 16000)
        back, _ = audio_io.read_wav(path)
        assert np.all(back == 0.0)

    def test_one_second_length(self, tmp_path):
        path = tmp_path / "s.wav"
        audio_io.write_wav(path, np.zeros(16000), 16000)
        back, _ = audio_io.read_wav(path)
        assert len(back) == 16000

    def test_out_of_range_clamps(self, tmp_path):
        path = tmp_path / "c.wav"
        audio_io.write_wav(path, np.array([1.5, -1.5]), 16000)
        raw = np.frombuffer(
            wave.open(str(path)).readframes(2), dtype="<i2")
        assert list(raw) == [32767, -32768]

    def test_infinities_clamp_to_full_scale(self, tmp_path):
        path = tmp_path / "inf.wav"
        audio_io.write_wav(path, np.array([np.inf, -np.inf]), 16000)
        raw = np.frombuffer(wave.open(str(path)).readframes(2), dtype="<i2")
        assert list(raw) == [32767, -32768]

    def test_second_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(61)
        samples = rng.uniform(-1, 1, 5000)
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        audio_io.write_wav(a, samples, 16000)
        back, rate = audio_io.read_wav(a)
        audio_io.write_wav(b, back, rate)
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(2)
            wav.setsampwidth(2)
            wav.setframerate(16000)
            wav.writeframes(bytes(8))
        with pytest.raises(ValueError, match="mono"):
            audio_io.read_wav(path)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(1)
            wav.setframerate(16000)
            wav.writeframes(bytes(8))
        with pytest.raises(ValueError, match="16-bit"):
            audio_io.read_wav(path)

    def test_rate_mismatch_names_both(self, tmp_path):
        path = tmp_path / "r.wav"
        audio_io.write_wav(path, np.zeros(10), 44100)
        with pytest.raises(ValueError, match="44100.*16000"):
            audio_io.read_wav(path, expected_rate=16000)

    def test_nan_is_an_error_naming_its_index(self, tmp_path):
        # NaN has no PCM value: writing it as 0 would hide it
        path = tmp_path / "nan.wav"
        with pytest.raises(ValueError, match="^NaN at index 1 cannot be written as PCM$"):
            audio_io.write_wav(path, np.array([0.1, np.nan, 0.2, np.nan]), 16000)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(2, 100), (), (100, 1)], ids=["2x100", "0d", "100x1"])
    def test_samples_off_one_axis_are_an_error_naming_the_shape(self, tmp_path, shape):
        # (2, 100) was written as 200 mono frames, a 0-d array as one frame
        path = tmp_path / "shape.wav"
        with pytest.raises(ValueError, match=re.escape(
                f"mono samples need one axis, got shape {shape}")):
            audio_io.write_wav(path, np.zeros(shape), 16000)
        assert not path.exists()

    @pytest.mark.parametrize("rate", [16000.5, 5e9, 2 ** 31, 0, -16000, np.nan, np.inf])
    def test_rate_a_header_cannot_hold_is_an_error(self, tmp_path, rate):
        # 16000.5 was written as 16000 Hz, 5e9 died in struct.pack
        path = tmp_path / "rate.wav"
        with pytest.raises(ValueError, match=r"^sample rate .* is not a whole number in "
                                             r"\[1, 2147483647\]$"):
            audio_io.write_wav(path, np.zeros(4), rate)
        assert not path.exists()

    def test_largest_rate_is_written(self, tmp_path):
        path = tmp_path / "fast.wav"
        audio_io.write_wav(path, np.zeros(4), 2 ** 31 - 1)
        assert audio_io.read_wav(path)[1] == 2 ** 31 - 1

    @pytest.mark.parametrize("cut, holds", [(1, "99 and 1 stray byte"), (2, "99")])
    def test_truncated_file_names_the_frames(self, tmp_path, cut, holds):
        # two bytes short read 99 samples; one byte short died in np.frombuffer
        path = tmp_path / "cut.wav"
        audio_io.write_wav(path, np.zeros(100), 16000)
        path.write_bytes(path.read_bytes()[:-cut])
        message = f"truncated WAV file: the header declares 100 frames, the file holds {holds}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            audio_io.read_wav(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "g.wav"
        path.write_bytes(b"not audio at all")
        with pytest.raises(ValueError, match="WAV"):
            audio_io.read_wav(path)
