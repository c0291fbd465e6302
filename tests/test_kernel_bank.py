"""Kernel dictionary: ERB spacing, gammatone shapes, file round trips."""

import numpy as np
import pytest

from spiketrum import kernel_bank as kb


class TestErbCenterFrequencies:
    def test_endpoints_exact(self):
        freqs = kb.erb_center_frequencies(40, 20.0, 8000.0)
        assert freqs[0] == 20.0
        assert freqs[-1] == 8000.0

    def test_two_point_case(self):
        np.testing.assert_allclose(kb.erb_center_frequencies(2, 100.0, 200.0),
                                   [100.0, 200.0])

    def test_strictly_increasing(self):
        freqs = kb.erb_center_frequencies(40, 20.0, 8000.0)
        assert np.all(np.diff(freqs) > 0)

    def test_known_interior_frequency(self):
        # frozen from inverting the ERB-rate scale between E(20) and E(8000)
        freqs = kb.erb_center_frequencies(40, 20.0, 8000.0)
        np.testing.assert_allclose(freqs[19], 1139.3469060336017, rtol=1e-12)

    def test_uniform_erb_spacing(self):
        freqs = kb.erb_center_frequencies(40, 20.0, 8000.0)
        steps = np.diff(kb.erb_rate(freqs))
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            kb.erb_center_frequencies(1, 20.0, 8000.0)
        with pytest.raises(ValueError):
            kb.erb_center_frequencies(10, 500.0, 100.0)
        with pytest.raises(ValueError):
            kb.erb_center_frequencies(10, -5.0, 100.0)


class TestGenerateGammatone:
    def test_unit_norm(self):
        for fc in (20.0, 440.0, 1000.0, 8000.0):
            g = kb.generate_gammatone(fc)
            assert abs(np.linalg.norm(g) - 1.0) < 1e-12

    def test_length(self):
        assert len(kb.generate_gammatone(1000.0)) == 1353

    def test_spectral_peak_at_center(self):
        g = kb.generate_gammatone(1000.0, 16000.0)
        spectrum = np.abs(np.fft.rfft(g, n=2048))
        expected_bin = 1000.0 * 2048 / 16000.0
        assert abs(np.argmax(spectrum) - expected_bin) <= 1

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            kb.generate_gammatone(9000.0, 16000.0)
        with pytest.raises(ValueError):
            kb.generate_gammatone(-10.0, 16000.0)
        with pytest.raises(ValueError):
            kb.generate_gammatone(440.0, 16000.0, length=0)
        with pytest.raises(ValueError):
            kb.generate_gammatone(440.0, 16000.0, order=0)

    def test_nyquist_center_allowed(self):
        g = kb.generate_gammatone(8000.0, 16000.0)
        assert np.isfinite(g).all()


class TestBuildBank:
    def test_default_shape(self, bank):
        assert bank.kernel_count == 40
        assert bank.kernel_length == 1353
        assert bank.segment_length == 696

    def test_frequencies_increasing(self, bank):
        assert np.all(np.diff(bank.center_frequencies) > 0)
        assert bank.center_frequencies[0] == 20.0
        assert bank.center_frequencies[-1] == 8000.0

    def test_channel_grid_size(self, bank):
        assert bank.kernel_count * 3 == 120

    def test_unit_norms(self, bank):
        norms = np.linalg.norm(bank.samples_matrix, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_spectrum_cache_consistency(self, bank):
        assert bank.conj_spectra.shape == (bank.kernel_count, kb.FFT_SIZE // 2 + 1)
        for kernel, conj_spectrum in zip(bank.kernels, bank.conj_spectra):
            recomputed = np.fft.rfft(kernel.samples, n=kb.FFT_SIZE)
            np.testing.assert_allclose(conj_spectrum, np.conj(recomputed), atol=1e-12)

    def test_deterministic_rebuild(self, bank):
        other = kb.build_bank()
        for a, b in zip(bank.kernels, other.kernels):
            assert a.center_freq == b.center_freq
            assert np.array_equal(a.samples, b.samples)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            kb.build_bank(kb.BankConfig(fmax=9000.0))
        with pytest.raises(ValueError):
            kb.build_bank(kb.BankConfig(kernel_length=4096))


class TestBankFile:
    def test_round_trip_bit_exact(self, bank, tmp_path):
        path = tmp_path / "bank.spkb"
        kb.save_bank(bank, path)
        loaded = kb.load_bank(path)
        assert loaded.sample_rate == bank.sample_rate
        assert loaded.fmin == bank.fmin
        assert loaded.fmax == bank.fmax
        assert loaded.order == bank.order
        for a, b in zip(bank.kernels, loaded.kernels):
            assert a.center_freq == b.center_freq
            assert np.array_equal(a.samples, b.samples)

    def test_rewrite_is_byte_identical(self, bank, tmp_path):
        first = tmp_path / "a.spkb"
        second = tmp_path / "b.spkb"
        kb.save_bank(bank, first)
        kb.save_bank(kb.load_bank(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spkb"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(kb.BankFormatError, match="bad magic"):
            kb.load_bank(path)

    def test_bad_version(self, bank, tmp_path):
        path = tmp_path / "v9.spkb"
        kb.save_bank(bank, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(kb.BankFormatError, match="version"):
            kb.load_bank(path)

    def test_truncation_names_offset(self, bank, tmp_path):
        path = tmp_path / "cut.spkb"
        kb.save_bank(bank, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(kb.BankFormatError, match="offset"):
            kb.load_bank(path)

    def test_trailing_bytes_rejected(self, bank, tmp_path):
        path = tmp_path / "fat.spkb"
        kb.save_bank(bank, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(kb.BankFormatError, match="trailing"):
            kb.load_bank(path)
