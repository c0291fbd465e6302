"""Kernel dictionary: ERB spacing, gammatone shapes, file round trips."""

import dataclasses
import re
import struct

import numpy as np
import pytest

from spiketrum import kernel_bank as kb


def struct_bank_bytes(bank):
    """The .spkb layout written field by field with struct, one kernel at a time."""
    parts = [struct.pack("<4sIII d d d I", b"SPKB", 1, bank.kernel_count,
                         bank.kernel_length, bank.sample_rate, bank.fmin, bank.fmax,
                         bank.order)]
    for fc, samples in zip(bank.center_frequencies.tolist(), bank.samples_matrix.tolist()):
        parts.append(struct.pack("<d", fc))
        parts.append(struct.pack(f"<{len(samples)}d", *samples))
    return b"".join(parts)


def bank_from_parts(count, length, fs=16000.0, fmin=20.0, fmax=8000.0, order=4):
    """A bank other than the paper's, built from the public parts as build_bank's
    docstring shows."""
    freqs = kb.erb_center_frequencies(count, fmin, fmax)
    return kb.KernelBank(np.array([kb.generate_gammatone(fc, fs, length, order)
                                   for fc in freqs]), freqs, fs, fmin, fmax, order)


def header_only(count, length):
    """A .spkb header declaring count kernels of length taps, default rate and range."""
    return struct.pack("<4sIII d d d I", b"SPKB", 1, count, length, 16000.0, 20.0,
                       8000.0, 4)


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

    def test_all_zero_kernel_is_an_error(self):
        # one tap at t = 0 is t**(order - 1) = 0 for order > 1: no unit norm
        message = "all-zero gammatone at 440.0 Hz, length 1, order 4"
        with pytest.raises(ValueError, match=message):
            kb.generate_gammatone(440.0, 16000.0, length=1, order=4)

    def test_single_tap_first_order_is_a_bank_of_ones(self, bank):
        samples = np.array([kb.generate_gammatone(fc, length=1, order=1)
                            for fc in bank.center_frequencies])
        np.testing.assert_array_equal(samples, np.ones((40, 1)))

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
        for kernel, conj_spectrum in zip(bank.samples_matrix, bank.conj_spectra):
            recomputed = np.fft.rfft(kernel, n=kb.FFT_SIZE)
            np.testing.assert_allclose(conj_spectrum, np.conj(recomputed), atol=1e-12)

    def test_deterministic_rebuild(self, bank):
        other = kb.build_bank()
        assert np.array_equal(bank.center_frequencies, other.center_frequencies)
        assert np.array_equal(bank.samples_matrix, other.samples_matrix)

    def test_bank_checks_its_shape(self, bank):
        with pytest.raises(ValueError, match="at least one kernel"):
            kb.KernelBank(np.zeros((0, 1353)), np.zeros(0))
        for length in (0, kb.FFT_SIZE + 1):
            with pytest.raises(ValueError, match=f"kernel length {length} outside"):
                kb.KernelBank(np.zeros((2, length)), np.array([100.0, 200.0]))


class TestBankFile:
    def test_round_trip_bit_exact(self, bank, tmp_path):
        path = tmp_path / "bank.spkb"
        kb.save_bank(bank, path)
        loaded = kb.load_bank(path)
        assert loaded.sample_rate == bank.sample_rate
        assert loaded.fmin == bank.fmin
        assert loaded.fmax == bank.fmax
        assert loaded.order == bank.order
        assert np.array_equal(loaded.center_frequencies, bank.center_frequencies)
        assert np.array_equal(loaded.samples_matrix, bank.samples_matrix)

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

    @pytest.mark.parametrize("config", [None, {"count": 3, "length": 5}])
    def test_bytes_match_a_struct_writer(self, config, tmp_path):
        bank = kb.build_bank() if config is None else bank_from_parts(**config)
        path = tmp_path / "bank.spkb"
        kb.save_bank(bank, path)
        assert path.read_bytes() == struct_bank_bytes(bank)

    def test_truncation_inside_a_kernel_names_it(self, bank, tmp_path):
        # header 44 bytes, then 40 records of 8 + 8 * 1353 = 10832 bytes
        path = tmp_path / "cut.spkb"
        kb.save_bank(bank, path)
        path.write_bytes(path.read_bytes()[:44 + 20 * 10832 + 100])
        message = "truncated kernel 20: need 10832 bytes at offset 216684, file has 100"
        with pytest.raises(kb.BankFormatError, match=f"^{re.escape(message)}$"):
            kb.load_bank(path)

    def test_header_without_kernels_rejected(self, tmp_path):
        path = tmp_path / "empty.spkb"
        path.write_bytes(header_only(0, 1353))
        with pytest.raises(kb.BankFormatError,
                           match=re.escape("offset 8 (kernel count)")):
            kb.load_bank(path)

    def test_header_with_kernels_longer_than_the_window_rejected(self, tmp_path):
        path = tmp_path / "long.spkb"
        path.write_bytes(header_only(2, 3000) + bytes(2 * (8 + 8 * 3000)))
        with pytest.raises(kb.BankFormatError,
                           match=re.escape("offset 12 (kernel length): kernel length "
                                           "3000 outside [1, 2048]")):
            kb.load_bank(path)

    def test_scaled_kernels_rejected(self, bank, tmp_path):
        # six times the bank drives the fixed pursuit into saturation
        path = tmp_path / "loud.spkb"
        kb.save_bank(dataclasses.replace(bank, samples_matrix=6 * bank.samples_matrix), path)
        message = "kernel 0 at offset 44 has L2 norm 6.0, not 1 within 1e-09"
        with pytest.raises(kb.BankFormatError, match=f"^{re.escape(message)}$"):
            kb.load_bank(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tap_rejected(self, bank, tmp_path, value):
        # kernel 3's record starts at 44 + 3 * 10832; its taps 8 bytes later
        path = tmp_path / "bad.spkb"
        kb.save_bank(bank, path)
        blob = bytearray(path.read_bytes())
        blob[32540 + 8 + 5 * 8:32540 + 8 + 6 * 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(kb.BankFormatError,
                           match="^kernel 3 at offset 32540 has a non-finite tap$"):
            kb.load_bank(path)

    def test_norm_tolerance(self, bank, tmp_path):
        path = tmp_path / "scaled.spkb"
        for scale, ok in ((1 + 1e-12, True), (1 - 1e-12, True), (1 + 1e-8, False),
                          (1 - 1e-8, False)):
            samples = bank.samples_matrix.copy()
            samples[-1] *= scale
            kb.save_bank(dataclasses.replace(bank, samples_matrix=samples), path)
            if ok:
                assert np.array_equal(kb.load_bank(path).samples_matrix, samples)
            else:
                with pytest.raises(kb.BankFormatError, match="^kernel 39 at offset "
                                   f"{44 + 39 * 10832} has L2 norm"):
                    kb.load_bank(path)

    @pytest.mark.parametrize("fields, at", [
        ({"sample_rate": np.nan, "fmin": -5.0, "fmax": -7.0, "order": 0}, 16),
        ({"sample_rate": 0.0}, 16), ({"sample_rate": np.inf}, 16),
        ({"sample_rate": 16000.5}, 16), ({"sample_rate": 5e9}, 16),
        ({"sample_rate": 2.0 ** 31}, 16),
        ({"fmin": -5.0, "fmax": -7.0, "order": 0}, 24), ({"fmin": np.nan}, 24),
        ({"fmax": 20.0}, 32), ({"fmax": 8000.5}, 32), ({"fmax": np.nan}, 32),
        ({"order": 0}, 40)], ids=["all_four", "rate_zero", "rate_inf", "rate_fractional",
                                  "rate_past_a_wav", "rate_past_a_wav_by_one",
                                  "fmin_negative", "fmin_nan", "fmax_at_fmin",
                                  "fmax_past_nyquist", "fmax_nan", "order_zero"])
    def test_header_metadata_checked(self, bank, tmp_path, fields, at):
        # build_bank could not have made these; a sweep on one used to fail
        # with "cannot convert float NaN to integer"
        path = tmp_path / "meta.spkb"
        kb.save_bank(dataclasses.replace(bank, **fields), path)
        with pytest.raises(kb.BankFormatError, match=f"^bad bank header at offset {at} "):
            kb.load_bank(path)

    def test_largest_wav_rate_loads(self, bank, tmp_path):
        # a 16-bit mono WAV holds the byte rate, 2 * rate, in 32 bits
        path = tmp_path / "fast.spkb"
        kb.save_bank(dataclasses.replace(bank, sample_rate=2.0 ** 31 - 1), path)
        assert kb.load_bank(path).sample_rate == 2 ** 31 - 1

    def test_trailing_bytes_rejected(self, bank, tmp_path):
        path = tmp_path / "fat.spkb"
        kb.save_bank(bank, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(kb.BankFormatError, match="trailing"):
            kb.load_bank(path)
