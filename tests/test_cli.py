"""Command-line behavior, run in process through cli.main."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spiketrum
from spiketrum import audio_io, cli, itp, kernel_bank
from spiketrum.encoder import read_codes_csv


def spike_train(times, channels):
    return np.rec.fromarrays([times, channels], dtype=itp.SPIKE_DTYPE)


@pytest.fixture(scope="module")
def noise_wav(tmp_path_factory):
    rng = np.random.default_rng(70)
    path = tmp_path_factory.mktemp("audio") / "noise.wav"
    audio_io.write_wav(path, 0.3 * rng.uniform(-1, 1, 16000), 16000)
    return str(path)


class TestEncode:
    def test_text_output(self, noise_wav, tmp_path, capsys):
        out = tmp_path / "spikes.txt"
        assert cli.main(["encode", noise_wav, "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "368 spikes" in stdout
        assert "per second" in stdout
        spikes = itp.read_aer_text(out)
        assert len(spikes) == 368

    def test_binary_output_by_suffix(self, noise_wav, tmp_path):
        out = tmp_path / "spikes.spka"
        assert cli.main(["encode", noise_wav, "-o", str(out)]) == 0
        spikes, rate, channels = itp.read_aer_binary(out)
        assert (rate, channels) == (16000.0, 120)
        assert len(spikes) == 368

    def test_codes_and_report_sidecars(self, noise_wav, tmp_path, capsys):
        out = tmp_path / "s.txt"
        codes_csv = tmp_path / "codes.csv"
        report_json = tmp_path / "report.json"
        rc = cli.main(["encode", noise_wav, "-o", str(out),
                       "--codes", str(codes_csv), "--report", str(report_json)])
        assert rc == 0
        assert len(read_codes_csv(codes_csv)) == 368
        report = json.loads(report_json.read_text())
        assert set(report) == {"code_count", "spike_count", "spikes_per_second",
                               "residual_energy", "snr_code_db", "snr_spike_db",
                               "entropy_bits", "sparsity_percent"}
        assert report["code_count"] == 368

    def test_deterministic_bytes(self, noise_wav, tmp_path):
        a, b = tmp_path / "a.spka", tmp_path / "b.spka"
        cli.main(["encode", noise_wav, "-o", str(a)])
        cli.main(["encode", noise_wav, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_mode(self, noise_wav, tmp_path, capsys):
        out = tmp_path / "f.txt"
        rc = cli.main(["encode", noise_wav, "-o", str(out),
                       "--fixed", "Q5.28", "--sps", "4"])
        assert rc == 0
        assert len(itp.read_aer_text(out)) == 23 * 4
        assert capsys.readouterr().err == ""

    def test_fixed_threshold_outside_the_format(self, noise_wav, tmp_path, capsys):
        rc = cli.main(["encode", noise_wav, "-o", str(tmp_path / "x.txt"),
                       "--fixed", "Q5.28", "--threshold", "100"])
        assert rc == 1
        assert capsys.readouterr().err == ("error: threshold 100.0 outside the Q5.28 "
                                           "range [-32.0, 31.99999999627471]\n")

    def test_fixed_takes_only_q5_28(self, noise_wav, tmp_path, capsys):
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["encode", noise_wav, "-o", str(out), "--fixed", "Q0.33"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --fixed: invalid choice: 'Q0.33'" in err
        assert not out.exists()

    def test_fixed_rejects_fft_path(self, noise_wav, tmp_path, capsys):
        rc = cli.main(["encode", noise_wav, "-o", str(tmp_path / "x.txt"),
                       "--fixed", "Q5.28", "--path", "fft"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_fixed_rejects_direct_path(self, noise_wav, tmp_path, capsys):
        rc = cli.main(["encode", noise_wav, "-o", str(tmp_path / "x.txt"),
                       "--fixed", "Q5.28", "--path", "direct"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_wrong_rate_rejected(self, tmp_path, capsys):
        wav = tmp_path / "hi.wav"
        audio_io.write_wav(wav, np.zeros(1000), 44100)
        rc = cli.main(["encode", str(wav), "-o", str(tmp_path / "x.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "44100" in err

    @pytest.mark.parametrize("cut, holds", [(1, "99 and 1 stray byte"), (2, "99")])
    def test_truncated_wav_rejected(self, tmp_path, capsys, cut, holds):
        wav = tmp_path / "cut.wav"
        audio_io.write_wav(wav, np.full(100, 0.3), 16000)
        wav.write_bytes(wav.read_bytes()[:-cut])
        out = tmp_path / "x.spka"
        assert cli.main(["encode", str(wav), "-o", str(out)]) == 1
        assert capsys.readouterr().err == ("error: truncated WAV file: the header declares "
                                           f"100 frames, the file holds {holds}\n")
        assert not out.exists()

    def test_threshold_thins_spikes(self, noise_wav, tmp_path, capsys):
        out = tmp_path / "t.txt"
        rc = cli.main(["encode", noise_wav, "-o", str(out),
                       "--threshold", "0.6"])
        assert rc == 0
        assert len(itp.read_aer_text(out)) < 368


class TestDecode:
    def test_round_trip_with_reference(self, noise_wav, tmp_path, capsys):
        spikes = tmp_path / "s.spka"
        cli.main(["encode", noise_wav, "-o", str(spikes)])
        capsys.readouterr()
        out = tmp_path / "recon.wav"
        rc = cli.main(["decode", str(spikes), "-o", str(out),
                       "--reference", noise_wav])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "snr:" in stdout and "wrote 16000 samples" in stdout
        recon, rate = audio_io.read_wav(out)
        assert rate == 16000 and len(recon) == 16000

    def test_explicit_length(self, noise_wav, tmp_path):
        spikes = tmp_path / "s.txt"
        cli.main(["encode", noise_wav, "-o", str(spikes)])
        out = tmp_path / "r.wav"
        assert cli.main(["decode", str(spikes), "-o", str(out),
                         "--length", "20000"]) == 0
        recon, _ = audio_io.read_wav(out)
        assert len(recon) == 20000

    def test_report_sidecar(self, noise_wav, tmp_path):
        spikes = tmp_path / "s.txt"
        cli.main(["encode", noise_wav, "-o", str(spikes)])
        report_json = tmp_path / "d.json"
        cli.main(["decode", str(spikes), "-o", str(tmp_path / "r.wav"),
                  "--reference", noise_wav, "--report", str(report_json)])
        report = json.loads(report_json.read_text())
        assert set(report) == {"spike_count", "output_samples", "snr_db"}
        assert report["spike_count"] == 368
        assert report["snr_db"] is not None

    def test_length_below_one_rejected(self, noise_wav, tmp_path, capsys):
        spikes = tmp_path / "s.txt"
        cli.main(["encode", noise_wav, "-o", str(spikes)])
        for length in ("-5", "0"):
            rc = cli.main(["decode", str(spikes), "-o", str(tmp_path / "r.wav"),
                           "--length", length])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "--length" in err and length in err

    @pytest.mark.parametrize("source", ["--length", "last spike"])
    def test_length_past_wav_limit_rejected(self, tmp_path, capsys, source):
        # 2**40 samples would need 8 TiB of float64 and overflow the RIFF size field
        spikes = tmp_path / "far.spka"
        args = ["decode", str(spikes), "-o", str(tmp_path / "r.wav")]
        if source == "--length":
            itp.write_aer_binary(spike_train([0], [0]), spikes, 16000.0)
            args += ["--length", str(2 ** 40)]
            length = 2 ** 40
        else:
            itp.write_aer_binary(spike_train([2 ** 40], [0]), spikes, 16000.0)
            length = 2 ** 40 + 1353
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(length) in err and str(audio_io.MAX_WAV_SAMPLES) in err
        assert not (tmp_path / "r.wav").exists()

    @pytest.mark.parametrize("source", ["--length", "last spike"])
    def test_wav_limit_boundary(self, tmp_path, capsys, monkeypatch, source):
        monkeypatch.setattr(audio_io, "MAX_WAV_SAMPLES", 2000)
        for length, rc in ((2000, 0), (2001, 1)):
            spikes = tmp_path / f"{length}.spka"
            args = ["decode", str(spikes), "-o", str(tmp_path / f"{length}.wav")]
            if source == "--length":
                itp.write_aer_binary(spike_train([0], [0]), spikes, 16000.0)
                args += ["--length", str(length)]
            else:
                itp.write_aer_binary(spike_train([length - 1353], [0]), spikes,
                                     16000.0)
            assert cli.main(args) == rc
            assert ("exceeds the 2000 samples" in capsys.readouterr().err) == bool(rc)

    def test_wav_limit_is_the_riff_size_field(self):
        # RIFF size = 36 header bytes + 2 bytes per sample, a 32-bit field
        assert 36 + 2 * audio_io.MAX_WAV_SAMPLES <= 2 ** 32 - 1
        assert 36 + 2 * (audio_io.MAX_WAV_SAMPLES + 1) > 2 ** 32 - 1

    def test_negative_text_time_rejected(self, tmp_path, capsys):
        spikes = tmp_path / "neg.txt"
        spikes.write_text("0,0\n-5,3\n")
        rc = cli.main(["decode", str(spikes), "-o", str(tmp_path / "r.wav")])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_empty_spikes_need_length(self, tmp_path, capsys):
        empty = tmp_path / "none.txt"
        itp.write_aer_text(spike_train([], []), empty)
        rc = cli.main(["decode", str(empty), "-o", str(tmp_path / "r.wav")])
        assert rc == 1
        assert "empty spike train" in capsys.readouterr().err

    def test_bad_magic_reported(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.spka"
        bogus.write_bytes(b"garbage....")
        rc = cli.main(["decode", str(bogus), "-o", str(tmp_path / "r.wav")])
        assert rc == 1
        assert "magic" in capsys.readouterr().err

    def test_channel_count_of_another_bank_rejected(self, noise_wav, tmp_path, capsys):
        # a 20-kernel bank's train declares 60 channels, the built-in bank has 120
        bank = kernel_bank.build_bank()
        bank_file, spikes = tmp_path / "b20.spkb", tmp_path / "s20.spka"
        kernel_bank.save_bank(dataclasses.replace(
            bank, samples_matrix=bank.samples_matrix[::2],
            center_frequencies=bank.center_frequencies[::2]), bank_file)
        assert cli.main(["encode", noise_wav, "-o", str(spikes), "--bank", str(bank_file)]) == 0
        capsys.readouterr()
        out = tmp_path / "r.wav"
        assert cli.main(["decode", str(spikes), "-o", str(out)]) == 1
        assert capsys.readouterr().err == ("error: spike file declares 60 channels, but "
                                           "the 40-kernel bank has 120\n")
        assert not out.exists()
        assert cli.main(["decode", str(spikes), "-o", str(out), "--bank", str(bank_file)]) == 0

    def test_bank_at_a_rate_no_wav_holds_rejected(self, tmp_path, capsys):
        # at 16000.5 Hz decode wrote a 16000 Hz WAV; at 5e9 Hz it died in struct.pack
        spikes = tmp_path / "s.spka"
        itp.write_aer_binary(spike_train([0], [0]), spikes, 16000.0)
        for rate in (16000.5, 5e9):
            bank_file, out = tmp_path / "odd.spkb", tmp_path / "r.wav"
            kernel_bank.save_bank(dataclasses.replace(
                kernel_bank.build_bank(), sample_rate=rate), bank_file)
            assert cli.main(["decode", str(spikes), "-o", str(out),
                             "--bank", str(bank_file)]) == 1
            assert capsys.readouterr().err.startswith(
                f"error: bad bank header at offset 16 (sample rate): {rate!r}, need a whole "
                "number in [1, 2147483647]")
            assert not out.exists()

    def test_rate_mismatch_rejected(self, tmp_path, capsys):
        spikes = tmp_path / "hi.spka"
        itp.write_aer_binary(spike_train([0], [0]), spikes, 22050.0)
        rc = cli.main(["decode", str(spikes), "-o", str(tmp_path / "r.wav")])
        assert rc == 1
        assert "22050" in capsys.readouterr().err


class TestKernels:
    def test_saves_loadable_bank(self, tmp_path, capsys):
        out = tmp_path / "bank.spkb"
        assert cli.main(["kernels", "-o", str(out)]) == 0
        assert "saved 40 kernels" in capsys.readouterr().out
        bank = kernel_bank.load_bank(out)
        assert bank.kernel_count == 40

    def test_saved_bank_reusable_for_encode(self, noise_wav, tmp_path):
        bank_file = tmp_path / "bank.spkb"
        cli.main(["kernels", "-o", str(bank_file)])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli.main(["encode", noise_wav, "-o", str(a)])
        cli.main(["encode", noise_wav, "-o", str(b), "--bank", str(bank_file)])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_bank_header_named(self, noise_wav, tmp_path, capsys):
        bank_file = tmp_path / "empty.spkb"
        cli.main(["kernels", "-o", str(bank_file)])
        blob = bytearray(bank_file.read_bytes()[:44])
        blob[8:12] = bytes(4)  # kernel count 0, no kernel records
        bank_file.write_bytes(bytes(blob))
        rc = cli.main(["encode", noise_wav, "-o", str(tmp_path / "a.txt"),
                       "--bank", str(bank_file)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: bad bank header at offset 8 (kernel count): ")

    def test_scaled_bank_rejected(self, noise_wav, tmp_path, capsys):
        bank = kernel_bank.build_bank()
        bank_file = tmp_path / "loud.spkb"
        kernel_bank.save_bank(dataclasses.replace(
            bank, samples_matrix=6 * bank.samples_matrix), bank_file)
        out = tmp_path / "a.txt"
        rc = cli.main(["encode", noise_wav, "-o", str(out), "--fixed", "Q5.28",
                       "--bank", str(bank_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: kernel 0 at offset 44 has L2 norm 6.0, not 1 within 1e-09\n")
        assert not out.exists()

    def test_dump_csv(self, tmp_path):
        out = tmp_path / "bank.spkb"
        dump = tmp_path / "kernels.csv"
        cli.main(["kernels", "-o", str(out), "--dump", str(dump)])
        lines = dump.read_text().splitlines()
        assert lines[0] == "kernel,center_freq_hz,sample,amplitude"
        assert len(lines) == 1 + 40 * 1353


class TestSweep:
    def test_rank_correlation_printed(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        out = tmp_path / "sweep.txt"
        rc = cli.main(["sweep", "-o", str(out), "--csv", str(csv)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "115 segments" in stdout
        rho = float(stdout.rsplit(":", 1)[1])
        assert rho >= 0.95
        assert len(itp.read_aer_text(out)) == 115
        lines = csv.read_text().splitlines()
        assert lines[0] == "segment_time,winning_kernel"
        assert len(lines) == 116

    @pytest.mark.parametrize("amplitude", ["nan", "inf", "0", "-0.5"])
    def test_amplitude_must_be_finite_and_positive(self, amplitude, capsys):
        assert cli.main(["sweep", "--amplitude", amplitude]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --amplitude must be finite and above 0, got ")


class TestBench:
    def test_single_path(self, capsys):
        assert cli.main(["bench", "--seconds", "0.3", "--path", "fft"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("fft:")
        assert "real-time needs 22.99" in stdout

    def test_both_paths_by_default(self, capsys):
        assert cli.main(["bench", "--seconds", "0.1"]) == 0
        stdout = capsys.readouterr().out
        assert "direct:" in stdout and "fft:" in stdout

    def test_default_adds_the_fixed_datapath(self, capsys):
        assert cli.main(["bench", "--seconds", "0.1", "--sps", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["direct", "fft", "fixed"]
        assert all(" segments/s at sps 4 (real-time needs 22.99: " in line
                   for line in lines)

    def test_zero_seconds_is_no_input(self, capsys):
        assert cli.main(["bench", "--seconds", "0"]) == 1
        assert "no input" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds", ["-1", "1e-9"])
    def test_less_than_one_sample_is_no_input(self, seconds, capsys):
        assert cli.main(["bench", "--seconds", seconds]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: no input: --seconds must span at least one sample, got {float(seconds)}")

    @pytest.mark.parametrize("seconds", ["inf", "nan", "1e12"])
    def test_seconds_must_be_finite_and_fit_a_wav(self, seconds, capsys):
        # 1e12 s would be 1.6e16 samples, refused before anything is allocated
        assert cli.main(["bench", "--seconds", seconds]) == 1
        assert capsys.readouterr().err.startswith("error: --seconds must be finite and ")


class TestStartup:
    def test_importing_the_cli_leaves_scipy_out(self):
        # scipy is no runtime dependency, at import or in a sweep; checked in
        # a fresh interpreter, since other tests import scipy in this one
        src = os.path.dirname(os.path.dirname(os.path.abspath(spiketrum.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        script = ("import sys, spiketrum.cli as cli\n"
                  "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                  "print(loaded())\n"
                  "cli.main(['sweep', '--amplitude', '0.05'])\n"
                  "print(loaded())\n")
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, check=True)
        assert done.stdout.splitlines() == [
            "[]", "115 segments, rank correlation (time vs kernel): 0.9989", "[]"]

    def test_a_report_leaves_numpy_ma_out(self):
        # np.unique imports numpy.ma on first use: 20 ms and over 1 MB of
        # memory for the first report of a process
        src = os.path.dirname(os.path.dirname(os.path.abspath(spiketrum.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        script = ("import sys, numpy as np\n"
                  "from spiketrum import build_bank, decoder, itp\n"
                  "from spiketrum.encoder import Code\n"
                  "bank, channel_map = build_bank(), itp.ChannelMap()\n"
                  "codes = [Code(3, 10, 0.5, 0), Code(7, -20, 30.0, 1)]\n"
                  "spikes = itp.codes_to_spikes(codes, channel_map, bank.segment_length)\n"
                  "report = decoder.encoding_report(np.ones(2000), codes, spikes, bank,\n"
                  "                                 channel_map, bank.sample_rate)\n"
                  "print(report['sparsity_percent'], 'numpy.ma' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, check=True)
        assert done.stdout.split() == [str(100 * 2 / 120), "False"]


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["transmogrify"])
