"""Command-line surface: encode, decode, kernels, sweep, bench."""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import audio_io, decoder, encoder, itp, kernel_bank


def _load_bank(args):
    if args.bank:
        return kernel_bank.load_bank(args.bank)
    return kernel_bank.build_bank()


def _write_spikes(spikes, path, bank, channel_map):
    if path.endswith(".spka"):
        itp.write_aer_binary(spikes, path, bank.sample_rate,
                             channel_map.total_channels)
    else:
        itp.write_aer_text(spikes, path)


def cmd_encode(args):
    if args.fixed is not None and args.path is not None:
        raise ValueError("--path does not apply with --fixed: the integer "
                         "datapath has its own correlation")
    config = encoder.EncoderConfig(sps=args.sps, threshold=args.threshold,
                                   path=args.path or "fft", fixed=args.fixed is not None)
    bank = _load_bank(args)
    # |samples| < 1 keeps every Q5.28 value in range (fixed_point.SaturationFlag)
    samples, _ = audio_io.read_wav(args.input, expected_rate=bank.sample_rate)
    codes = encoder.encode_stream(samples, bank, config)
    channel_map = itp.ChannelMap(kernel_count=bank.kernel_count)
    spikes = itp.codes_to_spikes(codes, channel_map, bank.segment_length)
    _write_spikes(spikes, args.output, bank, channel_map)
    if args.codes:
        encoder.write_codes_csv(codes, args.codes)
    if args.report:
        report = decoder.encoding_report(samples, codes, spikes, bank,
                                         channel_map, bank.sample_rate)
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    duration = len(samples) / bank.sample_rate
    per_second = len(spikes) / duration if duration > 0 else 0.0
    print(f"{len(spikes)} spikes ({per_second:.1f} per second)")
    return 0


def cmd_decode(args):
    bank = _load_bank(args)
    if args.input.endswith(".spka"):
        spikes, file_rate, file_channels = itp.read_aer_binary(args.input)
    else:
        spikes, file_rate, file_channels = itp.read_aer(args.input)
    if file_rate is not None and file_rate != bank.sample_rate:
        raise ValueError(f"spike file rate {file_rate:g} Hz does not match "
                         f"bank rate {bank.sample_rate:g} Hz")
    channel_map = itp.ChannelMap(kernel_count=bank.kernel_count)
    if file_channels is not None and file_channels != channel_map.total_channels:
        raise ValueError(f"spike file declares {file_channels} channels, but the "
                         f"{bank.kernel_count}-kernel bank has "
                         f"{channel_map.total_channels}")
    reference = None
    if args.reference:
        reference, _ = audio_io.read_wav(args.reference,
                                         expected_rate=bank.sample_rate)
    if args.length is not None:
        if args.length < 1:
            raise ValueError(f"--length must be at least 1, got {args.length}")
        length = args.length
    elif reference is not None:
        length = len(reference)
    elif len(spikes):
        length = int(spikes.time.max()) + bank.kernel_length
    else:
        raise ValueError("empty spike train: give --length for the output size")
    if length > audio_io.MAX_WAV_SAMPLES:
        raise ValueError(f"output length {length} exceeds the {audio_io.MAX_WAV_SAMPLES}"
                         f" samples a 16-bit mono WAV can hold")
    recon = decoder.reconstruct_from_spikes(spikes, bank, channel_map, length)
    audio_io.write_wav(args.output, recon, bank.sample_rate)
    report = {"spike_count": len(spikes), "output_samples": length,
              "snr_db": None}
    if reference is not None:
        span = min(len(reference), length)
        report["snr_db"] = decoder.snr_db(reference[:span], recon[:span])
        print(f"snr: {report['snr_db']:.2f} dB over {span} samples")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(f"wrote {length} samples from {len(spikes)} spikes")
    return 0


def cmd_kernels(args):
    bank = kernel_bank.build_bank()
    kernel_bank.save_bank(bank, args.output)
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write("kernel,center_freq_hz,sample,amplitude\n")
            for m, (fc, samples) in enumerate(zip(bank.center_frequencies.tolist(),
                                                  bank.samples_matrix.tolist())):
                for i, value in enumerate(samples):
                    fh.write(f"{m},{fc:.6f},{i},{value:.9g}\n")
    print(f"saved {bank.kernel_count} kernels to {args.output}")
    return 0


def _log_chirp(t, f0, f1, t1):
    """A unit cosine sweeping from f0 Hz at t = 0 to f1 Hz at t1, at a constant
    rate in octaves: scipy.signal.chirp(method="logarithmic")'s formula."""
    if not 0.0 < f0 < f1:
        raise ValueError(f"a sweep needs 0 < fmin < fmax, the bank has [{f0}, {f1}]")
    beta = t1 / np.log(f1 / f0)
    return np.cos(2 * np.pi * beta * f0 * (np.power(f1 / f0, t / t1) - 1.0))


def _average_ranks(values):
    """1-based ranks of values, each tie given the mean of its ranks."""
    order = np.argsort(values, kind="stable")
    ordered = np.asarray(values)[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(ordered)]
    ranks = np.empty(len(ordered))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _rank_correlation(x, y):
    """Spearman's rho, Pearson's on average ranks; nan if either is constant."""
    ranks = np.column_stack([_average_ranks(x), _average_ranks(y)])
    if np.any(ranks.min(axis=0) == ranks.max(axis=0)):
        return float("nan")
    return np.corrcoef(ranks, rowvar=False)[0, 1]


def cmd_sweep(args):
    if not (np.isfinite(args.amplitude) and args.amplitude > 0):
        raise ValueError(f"--amplitude must be finite and above 0, got {args.amplitude}")
    bank = _load_bank(args)
    rate = bank.sample_rate
    duration = 5.0
    t = np.arange(int(duration * rate)) / rate
    samples = args.amplitude * _log_chirp(t, bank.fmin, bank.fmax, duration)
    config = encoder.EncoderConfig(sps=1, threshold=0.0, path="fft")
    codes = encoder.encode_stream(samples, bank, config)
    channel_map = itp.ChannelMap(kernel_count=bank.kernel_count)
    spikes = itp.codes_to_spikes(codes, channel_map, bank.segment_length)
    if args.output:
        _write_spikes(spikes, args.output, bank, channel_map)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("segment_time,winning_kernel\n")
            for code in codes:
                seg_time = code.segment_index * bank.segment_length / rate
                fh.write(f"{seg_time:.6f},{code.m}\n")
    winners = [code.m for code in codes]
    rho = _rank_correlation(np.arange(len(winners)), winners)
    print(f"{len(winners)} segments, rank correlation (time vs kernel): "
          f"{rho:.4f}")
    return 0


def cmd_bench(args):
    bank = _load_bank(args)
    length = args.seconds * bank.sample_rate
    if not length <= audio_io.MAX_WAV_SAMPLES:  # NaN too
        raise ValueError(f"--seconds must be finite and span at most the "
                         f"{audio_io.MAX_WAV_SAMPLES} samples a 16-bit mono WAV can hold "
                         f"at {bank.sample_rate:g} Hz, got {args.seconds}")
    if length < 1:
        raise ValueError(f"no input: --seconds must span at least one sample, "
                         f"got {args.seconds}")
    rng = np.random.default_rng(0)
    samples = 0.5 * rng.uniform(-1.0, 1.0, int(length))
    segments = -(-len(samples) // bank.segment_length)
    realtime = bank.sample_rate / bank.segment_length
    configs = [(path, encoder.EncoderConfig(sps=args.sps, threshold=0.0, path=path))
               for path in ((args.path,) if args.path else ("direct", "fft"))]
    if not args.path:
        configs.append(("fixed", encoder.EncoderConfig(sps=args.sps, threshold=0.0,
                                                       fixed=True)))
    for name, config in configs:
        start = time.perf_counter()
        encoder.encode_stream(samples, bank, config)
        elapsed = time.perf_counter() - start
        throughput = segments / elapsed
        verdict = "met" if throughput >= realtime else "not met"
        print(f"{name}: {throughput:.2f} segments/s at sps {args.sps} "
              f"(real-time needs {realtime:.2f}: {verdict})")
    return 0


_HANDLERS = {
    "encode": cmd_encode,
    "decode": cmd_decode,
    "kernels": cmd_kernels,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spiketrum",
        description="Sparse spike-train audio coding over a gammatone "
                    "kernel dictionary.")
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="encode a WAV file to spikes")
    encode.add_argument("input", help="mono 16-bit PCM WAV at the bank rate")
    encode.add_argument("-o", "--output", required=True,
                        help="spike train out (.spka binary, anything else text)")
    encode.add_argument("--sps", type=int, default=16,
                        help="max spikes per segment (default 16)")
    encode.add_argument("--threshold", type=float, default=0.0,
                        help="feedback stop threshold on |s| (0 disables)")
    encode.add_argument("--path", choices=("direct", "fft"),
                        help="float correlation engine (default fft); "
                             "not with --fixed")
    encode.add_argument("--fixed", choices=("Q5.28",),
                        help="encode on the 34-bit integer datapath")
    encode.add_argument("--bank", help="kernel bank file (default: built in)")
    encode.add_argument("--codes", help="also write the code list CSV here")
    encode.add_argument("--report", help="write a quality report JSON here")

    decode = sub.add_parser("decode", help="reconstruct a WAV from spikes")
    decode.add_argument("input", help="spike train (text or .spka binary)")
    decode.add_argument("-o", "--output", required=True, help="WAV out")
    decode.add_argument("--bank", help="kernel bank file (default: built in)")
    decode.add_argument("--length", type=int,
                        help="output length in samples (default: inferred)")
    decode.add_argument("--reference", help="original WAV for SNR reporting")
    decode.add_argument("--report", help="write a report JSON here")

    kernels = sub.add_parser("kernels", help="build and save the kernel bank")
    kernels.add_argument("-o", "--output", required=True, help="bank file out")
    kernels.add_argument("--dump", help="also write kernel waveforms CSV here")

    sweep = sub.add_parser("sweep",
                           help="log-sweep characterization at 1 spike/segment")
    sweep.add_argument("-o", "--output", help="spike train out")
    sweep.add_argument("--csv", help="write (segment_time, winning_kernel) here")
    sweep.add_argument("--amplitude", type=float, default=0.5,
                       help="sweep amplitude, full scale = 1 (default 0.5)")
    sweep.add_argument("--bank", help="kernel bank file (default: built in)")

    bench = sub.add_parser("bench", help="throughput check on synthetic noise")
    bench.add_argument("--seconds", type=float, default=5.0,
                       help="corpus length in seconds (default 5)")
    bench.add_argument("--sps", type=int, default=16,
                       help="max spikes per segment (default 16)")
    bench.add_argument("--path", choices=("direct", "fft"),
                       help="bench one float engine (default: both, then Q5.28)")
    bench.add_argument("--bank", help="kernel bank file (default: built in)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
