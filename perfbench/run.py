"""Benchmark of the spiketrum pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload utterance_encode --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py. ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` runs the same closed loop with every
other clip traced and prints the per-layer metrics, plus the tracing
overhead measured against the untraced clips of the same run. Each metric
line names its unit; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Span files (traced
runs) and per-op timings go to perfbench/out/.

One operation is one clip's chain. It fails when it raises or when any
output check on it fails; checks run outside the timed region.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

import program
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 7
BUILDS_TRACED = 5
SNR_CAP_DB = 300.0   # as the package caps it

# name -> unit; BENCHMARK.json lists the same names with their bounds.
END_TO_END = {
    "setup_s": "s",
    "seg_per_s": "1/s",
    "rtf": "s/s",
    "clip_ms_p50": "ms",
    "clip_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "snr_db": "dB",
}

PER_LAYER = {
    "kernel_bank.build_s": "s",
    "audio_io.read_wav_s": "s/clip",
    "audio_io.write_wav_s": "s/clip",
    "encoder.segment_stream_s": "s/clip",
    "encoder.segments": "1/clip",
    "encoder.correlate_s": "s/clip",
    "encoder.correlate_calls": "1/clip",
    "encoder.argmax_s": "s/clip",
    "encoder.subtract_s": "s/clip",
    "encoder.codes_per_segment": "1/segment",
    "encoder.early_stop_ratio": "ratio",
    "encoder.useful_correlation_ratio": "ratio",
    "encoder.pool_busy_ratio": "ratio",
    "encoder.write_codes_csv_s": "s/clip",
    "fixed_point.segment_s": "s/clip",
    "fixed_point.q_mul_s": "s/clip",
    "fixed_point.quantize_s": "s/clip",
    "fixed_point.correlate_s": "s/clip",
    "fixed_point.iterations": "count",
    "fixed_point.parity_matched": "count",
    "fixed_point.parity_checked": "count",
    "itp.codes_to_spikes_s": "s/clip",
    "itp.write_aer_s": "s/clip",
    "itp.read_aer_s": "s/clip",
    "itp.spikes": "1/clip",
    "itp.aer_bytes": "B/clip",
    "decoder.reconstruct_s": "s/clip",
    "decoder.report_s": "s/clip",
    "trace.clips": "count",
    "trace.untraced_seg_per_s": "1/s",
    "trace.traced_seg_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed chain seconds to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-code", action="store_true",
                        help="corrupt one code of the first clip (self-check)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def machine(workload, threads):
    """The machine and settings a result was measured with."""
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {
        "nproc": program.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy, "blas": blas,
        "blas_threads": {name: os.environ[name] for name in program.BLAS_ENV},
        "SPIKETRUM_THREADS": threads, "workload": workload,
    }


def measure_setup(workload):
    """Median over fresh processes of import + build_bank + warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True, cwd=program.ROOT)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 clips beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def rate(ops, corpus, attr):
    """Median over ops of the work (segments or audio seconds) per chain second.

    A median rather than total work over total time: this machine's CPUs
    slow down by up to 2x for seconds at a time, and the median clip is
    not moved by such a spell unless it covers half the run.
    """
    if not ops:
        return 0.0
    return statistics.median(getattr(corpus[c], attr) / t for c, t, _ in ops)


def layer_metrics(tracer, ops, corpus, threads, build_times, counts):
    """Per-layer metrics of a traced run: self seconds and counts per traced clip."""
    layers = tracing.summarize([s for s in tracer.spans if isinstance(s[2], int)])
    traced = [op for op in ops if op[2]]
    untraced = [op for op in ops if not op[2]]
    clips = len(traced)

    def self_s(*names):
        return sum(layers[n]["self_s"] for n in names if n in layers)

    def total_s(*names):
        return sum(layers[n]["total_s"] for n in names if n in layers)

    def calls(*names):
        return sum(layers[n]["calls"] for n in names if n in layers)

    def infos(*names):
        return [x for n in names if n in layers for x in layers[n]["info"]]

    def per_clip(x):
        return x / clips if clips else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    segment_fns = ("encoder.encode_segment", "fixed_point.encode_segment_fixed")
    pursued = infos(*segment_fns)
    codes = sum(n for n, _ in pursued)
    correlations = calls("encoder.correlate_all_fft", "fixed_point._correlate_raw_fft")
    untraced_rate = rate(untraced, corpus, "segments")
    traced_rate = rate(traced, corpus, "segments")
    return {
        "kernel_bank.build_s": statistics.median(build_times),
        "audio_io.read_wav_s": per_clip(self_s("audio_io.read_wav")),
        "audio_io.write_wav_s": per_clip(self_s("audio_io.write_wav")),
        "encoder.segment_stream_s": per_clip(self_s("encoder.segment_stream")),
        "encoder.segments": per_clip(sum(infos("encoder.segment_stream"))),
        "encoder.correlate_s": per_clip(self_s("encoder.correlate_all_fft")),
        "encoder.correlate_calls": per_clip(calls("encoder.correlate_all_fft")),
        "encoder.argmax_s": per_clip(self_s("encoder.find_best_code")),
        "encoder.subtract_s": per_clip(self_s("encoder.subtract_component")),
        "encoder.codes_per_segment": ratio(codes, len(pursued)),
        "encoder.early_stop_ratio": ratio(sum(s for _, s in pursued), len(pursued)),
        "encoder.useful_correlation_ratio": ratio(codes, correlations),
        "encoder.pool_busy_ratio": ratio(total_s(*segment_fns),
                                         total_s("encoder.encode_stream") * threads),
        "encoder.write_codes_csv_s": per_clip(self_s("encoder.write_codes_csv")),
        "fixed_point.segment_s": per_clip(self_s("fixed_point.encode_segment_fixed")),
        "fixed_point.q_mul_s": per_clip(self_s("fixed_point.q_mul")),
        "fixed_point.quantize_s": per_clip(self_s("fixed_point.to_fixed",
                                                  "fixed_point.to_float")),
        "fixed_point.correlate_s": per_clip(self_s("fixed_point._correlate_raw_fft")),
        "fixed_point.iterations": counts.get("iterations", 0),
        "fixed_point.parity_matched": counts.get("parity_matched", 0),
        "fixed_point.parity_checked": counts.get("parity_checked", 0),
        "itp.codes_to_spikes_s": per_clip(self_s("itp.codes_to_spikes")),
        "itp.write_aer_s": per_clip(self_s("itp.write_aer_binary")),
        "itp.read_aer_s": per_clip(self_s("itp.read_aer")),
        "itp.spikes": per_clip(sum(infos("itp.codes_to_spikes"))),
        "itp.aer_bytes": per_clip(sum(infos("itp.write_aer_binary"))),
        "decoder.reconstruct_s": per_clip(self_s("decoder.reconstruct_from_spikes",
                                                 "decoder.reconstruct_from_codes")),
        "decoder.report_s": per_clip(self_s("decoder.encoding_report")),
        "trace.clips": clips,
        "trace.untraced_seg_per_s": untraced_rate,
        "trace.traced_seg_per_s": traced_rate,
        "trace.overhead_ratio": ratio(untraced_rate, traced_rate) - 1.0 if traced_rate else 0.0,
    }


def measure(wl, ctx, corpus, args, tracer):
    """The closed loop: one client runs clip chains until --seconds of them.

    Returns the ops as (clip index, chain seconds, traced), the numbers of
    the failed ones, and per clip the sampled-segment codes of each op for
    the reference check. With a tracer, every other op is traced; the
    pattern shifts by one each pass so every clip is seen both ways.
    """
    ops = []
    failed = set()
    kept = defaultdict(list)
    measured = 0.0
    wall_limit = time.perf_counter() + min(3 * args.seconds + 30, 120)
    while measured < args.seconds and time.perf_counter() < wall_limit:
        i = len(ops)
        clip = corpus[i % len(corpus)]
        traced = tracer is not None and (i + i // len(corpus)) % 2 == 1
        plant = args.plant_wrong_code and i == 0
        out = None
        payload = wl.prepare(clip)
        if traced:
            tracer.clip = i
            tracer.install()
        start = time.perf_counter()
        try:
            if traced:
                out = tracer.call("clip", wl.run, ctx, clip, payload, plant)
            else:
                out = wl.run(ctx, clip, payload, plant)
        except Exception:
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        ops.append((clip.index, elapsed, traced))
        measured += elapsed
        if out is None:
            failed.add(i)
            continue
        try:
            problems, sampled = wl.check(ctx, clip, out)
        except Exception:
            problems, sampled = [traceback.format_exc()], None
        if problems:
            failed.add(i)
            print(f"op {i} (clip {clip.index}) failed: {'; '.join(problems)}", file=sys.stderr)
        if sampled is not None:
            kept[clip.index].append((i, sampled))
    return ops, failed, kept


def main(argv=None):
    args = parse_args(argv)
    program.pin_blas_threads()
    program.load()
    import numpy as np

    import workloads
    from spiketrum import audio_io, decoder, encoder, fixed_point, itp, kernel_bank

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")
    wl = workloads.build(args.workload)
    threads = wl.threads(program.cpu_count())
    os.environ["SPIKETRUM_THREADS"] = str(threads)
    info = machine(args.workload, threads)
    setup_s = None if args.trace else measure_setup(args.workload)

    tracer = None
    build_times = []
    if args.trace:
        tracer = tracing.Tracer({"kernel_bank": kernel_bank, "audio_io": audio_io,
                                 "encoder": encoder, "fixed_point": fixed_point,
                                 "itp": itp, "decoder": decoder})
        tracer.install()
        for _ in range(BUILDS_TRACED):
            start = time.perf_counter()
            bank = kernel_bank.build_bank()
            build_times.append(time.perf_counter() - start)
        tracer.uninstall()
    else:
        bank = kernel_bank.build_bank()
    if bank.segment_length != workloads.SEGMENT or bank.kernel_count != workloads.KERNELS:
        raise SystemExit("error: bank geometry differs from the benchmark's inputs")
    wl.warm_up(bank)

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        ctx = workloads.Context(bank, itp.ChannelMap(kernel_count=bank.kernel_count), workdir)
        corpus = wl.make_corpus(np.random.default_rng(args.seed), ctx)

        ops, failed, kept = measure(wl, ctx, corpus, args, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        reference_failed, counts = wl.finish(ctx, corpus, kept)
        for i in sorted(reference_failed - failed):
            print(f"op {i} failed the reference comparison", file=sys.stderr)
        failed |= reference_failed
        signal, error = wl.snr_parts(ctx, corpus)

    latencies = [op[1] for op in ops]
    attempted = len(ops)
    measured = sum(latencies)
    with open(os.path.join(OUT_DIR, f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump([{"clip": c, "segments": corpus[c].segments, "audio_s": corpus[c].audio_s,
                    "seconds": t, "traced": tr, "failed": i in failed}
                   for i, (c, t, tr) in enumerate(ops)], fh)
    print(f"{args.workload}: seed {args.seed}, {attempted} clips, "
          f"{sum(corpus[op[0]].segments for op in ops)} segments, "
          f"{measured:.3f} s of timed chains, corpus of {len(corpus)} clips")
    if args.trace:
        metrics = layer_metrics(tracer, ops, corpus, threads, build_times, counts)
        units = PER_LAYER
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        tail_ms, tail_pct = tail(latencies)
        metrics = {
            "setup_s": setup_s,
            "seg_per_s": rate(ops, corpus, "segments"),
            "rtf": rate(ops, corpus, "audio_s"),
            "clip_ms_p50": statistics.median(latencies) * 1000.0,
            "clip_ms_tail": tail_ms * 1000.0,
            "peak_rss_mb": peak_rss_mb,
            "snr_db": min(10.0 * math.log10(signal / error), SNR_CAP_DB) if error > 0
                      else SNR_CAP_DB,
        }
        units = END_TO_END
        print(f"  clip_ms_tail is p{tail_pct:.1f} of {attempted} clips; "
              f"setup_s is the median of {SETUP_PROBES} fresh processes")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(f"  fail_ratio = {len(failed) / attempted!r} ({len(failed)} of {attempted} failed)")
    print(json.dumps({"machine": info}))
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
