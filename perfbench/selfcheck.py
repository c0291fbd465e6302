"""Quick self-check of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it makes two short runs (two seconds
of timed chains each): a clean one with --trace 0, which must print every
end-to-end metric with its unit and fail nothing, and one with --trace 1
and a planted wrong code, which must print every per-layer metric and
count the planted code as a failed operation. Last, it copies the
benchmark alone into a scratch directory under perfbench/out/ and checks
that a run there exits non-zero without printing a result. Exits 1 if any
expectation fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def run(cwd, workload, trace, plant):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace)]
    if plant:
        cmd.append("--plant-wrong-code")
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def result_of(stdout):
    """The final JSON result line, or None if the run printed none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def check_run(spec, workload, trace, plant):
    kind = "per_layer" if trace else "end_to_end"
    done = run(ROOT, workload, trace, plant)
    label = f"{workload} --trace {trace}{' with a planted wrong code' if plant else ''}"
    result = result_of(done.stdout)
    if done.returncode != 0 or result is None:
        return [f"{label}: exit {done.returncode}, no result\n{done.stderr[-2000:]}"]
    problems = []
    printed = done.stdout
    for metric in spec[kind]:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            problems.append(f"{label}: {name} missing or not in {unit}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{label}: {name} = {got['value']!r} is not a finite number")
        elif kind == "end_to_end" and got["value"] == 0:
            problems.append(f"{label}: {name} is 0")
        if f"  {name} = " not in printed or f" {unit}\n" not in printed:
            problems.append(f"{label}: {name} not printed with its unit")
    if "  fail_ratio = " not in printed:
        problems.append(f"{label}: fail_ratio not printed")
    if plant and result["failed"] < 1:
        problems.append(f"{label}: the planted wrong code was not counted as a failure")
    if not plant and (result["failed"] or not result["correct"]):
        problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
    print(f"{label}: {result['attempted']} attempted, {result['failed']} failed, "
          f"{len(result['metrics'])} metrics")
    return problems


def check_bare(spec):
    """A directory holding only BENCHMARK.json and the benchmark must fail cleanly."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="bare-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0, False)
    if done.returncode == 0 or result_of(done.stdout) is not None:
        return ["a run without the program under src/ did not fail cleanly"]
    print(f"bare directory: exit {done.returncode}, no result")
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        problems += check_run(spec, workload["name"], 0, False)
        problems += check_run(spec, workload["name"], 1, True)
    problems += check_bare(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
