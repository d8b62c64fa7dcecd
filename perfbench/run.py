#!/usr/bin/env python3
"""Builds the benchmark against the repository's tbf library and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --repeat 10 [--seed <first>] [--seconds <s>]

Run from the root of a checkout. The first form prints the driver's result as the last
line of stdout: one JSON object with `correct`, `attempted`, `failed` and `metrics`.
The second runs seeds first..first+N-1 and prints each end-to-end metric's median,
quartiles and quartile spread as a share of the median, the figures the bounds in
BENCHMARK.json are set from. Build output goes to stderr; build files to .bench_build/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build") / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and incrementally builds the benchmark binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "tbf").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no tbf sources (CMakeLists.txt, src/tbf)")
    steps = []
    if not (ROOT / BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--parallel", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return ROOT / BUILD / "perfbench"


def run_once(binary, workload, seed, seconds, trace):
    """Runs one invocation; returns (stdout text, parsed result line)."""
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scratch", str(BUILD / "tmp"),
            "--trace-out", str(BUILD / f"trace-{workload}-{seed}.json")]
    done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: {workload} seed {seed} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return done.stdout, json.loads(lines[-1])


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def repeat(binary, args):
    values = {}
    shares = []
    for seed in range(args.seed, args.seed + args.repeat):
        _, result = run_once(binary, args.workload, seed, args.seconds, 0)
        shares.append(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {args.repeat} runs of {args.seconds} s, "
          f"failed/attempted {', '.join(shares)}")
    print(f"{'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{name:<22} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.2%}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds and print medians and quartiles")
    args = parser.parse_args()

    binary = build()
    if args.repeat > 0:
        repeat(binary, args)
        return
    out, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    expected = expected_metrics(spec, args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.exit(f"perfbench: metrics {sorted(got.items())} do not match BENCHMARK.json "
                 f"{sorted(expected.items())}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
