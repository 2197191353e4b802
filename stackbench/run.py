#!/usr/bin/env python3
"""Build and run the layered stack benchmark (see README.md here).

    python3 stackbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 stackbench/run.py --workload all [--seed N] [--seconds S]
    python3 stackbench/run.py --smoke

Run from the root of a source tree. The script builds the repository's
libraries with its own CMake project (installed into .bench_build/), then
this directory's stack_bench against them, runs the workload and prints
the harness's report. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; --trace 0 reports the
end_to_end metrics of BENCHMARK.json and --trace 1 the per_layer ones.

--workload all runs every workload, untraced and traced, one process
each (so peak_rss_mib is per workload). --smoke runs all three workloads
at small N in both modes and checks that every metric of BENCHMARK.json
is printed with its unit and that the correctness gate ran.

The exit code is nonzero, and no result line is printed, when the tree
cannot be built or the harness fails; it is also nonzero when a
correctness check failed (the result line is printed then).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("sphere-native", "sphere-bitexact", "paper-sphere-host")
RUN_LIMIT_S = 170.0  # the harness must finish well inside 180 s


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def sh(cmd):
    """Run a build command, its output to stderr; fail on error."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build step failed: {' '.join(map(str, cmd))}")


def build():
    """Configure/build/install the libraries, then build stack_bench."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no CMake source tree at {ROOT} (run from a full checkout)")
    jobs = str(min(os.cpu_count() or 1, 4))
    lib_build, prefix = BUILD / "g5", BUILD / "g5-install"
    bench_build = BUILD / "stackbench"
    if not (lib_build / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", ROOT, "-B", lib_build,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
            "-DG5_ENABLE_TESTS=OFF", "-DG5_ENABLE_BENCH=OFF",
            "-DG5_ENABLE_EXAMPLES=OFF", "-DG5_CHECK_HEADERS=OFF",
            f"-DCMAKE_INSTALL_PREFIX={prefix}"])
    sh(["cmake", "--build", lib_build, "-j", jobs])
    sh(["cmake", "--install", lib_build])
    if not (bench_build / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", BENCH_DIR, "-B", bench_build,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
            f"-DCMAKE_PREFIX_PATH={prefix}"])
    sh(["cmake", "--build", bench_build, "-j", jobs])
    return bench_build / "stack_bench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(exe, workload, seed, seconds, trace, smoke=False):
    """Run the harness once; echo its report; return (result, exit code)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}.json")]
    if smoke:
        cmd += ["--smoke"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        fail(f"{workload}: harness timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: harness exited {proc.returncode} without a result")
    print("\n".join(lines[:-1]))

    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"{workload}: metrics differ from BENCHMARK.json "
             f"(missing {missing}, extra {extra}, wrong unit {wrong})")
    return result, proc.returncode


def smoke(exe):
    t0 = time.monotonic()
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, code = run_one(exe, workload, 1, 1, trace, smoke=True)
            if code != 0 or not result["correct"] or result["attempted"] < 1:
                fail(f"smoke {workload} trace {trace}: gate failed "
                     f"({result['failed']} of {result['attempted']} checks)")
            print(f"smoke {workload} trace {trace}: "
                  f"{len(result['metrics'])} metrics with units, "
                  f"{result['attempted']} checks passed\n")
    print(f"smoke: ok in {time.monotonic() - t0:.1f} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload or --smoke is required")

    exe = build()
    if args.smoke:
        smoke(exe)
        return 0
    if args.workload == "all":
        code = 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, rc = run_one(exe, workload, args.seed, args.seconds,
                                     trace)
                code = code or rc
                print(json.dumps(result) + "\n")
        return code
    result, code = run_one(exe, args.workload, args.seed, args.seconds,
                           args.trace)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
