#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <mnist-kzg|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

On first use it configures and builds the program's libraries (../src) and
the measuring binary (perfbench/bench.cc) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. Each run then:

  * runs the workload in a fresh process (--trace 0: end-to-end metrics;
    --trace 1: per-layer metrics, spans written under <build>/perfbench-traces);
  * with --trace 0, repeats the set-up phase in further fresh processes and
    reports the median set-up time;
  * runs again any process that exits with LAYOUT_MISMATCH because its
    circuit layouts differ from perfbench/layouts.json (the binary checks
    them); such a process is reported and discarded, never averaged in, and
    after LAYOUT_ATTEMPTS of them the run fails (exit 3, no result);
  * prints a host stamp and the run report, then, as the last stdout line,
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mnist-kzg", "serve-mix")
# Set-up samples per run in fresh processes, the main run's own included;
# serve-mix repeats its set-up inside the main process (bench.cc).
SETUP_SAMPLES = {"mnist-kzg": 5, "serve-mix": 1}
# Everything after the build must end within this many seconds.
RUN_BUDGET_S = 170
# Fresh processes tried before a layout differing from layouts.json is fatal.
LAYOUT_ATTEMPTS = 10
# Exit code of perfbench_zkml when its layouts differ from layouts.json.
LAYOUT_MISMATCH = 3


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under " + os.path.join(ROOT, "src"), 2)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_zkml",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 2)
    return os.path.join(bdir, "perfbench_zkml")


def run_bench(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(cmd))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, LAYOUT_MISMATCH) or not lines:
        fail("exit %d: %s" % (proc.returncode, " ".join(cmd)))
    return proc.returncode, json.loads(lines[-1])


def run_recorded_layout(cmd, deadline, rejections):
    """Runs `cmd`, discarding (loudly) any process whose layouts differ.

    HardwareProfile is measured per process, and on mnist about one process
    in ten ranks another layout first; such a run measures a different
    circuit, so it is reported on stderr and in the run report, never
    averaged in, and the process is run again.
    """
    for _ in range(LAYOUT_ATTEMPTS):
        code, doc = run_bench(cmd, deadline)
        if code == 0:
            return doc
        print("perfbench: LAYOUT MISMATCH, run discarded: " + doc["layout_mismatch"],
              file=sys.stderr)
        rejections.append(doc["layout_mismatch"])
    fail("layout differed from layouts.json in %d fresh processes" % LAYOUT_ATTEMPTS, 3)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_sha():
    """Content hash of the program sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one byte of the first proof (tests the output check)")
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    deadline = time.monotonic() + RUN_BUDGET_S
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(bdir, "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    if args.corrupt:
        cmd.append("--corrupt")
    rejections = []
    doc = run_recorded_layout(cmd, deadline, rejections)
    metrics = doc["metrics"]
    correct, attempted, failed = doc["correct"], doc["attempted"], doc["failed"]

    if not args.trace and SETUP_SAMPLES[args.workload] > 1:
        setups = [metrics["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES[args.workload] - 1):
            extra = run_recorded_layout([binary, "--workload", args.workload, "--seed",
                                         str(args.seed), "--setup-only"],
                                        deadline, rejections)
            setups.append(extra["metrics"]["setup_s"]["value"])
            correct = correct and extra["correct"]
            attempted += extra["attempted"]
            failed += extra["failed"]
        metrics["setup_s"]["value"] = statistics.median(setups)
        doc["report"]["setup_samples_s"] = setups
    doc["report"]["layout_rejections"] = rejections

    expected = expected_metrics(args.trace)
    if expected is not None and expected != set(metrics):
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(expected.symmetric_difference(metrics)))

    stamp = dict(doc["report"].pop("host"), git_sha=git_sha(), source_sha=source_sha(),
                 workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"report": doc["report"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
