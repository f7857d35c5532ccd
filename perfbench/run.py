#!/usr/bin/env python3
"""Build and run the tdmd serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload single_dst_churn --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

The first call configures and builds perfbench/ (and the library sources it
compiles) into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench
when that is set.  Build output goes to stderr; the benchmark's report goes
to stdout and ends with one JSON line.  The exit code is the benchmark's:
0 when every correctness check passed.

--selfcheck runs the generator self-test, then every workload twice on one
seed and once on another, and requires equal deterministic counters on the
repeated seed and a clean run on the other.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["single_dst_churn", "hub_resolve", "regional_fleet"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds; returns False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def bench(out, workload, seed, seconds, trace, capture=False):
    cmd = [os.path.join(out, "tdmd_perfbench"), "--workload=" + workload,
           "--seed=%d" % seed, "--seconds=%s" % seconds,
           "--trace=%d" % trace]
    if trace:
        cmd.append("--trace-out=" + os.path.join(
            out, "trace-%s-seed%d.json" % (workload, seed)))
    if not capture:
        return subprocess.run(cmd).returncode, None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def determinism_key(stdout):
    """The counters line plus the deterministic end-to-end metrics."""
    lines = stdout.strip().splitlines()
    counters = [l.strip() for l in lines
                if l.strip().startswith("deterministic:")]
    metrics = json.loads(lines[-1])["metrics"]
    return (counters, metrics["bandwidth_frac"]["value"],
            metrics["bytes_per_flow"]["value"])


def selfcheck(out, seconds):
    selftest = os.path.join(out, "perfbench_selftest")
    ok = subprocess.run([selftest]).returncode == 0
    for workload in WORKLOADS:
        runs = [bench(out, workload, seed, seconds, 0, capture=True)
                for seed in (1, 1, 2)]
        clean = all(code == 0 for code, _ in runs)
        keys = [determinism_key(stdout) for _, stdout in runs] if clean else []
        same = clean and keys[0] == keys[1]
        differs = clean and keys[0] != keys[2]
        print("selfcheck %-16s clean=%s repeat_equal=%s other_seed_differs=%s"
              % (workload, clean, same, differs))
        ok = ok and clean and same and differs
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    out = build_dir()
    if not build(out):
        return 1
    if args.selfcheck:
        return selfcheck(out, args.seconds)
    code, _ = bench(out, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
