#!/usr/bin/env python3
"""Repository benchmark: build wasp-perfbench from this checkout and run
one workload.

    python3 perfbench/run.py --workload paper-matrix --seed 1 \\
        --seconds 30 --trace 0

Workloads: paper-matrix, fullsize-matrix, search-compile (see
perfbench/README.md). --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics of a separate traced
run. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every output check passed.

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench, relative to the checkout root).
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

# Environment knobs that change the program under test; the runs are
# hermetic, so they are removed from the benchmark's environment.
KNOBS = ("WASP_TELEMETRY", "WASP_LEDGER", "WASP_REFERENCE_CLOCK",
         "WASP_SM_THREADS", "WASP_PROGRESS_FORCE")

# Set-up is timed this many extra times per --trace 0 run (median).
SETUP_PROBES = 9

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure (once) and build; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("perfbench: build timed out: " + " ".join(cmd))
            return None
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "wasp-perfbench")


def source_provenance():
    """git sha + dirty flag, or a digest of the sources when the
    checkout is not a git repository."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if (top.returncode == 0 and sha.returncode == 0 and
                os.path.realpath(top.stdout.strip()) ==
                os.path.realpath(ROOT)):
            dirty = subprocess.run(["git", "status", "--porcelain"],
                                   cwd=ROOT, capture_output=True,
                                   text=True, timeout=10)
            return "git %s dirty=%s" % (sha.stdout.strip(),
                                        bool(dirty.stdout.strip()))
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "not a git checkout; sha256(src, perfbench)=" + h.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    cleared = [k for k in KNOBS if env.pop(k, None) is not None]
    if cleared:
        print("hermetic: cleared " + ", ".join(cleared), flush=True)
    return env


def setup_probe(binary, args, env):
    t0 = time.monotonic_ns()
    res = subprocess.run([binary, "--workload", args.workload, "--seed",
                          str(args.seed), "--setup-only", "--t0-ns",
                          str(t0)] + (["--subset"] if args.subset else []),
                         capture_output=True, text=True, env=env,
                         timeout=RUN_TIMEOUT_S)
    if res.returncode != 0 or not res.stdout.startswith("setup_s "):
        raise RuntimeError("set-up probe failed: " + res.stderr.strip())
    return float(res.stdout.split()[1])


def run_main(binary, args, env, trace_file):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.subset:
        cmd.append("--subset")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None, []
    return res.returncode, res.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper-matrix", "fullsize-matrix",
                             "search-compile"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--subset", action="store_true",
                    help="2 apps x 2 configs and 3 generated kernels "
                         "(self-test size)")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="flip one expected output word in the traced "
                         "replay (self-test: the run must fail)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1

    env = child_env()
    print("source: " + source_provenance(), flush=True)
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        trace_file = os.path.join(bdir, "traces", "%s-seed%d.json" %
                                  (args.workload, args.seed))
    setup = []
    if not args.trace:
        try:
            setup = [setup_probe(binary, args, env)
                     for _ in range(SETUP_PROBES)]
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            log("perfbench: %s" % e)
            return 1

    code, lines = run_main(binary, args, env, trace_file)
    for line in lines[:-1]:
        print(line)
    if code is None or not lines:
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: no result line (exit %d): %s" % (code, lines[-1]))
        return 1
    metrics = result["metrics"]
    if "setup_s" in metrics:
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)
        print("setup_s = %r s (median of %d process starts)" %
              (metrics["setup_s"]["value"], len(setup)))
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != wanted:
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, "
            "extra %s, units %s" % (
                sorted(set(wanted) - set(got)),
                sorted(set(got) - set(wanted)),
                sorted(k for k in got if k in wanted and
                       got[k] != wanted[k])))
        return 1
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
