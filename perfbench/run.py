#!/usr/bin/env python3
"""End-to-end benchmark of drcell: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles the library
from the repository's sources) into .bench_build/ when needed, then runs the
workload in its own process with a fixed pool lane count and prints, as the
last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up time, cycles per
second, step latency median and tail, peak resident memory); with --trace 1
they are the per-layer ones, and the spans are written as Chrome trace-event
JSON to .bench_build/traces/. Exits non-zero when the build fails or an
output check fails. See perfbench/README.md.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import summary  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_train", "paper_fleet", "city_fleet")
# Pool lanes (workers + the calling thread) per workload: fixed, never taken
# from the machine, so a run measures the same parallelism everywhere. Each
# is the width whose runs spread least on a shared 4-vCPU VM whose host
# steals CPU time in bursts (perfbench/README.md): a two-lane wave stalls
# when either lane is descheduled, and the paper-scale workloads, whose
# 57- and 36-row ALS solves gain little from a second lane, spread two to
# three times wider at two lanes. The 1000-cell LOO solves of city_fleet
# fill two lanes and spread wider at one.
LANES = {"paper_train": 1, "paper_fleet": 1, "city_fleet": 2}
CHILD_TIMEOUT_S = 170

PER_LAYER_UNITS = {
    "linalg.gram_add.calls": "1/cycle",
    "linalg.gram_add.flops": "flop/cycle",
    "linalg.gemm.calls": "1/cycle",
    "linalg.gemm.flops": "flop/cycle",
    "linalg.sparse_gemm.calls": "1/cycle",
    "linalg.lstm_gate.calls": "1/cycle",
    "cs.loo.calls": "1/cycle",
    "cs.loo_ms": "ms/cycle",
    "cs.infer.calls": "1/cycle",
    "cs.infer_ms": "ms/cycle",
    "rl.train_step.calls": "1/cycle",
    "rl.train_step_ms": "ms/cycle",
    "rl.select_action_ms": "ms/cycle",
    "rl.observe_ms": "ms/cycle",
    "mcs.step_self_ms": "ms/cycle",
    "baselines.select.calls": "1/cycle",
    "baselines.select_ms": "ms/cycle",
    "core.wave.calls": "1/cycle",
    "core.wave_self_ms": "ms/cycle",
    "data.task_build_ms": "ms/setup",
    "data.factor_cache_builds": "1/setup",
    "data.factor_cache_hits": "1/setup",
    "mcs.cells_per_cycle": "cells",
    "mcs.satisfaction": "ratio",
    "mcs.cap_closed_cycles": "ratio",
    "mcs.selection_rate_median": "ratio",
    "mcs.selection_rate_max": "ratio",
    "core.checkpoint.bytes": "B",
    "core.checkpoint_save_ms": "ms",
    "core.resume_ms": "ms",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures and builds perfbench/ once; later runs only re-check."""
    out = os.path.join(build_dir(), "perfbench")
    binary = os.path.join(out, "drcell_perfbench")
    log_path = os.path.join(build_dir(), "perfbench-build.log")
    os.makedirs(build_dir(), exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir(), "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as logf:
        def step(cmd):
            return subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                  cwd=ROOT, env=env).returncode == 0
        ok = True
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            ok = step(configure + generator)
        ok = ok and step(["cmake", "--build", out, "-j", jobs])
    if not ok or not os.path.exists(binary):
        with open(log_path) as f:
            lines = f.read().splitlines()
        log("\n".join(lines[-30:]))
        log("perfbench: build failed (full log in %s)" % log_path)
        sys.exit(1)
    return binary


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_summary")
    stream = io.StringIO()
    if not unittest.TextTestRunner(stream=stream).run(suite).wasSuccessful():
        log(stream.getvalue())
        log("perfbench: the summary self-test failed")
        sys.exit(1)


def run_child(cmd, lanes):
    """Runs the workload process; returns (exit code, stdout, peak RSS in MB)."""
    env = dict(os.environ)
    env["DRCELL_THREADS"] = str(lanes)
    env.pop("DRCELL_BACKEND", None)
    env.pop("DRCELL_FAULT_SPEC", None)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        proc.stdout.close()
        # wait4 gives this child's own resource usage, not that of the
        # compiler processes the build step ran.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout.decode(), usage.ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    self_test()
    binary = build()
    lanes = LANES[args.workload]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    code, stdout, rss_mb = run_child(cmd, lanes)
    try:
        raw = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log("perfbench: the workload process (exit %d) printed no result" % code)
        sys.exit(1)

    problems = raw["problems"]
    if raw["lanes"] != lanes:
        problems.append("the pool ran %d lanes, not %d" % (raw["lanes"], lanes))
    correct = bool(raw["correct"]) and code == 0 and not problems
    if args.trace:
        layers = raw["layers"]
        missing = sorted(set(PER_LAYER_UNITS) - set(layers))
        if missing:
            problems.append("per-layer metrics missing: " + ", ".join(missing))
            correct = False
        metrics = {name: metric(layers.get(name, 0.0), unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        steps = raw["step_ms"]
        qs, tail_ms = summary.round_tail(steps, raw["round_steps"])
        print("step samples: %d, tail percentile of each round: %s"
              % (len(steps), ", ".join("p%g" % q for q in qs)))
        metrics = {
            "setup_s": metric(summary.median(raw["setup_s"]), "s"),
            "cycles_per_s": metric(raw["cycles"] / raw["run_s"], "1/s"),
            "step_ms_p50": metric(summary.median(steps), "ms"),
            "step_ms_tail": metric(tail_ms, "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
    print("workload %s seed %d: %d lanes, %d rounds, %d cycles, %d set-ups"
          % (args.workload, args.seed, raw["lanes"], raw["rounds"],
             raw["cycles"], len(raw["setup_s"])))
    for key, value in raw["info"].items():
        print("%s: %s" % (key, value))
    for p in problems:
        log("CHECK FAILED: " + p)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
