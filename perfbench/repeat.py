#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and summarises the spread.

    python3 perfbench/repeat.py --workloads paper_train,city_fleet \\
        --seeds 1-10 [--save runs.json] [--against old.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, from the
repository root, each for BENCHMARK.json's run_seconds. For every end-to-end
metric it prints the median of the runs, their spread (interquartile
distance over the median) and that spread as a share of the metric's bound
in BENCHMARK.json; with --against it also applies the acceptance rule of
summary.compare to the saved set and this one (setup_s included), and
compares the share of failed operations.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import summary  # noqa: E402


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seeds_of(args.seeds):
            r = run_once(workload, seed, seconds)
            runs[workload].append(r)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())),
                flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)

    old = None
    if args.against:
        with open(args.against) as f:
            old = json.load(f)
    for workload, rs in runs.items():
        share = [r["failed"] / r["attempted"] for r in rs]
        print("\n%s: failed share per run %s" % (workload, sorted(set(share))))
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in rs]
            line = "  %-13s median %-12.6g spread %6.2f%% (%.2f of bound %.2f)" % (
                name, summary.median(values), 100 * summary.spread(values),
                summary.spread(values) / m["bound"], m["bound"])
            if old and workload in old:
                before = [r["metrics"][name]["value"] for r in old[workload]]
                c = summary.compare(before, values, m["bound"], m["better"])
                line += "  vs saved: worse by %+.2f%% -> %s" % (
                    100 * c["worsening"], "ok" if c["ok"] else "REJECT")
            print(line)
        if old and workload in old:
            before = sorted(set(r["failed"] / r["attempted"] for r in old[workload]))
            print("  failed share %s" % ("same" if before == sorted(set(share))
                                         else "DIFFERS: %s" % before))


if __name__ == "__main__":
    main()
