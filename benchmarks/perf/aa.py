#!/usr/bin/env python3
"""A/A calibration: run every workload in independent sets and report, per
end-to-end metric and workload, the spread within a set (IQR over median of
the set's runs, as the driver computes it) and the shift between the sets'
medians. Raw results go to results/<label>.json.

    python3 benchmarks/perf/aa.py <label> [--sets 2] [--runs 10] [--first-seed 1]

Sets alternate workload order (set 0 forwards, set 1 backwards, ...) and
every run of a set uses another seed, the same seeds in every set.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    wall = time.time() - t
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("label")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    table = bench["per_layer"] if args.trace else bench["end_to_end"]
    better = {m["name"]: m["better"] for m in table}
    bound = {m["name"]: m.get("bound") for m in table}
    seconds = bench["run_seconds"]

    sets = []
    for s in range(args.sets):
        order = workloads if s % 2 == 0 else list(reversed(workloads))
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in order:
                r = run(w, args.first_seed + i, seconds, args.trace)
                runs[w].append(r)
                print(f"set {s} run {i} {w}: wall {r['wall_s']:.1f}s correct {r['correct']} "
                      f"failed {r['failed']}", file=sys.stderr, flush=True)
        sets.append(runs)
    out = os.path.join(HERE, "results", f"{args.label}.json")
    json.dump({"run_seconds": seconds, "trace": args.trace, "sets": sets}, open(out, "w"), indent=1)

    print(f"{'workload':22} {'metric':30} " + " ".join(f"{'median'+str(s):>12} {'spread'+str(s):>8}" for s in range(args.sets))
          + f" {'shift':>8} {'bound':>6}")
    worst = 0.0
    for w in workloads:
        for name in better:
            meds, cells = [], []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in sets[s][w]]
                med = statistics.median(vals)
                sp = spread(vals) if len(vals) >= 2 else 0.0
                meds.append(med)
                cells.append(f"{med:12.4f} {sp*100:7.2f}%")
            shift = 0.0
            if len(meds) > 1 and meds[0]:
                # how much worse the second set's median is than the first's
                shift = (meds[1] - meds[0]) / meds[0]
                if better[name] == "higher":
                    shift = -shift
            b = bound[name]
            flag = ""
            if b is not None and name != "setup_s":
                sp_max = max(spread([r["metrics"][name]["value"] for r in sets[s][w]]) for s in range(args.sets)) if args.runs >= 2 else 0
                worst = max(worst, sp_max / b)
                if sp_max > b / 3:
                    flag = " *" if sp_max <= b else " !!"
            if b is not None and shift > b:
                flag += " SHIFT"
            print(f"{w:22} {name:30} " + " ".join(cells) + f" {shift*100:7.2f}% {'' if b is None else b:>6}{flag}")
    print(f"worst spread/bound: {worst:.2f}  (* = above a third of the bound, !! = above the bound)")


if __name__ == "__main__":
    main()
