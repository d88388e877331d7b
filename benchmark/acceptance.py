#!/usr/bin/env python3
"""Acceptance check for the benchmark itself, the way the driver does it.

Runs BENCHMARK.json's command ten times per workload, each with another
--seed, and prints for every end-to-end metric the median and the spread
(interquartile range of the ten values, statistics.quantiles(n=4), as a share
of their median) next to the metric's bound. A spread above the bound fails,
setup_s included (the driver itself does not gate that one spread); the target
is a third of the bound ("ok"), anything between is "wide". --json writes what was measured, which is how
trajectory.json gets a new entry.

    python3 benchmark/acceptance.py [--runs 10] [--first-seed 1] [--json out.json]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    out, failed = {}, False
    for wl in names:
        values, elapsed = {}, []
        for i in range(args.runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(args.first_seed + i),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            elapsed.append(time.time() - t0)
            if p.returncode != 0:
                sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{wl} seed {args.first_seed + i}: correct={res['correct']} failed={res['failed']}")
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        out[wl] = {"run_s_median": statistics.median(elapsed), "metrics": {}}
        print(f"== {wl}: {args.runs} runs, median {statistics.median(elapsed):.1f} s each")
        for k, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = abs(q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread <= bounds[k] / 3 else ("wide" if spread <= bounds[k] else "FAIL")
            failed |= verdict == "FAIL"
            out[wl]["metrics"][k] = {"median": med, "spread": spread, "bound": bounds[k], "values": v}
            print(f"{wl:20s} {k:20s} median {med:14.6g}  spread {spread:7.4f}  bound {bounds[k]:5.2f}  {verdict}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
