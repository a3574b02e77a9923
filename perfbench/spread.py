#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json on every workload with seeds 1 to 10,
twice over, for run_seconds each. Per set of ten runs it prints each
metric's median and its interquartile range as a share of the median
(Python's statistics.quantiles, n=4); between the two sets it prints the
change of the median, each against the metric's bound.

    python3 perfbench/spread.py

Run it from the repository root; it reads BENCHMARK.json there.
"""

import json
import statistics
import subprocess

SEEDS = range(1, 11)
SETS = 2


def run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    host = dict(l.split(" = ", 1) for l in out.splitlines() if l.startswith("host."))
    print(f"{workload} seed {seed}: token handoff "
          f"{host['host.handoff_ns'].split()[0]} ns before, "
          f"{host['host.handoff_ns.end'].split()[0]} ns after, "
          f"steal {float(host['host.steal_s'].split()[0]):.1f} s", flush=True)
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = (0.0, "")
    for w in bench["workloads"]:
        workload = w["name"]
        sets = []
        for _ in range(SETS):
            results = [run(bench, workload, seed) for seed in SEEDS]
            sets.append(results)
            for r in results:
                assert r["correct"], f"{workload}: correct = false"
        shares = {r["failed"] / r["attempted"] for results in sets for r in results}
        print(f"\n{workload}: failed share per run {sorted(shares)}")
        print(f"{'metric':26}" + "".join(f"{'median':>12} {'IQR/med':>8}" for _ in sets)
              + f" {'shift':>7} {'bound':>6}")
        for m, bound in bounds.items():
            row, medians = f"{m:26}", []
            for results in sets:
                values = [r["metrics"][m]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                row += f"{med:12.5g} {spread:8.4f}"
                worst = max(worst, (spread / bound, f"{workload} {m} spread"))
            shift = medians[1] / medians[0] - 1.0
            worst = max(worst, (abs(shift) / bound, f"{workload} {m} shift"))
            print(f"{row} {shift:+7.4f} {bound:6.2f}")
        print()
    print(f"largest spread or shift as a share of its bound: {worst[0]:.3f} ({worst[1]})")


if __name__ == "__main__":
    main()
