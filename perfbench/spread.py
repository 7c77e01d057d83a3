#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed, then prints for each
metric the median, the quartile spread as a share of the median
(statistics.quantiles(values, n=4)), and the metric's bound.

    python3 perfbench/spread.py --workload opt-validate --seeds 1-10

Run it from the repository root. Raw result lines are appended to
.perfbench/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(".perfbench", exist_ok=True)
    log = open(f".perfbench/spread-{args.workload}.jsonl", "a")

    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(lines[-1])
        log.write(json.dumps({"seed": seed, **result}) + "\n")
        log.flush()
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{'metric':<28}{'median':>14}{'spread':>9}{'bound':>7}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = f"{(q[2] - q[0]) / med:.4f}"
        else:
            spread = "-"
        bound = bounds.get(name)
        print(f"{name:<28}{med:>14.6g}{spread:>9}{bound if bound is not None else '':>7}")


if __name__ == "__main__":
    main()
