"""Repeat the benchmark over seeds and summarize each metric's medians and spread.

    python3 perfbench/prove.py [--runs 10] [--workloads a,b] [--write perfbench/baseline.json]

For every workload, runs `run.py --trace 0` once per seed (seeds 1, 2, ...)
and `run.py --trace 1` once, and prints per end-to-end metric the median and
the quartile spread as a share of the median (statistics.quantiles(n=4)),
next to a third of the metric's bound.
With --write, the summary and the machine description are saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from measure import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--write", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    machine = None
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        counts = []
        for seed in range(1, args.runs + 1):
            detail, result = run_once(workload, seed, spec["run_seconds"], 0)
            machine = detail["machine"]
            counts.append({"seed": seed, "ops": detail["ops"],
                           "beyond_op_p90": detail["beyond_op_p90"],
                           "attempted": result["attempted"], "failed": result["failed"]})
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        rows = {}
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = quartile_spread(xs)
            rows[name] = {"median": statistics.median(xs), "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name], "values": xs}
            flag = "ok" if spread <= bounds[name] / 3 else "WIDE"
            print(f"{workload:22s} {name:12s} median {statistics.median(xs):12.4f} "
                  f"spread {spread:7.4f} (third of bound {bounds[name] / 3:.4f}) {flag}",
                  flush=True)
        trace_detail, traced = run_once(workload, 1, spec["run_seconds"], 1)
        summary[workload] = {
            "end_to_end": rows,
            "runs": counts,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_samples": {k: trace_detail[k] for k in ("ops", "by_kind", "systems")},
        }
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "run_seconds": spec["run_seconds"],
                       "seeds": [1, args.runs],
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
