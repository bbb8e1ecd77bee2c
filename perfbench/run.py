"""Seeded benchmark of extsquare: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 the workload runs for S seconds (rounded up to the next unit
of its stream) and the last stdout line reports the end-to-end metrics that
BENCHMARK.json lists.  With --trace 1 a fixed share of the stream runs twice,
first with timing wrappers around the layers' public callables and then
without; the last line reports the per-layer metrics, including the tracing
overhead, and the spans are written to perfbench/out/.  The line before the
last one holds sample counts and the machine description.  The exit code is
1 when any output failed the correctness gate and 2 when the benchmark
cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from measure import (
    REFERENCE_S, Pace, beyond, kernel_seconds, machine, median, peak_rss_mb, percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
CLI_COMMANDS = ("identities", "gen", "decompose", "verify", "member", "level", "stabilize")
CASES = ("h1-entry", "h0-entry", "h1-diag", "h0-diag")


def import_seconds(env) -> float:
    """Time to import the package in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import extsquare.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    return float(proc.stdout)


def set_up(workload, seed: int, smoke: bool):
    """Import and input generation, each repeated; medians of the repeats."""
    from workloads import child_env

    env = child_env()
    imports, inputs_s, level_s, reference = [], [], [], []
    for _ in range(SETUP_REPEATS):
        reference.append(kernel_seconds())
        imports.append(import_seconds(env))
        reference.append(kernel_seconds())
        clock = {"level": 0.0}
        t0 = time.perf_counter()
        inputs = workload.inputs(seed, smoke, clock)
        inputs_s.append(time.perf_counter() - t0)
        level_s.append(clock["level"])
    figures = {
        "import_s": median(imports),
        "inputs_s": median(inputs_s),
        "level_s": median(level_s),
        "reference_s": statistics.fmean(reference),
    }
    return inputs, figures


def latency_figures(ops) -> dict:
    """Per-kind medians and tails in ms from untraced operation records."""
    ms = lambda xs: [x * 1e3 for x in xs]  # noqa: E731
    dec = ms(op.parts[0] for op in ops if op.kind == "decompose")
    out = {
        "decompose_ms_p50": median(dec),
        "decompose_ms_p99": percentile(dec, 99),
        "verify_ms_p50": median(ms(op.parts[1] for op in ops if op.kind == "decompose")),
        "member_accept_ms_p50": median(ms(op.seconds for op in ops if op.kind == "accept")),
        "member_reject_ms_p50": median(ms(op.seconds for op in ops if op.kind == "reject")),
    }
    for case in CASES:
        out[f"rdu.decompose_ms_p50.{case}"] = median(
            ms(op.parts[0] for op in ops if op.kind == "decompose" and op.label == case)
        )
    for cmd in CLI_COMMANDS:
        out[f"cli.main_ms_p50.{cmd}"] = median(
            ms(op.seconds for op in ops if op.kind == f"cli.{cmd}")
        )
    return out


def samples(ops) -> dict:
    """Sample counts per operation kind, and how many lie beyond the tails."""
    kinds: dict = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    decomposes = kinds.get("decompose", 0)
    return {
        "ops": len(ops),
        "beyond_op_p90": beyond(len(ops), 90),
        "beyond_decompose_p99": beyond(decomposes, 99),
        "by_kind": kinds,
    }


def op_figures(op_s) -> dict:
    busy = sum(op_s)
    return {
        "ops_per_s": len(op_s) / busy if busy else 0.0,
        "op_ms_p50": median(op_s) * 1e3,
        "op_ms_p90": percentile(op_s, 90) * 1e3,
    }


def run_untraced(workload, inputs, seconds: float, workdir: str):
    from workloads import Outcome

    pace = Pace()
    out = Outcome(pace=pace)
    t0 = time.perf_counter()
    # at least one unit, then stop at the first unit boundary past the deadline
    workload.run(
        inputs, lambda done: done > 0 and time.perf_counter() - t0 >= seconds, out, False, workdir
    )
    elapsed = time.perf_counter() - t0
    raw = op_figures([op.seconds for op in out.ops])
    scaled = op_figures([op.seconds * REFERENCE_S / pace.local(op.end) for op in out.ops])
    figures = {"peak_rss_mb": max(peak_rss_mb(), peak_rss_mb(children=True)), **scaled}
    detail = {"elapsed_s": elapsed, "systems": len(out.systems), "raw": raw,
              "reference_ms_mean": statistics.fmean(pace.seconds) * 1e3,
              "reference_samples": len(pace.seconds),
              **samples(out.ops), **latency_figures(out.ops)}
    return out, figures, detail


def run_traced(workload, inputs, workdir: str, tag: str, units: int):
    """The first `units` units of the stream, traced first and then untraced."""
    import tracing
    from workloads import Outcome

    stop = lambda done: done >= units  # noqa: E731
    rec = tracing.Recorder()
    traced = Outcome()
    with tracing.installed(rec):
        t0 = time.perf_counter()
        workload.run(inputs, stop, traced, True, workdir)
        traced_s = time.perf_counter() - t0
    plain = Outcome()
    t0 = time.perf_counter()
    workload.run(inputs, stop, plain, True, workdir)
    plain_s = time.perf_counter() - t0

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"trace-{tag}.json")
    rec.dump(spans_path)
    figures = tracing.layer_figures(rec)
    figures.update(latency_figures(plain.ops))
    traced_p50 = median([op.seconds for op in traced.ops]) * 1e3
    plain_p50 = median([op.seconds for op in plain.ops]) * 1e3
    figures.update(
        {
            "trace.overhead_s": traced_s - plain_s,
            "trace.overhead_frac": (traced_s - plain_s) / plain_s,
            "trace.overhead_op_ms_p50": traced_p50 - plain_p50,
        }
    )
    detail = {"traced_s": traced_s, "untraced_s": plain_s, "spans_file": spans_path,
              "systems": len(plain.systems), **samples(plain.ops)}
    outcome = Outcome(attempted=traced.attempted + plain.attempted,
                      failed=traced.failed + plain.failed)
    return outcome, figures, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest rank and shortest traced share, for the benchmark's tests")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "extsquare", "__init__.py")):
        print(f"error: no extsquare sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    inputs, setup = set_up(workload, args.seed, args.smoke)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            tag = f"{args.workload}-seed{args.seed}"
            units = 1 if args.smoke else workload.trace_units
            outcome, figures, detail = run_traced(workload, inputs, workdir, tag, units)
            figures.update(
                {
                    "generate.inputs_s": setup["inputs_s"],
                    "level.level_generators_s": setup["level_s"],
                    "cli.import_ms": setup["import_s"] * 1e3,
                }
            )
            listed = spec["per_layer"]
        else:
            outcome, figures, detail = run_untraced(workload, inputs, args.seconds, workdir)
            figures["setup_s"] = (
                (setup["import_s"] + setup["inputs_s"]) * REFERENCE_S / setup["reference_s"]
            )
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "setup": setup, **detail, "machine": machine()}))
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
