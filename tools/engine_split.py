"""Split the operation time of the benchmark's engine stream by layer.

    python3 tools/engine_split.py

Runs the first UNITS units of the perfbench workload WORKLOAD (seed SEED) in
process, on the benchmark's own inputs and order, and prints where the
operation time went: decompose and verify as the benchmark times them, and,
within decompose, every core build (rdu.ReverseDecomposer._build_core) split
into z's pass (words._chain), its commutator pair (words._keep_commutator,
A^-1 Z A Z^-1 from z's pair) and the rest, every ConjWord.eval_matrix call
with the matrices._kernel_matmul calls inside it (the entry point of every
engine product), all of decompose's _kernel_matmul calls, and its
matrices._float64_reduce calls, the delayed reductions of its float64
products (Z/97).  Timers wrap those callables, so each figure
includes their small cost.  The package is imported from the src/ directory beside
this script, the workload from perfbench/.  Run it from two checkouts to
compare them.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from extsquare import matrices, rdu, words  # noqa: E402

WORKLOAD = "engine-zmod97"
UNITS = 4000
SEED = 1


class Split:
    """Calls and seconds of wrapped callables, counted only while
    ReverseDecomposer.decompose runs (so engine set-up, the system check and
    the referee stay out), and products apart by whether eval_matrix is
    running."""

    def __init__(self):
        self.active: list = []
        self.calls: dict = {}
        self.seconds: dict = {}

    def wrap(self, owner, name: str) -> None:
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            self.active.append(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                self.active.pop()
                if "decompose" in self.active:
                    keys = [name]
                    if name == "_kernel_matmul" and "eval_matrix" in self.active:
                        keys.append("_kernel_matmul in eval_matrix")
                    for key in keys:
                        self.calls[key] = self.calls.get(key, 0) + 1
                        self.seconds[key] = self.seconds.get(key, 0.0) + spent

        setattr(owner, name, wrapper)


def main() -> int:
    workload = workloads.WORKLOADS[WORKLOAD]
    inputs = workload.inputs(SEED, False, {"level": 0.0})
    split = Split()
    split.wrap(rdu.ReverseDecomposer, "decompose")
    split.wrap(rdu.ReverseDecomposer, "_build_core")
    split.wrap(words, "_chain")
    split.wrap(words, "_keep_commutator")
    split.wrap(words.ConjWord, "eval_matrix")
    split.wrap(matrices, "_kernel_matmul")
    split.wrap(matrices, "_float64_reduce")
    out = workloads.Outcome()
    workload.run(inputs, lambda done: done >= UNITS, out, True, os.getcwd())
    if out.failed:
        print(f"{out.failed} operations failed", file=sys.stderr)
        return 1
    decompose = sum(op.parts[0] for op in out.ops)
    verify = sum(op.parts[1] for op in out.ops)
    total = decompose + verify
    print(f"{WORKLOAD}, seed {SEED}, {UNITS} units, {len(out.ops)} operations")
    print(f"op time {total:.2f} s: decompose {decompose:.2f} s ({decompose / total:.0%}), "
          f"verify {verify:.2f} s ({verify / total:.0%})")
    core = split.seconds.get("_build_core", 0.0)
    core -= split.seconds.get("_chain", 0.0) + split.seconds.get("_keep_commutator", 0.0)
    split.seconds["rest of _build_core"] = core
    for name, what in (("_build_core", "core builds"), ("_chain", "  z's pass"),
                       ("_keep_commutator", "  the commutator pair"),
                       ("rest of _build_core", "  the rest"),
                       ("eval_matrix", "ConjWord.eval_matrix"),
                       ("_kernel_matmul in eval_matrix", "  its products"),
                       ("_kernel_matmul", "all products of decompose"),
                       ("_float64_reduce", "their float64 reductions")):
        seconds = split.seconds.get(name, 0.0)
        count = f"{split.calls[name]} calls, " if name in split.calls else ""
        print(f"{what}: {count}{seconds:.2f} s ({seconds / total:.0%} of op time)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
