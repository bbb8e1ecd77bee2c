"""Split the operation time of the benchmark's engine stream by layer.

    python3 tools/engine_split.py

Runs the first UNITS units of the perfbench workload WORKLOAD (seed SEED) in
process, on the benchmark's own inputs and order, and prints where the
operation time went: decompose and verify as the benchmark times them, and
the same two for the operations that built no core and for those that built
at least one, and for the median band of operations (the 40th to 60th
percentile of op time).  Within decompose: every core build
(rdu.ReverseDecomposer._build_core) split into z's pass (words._chain), its
commutator pair (words._keep_commutator, A^-1 Z A Z^-1 from z's pair) and
the rest, every ConjWord.eval_matrix call with the matrices._kernel_matmul
calls inside it (the entry point of every engine product), all of
decompose's _kernel_matmul calls, and its matrices._float64_reduce calls,
the delayed reductions of its float64 products (Z/97).  Within verify, the
stages of the batched referee, read from the entry and exit times of
rdu._transvection_stack, rdu._letter_arrays, rdu._pairwise_product (the
letter tree, then the N x N chain) and exterior._residue_minors: the checks
before the stack, the letter intake (_letter_arrays), the rest of the
stack, the n x n letter tree, the products between it and the minors,
_residue_minors, the chain's assembly, the N x N chain, and what follows
it (the comparison with the target, and the target's own minors where
they are lifted apart).  Timers wrap those callables, so each figure
includes their small cost.  The package is imported from the src/ directory
beside this script, the workload from perfbench/.  Run it from two
checkouts to compare them.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from extsquare import exterior, matrices, rdu, words  # noqa: E402

WORKLOAD = "engine-zmod97"
UNITS = 4000
SEED = 1


class Split:
    """Calls and seconds of wrapped callables, counted only while
    ReverseDecomposer.decompose runs (so engine set-up, the system check and
    the referee stay out), and products apart by whether eval_matrix is
    running; and the core builds of each decompose call, in order."""

    def __init__(self):
        self.active: list = []
        self.calls: dict = {}
        self.seconds: dict = {}
        self.cores: list = []

    def wrap(self, owner, name: str) -> None:
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if name == "decompose":
                self.cores.append(0)
            elif name == "_build_core" and "decompose" in self.active:
                self.cores[-1] += 1
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


# the stage of verify that runs after each boundary event: (callable, ">"
# for its entry or "<" for its exit, which call of it within one verify);
# what runs after any other event is the target and the comparison
STAGES = {
    ("verify", ">", 1): "checks",
    ("_transvection_stack", ">", 1): "rest of the stack",
    ("_letter_arrays", ">", 1): "letter intake",
    ("_letter_arrays", "<", 1): "rest of the stack",
    ("_transvection_stack", "<", 1): "rest of the stack",
    ("_pairwise_product", ">", 1): "n x n letter tree",
    ("_pairwise_product", "<", 1): "between products",
    ("_residue_minors", ">", 1): "_residue_minors",
    ("_residue_minors", "<", 1): "chain assembly",
    ("_pairwise_product", ">", 2): "N x N chain",
    ("_pairwise_product", "<", 2): "target and comparison",
}


class VerifyStages:
    """Seconds per stage of rdu.verify (STAGES), from the entry and exit
    times of the callables it names, summed over every verify call."""

    def __init__(self):
        self.events: list | None = None
        self.calls = 0
        self.seconds: dict = dict.fromkeys(dict.fromkeys(STAGES.values()), 0.0)

    def wrap(self, owner, name: str) -> None:
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if self.events is None:
                return fn(*args, **kwargs)
            self.events.append((name, ">", time.perf_counter()))
            try:
                return fn(*args, **kwargs)
            finally:
                self.events.append((name, "<", time.perf_counter()))

        setattr(owner, name, wrapper)

    def wrap_verify(self, owner) -> None:
        fn = owner.verify

        def verify(*args, **kwargs):
            self.calls += 1
            self.events = [("verify", ">", time.perf_counter())]
            try:
                return fn(*args, **kwargs)
            finally:
                end, events, self.events = time.perf_counter(), self.events, None
                seen: dict = {}
                for (name, kind, t0), (_, _, t1) in zip(events, events[1:] + [(None, None, end)]):
                    seen[name, kind] = seen.get((name, kind), 0) + 1
                    stage = STAGES.get((name, kind, seen[name, kind]), "target and comparison")
                    self.seconds[stage] += t1 - t0

        owner.verify = verify


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
    stages = VerifyStages()
    for owner, name in ((rdu, "_transvection_stack"), (rdu, "_letter_arrays"),
                        (rdu, "_pairwise_product"), (exterior, "_residue_minors")):
        stages.wrap(owner, name)
    stages.wrap_verify(rdu)
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
    # the operations in the order they ran, with the cores each one built
    ops = list(zip(out.ops, split.cores))
    ranked = sorted(ops, key=lambda oc: oc[0].seconds)
    band = ranked[len(ranked) * 2 // 5 : len(ranked) * 3 // 5]
    for what, group in (("no core built", [oc for oc in ops if not oc[1]]),
                        ("a core built", [oc for oc in ops if oc[1]]),
                        ("median band (40th-60th percentile)", band)):
        if group:
            d = sum(op.parts[0] for op, _ in group) / len(group)
            v = sum(op.parts[1] for op, _ in group) / len(group)
            none = sum(1 for _, cores in group if not cores)
            print(f"{what}: {len(group)} operations ({none} without a core build), "
                  f"decompose {d * 1e3:.3f} ms, verify {v * 1e3:.3f} ms per operation")
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
    spent = sum(stages.seconds.values())
    print(f"verify by stage, over all {stages.calls} calls (the systems' words too), "
          f"{spent / stages.calls * 1e6:.1f} us per call:")
    for stage, seconds in stages.seconds.items():
        print(f"  {stage}: {seconds / stages.calls * 1e6:.1f} us ({seconds / spent:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
