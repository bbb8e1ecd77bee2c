"""Spans and counters for the traced benchmark run.

The traced run wraps public callables of extsquare from the benchmark's own
files: nothing under src/ changes.  Every wrapped call records a span (name,
start, end, parent) in memory; a few cheap wrappers only count calls.  A
layer's self time is its spans' duration minus the part of that interval
covered by child spans.  Spans are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter


class Recorder:
    """In-memory span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def __len__(self):
        return len(self.names)

    def dump(self, path) -> None:
        """Write the spans as {"names": [...], "spans": [[name, start, end, parent]]}."""
        table: dict[str, int] = {}
        base = self.starts[0] if self.starts else 0
        rows = []
        for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents):
            rows.append([table.setdefault(name, len(table)), s - base, e - base, p])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"unit": "ns", "names": list(table), "spans": rows}, fh,
                      separators=(",", ":"))


def self_times(starts, ends, parents) -> list[int]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to the parent's interval, and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (s, e) in enumerate(zip(starts, ends)):
        covered = 0
        cur_s = cur_e = None
        for c in sorted(children.get(idx, ()), key=starts.__getitem__):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def outermost(names, parents, wanted) -> list[int]:
    """Ids of spans named in `wanted` that have no ancestor named in `wanted`."""
    inside = [False] * len(names)
    out = []
    for idx, (name, parent) in enumerate(zip(names, parents)):
        # parents always precede their children, so inside[parent] is final
        above = parent >= 0 and (inside[parent] or names[parent] in wanted)
        inside[idx] = above
        if name in wanted and not above:
            out.append(idx)
    return out


# -- wrappers ------------------------------------------------------------------


def _spanned(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(idx)

    return wrapper


def _counted(rec: Recorder, key: str, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _ext_eval(rec: Recorder, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(self, ring, cache=None):
        before = None if cache is None else len(cache)
        idx = rec.begin("words.extword_eval")
        try:
            return fn(self, ring, cache)
        finally:
            rec.end(idx)
            # a hit leaves the caller's cache dict the same size
            if before is not None and len(cache) == before:
                counts["words.extword_eval_hits"] += 1
            else:
                counts["words.letters_evaluated"] += len(self.letters)

    return wrapper


def _conj_eval(rec: Recorder, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(self, g, cache=None):
        counts["words.conj_terms"] += len(self.terms)
        idx = rec.begin("words.conj_eval")
        try:
            return fn(self, g, cache)
        finally:
            rec.end(idx)

    return wrapper


def _invpair_init(rec: Recorder, fn):
    # only the certifying constructor is a span; trusted compositions are free
    @functools.wraps(fn)
    def wrapper(self, fwd, bwd, check=True):
        if not check:
            return fn(self, fwd, bwd, check)
        idx = rec.begin("matrices.invpair_check")
        try:
            return fn(self, fwd, bwd, check)
        finally:
            rec.end(idx)

    return wrapper


def _dumps(rec: Recorder, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(obj):
        idx = rec.begin("jsonio.dump")
        try:
            text = fn(obj)
        finally:
            rec.end(idx)
        counts["jsonio.bytes_out"] += len(text.encode("utf-8"))
        return text

    return wrapper


JSONIO_LOADERS = (
    "matrix_from_json",
    "pair_from_json",
    "vector_from_json",
    "ext_word_from_json",
    "conj_word_from_json",
    "decomposition_parts_from_json",
)
JSONIO_DUMPERS = (
    "matrix_rows_to_json",
    "matrix_to_json",
    "pair_to_json",
    "vector_to_json",
    "ext_word_to_json",
    "conj_word_to_json",
    "level_generator_to_json",
    "decomposition_to_json",
)


def _plan(rec: Recorder):
    """(owner, attribute, wrapper factory) for every wrapped callable."""
    from extsquare import cli, exterior, jsonio, level, matrices, plucker, rdu, rings, words

    span = lambda name: lambda fn: _spanned(rec, name, fn)  # noqa: E731
    count = lambda key: lambda fn: _counted(rec, key, fn)  # noqa: E731
    plan = [
        (words.ExtWord, "eval", lambda fn: _ext_eval(rec, fn)),
        (words.ConjWord, "eval_matrix", lambda fn: _conj_eval(rec, fn)),
        (matrices.Matrix, "mul", span("matrices.mul")),
        (matrices.InvPair, "__init__", lambda fn: _invpair_init(rec, fn)),
        (exterior, "cauchy_binet", span("exterior.cauchy_binet")),
        (plucker, "is_member", span("plucker.is_member")),
        (plucker, "a_sum", span("plucker.a_sum")),
        (plucker, "parabolic_zero_check", span("plucker.parabolic_zero_check")),
        (rdu.ReverseDecomposer, "__init__", span("rdu.engine_init")),
        (rdu.ReverseDecomposer, "decompose", span("rdu.decompose")),
        (rdu.ReverseDecomposer, "eight_conjugate_system", span("rdu.system")),
        (rdu, "verify", span("rdu.verify")),
        (level, "level_generators", span("level.level_generators")),
        (jsonio, "dumps", lambda fn: _dumps(rec, fn)),
        (cli, "main", span("cli.main")),
        (rings.Ring, "coerce", count("rings.coerce_calls")),
        (rings.Ring, "sub", count("rings.arith_calls")),
    ]
    plan += [(jsonio, name, span("jsonio.load")) for name in JSONIO_LOADERS]
    plan += [(jsonio, name, span("jsonio.dump")) for name in JSONIO_DUMPERS]
    for ring_cls in (rings.IntegerRing, rings.ModularRing, rings.PolynomialRing):
        plan += [(ring_cls, op, count("rings.arith_calls")) for op in ("add", "mul", "neg")]
    return plan


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap the traced callables for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, factory in _plan(rec):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer figures ----------------------------------------------------------


def layer_figures(rec: Recorder) -> dict:
    """Counts and times per layer from the recorded spans and counters."""
    selfs = self_times(rec.starts, rec.ends, rec.parents)
    calls: Counter = Counter(rec.names)
    self_s: Counter = Counter()
    for name, st in zip(rec.names, selfs):
        self_s[name] += st / 1e9

    def inclusive(*names):
        ids = outermost(rec.names, rec.parents, set(names))
        return sum(rec.ends[i] - rec.starts[i] for i in ids) / 1e9

    eval_calls = calls["words.extword_eval"]
    return {
        "words.extword_eval_calls": eval_calls,
        "words.extword_eval_hit_ratio": (
            rec.counts["words.extword_eval_hits"] / eval_calls if eval_calls else 0.0
        ),
        "words.letters_evaluated": rec.counts["words.letters_evaluated"],
        "words.extword_eval_self_s": self_s["words.extword_eval"],
        "words.conj_eval_calls": calls["words.conj_eval"],
        "words.conj_terms": rec.counts["words.conj_terms"],
        "words.conj_eval_self_s": self_s["words.conj_eval"],
        "matrices.mul_calls": calls["matrices.mul"],
        "matrices.mul_self_s": self_s["matrices.mul"],
        "matrices.invpair_check_s": inclusive("matrices.invpair_check"),
        "rings.coerce_calls": rec.counts["rings.coerce_calls"],
        "rings.arith_calls": rec.counts["rings.arith_calls"],
        "exterior.cauchy_binet_calls": calls["exterior.cauchy_binet"],
        "exterior.cauchy_binet_self_s": self_s["exterior.cauchy_binet"],
        "plucker.is_member_calls": calls["plucker.is_member"],
        "plucker.is_member_self_s": self_s["plucker.is_member"],
        "plucker.a_sum_calls": calls["plucker.a_sum"],
        "plucker.parabolic_zero_check_self_s": self_s["plucker.parabolic_zero_check"],
        "rdu.engine_init_s": inclusive("rdu.engine_init"),
        "rdu.decompose_self_s": self_s["rdu.decompose"],
        "rdu.verify_self_s": self_s["rdu.verify"],
        "rdu.system_s": inclusive("rdu.system"),
        "jsonio.load_s": self_s["jsonio.load"],
        "jsonio.dump_s": self_s["jsonio.dump"],
        "jsonio.bytes_out": rec.counts["jsonio.bytes_out"],
        "trace.spans": len(rec),
    }
