"""The benchmark's workloads: seeded inputs, operation streams, correctness gate.

Every workload is a closed loop with one caller: an operation starts when the
previous one has returned and nothing runs in parallel.  Inputs come only
from generate.rng_for and generate.compound_of_random, so a seed fixes them.
A run walks a workload's stream unit by unit (a level generator at three
targets on the engine workloads, a whole cycle on the others) until its stop
rule says so; every output is checked exactly, and a failed check counts
against the run instead of stopping it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from extsquare import cli, generate, indexing, jsonio, level, matrices, plucker, rdu, rings

LENGTH = 30  # letters per seeded source word, the CLI's default --len
WIDE_MODULUS = 2**31 - 1  # dim * (m - 1)^2 >= 2^62: no int64 kernel applies


def child_env() -> dict:
    """Environment for a fresh interpreter that imports this same extsquare."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spread(groups):
    """Merge lists so that every prefix holds each list in proportion to its length.

    Item i of a list of length m sits at (i + 1/2) / m; ties keep list order.
    This keeps the operation mix of a time-limited run the same wherever the
    run stops.
    """
    keyed = []
    for g, items in enumerate(groups):
        keyed.extend(((i + 0.5) / len(items), g, i) for i in range(len(items)))
    keyed.sort()
    return [groups[g][i] for _, g, i in keyed]


def targets(n: int):
    return ((2, 3), (3, 2), (1, n))


def case_of(kind: str, I, J) -> str:
    """The rdu case a level generator falls into, from its indices alone."""
    h = "h1" if indexing.height(I, J) == 1 else "h0"
    return f"{h}-{'entry' if kind == 'entry' else 'diag'}"


@dataclass(slots=True)
class Op:
    kind: str  # "decompose", "accept", "reject" or "cli.<command>"
    seconds: float
    label: str = ""  # rdu case, rank or command variant
    parts: tuple = ()  # engine: (decompose seconds, verify seconds)
    end: float = field(default_factory=time.perf_counter)


@dataclass
class Outcome:
    ops: list = field(default_factory=list)
    systems: list = field(default_factory=list)  # seconds per eight_conjugate_system
    attempted: int = 0
    failed: int = 0
    pace: object = None  # called after every operation, outside its timing

    def record(self, op: Op) -> None:
        self.ops.append(op)
        if self.pace is not None:
            self.pace()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            print(f"correctness gate failed: {what}", file=sys.stderr)

    def crash(self, what: str) -> None:
        # an operation that raised is a failed operation; the run goes on
        self.check(False, f"{what}\n{traceback.format_exc()}")


# -- decomposition engine ---------------------------------------------------------


@dataclass
class Plan:
    """One seeded matrix and the order its level generators are decomposed in."""

    n: int
    g: matrices.InvPair
    generators: list
    order: list


class Engine:
    """Criterion-08 traffic: every level generator at three targets, then the system.

    Each matrix gets a fresh ReverseDecomposer on its first operation, so the
    per-matrix core cache is reused across the three targets of a generator.
    The matrices of one cycle (one per rank) are interleaved, and so are the
    four rdu cases within a matrix, so a run that stops early still sees the
    full mix.  A matrix is retired with one eight_conjugate_system when its
    last generator is done, or when the run stops.
    """

    def __init__(self, name, modulus, ns, cycles, trace_units):
        self.name = name
        self.modulus = modulus
        self.ns = ns
        self.cycles = cycles
        self.trace_units = trace_units

    def inputs(self, seed, smoke, clock):
        ring = rings.ModularRing(self.modulus)
        out = []
        for c in range(1 if smoke else self.cycles):
            plans = []
            for n in self.ns[:1] if smoke else self.ns:
                rng = generate.rng_for(seed, self.name, "matrix", c, n)
                g = generate.compound_of_random(n, ring, LENGTH, rng)
                t0 = time.perf_counter()
                gens = level.level_generators(g.fwd, n)
                clock["level"] += time.perf_counter() - t0
                by_case = {}
                for gen in gens:
                    by_case.setdefault(case_of(gen.kind, gen.I, gen.J), []).append(gen)
                order_rng = generate.rng_for(seed, self.name, "order", c, n)
                groups = [by_case[k] for k in sorted(by_case)]
                for group in groups:
                    order_rng.shuffle(group)
                plans.append(Plan(n, g, gens, spread(groups)))
            out.append(plans)
        return out

    def run(self, cycles, stop, out: Outcome, inprocess: bool, workdir: str) -> None:
        live = {}
        stream = (
            (c, i, plans[i], gen)
            for c in itertools.count()
            for plans in (cycles[c % len(cycles)],)
            for i, gen in spread([[(i, gen) for gen in p.order] for i, p in enumerate(plans)])
        )
        for done, (c, i, plan, gen) in enumerate(stream):
            if stop(done):
                break
            if (c, i) not in live:
                live[(c, i)] = [self._start(plan, out), plan, len(plan.order)]
            slot = live[(c, i)]
            for k, l in targets(plan.n):
                self._decompose(slot[0], plan, gen, k, l, out)
            slot[2] -= 1
            if slot[2] == 0:
                del live[(c, i)]
                self._retire(slot[0], plan, out)
        for engine, plan, _ in live.values():
            self._retire(engine, plan, out)

    def _start(self, plan, out):
        try:
            return rdu.ReverseDecomposer(plan.g, plan.n)
        except Exception:
            # every operation on this matrix then fails as "no engine"
            traceback.print_exc()
            return None

    def _decompose(self, engine, plan, gen, k, l, out):
        out.attempted += 1
        what = f"{self.name} n={plan.n} {gen.kind} {gen.I} {gen.J} at ({k},{l})"
        if engine is None:
            out.check(False, f"{what}: no engine")
            return
        try:
            t0 = time.perf_counter()
            d = engine.decompose(rdu.GeneratorTarget(gen.kind, gen.I, gen.J, k, l))
            t1 = time.perf_counter()
            verified = rdu.verify(d.word, plan.g, k, l, d.param, plan.n)
            t2 = time.perf_counter()
        except Exception:
            out.crash(what)
            return
        out.record(Op("decompose", t2 - t0, d.case, (t1 - t0, t2 - t1)))
        case = case_of(gen.kind, gen.I, gen.J)
        out.check(
            verified
            and d.case == case
            and len(d.word) == rdu.CASE_LENGTHS[case]
            and d.param == gen.value
            and all(ok for _, ok in d.certificates),
            f"{what}: case {d.case}, length {len(d.word)}, verified {verified}",
        )

    def _retire(self, engine, plan, out):
        out.attempted += 1
        what = f"{self.name} n={plan.n}: eight_conjugate_system"
        if engine is None:
            out.check(False, f"{what}: no engine")
            return
        try:
            t0 = time.perf_counter()
            system = engine.eight_conjugate_system()
            out.systems.append(time.perf_counter() - t0)
            size = indexing.dim(plan.n) ** 2 - 1
            refereed = all(rdu.verify(w, plan.g, 2, 3, p, plan.n) for *_, w, p in system)
        except Exception:
            out.crash(what)
            return
        # the realized values generate the level ideal (criterion 08)
        d_sys = math.gcd(self.modulus, *(p for *_, p in system))
        d_lvl = math.gcd(self.modulus, *(gen.value for gen in plan.generators))
        out.check(
            len(system) == size
            and all(len(w) == 8 for *_, w, _ in system)
            and refereed
            and d_sys == d_lvl,
            f"{what}: {len(system)} words, refereed {refereed}, gcd {d_sys} vs {d_lvl}",
        )


# -- membership -----------------------------------------------------------------


class Membership:
    """plucker.is_member on seeded members and near-members at n = 6, 7, 8.

    A near-member adds a seeded nonzero value to one seeded column of a
    member, in a row at the middle of each third of the matrix: the early
    exit comes at the first 4-subset whose relations read the changed row,
    so fixed rows spread the exit points over the scan the same way for
    every seed.  Three near-members per member keep the median inside the
    rejections and the 90th percentile inside the n = 7 acceptances.
    """

    name = "membership"
    ns = (6, 7, 8)
    near = 3
    cycles = 12
    trace_units = 2

    def inputs(self, seed, smoke, clock):
        ring = rings.ModularRing(97)
        out = []
        for c in range(1 if smoke else self.cycles):
            groups = []
            for n in self.ns[:1] if smoke else self.ns:
                g = generate.compound_of_random(
                    n, ring, LENGTH, generate.rng_for(seed, self.name, "matrix", c, n)
                )
                group = [("accept", n, g.fwd)]
                rng = generate.rng_for(seed, self.name, "near", c, n)
                N = indexing.dim(n)
                for t in range(self.near):
                    rows = [list(r) for r in g.fwd.rows]
                    r, col = int((t + 0.5) * N / self.near), rng.randrange(N)
                    rows[r][col] = (rows[r][col] + rng.randrange(1, 97)) % 97
                    group.append(("reject", n, matrices.Matrix(ring, rows)))
                groups.append(group)
            out.append(spread(groups))
        return out

    def run(self, cycles, stop, out: Outcome, inprocess: bool, workdir: str) -> None:
        for done in itertools.count():
            if stop(done):
                break
            for kind, n, m in cycles[done % len(cycles)]:
                out.attempted += 1
                try:
                    t0 = time.perf_counter()
                    got = plucker.is_member(m, n)
                    seconds = time.perf_counter() - t0
                except Exception:
                    out.crash(f"membership n={n} {kind}")
                    continue
                out.record(Op(kind, seconds, str(n)))
                out.check(got == (kind == "accept"), f"membership n={n} {kind}: got {got}")


# -- command line -----------------------------------------------------------------


@dataclass
class Artifacts:
    """One rank's inputs and expected outputs within a command-line cycle."""

    n: int
    seed: int
    gen_bytes: str
    entry: tuple  # (target text, k, l, expected param)
    diag: tuple
    level_json: list
    near_bytes: str
    vector_bytes: str


class Pipeline:
    """`extsquare` commands one at a time on fresh seeded artifacts, n = 5 and 6.

    A cycle runs, per rank, gen, an 8-term entry and a 48-term diagdiff
    decompose, verify of both, member on the artifact and on a near-member,
    level and stabilize; then one identities --max-n 5.  Each command is a
    fresh interpreter, as an artifact user pays for it; with inprocess=True
    the same argv go through cli.main instead (the traced run).  Artifacts
    are written under `workdir`.
    """

    name = "cli-pipeline"
    ns = (5, 6)
    cycles = 6
    trace_units = 2

    def inputs(self, seed, smoke, clock):
        ring = rings.ModularRing(97)
        out = []
        for c in range(1 if smoke else self.cycles):
            cycle_seed = generate.rng_for(seed, self.name, "cycle", c).randrange(2**31)
            arts = []
            for n in self.ns[:1] if smoke else self.ns:
                # the same stream `extsquare gen --seed cycle_seed` draws from
                pair = generate.compound_of_random(
                    n, ring, LENGTH, generate.rng_for(cycle_seed, "gen", n, LENGTH, 0)
                )
                t0 = time.perf_counter()
                gens = level.level_generators(pair.fwd, n)
                clock["level"] += time.perf_counter() - t0
                rng = generate.rng_for(seed, self.name, "targets", c, n)
                ps = indexing.pairs(n)
                fwd = pair.fwd
                rk = lambda P: indexing.rank(P, n)  # noqa: E731
                I, J = rng.choice([(P, Q) for P in ps for Q in ps if indexing.height(P, Q) == 1])
                k, l = rng.choice(targets(n))
                entry = (f"entry:{I[0]},{I[1]}:{J[0]},{J[1]}", k, l, fwd.at(rk(I), rk(J)))
                I, J = rng.choice([(P, Q) for P in ps for Q in ps if P < Q and not set(P) & set(Q)])
                k, l = rng.choice(targets(n))
                value = ring.sub(fwd.at(rk(I), rk(I)), fwd.at(rk(J), rk(J)))
                diag = (f"diagdiff:{I[0]},{I[1]}:{J[0]},{J[1]}", k, l, value)
                rows = [list(r) for r in fwd.rows]
                r, col = rng.randrange(len(rows)), rng.randrange(len(rows))
                rows[r][col] = (rows[r][col] + rng.randrange(1, 97)) % 97
                arts.append(
                    Artifacts(
                        n=n,
                        seed=cycle_seed,
                        gen_bytes=jsonio.dumps(jsonio.pair_to_json(pair, n=n)),
                        entry=entry,
                        diag=diag,
                        level_json=[jsonio.level_generator_to_json(x, ring) for x in gens],
                        near_bytes=jsonio.dumps(
                            jsonio.matrix_to_json(matrices.Matrix(ring, rows), n=n)
                        ),
                        vector_bytes=jsonio.dumps(
                            jsonio.vector_to_json(plucker.PairVector.column_of(fwd, n, (1, 2)))
                        ),
                    )
                )
            out.append(arts)
        return out

    def run(self, cycles, stop, out: Outcome, inprocess: bool, workdir: str) -> None:
        env = child_env()
        for done in itertools.count():
            if stop(done):
                break
            for art in cycles[done % len(cycles)]:
                self._rank(art, out, inprocess, env, workdir)
            rc, stdout = self._call(["identities", "--max-n", "5"], "", out, inprocess, env)
            lines = stdout.splitlines()
            out.check(
                rc == 0 and lines and all(x.startswith(("PASS", "SKIP")) for x in lines),
                f"identities: exit {rc}",
            )

    def _rank(self, art: Artifacts, out, inprocess, env, workdir):
        n = art.n
        path = lambda stem: os.path.join(workdir, f"{stem}{n}.json")  # noqa: E731
        for stem, text in (("near", art.near_bytes), ("vector", art.vector_bytes)):
            with open(path(stem), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        call = lambda argv, label="": self._call(argv, label, out, inprocess, env)  # noqa: E731

        rc, _ = call(["gen", "--ring", "zmod:97", "--n", str(n), "--seed", str(art.seed),
                      "--len", str(LENGTH), "--out", path("g")])
        out.check(rc == 0 and _read(path("g")) == art.gen_bytes,
                  f"gen n={n} seed={art.seed}: exit {rc} or artifact differs")
        for stem, (target, k, l, param), case in (
            ("entry", art.entry, "h1-entry"),
            ("diag", art.diag, "h0-diag"),
        ):
            rc, _ = call(["decompose", "--in", path("g"), "--target", target,
                          "--k", str(k), "--l", str(l), "--out", path(stem)], stem)
            out.check(
                rc == 0 and _decomposition_ok(_load(path(stem)), case, str(param), k, l, n),
                f"decompose n={n} {target} ({k},{l}): exit {rc}",
            )
            rc, stdout = call(["verify", "--in", path(stem), "--g", path("g")], stem)
            out.check(rc == 0 and stdout == "verified\n", f"verify n={n} {target}: exit {rc}")
        rc, stdout = call(["member", "--in", path("g")], "accept")
        out.check(rc == 0 and stdout == "member\n", f"member n={n}: exit {rc}")
        rc, stdout = call(["member", "--in", path("near")], "reject")
        out.check(rc == 1 and stdout == "not a member\n", f"member near n={n}: exit {rc}")
        rc, _ = call(["level", "--in", path("g"), "--out", path("level")])
        out.check(rc == 0 and _load(path("level")).get("generators") == art.level_json,
                  f"level n={n}: exit {rc}")
        rc, _ = call(["stabilize", "--in", path("vector"), "--out", path("stab")])
        out.check(rc == 0 and _load(path("stab")).get("fixed") is True, f"stabilize n={n}: exit {rc}")

    def _call(self, argv, label, out, inprocess, env):
        """Run one command; (exit code, stdout), or (None, "") if it raised.

        The caller's check of the result counts the failure, once.
        """
        out.attempted += 1
        try:
            if inprocess:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.perf_counter()
                    rc = cli.main(argv)
                    seconds = time.perf_counter() - t0
                stdout = buf.getvalue()
            else:
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "extsquare.cli", *argv],
                    capture_output=True, text=True, env=env, timeout=120,
                )
                seconds = time.perf_counter() - t0
                rc, stdout = proc.returncode, proc.stdout
        except Exception:
            traceback.print_exc()
            return None, ""
        out.record(Op(f"cli.{argv[0]}", seconds, label))
        return rc, stdout


def _decomposition_ok(got: dict, case: str, param: str, k: int, l: int, n: int) -> bool:
    try:
        return (
            got["case"] == case
            and len(got["word"]["terms"]) == rdu.CASE_LENGTHS[case]
            and got["param"] == param
            and (got["k"], got["l"], got["n"]) == (k, l, n)
            and all(c["ok"] is True for c in got["certificates"])
        )
    except (KeyError, TypeError):
        return False


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _load(path: str) -> dict:
    text = _read(path)
    try:
        return json.loads(text) if text is not None else {}
    except json.JSONDecodeError:
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        Engine("engine-zmod97", 97, (5, 6), cycles=3, trace_units=150),
        Engine("engine-wide-modulus", WIDE_MODULUS, (4, 5), cycles=1, trace_units=20),
        Membership(),
        Pipeline(),
    )
}
