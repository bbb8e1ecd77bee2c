"""Print one sha256 over the work the engine and the command line produce.

    python3 tools/same_work.py

Run it from two checkouts (say a commit and its parent): equal digests mean
that both produce the same words, params, certificate names, exit codes,
output text and written files on the inputs below.  The package is imported
from the src/ directory beside this script.  Two things are hashed:

* full level sweeps plus the system check: Z/97 at n = 5, 6,
  Z/(2^31 - 1) at n = 4, 5 and Z at n = 4, seeds 1 and 2, every level
  generator decomposed at (2, 3) and at (1, n), then eight_conjugate_system;
* a seeded command list over zmod:97, zmod:2147483647 and int at n = 4, 5,
  seeds 1 and 2: gen, the four decompose shapes at (2, 3), (1, n) and
  (3, 2), verify of each artifact and of each with param + 1, member, level,
  stabilize --col 2, --row 3 and plain on column {1,3}, and identities.
  Each command's exit code, stdout and stderr are hashed, and at the end
  every file it wrote, by name, in a fresh working directory.

A line before the digest, outside it, gives the number of
matrices._kernel_matmul calls of each sweep (the entry point of every
engine and membership product: the engine's membership check,
decompositions and system check; 0 over Z, which has no array kernel), and
the next the sizes of the engine's stores after the system check: g's run
memo, the segments of the engine's cache and its cores.
So a change to bookkeeping alone, or to what the engine keeps, can show
the same products, or what it changes, beside the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from extsquare import cli, generate, indexing, jsonio, level, matrices, rdu, rings  # noqa: E402

SWEEPS = [
    (rings.ModularRing(97), 5),
    (rings.ModularRing(97), 6),
    (rings.ModularRing(2**31 - 1), 4),
    (rings.ModularRing(2**31 - 1), 5),
    (rings.IntegerRing(), 4),
]
SEEDS = (1, 2)
CLI_RINGS = ("zmod:97", "zmod:2147483647", "int")
CLI_RANKS = (4, 5)
SHAPES = ("entry:1,3:1,2", "entry:1,2:3,4", "diagdiff:1,2:1,3", "diagdiff:1,2:3,4")


def _word(word, ring) -> list:
    return [[eps, jsonio.ext_word_to_json(h, ring)] for eps, h in word.terms]


def sweep_records(kernel_calls: list, store_sizes: list):
    """One JSON-ready record per decomposition and per system word; appends
    to `kernel_calls` the _kernel_matmul calls of each sweep, and to
    `store_sizes` the sizes of its engine's stores after the system check."""
    matmul = matrices._kernel_matmul
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return matmul(*args)

    for ring, n in SWEEPS:
        for seed in SEEDS:
            g = generate.compound_of_random(n, ring, 4 * n, generate.rng_for(seed, "rdu", n))
            matrices._kernel_matmul, calls[0] = counted, 0
            eng = rdu.ReverseDecomposer(g, n)
            for gen in level.level_generators(g.fwd, n):
                for k, l in ((2, 3), (1, n)):
                    d = eng.decompose(rdu.GeneratorTarget(gen.kind, gen.I, gen.J, k, l))
                    yield [
                        repr(ring), n, seed, d.case, d.k, d.l,
                        jsonio.elem_to_json(ring, d.param),
                        _word(d.word, ring),
                        [name for name, _ in d.certificates],
                    ]
            system = eng.eight_conjugate_system()
            matrices._kernel_matmul = matmul
            kernel_calls.append(f"{ring!r} n={n} seed {seed}: {calls[0]}")
            _, memo = eng._cache[("runs", id(g))]
            segments = sum(key[0] != "runs" for key in eng._cache)
            store_sizes.append(
                f"{ring!r} n={n} seed {seed}: memo {len(memo)}, "
                f"segments {segments}, cores {len(eng._core_cache)}"
            )
            for kind, I, J, word, param in system:
                yield [repr(ring), n, seed, kind, I, J, jsonio.elem_to_json(ring, param), _word(word, ring)]


def _main(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def commands():
    """The command list, run in the current directory, artifacts made on the
    way (the param + 1 copies and the stabilize vectors) included."""
    for ring in CLI_RINGS:
        for n in CLI_RANKS:
            for seed in SEEDS:
                tag = f"{ring.replace(':', '-')}-{n}-{seed}"
                g = f"g-{tag}.json"
                yield ["gen", "--ring", ring, "--n", str(n), "--seed", str(seed),
                       "--len", str(4 * n), "--out", g]
                for s, shape in enumerate(SHAPES):
                    for k, l in ((2, 3), (1, n), (3, 2)):
                        d = f"d-{tag}-{s}-{k}{l}.json"
                        yield ["decompose", "--in", g, "--target", shape,
                               "--k", str(k), "--l", str(l), "--out", d]
                        yield ["verify", "--in", d, "--g", g]
                        if os.path.exists(d):
                            obj = json.loads(open(d, encoding="utf-8").read())
                            obj["param"] = str(int(obj["param"]) + 1)
                            bumped = f"p-{tag}-{s}-{k}{l}.json"
                            with open(bumped, "w", encoding="utf-8") as fh:
                                json.dump(obj, fh)
                            yield ["verify", "--in", bumped, "--g", g]
                yield ["member", "--in", g]
                yield ["level", "--in", g, "--out", f"l-{tag}.json"]
                obj = json.loads(open(g, encoding="utf-8").read())
                col = indexing.rank((1, 3), n)
                v = f"v-{tag}.json"
                with open(v, "w", encoding="utf-8") as fh:
                    json.dump({"n": n, "ring": obj["ring"], "entries": [row[col] for row in obj["fwd"]]}, fh)
                for flags in (["--col", "2"], ["--row", "3"], []):
                    yield ["stabilize", "--in", v, *flags, "--out", f"s-{tag}-{''.join(flags)}.json"]
    yield ["identities", "--max-n", "5"]


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    kernel_calls: list = []
    store_sizes: list = []
    for record in sweep_records(kernel_calls, store_sizes):
        digest.update(json.dumps(record).encode())
        count += 1
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            runs = 0
            for argv in commands():
                digest.update(json.dumps([argv, *_main(argv)]).encode())
                runs += 1
            for name in sorted(os.listdir(tmp)):
                with open(name, "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
        finally:
            os.chdir(here)
    print(f"{count} sweep records, {runs} commands")
    print("_kernel_matmul calls per sweep: " + "; ".join(kernel_calls))
    print("stores after the system check: " + "; ".join(store_sizes))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
