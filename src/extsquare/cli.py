"""Command line front end.

Subcommands: identities, gen, decompose, verify, member, level, stabilize.
Exit codes: 0 when the requested property holds or the artifact was
produced, 1 when a checked property fails, 2 on usage or parse errors.
All output is JSON (or line-oriented pass/fail for identities), UTF-8,
newline terminated, and deterministic for a fixed seed and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certify, generate, jsonio, level, plucker, rdu, rings, stabilizer
from .matrices import mat_vec, vec_mat


def _parse_ring(text: str):
    if text == "int":
        return rings.IntegerRing()
    if text.startswith("zmod:"):
        return rings.ModularRing(int(text.split(":", 1)[1]))
    if text.startswith("poly:"):
        names = [v for v in text.split(":", 1)[1].split(",") if v]
        return rings.PolynomialRing(names)
    raise ValueError(f"unknown ring {text!r} (use int, zmod:<m>, poly:<v,..>)")


def _parse_pair(text: str):
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected a pair like 1,3 (got {text!r})")
    return tuple(sorted(parts))


def _parse_target(text: str):
    head, _, rest = text.partition(":")
    if head not in ("entry", "diagdiff"):
        raise ValueError("target must be entry:<pair>:<pair> or diagdiff:<pair>:<pair>")
    first, _, second = rest.partition(":")
    return head, _parse_pair(first), _parse_pair(second)


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_identities(args) -> int:
    results = certify.run_all(args.max_n)
    failed = False
    for r in results:
        tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
        detail = f" ({r.detail})" if r.detail else ""
        print(f"{tag} {r.name}{detail}")
        failed = failed or r.status == "fail"
    return 1 if failed else 0


def cmd_gen(args) -> int:
    ring = _parse_ring(args.ring)
    if ring.kind not in ("int", "zmod"):
        raise ValueError("gen supports the int and zmod rings")
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    emitted = []
    for trial in range(args.trials):
        rng = generate.rng_for(args.seed, "gen", args.n, args.length, trial)
        pair = generate.compound_of_random(args.n, ring, args.length, rng)
        if not plucker.is_member(pair.fwd, args.n):
            print("generated matrix failed the membership criterion", file=sys.stderr)
            return 1
        emitted.append(jsonio.pair_to_json(pair, n=args.n))
    if args.trials == 1:
        _write_text(jsonio.dumps(emitted[0]), args.out)
    else:
        _write_text(jsonio.dumps({"trials": emitted}), args.out)
    return 0


def cmd_decompose(args) -> int:
    obj = _read_json(args.input)
    pair = jsonio.pair_from_json(obj)
    n = jsonio.pair_ambient_rank(obj)
    kind, I, J = _parse_target(args.target)
    engine = rdu.ReverseDecomposer(pair, n)
    result = engine.decompose(rdu.GeneratorTarget(kind, I, J, args.k, args.l))
    _write_text(
        jsonio.dumps(jsonio.decomposition_to_json(result, pair.ring)), args.out
    )
    return 0


def cmd_verify(args) -> int:
    word, k, l, param, n, _ring = jsonio.decomposition_parts_from_json(
        _read_json(args.input)
    )
    pair = jsonio.pair_from_json(_read_json(args.g))
    ok = rdu.verify(word, pair, k, l, param, n)
    print("verified" if ok else "verification failed")
    return 0 if ok else 1


def _matrix_artifact(obj):
    """The matrix of a plain matrix artifact, or the fwd side of a pair."""
    jsonio._object(obj, "matrix")
    if "fwd" in obj or "bwd" in obj:
        return jsonio.pair_from_json(obj).fwd
    return jsonio.matrix_from_json(obj)


def cmd_member(args) -> int:
    obj = _read_json(args.input)
    m = _matrix_artifact(obj)
    n = jsonio.pair_ambient_rank(obj, m.dim)
    ok = plucker.is_member(m, n)
    note = " (n=4 caveat noted)" if n == 4 else ""
    print(f"member{note}" if ok else f"not a member{note}")
    return 0 if ok else 1


def cmd_level(args) -> int:
    obj = _read_json(args.input)
    m = _matrix_artifact(obj)
    n = jsonio.pair_ambient_rank(obj, m.dim)
    gens = level.level_generators(m, n)
    payload = {
        "n": n,
        "ring": jsonio.ring_to_json(m.ring),
        "generators": [jsonio.level_generator_to_json(g, m.ring) for g in gens],
    }
    _write_text(jsonio.dumps(payload), args.out)
    return 0


def cmd_stabilize(args) -> int:
    v = jsonio.vector_from_json(_read_json(args.input))
    ring = v.ring
    if args.col is not None:
        word = stabilizer.column_stabilizer(args.col, v)
        fixed = mat_vec(word.eval(ring).fwd, v.entries) == v.entries
    elif args.row is not None:
        word = stabilizer.row_stabilizer(args.row, v)
        fixed = vec_mat(v.entries, word.eval(ring).fwd) == v.entries
    else:
        word = stabilizer.plucker_stabilizer(v)
        fixed = mat_vec(word.eval(ring).fwd, v.entries) == v.entries
    payload = {
        "word": jsonio.ext_word_to_json(word, ring),
        "fixed": bool(fixed),
    }
    _write_text(jsonio.dumps(payload), args.out)
    return 0 if fixed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extsquare",
        description="Exact exterior-square matrix calculus and decomposition engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="run the symbolic certification suites")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("gen", help="emit seeded compound-group matrices with inverses")
    p.add_argument("--ring", default="zmod:97")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--len", type=int, default=30, dest="length")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("decompose", help="decompose a level generator into conjugates")
    p.add_argument("--in", required=True, dest="input")
    p.add_argument("--target", required=True, help="entry:<i,j>:<i,j> or diagdiff:<i,j>:<i,j>")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="re-verify a decomposition against its matrix")
    p.add_argument("--in", required=True, dest="input")
    p.add_argument("--g", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("member", help="membership in the compound group")
    p.add_argument("--in", required=True, dest="input")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("level", help="emit the level ideal generators")
    p.add_argument("--in", required=True, dest="input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_level)

    p = sub.add_parser("stabilize", help="column/row stabilizer word for a vector")
    p.add_argument("--in", required=True, dest="input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--col", type=int, default=None)
    group.add_argument("--row", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stabilize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (rdu.DecompositionError, rdu.CertificateError) as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
