"""JSON forms for every artifact the command line reads or writes.

All emitters are deterministic (sorted keys, fixed separators, trailing
newline) so that identical inputs produce byte-identical files.  Element
encodings follow the ring: decimal strings for integer and modular values,
monomial lists in canonical order for polynomials.

level and rdu appear in annotations only, and plucker and words are
imported by the readers that build their objects, so reading a matrix
loads neither the engine nor the word calculus.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from . import indexing, matrices, rings

if TYPE_CHECKING:
    from . import level, plucker, rdu
    from .words import ConjWord, ExtWord


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# -- elements and rings ----------------------------------------------------

def ring_to_json(ring: rings.Ring) -> dict:
    if ring.kind == "zmod":
        return {"type": "zmod", "modulus": ring.modulus}
    if ring.kind == "poly_int":
        return {"type": "poly_int", "vars": list(ring.variables)}
    return {"type": "int"}


def ring_from_json(obj) -> rings.Ring:
    _object(obj, "ring")
    kind = obj.get("type")
    if kind == "int":
        return rings.IntegerRing()
    if kind == "zmod":
        return rings.ModularRing(_int_field(obj, "modulus", "ring"))
    if kind == "poly_int":
        names = _list(obj, "vars", "ring")
        if not all(isinstance(v, str) for v in names):
            raise ValueError("ring.vars: expected a list of names")
        return rings.PolynomialRing(names)
    raise ValueError(f"unknown ring descriptor {obj!r}")


def elem_to_json(ring, payload):
    """A decimal string for int and zmod, a monomial list for poly_int."""
    x = ring.coerce(payload)
    if ring.kind == "poly_int":
        return [{"coeff": str(coeff), "exps": list(exps)} for exps, coeff in x]
    return str(x)


def elem_from_json(ring, obj, path: str = "element"):
    """A ring element; a malformed one raises ValueError naming `path`."""
    try:
        if ring.kind == "poly_int":
            return ring.canon([(tuple(m["exps"]), int(m["coeff"])) for m in obj])
        if not isinstance(obj, (bool, float)):
            return ring.canon(int(obj))
    except (TypeError, ValueError, KeyError):
        pass
    raise ValueError(f"{path}: expected an element of {ring!r}, got {json.dumps(obj)}")


# -- matrices and pairs ------------------------------------------------------


def matrix_rows_to_json(m: matrices.Matrix):
    return [[elem_to_json(m.ring, x) for x in row] for row in m.rows]


def matrix_to_json(m: matrices.Matrix, n: int | None = None) -> dict:
    out = {
        "dim": m.dim,
        "ring": ring_to_json(m.ring),
        "rows": matrix_rows_to_json(m),
    }
    if n is not None:
        out["n"] = n
    return out


def _object(obj, path: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")


def _name(path: str, field: str) -> str:
    return f"{path}.{field}" if path else field


def _field(obj: dict, field: str, path: str = ""):
    """obj[field]; a missing field raises ValueError naming its path."""
    if field not in obj:
        raise ValueError(f"{_name(path, field)}: missing")
    return obj[field]


def _list(obj: dict, field: str, path: str = "") -> list:
    value = _field(obj, field, path)
    if not isinstance(value, list):
        raise ValueError(f"{_name(path, field)}: expected a list, got {json.dumps(value)}")
    return value


def _matrix_rows_from_json(ring, obj: dict, field: str):
    """The square rows of `field` as elem_from_json's canonical payloads, for
    matrices._from_rows; malformed ones raise ValueError naming the place."""
    rows = _field(obj, field)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{field}: expected a list of rows")
    widths = {len(row) for row in rows}
    if len(widths) == 1 and len(rows) not in widths:
        raise ValueError(f"{field}: expected {len(rows[0])} rows, got {len(rows)}")
    for r, row in enumerate(rows):
        if len(row) != len(rows):
            raise ValueError(f"{field}[{r}]: expected {len(rows)} entries, got {len(row)}")
    return [
        [elem_from_json(ring, x, f"{field}[{r}][{c}]") for c, x in enumerate(row)]
        for r, row in enumerate(rows)
    ]


def matrix_from_json(obj: dict) -> matrices.Matrix:
    """A plain matrix artifact, or the fwd side of a certified pair."""
    _object(obj, "matrix")
    if "fwd" in obj or "bwd" in obj:
        return pair_from_json(obj).fwd
    ring = ring_from_json(_field(obj, "ring"))
    rows = _matrix_rows_from_json(ring, obj, "rows")
    _check_dim(obj, len(rows))
    return matrices._from_rows(ring, rows)


def pair_to_json(p: matrices.InvPair, n: int | None = None) -> dict:
    out = {
        "dim": p.dim,
        "ring": ring_to_json(p.ring),
        "fwd": matrix_rows_to_json(p.fwd),
        "bwd": matrix_rows_to_json(p.bwd),
    }
    if n is not None:
        out["n"] = n
    return out


def pair_from_json(obj: dict) -> matrices.InvPair:
    _object(obj, "matrix pair")
    ring = ring_from_json(_field(obj, "ring"))
    fwd = matrices._from_rows(ring, _matrix_rows_from_json(ring, obj, "fwd"))
    _check_dim(obj, fwd.dim)
    bwd = matrices._from_rows(ring, _matrix_rows_from_json(ring, obj, "bwd"))
    return matrices.InvPair(fwd, bwd)  # certified on load


def _int_field(obj: dict, field: str, path: str = "") -> int:
    value = _field(obj, field, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{_name(path, field)}: expected an integer, got {json.dumps(value)}")
    return value


def _check_dim(obj: dict, rows: int) -> None:
    """Refuse a "dim", when the artifact has one, that is not an integer or
    not its row count."""
    if "dim" in obj and _int_field(obj, "dim") != rows:
        raise ValueError(f"dim: expected {rows}, the row count, got {obj['dim']}")


def pair_ambient_rank(obj: dict, dim: int) -> int:
    """The artifact's "n", else the n with C(n, 2) = dim, the dimension of
    the matrix read from it; an "n" with C(n, 2) != dim is rejected."""
    if "n" not in obj:
        return indexing.ambient_rank(dim)
    n = _int_field(obj, "n")
    if indexing.dim(n) != dim:
        raise ValueError("dimension mismatch")
    return n


# -- vectors -----------------------------------------------------------------


def vector_to_json(v: plucker.PairVector) -> dict:
    return {
        "n": v.n,
        "ring": ring_to_json(v.ring),
        "entries": [elem_to_json(v.ring, x) for x in v.entries],
    }


def vector_from_json(obj: dict) -> plucker.PairVector:
    from . import plucker

    _object(obj, "vector")
    ring = ring_from_json(_field(obj, "ring"))
    entries = _list(obj, "entries")
    return plucker.PairVector(
        _int_field(obj, "n"),
        ring,
        [elem_from_json(ring, x, f"entries[{k}]") for k, x in enumerate(entries)],
    )


# -- words -------------------------------------------------------------------


def ext_word_to_json(w: ExtWord, ring) -> dict:
    return {
        "n": w.n,
        "letters": [
            {"i": i, "j": j, "xi": elem_to_json(ring, xi)} for i, j, xi in w.letters
        ],
    }


def _index_pair(first: str, i: int, second: str, j: int, n: int, path: str = "") -> None:
    """Reject the index pair of a transvection when it is equal or outside
    1..n, naming `path` (else the first bad field) and both values."""
    if indexing._is_pair(i, j, n):
        return
    if i == j:
        bad, detail = first, f"{first} = {second} = {i}"
    else:
        bad, detail = first if not 1 <= i <= n else second, f"{first} = {i}, {second} = {j}"
    raise ValueError(f"{path or bad}: bad index ({detail} at n = {n})")


def ext_word_from_json(obj: dict, ring, path: str = "word", rank: int | None = None) -> ExtWord:
    """An ExtWord; `rank`, when given, is the n the word must have (that of
    the ConjWord holding it).  A malformed word raises ValueError naming
    the path of the bad field."""
    from .words import ExtWord

    _object(obj, path)
    n = _int_field(obj, "n", path)
    if rank is not None and n != rank:
        raise ValueError(f"{_name(path, 'n')}: expected {rank}, the word's n, got {n}")
    letters = []
    for k, letter in enumerate(_list(obj, "letters", path)):
        at = f"{path}.letters[{k}]"
        _object(letter, at)
        i, j = _int_field(letter, "i", at), _int_field(letter, "j", at)
        _index_pair("i", i, "j", j, n, at)
        letters.append((i, j, elem_from_json(ring, _field(letter, "xi", at), f"{at}.xi")))
    return ExtWord(n, letters)


def conj_word_to_json(w: ConjWord, ring) -> dict:
    return {
        "n": w.n,
        "terms": [
            {"eps": eps, "h": ext_word_to_json(h, ring)} for eps, h in w.terms
        ],
    }


def conj_word_from_json(obj: dict, ring, path: str = "word") -> ConjWord:
    from .words import ConjWord

    _object(obj, path)
    n = _int_field(obj, "n", path)
    terms = []
    for k, term in enumerate(_list(obj, "terms", path)):
        at = f"{path}.terms[{k}]"
        _object(term, at)
        eps = _int_field(term, "eps", at)
        if eps not in (1, -1):
            raise ValueError(f"{at}.eps: expected +1 or -1, got {eps}")
        terms.append((eps, ext_word_from_json(_field(term, "h", at), ring, f"{at}.h", n)))
    return ConjWord(n, terms)


# -- level generators ----------------------------------------------------------


def level_generator_to_json(gen: level.LevelGenerator, ring) -> dict:
    out = {
        "kind": gen.kind,
        "I": list(gen.I),
        "value": elem_to_json(ring, gen.value),
    }
    if gen.kind == "entry":
        out["J"] = list(gen.J)
    return out


# -- decompositions -------------------------------------------------------------


def decomposition_to_json(d: rdu.Decomposition, ring) -> dict:
    return {
        "case": d.case,
        "n": d.n,
        "k": d.k,
        "l": d.l,
        "ring": ring_to_json(ring),
        "param": elem_to_json(ring, d.param),
        "word": conj_word_to_json(d.word, ring),
        "certificates": [{"name": name, "ok": ok} for name, ok in d.certificates],
    }


def decomposition_parts_from_json(obj: dict):
    """Returns (word, k, l, param, n, ring) for re-verification."""
    _object(obj, "decomposition")
    ring = ring_from_json(_field(obj, "ring"))
    word = conj_word_from_json(_field(obj, "word"), ring)
    n = _int_field(obj, "n")
    k, l = _int_field(obj, "k"), _int_field(obj, "l")
    _index_pair("k", k, "l", l, n)
    return word, k, l, elem_from_json(ring, _field(obj, "param"), "param"), n, ring
