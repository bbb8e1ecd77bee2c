"""Congruence levels: generator extraction, reduction, and class tests.

The level ideal of an N x N matrix is generated by its off-diagonal entries
together with the successive differences of its diagonal entries, N^2 - 1
elements in all; the matrix is central modulo an ideal exactly when every
generator value lies in it.  Reduction modulo an integer d gives the
congruence classification: principal (reduces to the identity), full
(reduces to a scalar), or neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import matrices, rings
from .indexing import ambient_rank, dim, pairs


@dataclass(frozen=True)
class LevelGenerator:
    """One generator of the level ideal: an entry or a diagonal difference."""

    kind: str  # "entry" or "diagdiff"
    I: tuple
    J: tuple | None
    value: object


def level_generators(g: matrices.Matrix, n: int | None = None):
    """All off-diagonal entries plus successive diagonal differences.

    Returns exactly dim^2 - 1 generators, entries first in row-major order.
    """
    if n is None:
        n = ambient_rank(g.dim)
    if g.dim != dim(n):
        raise ValueError("dimension mismatch")
    ring = g.ring
    ps = pairs(n)
    out = []
    for r, I in enumerate(ps):
        for c, J in enumerate(ps):
            if r != c:
                out.append(LevelGenerator("entry", I, J, g.at(r, c)))
    for r in range(len(ps) - 1):
        diff = ring.sub(g.at(r, r), g.at(r + 1, r + 1))
        out.append(LevelGenerator("diagdiff", ps[r], ps[r + 1], diff))
    return out


def ideal_contains(ring, generators, x) -> bool:
    """Decide x in the ideal generated by the given elements.

    Supported for the integer and modular rings, where membership reduces
    to a divisibility test on greatest common divisors.
    """
    x = ring.coerce(x)
    gens = [ring.coerce(v) for v in generators]
    if ring.kind not in ("int", "zmod"):
        raise ValueError("membership undecidable in this artifact")
    # over Z/m the gcd starts at m, so d is 0 only over Z with no nonzero gens
    d = ring.modulus if ring.kind == "zmod" else 0
    for v in gens:
        d = math.gcd(d, v)
    return x == 0 if d == 0 else x % d == 0


def reduce_matrix(g: matrices.Matrix, d: int) -> matrices.Matrix:
    """Entrywise reduction modulo d; for a modular source, d must divide m."""
    if d < 2:
        raise ValueError("modulus must be at least 2")
    if g.ring.kind == "zmod":
        if g.ring.modulus % d != 0:
            raise ValueError(f"{d} does not divide the source modulus")
    elif g.ring.kind != "int":
        raise ValueError("reduction requires an integer or modular source")
    target = rings.ModularRing(d)
    return matrices.Matrix(target, g.rows)


def congruence_class(g: matrices.Matrix, d: int) -> str:
    """Classify g modulo d: 'principal', 'full', or 'neither'."""
    reduced = reduce_matrix(g, d)
    if reduced.is_identity():
        return "principal"
    if reduced.is_scalar():
        return "full"
    return "neither"
