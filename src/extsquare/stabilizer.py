"""Transvection words that fix a prescribed column or row.

column_stabilizer builds, for any vector w and any index j, a word of n-1
exterior transvections whose product fixes w; nothing is assumed about w.
The increment it adds to a coordinate {p, q} is pair_increment(p, q, j, w),
which cancels identically for all six orderings of p, q, j.

plucker_stabilizer is the three-letter variant available when w is a column
of a compound matrix (so the short Plucker relations vanish on it); it
requires ambient rank at least five and validates its precondition eagerly.
"""

from __future__ import annotations

from . import indexing, plucker
from .words import ExtWord


def _rank_at_least(w: plucker.PairVector, least: int, form: str) -> None:
    """A ValueError naming n when w's rank is below what `form` needs."""
    if w.n < least:
        raise ValueError(f"rank too small: {form} needs n >= {least}, got n = {w.n}")


def column_stabilizer(j: int, w: plucker.PairVector) -> ExtWord:
    """Word of n-1 exterior letters fixing the column vector w."""
    n = w.n
    if not 1 <= j <= n:
        raise ValueError("bad index")
    _rank_at_least(w, 3, "a stabilizer word")
    return ExtWord(n, [(s, j, w.signed_at(s, j)) for s in range(1, n + 1) if s != j])


def row_stabilizer(i: int, z: plucker.PairVector) -> ExtWord:
    """Word of n-1 exterior letters fixing the row vector z (z . W = z)."""
    n = z.n
    if not 1 <= i <= n:
        raise ValueError("bad index")
    _rank_at_least(z, 3, "a stabilizer word")
    return ExtWord(n, [(i, s, z.signed_at(i, s)) for s in range(1, n + 1) if s != i])


def pair_increment(p: int, q: int, j: int, w: plucker.PairVector):
    """Increment the column stabilizer adds to coordinate {p, q}.

    Equal to sign(pq,jq) sign(p,j) w_{pj} w_{jq} plus the same with p and q
    exchanged; the sorted-coordinate products make the two terms cancel.
    """
    if len({p, q, j}) != 3:
        raise ValueError("bad index: repeated entry")
    ring = w.ring
    s1 = indexing.sign(p, q) * indexing.sign(j, q) * indexing.sign(p, j)
    s2 = indexing.sign(q, p) * indexing.sign(j, p) * indexing.sign(q, j)
    t1 = ring.mul(w.at((p, j)), w.at((q, j)))
    t2 = ring.mul(w.at((q, j)), w.at((p, j)))
    total = t1 if s1 == 1 else ring.neg(t1)
    return ring.add(total, t2 if s2 == 1 else ring.neg(t2))


def plucker_stabilizer(w: plucker.PairVector) -> ExtWord:
    """Three-letter word fixing any column of a compound matrix, n >= 5."""
    _rank_at_least(w, 5, "the three-letter form")
    if not plucker.column_satisfies(w):
        raise ValueError("not a compound-matrix column: a short relation is nonzero")
    return _three_letters(w)


def _three_letters(w: plucker.PairVector) -> ExtWord:
    """plucker_stabilizer's word, built without checking w; the identities
    suite certifies this word on a generic vector."""
    ring = w.ring
    return ExtWord(
        w.n,
        (
            (2, 3, w.at((4, 5))),
            (2, 4, ring.neg(w.at((3, 5)))),
            (2, 5, w.at((3, 4))),
        ),
    )
