"""Combinatorics of two-element index sets over [n] = {1, ..., n}.

Rows and columns of an exterior-square matrix are labelled by the N = C(n, 2)
two-element subsets of [n], enumerated lexicographically:
{1,2} -> 0, {1,3} -> 1, ..., {n-1,n} -> N-1.  This module fixes that
enumeration together with the orientation sign of an ordered pair, the
height (intersection size) of two pairs, and the shuffle sign used when a
four-element set is split into two pairs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


def _is_pair(i: int, j: int, n: int) -> bool:
    """The index rule of a transvection t_ij over [n]: i != j, both in 1..n.

    Words, letters, transvections, routes, engine targets, artifacts and
    command-line flags all decide through this one rule."""
    return i != j and 1 <= i <= n and 1 <= j <= n


def sign(i: int, j: int) -> int:
    """Orientation of the ordered pair (i, j): +1 if i < j, -1 if i > j."""
    if i == j:
        raise ValueError("bad index: repeated entry")
    return 1 if i < j else -1


def canon(i: int, j: int, n: int | None = None):
    """Sort a pair into canonical ascending order; returns ((a, b), sign)."""
    if i == j:
        raise ValueError("bad index: repeated entry")
    if n is not None and not _is_pair(i, j, n):
        raise ValueError("bad index: out of range")
    if i < j:
        return (i, j), 1
    return (j, i), -1


@lru_cache(maxsize=None)
def pairs(n: int):
    """All two-element subsets of [n] in lexicographic order."""
    if n < 2:
        raise ValueError("bad index: n must be at least 2")
    return tuple(combinations(range(1, n + 1), 2))


@lru_cache(maxsize=None)
def _rank_table(n: int):
    return {pair: p for p, pair in enumerate(pairs(n))}


def rank(pair, n: int) -> int:
    """Lexicographic position of a sorted pair among the pairs over [n]."""
    try:
        return _rank_table(n)[tuple(pair)]
    except KeyError:
        raise ValueError(f"bad index: {pair!r} is not a sorted pair over [{n}]") from None


def unrank(p: int, n: int):
    """Inverse of rank."""
    table = pairs(n)
    if not 0 <= p < len(table):
        raise ValueError("bad index: rank out of range")
    return table[p]


def dim(n: int) -> int:
    return n * (n - 1) // 2


def ambient_rank(N: int) -> int:
    """The n with C(n, 2) = N."""
    n = int((2 * N) ** 0.5) + 1
    for cand in (n - 1, n, n + 1):
        if cand >= 2 and dim(cand) == N:
            return cand
    raise ValueError(f"{N} is not a binomial coefficient C(n, 2)")


def height(I, J) -> int:
    """Cardinality of the intersection of two pairs: 0, 1 or 2."""
    return len(set(I) & set(J))


def shuffle_sign(B, D) -> int:
    """Sign of the permutation sorting the concatenation (b1, b2, d1, d2)."""
    if set(B) & set(D):
        raise ValueError("bad index: pairs overlap")
    seq = (*B, *D)
    inversions = sum(
        1 for a in range(4) for b in range(a + 1, 4) if seq[a] > seq[b]
    )
    return 1 if inversions % 2 == 0 else -1


@lru_cache(maxsize=None)
def triples(n: int):
    """All three-element subsets of [n] in lexicographic order."""
    return tuple(combinations(range(1, n + 1), 3))


@lru_cache(maxsize=None)
def quads(n: int):
    """All four-element subsets of [n] in lexicographic order."""
    return tuple(combinations(range(1, n + 1), 4))


@lru_cache(maxsize=None)
def splittings(H):
    """The six ordered splittings of a four-element set into pairs (B, D).

    Each of the three unordered splittings appears in both orders, since B
    ranges over all two-element subsets and D is the complement.
    """
    H = tuple(H)
    if len(set(H)) != 4:
        raise ValueError("bad index: need four distinct entries")
    out = []
    for B in combinations(sorted(H), 2):
        D = tuple(x for x in sorted(H) if x not in B)
        out.append((B, D))
    return tuple(out)
