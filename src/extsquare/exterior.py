"""The second compound (Cauchy-Binet) map and its transvection calculus.

cauchy_binet sends an n x n matrix to the C(n,2) x C(n,2) matrix of its
2 x 2 minors.  Over Z/m with (m-1)^2 < 2^62 (_int64_minors) all minors
come from _residue_minors, one int64 expression over the pair index arrays
that serves any stack of n x n matrices (rdu.verify lifts the telescoped
conjugators of a word through it at once, in the dtype of its n x n
products: float64 where matrices._referee_kernel(ring, n) is ONE_LIMB,
balanced int64 residues where it is BALANCED); elsewhere from ring
arithmetic, entry by entry.
ext_transvection expands the compound image of a single elementary
transvection into explicit elementary transvections of the pair-indexed
group, at the positions and signs of words._letter_support; the expansion
is checked against the minor matrix at construction time, so the two
routes can never drift apart silently.

p_element builds the monomial (signed permutation) words used to reroute a
transvection from one index position to another, and route_source /
route_target build the full conjugation words needed by the decomposition
engine.  Routes are checked once, in n x n, and cached: a route's N x N
matrix is the compound of the product w of its letters' transvections, so
a source sign is two 2 x 2 minors of w and w^-1, and a target route is
certified by w t_23(x) w^-1 = t_kl(x), from unit vectors pushed through
every transvection over Z at O(1) per letter.  The lift to N x N rests on
the closed-form letter being the compound of t_ij (_certify_expansion and
the identities suite check it), on every engine word's N x N
`final-verified` check, and on the referee rdu.verify.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import indexing, matrices, rings
from .words import ExtWord, PairWord, _letter_support


def cauchy_binet(x: matrices.Matrix, n: int) -> matrices.Matrix:
    """Matrix of 2 x 2 minors, rows and columns in lexicographic pair order."""
    if n < 3:
        raise ValueError("rank too small")
    if x.dim != n:
        raise ValueError("dimension mismatch")
    ring = x.ring
    if _int64_minors(ring):
        return matrices._from_residues(ring, _residue_minors(x._residues(), ring.modulus))
    ps = indexing.pairs(n)
    out = []
    for i1, i2 in ps:
        row = []
        for j1, j2 in ps:
            a = ring.mul(x.at(i1 - 1, j1 - 1), x.at(i2 - 1, j2 - 1))
            b = ring.mul(x.at(i1 - 1, j2 - 1), x.at(i2 - 1, j1 - 1))
            row.append(ring.sub(a, b))
        out.append(row)
    return matrices._from_rows(ring, out)


def _int64_minors(ring) -> bool:
    """Whether _residue_minors takes int64 residues over `ring`: Z/m with
    (m-1)^2 < 2^62, the gate of cauchy_binet and of the referee
    rdu.first_difference."""
    return ring.kind == "zmod" and (ring.modulus - 1) ** 2 < 2**62


def _residue_minors(x, m: int):
    """2 x 2 minors of a stack (..., n, n) of residues mod m, as the stack
    (..., C(n,2), C(n,2)) of their residues in x's dtype, pairs in
    lexicographic order.

    int64 needs (m-1)^2 < 2^62 (_int64_minors): every product is then
    below 2^62 and every minor above -2^62.  It also takes balanced
    residues, in [-floor(m/2), m-1-floor(m/2)], whose minors are at most
    2 floor(m/2)^2 <= 2^61 in absolute value for m <= 2^31; the result is
    canonical either way.  float64 takes non-negative integers up to e,
    not only residues, where e^2 + m <= 2^53 (for residues, e = m - 1, the
    ONE_LIMB answer of matrices._kernel at dim 1): every product is
    then an exact float64 in [0, e^2] and every minor one in [-e^2, e^2],
    reduced by the floor quotient of matrices._float64_reduce."""
    n = x.shape[-1]
    ac, bd, ad, bc = _minor_positions(n)
    flat = x.reshape(x.shape[:-2] + (n * n,))
    out = flat[..., ac] * flat[..., bd]
    out -= flat[..., ad] * flat[..., bc]
    if out.dtype == np.float64:
        return matrices._float64_reduce(out, m)
    out %= m
    return out


@lru_cache(maxsize=None)
def _minor_positions(n: int):
    """Flat positions in an n x n matrix of the four entries of every 2 x 2
    minor, pairs 0-based in lexicographic order: rows {a, b} and columns
    {c, d} give (a c, b d, a d, b c), each an N x N index array."""
    a, b = (np.array(indexing.pairs(n)) - 1).T
    ra, rb = a[:, None] * n, b[:, None] * n
    out = (ra + a, rb + b, ra + b, rb + a)
    for p in out:
        p.flags.writeable = False
    return out


def compound_pair(x: matrices.InvPair, n: int) -> matrices.InvPair:
    """Compound image of a certified pair; re-certified at construction."""
    return matrices.InvPair(cauchy_binet(x.fwd, n), cauchy_binet(x.bwd, n))


def ext_transvection(i: int, j: int, payload, n: int) -> PairWord:
    """Expansion of the compound image of t_{i,j}(xi) into n-2 letters.

    For every a outside {i, j} the word carries one letter at position
    (row {a,i}, column {a,j}) with argument sign(a,i) * sign(a,j) * xi; the
    positions do not interact, so any letter order yields the same product.
    For i < j this is the familiar three-block form (k < i, i < l < j,
    m > j); the i > j word uses the identical sign rule and is certified
    against the minor-matrix oracle below.
    """
    if n < 3:
        raise ValueError("rank too small")
    if not indexing._is_pair(i, j, n):
        raise ValueError("bad index")
    if isinstance(payload, rings.RingElement):
        payload = payload.payload
    word = _expansion(i, j, n, payload, _neg)
    _certify_expansion(i, j, n)
    return word


def _expansion(i: int, j: int, n: int, xi, neg) -> PairWord:
    # the letters of _letter_support, in its order, labelled by their pairs
    ps = indexing.pairs(n)
    rows, cols, signs = _letter_support(n, i, j)
    return PairWord(n, [
        (ps[r], ps[c], xi if s == 1 else neg(xi))
        for r, c, s in zip(rows.tolist(), cols.tolist(), signs.tolist())
    ])


def _neg(payload):
    # payloads here are either python ints (int / zmod handled by canon later)
    # or polynomial tuples; negation is ring independent in both encodings.
    if isinstance(payload, int):
        return -payload
    return tuple((exps, -coeff) for exps, coeff in payload)


@lru_cache(maxsize=None)
def _probe_ring():
    return rings.PolynomialRing(("x",))


@lru_cache(maxsize=None)
def _certify_expansion(i: int, j: int, n: int) -> bool:
    """One-time symbolic check: expansion product equals the minor matrix."""
    ring = _probe_ring()
    xi = ring.var("x")
    word = _expansion(i, j, n, xi, ring.neg)
    oracle = cauchy_binet(matrices.transvection(ring, n, i, j, xi), n)
    if word.eval(ring).fwd != oracle:
        raise AssertionError(
            f"transvection expansion ({i},{j}) disagrees with the minor matrix"
        )
    return True


def p_element(i: int, j: int, n: int) -> ExtWord:
    """Three-letter monomial word: compound of t_{i,j}(1) t_{j,i}(-1) t_{i,j}(1).

    Its source matrix sends e_i to -e_j and e_j to e_i, fixing the rest, so
    conjugation by it acts as a signed transposition on index positions.
    """
    if not indexing._is_pair(i, j, n):
        raise ValueError("bad index")
    return ExtWord(n, ((i, j, 1), (j, i, -1), (i, j, 1)))


@lru_cache(maxsize=None)
def route_target(k: int, l: int, n: int) -> ExtWord:
    """Word w with w (ext t_{2,3}(xi)) w^-1 = ext t_{k,l}(xi), sign-exact.

    Built from monomial moves that change one index at a time to a value
    outside the current pair.  Most targets need at most two moves; the
    fully swapped target (3, 2) needs three, going through a spare index.
    The route is certified symbolically once and cached.
    """
    if n < 4:
        raise ValueError("rank too small")
    if not indexing._is_pair(k, l, n):
        raise ValueError("bad index")
    # conjugations applied innermost first; conjugating by p_element(new, old)
    # moves a transvection's index old to new, as (2, 3) -> (k, 3) for (k, 2)
    if (k, l) == (2, 3):
        moves = ()
    elif k == 2:
        moves = ((l, 3),)
    elif l == 3:
        moves = ((k, 2),)
    elif (k, l) == (3, 2):  # via (spare, 3) and (spare, 2)
        spare = next(m for m in range(1, n + 1) if m not in (2, 3))
        moves = ((spare, 2), (2, 3), (3, spare))
    elif k == 3:  # via (2, l)
        moves = ((l, 3), (3, 2))
    elif l == 2:  # via (k, 3)
        moves = ((k, 2), (2, 3))
    else:  # via (k, 3)
        moves = ((k, 2), (l, 3))
    word = ExtWord(n)
    for new, old in moves:
        word = p_element(new, old, n) + word  # later moves conjugate on the outside
    _certify_target_route(word, k, l, n)
    return word


def _certify_target_route(word: ExtWord, k: int, l: int, n: int) -> None:
    """w t_23(x) w^-1 = t_kl(x) for the route's n x n matrix w, over Z[x].

    The left side is 1 + x (w e_2)(e_3^T w^-1), so the check is that column
    2 of w times row 3 of w^-1 is the matrix unit E_kl, sign included."""
    col = _column(word.letters, 2, n)
    row = _row(word.inverse(rings.IntegerRing()).letters, 3, n)
    if any(
        col[a] * row[b] != (a == k and b == l)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
    ):
        raise AssertionError(f"target route ({k},{l}) failed symbolic check")


@lru_cache(maxsize=None)
def route_source(I, J, n: int):
    """Word w and sign s with (W g W^-1) at ({1,3},{1,2}) = s * g at (I, J).

    I and J must be sorted pairs of height one.  The underlying permutation
    sends the common index to 1, the index only in I to 3 and the index only
    in J to 2, built greedily from at most three transpositions.  W being
    the compound of the word's n x n matrix x, s = W[{1,3}, I] W^-1[J, {1,2}]
    is the minor of x at rows {1,3} and columns I times the minor of x^-1
    at rows J and columns {1,2}, read from rows 1, 3 of x and columns 1, 2
    of x^-1.  A misplaced route reads 0 there, so the check that s is +-1
    covers the placement too.
    """
    I = tuple(I)
    J = tuple(J)
    if indexing.height(I, J) != 1:
        raise ValueError("height must be one")
    if n < 4:
        raise ValueError("rank too small")
    common = (set(I) & set(J)).pop()
    only_i = (set(I) - set(J)).pop()
    only_j = (set(J) - set(I)).pop()

    at = list(range(n + 1))  # the value now at each position
    word = ExtWord(n)
    for value, slot in ((common, 1), (only_i, 3), (only_j, 2)):
        pos = at.index(value)
        if pos != slot:
            word = p_element(slot, pos, n) + word
            at[pos], at[slot] = at[slot], at[pos]
    inverse = word.inverse(rings.IntegerRing()).letters
    s = _minor(_row(word.letters, 1, n), _row(word.letters, 3, n), I) * _minor(
        _column(inverse, 1, n), _column(inverse, 2, n), J
    )
    if s not in (1, -1):
        raise AssertionError("source route sign is not a unit")
    return word, s


def _row(letters, r: int, n: int):
    """Row r of the product of the n x n transvections t_ij(xi) of `letters`
    over Z, 1-based: e_r pushed through each of them in order."""
    v = [0] * (n + 1)
    v[r] = 1
    for i, j, xi in letters:
        v[j] += xi * v[i]
    return v


def _column(letters, c: int, n: int):
    """Column c of the same product: e_c pushed through each in reverse."""
    v = [0] * (n + 1)
    v[c] = 1
    for i, j, xi in reversed(letters):
        v[i] += xi * v[j]
    return v


def _minor(u, v, cols):
    """The 2 x 2 minor of the rows (or columns) u, v at the sorted pair cols."""
    a, b = cols
    return u[a] * v[b] - u[b] * v[a]
