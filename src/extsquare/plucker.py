"""Short Plucker relations and the compound-group membership criterion.

A vector of length C(n,2) is the coordinate vector of a decomposable
bivector exactly when every short Plucker polynomial vanishes on it; every
column of a compound matrix has this property.  Membership of a whole
N x N matrix in the compound group is decided by the bilinear sums
a^H_{A,C}: they must vanish whenever A and C overlap, and be equal (after
an orientation weight) across all disjoint splittings of a common support.

Over Z/m where matrices._kernel(ring, 6) gives a kernel, is_member
decides with batched float64 products that hold every a^H_{A,C};
elsewhere the a_sum loop of _first_violation decides.  That loop is also
the referee the float64 path is tested against, and the check behind
certify.criterion_suite.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import indexing, matrices


class PairVector:
    """Length-C(n,2) coordinate vector indexed by two-element subsets of [n]."""

    __slots__ = ("n", "ring", "entries")

    def __init__(self, n: int, ring, entries):
        entries = tuple(ring.coerce(x) for x in entries)
        if len(entries) != indexing.dim(n):
            raise ValueError("dimension mismatch")
        self.n = n
        self.ring = ring
        self.entries = entries

    def at(self, pair):
        return self.entries[indexing.rank(tuple(sorted(pair)), self.n)]

    def signed_at(self, a: int, b: int):
        """Coordinate in antisymmetric labelling: zero when a == b."""
        if a == b:
            return self.ring.zero
        pair, s = indexing.canon(a, b)
        value = self.entries[indexing.rank(pair, self.n)]
        return value if s == 1 else self.ring.neg(value)

    def __eq__(self, other):
        if not isinstance(other, PairVector):
            return NotImplemented
        return (
            self.n == other.n
            and self.ring == other.ring
            and self.entries == other.entries
        )

    @classmethod
    def zero(cls, n: int, ring):
        return cls(n, ring, (ring.zero,) * indexing.dim(n))

    @classmethod
    def basis(cls, n: int, ring, pair):
        entries = [ring.zero] * indexing.dim(n)
        entries[indexing.rank(tuple(sorted(pair)), n)] = ring.one
        return cls(n, ring, entries)

    @classmethod
    def column_of(cls, m: matrices.Matrix, n: int, pair):
        return cls(n, m.ring, m.column(indexing.rank(tuple(sorted(pair)), n)))


def plucker_poly(i: int, J, w: PairVector):
    """Value of the short relation attached to i in [n] and a 3-subset J.

    With J = (j1 < j2 < j3) the relation is the alternating sum over t of
    w_{J \\ j_t} * w_{(j_t, i)}, the second factor in antisymmetric
    labelling.  For i inside J the terms cancel identically and the value
    is zero.
    """
    ring = w.ring
    J = tuple(sorted(J))
    if len(J) != 3 or len(set(J)) != 3:
        raise ValueError("bad index: J must be a 3-subset")
    if not 1 <= i <= w.n:
        raise ValueError("bad index")
    total = ring.zero
    sign = 1
    for t in range(3):
        jt = J[t]
        rest = tuple(x for x in J if x != jt)
        term = ring.mul(w.at(rest), w.signed_at(jt, i))
        total = ring.add(total, term if sign == 1 else ring.neg(term))
        sign = -sign
    return total


def column_satisfies(w: PairVector) -> bool:
    """True when every short Plucker polynomial vanishes on w."""
    ring = w.ring
    for i in range(1, w.n + 1):
        for J in indexing.triples(w.n):
            if not ring.is_zero(plucker_poly(i, J, w)):
                return False
    return True


def a_sum(g: matrices.Matrix, H, A, C, n: int):
    """Bilinear membership sum over the six ordered splittings of H.

    Sum of shuffle_sign(B, D) * g_{B,A} * g_{D,C} over ordered pairs of
    disjoint pairs B, D with union H.
    """
    ring = g.ring
    rA = indexing.rank(tuple(A), n)
    rC = indexing.rank(tuple(C), n)
    total = ring.zero
    for B, D in indexing.splittings(tuple(sorted(H))):
        s = indexing.shuffle_sign(B, D)
        term = ring.mul(
            g.at(indexing.rank(B, n), rA), g.at(indexing.rank(D, n), rC)
        )
        total = ring.add(total, term if s == 1 else ring.neg(term))
    return total


def is_member(g: matrices.Matrix, n: int | None = None) -> bool:
    """Membership of an invertible N x N matrix in the compound group.

    Checks both criterion families exhaustively: a^H_{A,C} = 0 whenever A
    and C intersect, and shuffle_sign(A,C) * a^H_{A,C} constant over the six
    disjoint ordered splittings (A, C) of each 4-subset.  Invertibility of g
    is the caller's responsibility.

    Where matrices._kernel(ring, 6) gives a kernel (one limb or several)
    the float64 path decides, comparing every sum of both families exactly;
    elsewhere the a_sum loop of _first_violation, the referee of the
    float64 path, decides.
    """
    if n is None:
        n = indexing.ambient_rank(g.dim)
    if g.dim != indexing.dim(n):
        raise ValueError("dimension mismatch")
    ring = g.ring
    s = matrices._kernel(ring, 6)
    if s is None:
        return _first_violation(g, n) is None
    return _is_member_float64(g._residues(np.float64), ring.modulus, n, s)


def _first_violation(g: matrices.Matrix, n: int):
    """The first failed membership relation in scan order, or None.

    One a_sum call per (H, A, C): the naive form of the criterion, and the
    only one over Z, polynomial rings and moduli with no float64 product.
    """
    ring = g.ring
    ps = indexing.pairs(n)
    for H in indexing.quads(n):
        for A in ps:
            for C in ps:
                if set(A) & set(C):
                    if not ring.is_zero(a_sum(g, H, A, C, n)):
                        return f"H={H} A={A} C={C}"
        for S in indexing.quads(n):
            ref = None
            for A, C in indexing.splittings(S):
                value = a_sum(g, H, A, C, n)
                if indexing.shuffle_sign(A, C) == -1:
                    value = ring.neg(value)
                if ref is None:
                    ref = value
                elif value != ref:
                    return f"H={H} S={S} split {A},{C}"
    return None


# float64 entries per block of _is_member_float64: 64 KiB.  Every per-block
# array then stays below glibc's 128 KiB mmap threshold, so repeated calls
# reuse heap memory instead of mapping fresh pages, whatever state earlier
# allocations left the allocator in.
_BLOCK_ENTRIES = 1 << 13


@lru_cache(maxsize=16)
def _split_ranks(n: int):
    """Ranks of B and of D over the ordered splittings (B, D) of each 4-subset."""
    ranks = np.array(
        [
            [(indexing.rank(B, n), indexing.rank(D, n)) for B, D in indexing.splittings(H)]
            for H in indexing.quads(n)
        ],
        dtype=np.intp,
    ).reshape(-1, 6, 2)
    ranks.flags.writeable = False
    return ranks[..., 0], ranks[..., 1]


@lru_cache(maxsize=16)
def _overlap_mask(n: int):
    """N x N mask of the pairs (A, C) that share an index."""
    ps = indexing.pairs(n)
    mask = np.array([[bool(set(A) & set(C)) for C in ps] for A in ps])
    mask.flags.writeable = False
    return mask


def _is_member_float64(data, m: int, n: int, s) -> bool:
    """Both criterion families for a float64 residue matrix mod m, by
    blocks of H.

    M[h, a, c] = a^H_{A,C} for the h-th 4-subset H and pairs of rank a, c,
    built as a batched product of the signed B rows and the D rows, of inner
    dimension 6, by matrices._chain_matmul at the kernel s of
    matrices._kernel(ring, 6), whose bounds hold for a left factor in
    (-m, m), and made canonical there.  Shuffle signs are read afresh
    on every call, so a replaced indexing.shuffle_sign takes effect at once;
    only the index combinatorics is cached.  A block's (block, N, N) and
    (block, Q, 6) arrays hold at most _BLOCK_ENTRIES entries together (a
    single block up to n = 6), and the first block with a failed relation
    ends the scan.
    """
    rB, rD = _split_ranks(n)
    sign = np.array(
        [
            indexing.shuffle_sign(B, D)
            for H in indexing.quads(n)
            for B, D in indexing.splittings(H)
        ],
        dtype=np.float64,
    ).reshape(-1, 6)
    overlap = _overlap_mask(n)
    left = data[rB]  # (Q, 6, N)
    left *= sign[:, :, None]
    left = left.transpose(0, 2, 1)
    right = data[rD]  # (Q, 6, N)
    Q, N = len(sign), len(data)
    block = max(1, _BLOCK_ENTRIES // (N * N + 6 * Q))
    for lo in range(0, Q, block):
        M = matrices._chain_matmul(left[lo : lo + block], [right[lo : lo + block]], m, s)
        if M[:, overlap].any():
            return False
        # for every S, sign(A, C) * a^H_{A,C} over the six splittings (A, C)
        # of S must be one value; the signed values lie in (-m, m)
        split = M[:, rB, rD]  # (block, Q, 6)
        split *= sign
        matrices._float64_reduce(split, m)
        if not (split == split[:, :, :1]).all():
            return False
    return True


def parabolic_zero_check(g: matrices.Matrix, I, n: int | None = None) -> bool:
    """Zero block forced by a trivial column.

    Requires column I of g to be the standard basis column; then checks
    g_{K,J} = 0 for every K avoiding I entirely and every J meeting I in
    exactly one index, as one Matrix._equals_at over the block's positions
    (cached per (I, n, ring)).
    """
    if n is None:
        n = indexing.ambient_rank(g.dim)
    ring = g.ring
    I = tuple(sorted(I))
    rI = indexing.rank(I, n)
    e_col = [ring.zero] * g.dim
    e_col[rI] = ring.one
    if g.column(rI) != tuple(e_col):
        raise ValueError("precondition: column is not standard")
    return g._equals_at(*_zero_block(I, n, ring))


@lru_cache(maxsize=64)
def _zero_block(I, n: int, ring):
    """The zero block of parabolic_zero_check, as matrices._identity_at
    gives it (the block is off the diagonal, so its payloads are zeros):
    every rank of a pair K avoiding the sorted pair I against every rank of
    a pair J meeting it in exactly one index."""
    ps = indexing.pairs(n)
    K = [indexing.rank(K, n) for K in ps if not set(K) & set(I)]
    J = [indexing.rank(J, n) for J in ps if indexing.height(I, J) == 1]
    mask = np.zeros((len(ps),) * 2, dtype=bool)
    mask[np.ix_(K, J)] = True
    return matrices._identity_at(ring, mask)
