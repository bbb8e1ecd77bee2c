"""Short relations, membership criterion, parabolic zero blocks."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extsquare import exterior, generate, indexing, matrices, plucker, rings


def _compound(n, ring, rng, length=12):
    return generate.compound_of_random(n, ring, length, rng).fwd


def test_relations_vanish_on_compound_columns(zmod97):
    rng = random.Random(30)
    for n in (4, 5, 6):
        for _ in range(10):
            m = _compound(n, zmod97, rng)
            col = plucker.PairVector.column_of(m, n, (1, 2))
            assert plucker.column_satisfies(col)


def test_relation_zero_when_index_inside(zmod97):
    rng = random.Random(31)
    w = plucker.PairVector(
        5, zmod97, [zmod97.random(rng) for _ in range(10)]
    )
    for i in (3, 4, 5):
        assert zmod97.is_zero(plucker.plucker_poly(i, (3, 4, 5), w))


def test_basis_column_satisfies(zmod97):
    w = plucker.PairVector.basis(5, zmod97, (1, 2))
    assert plucker.column_satisfies(w)


def test_rank_two_counterexample(integers):
    # w with exactly two complementary coordinates set: the single relation
    # -w12*w34 + w13*w24 - w14*w23 evaluates to -1, so membership fails
    n = 4
    entries = [0] * indexing.dim(n)
    entries[indexing.rank((1, 2), n)] = 1
    entries[indexing.rank((3, 4), n)] = 1
    w = plucker.PairVector(n, integers, entries)
    value = plucker.plucker_poly(1, (2, 3, 4), w)
    hand = -(w.at((1, 2)) * w.at((3, 4))) + w.at((1, 3)) * w.at((2, 4)) - w.at(
        (1, 4)
    ) * w.at((2, 3))
    assert hand == -1
    assert value == hand
    assert not plucker.column_satisfies(w)


def test_a_sum_identity_complementary(integers):
    # only the splitting B=A, D=C survives on the identity matrix
    g = matrices.identity(integers, 6)
    assert plucker.a_sum(g, (1, 2, 3, 4), (1, 2), (3, 4), 4) == 1
    assert plucker.a_sum(g, (1, 2, 3, 4), (1, 3), (2, 4), 4) == -1


def test_a_sum_vanishes_on_overlapping_columns(zmod97):
    rng = random.Random(32)
    for n in (4, 5):
        m = _compound(n, zmod97, rng)
        for H in indexing.quads(n):
            for A in indexing.pairs(n):
                for C in indexing.pairs(n):
                    if set(A) & set(C):
                        assert zmod97.is_zero(plucker.a_sum(m, H, A, C, n))


def test_is_member_identity(zmod97):
    assert plucker.is_member(matrices.identity(zmod97, 10), 5)


def test_is_member_compound(zmod97):
    rng = random.Random(33)
    for n in (4, 5, 6):
        for _ in range(5):
            assert plucker.is_member(_compound(n, zmod97, rng), n)


def test_is_member_rejects_bad_diagonal(zmod97):
    rows = [[0] * 6 for _ in range(6)]
    for r in range(6):
        rows[r][r] = 1
    rows[5][5] = 2  # invertible but not a compound image
    assert not plucker.is_member(matrices.Matrix(zmod97, rows), 4)


def test_is_member_perturbation_trials(zmod97):
    # single-entry perturbations of a compound matrix: report, expect mostly
    # failures, but assert only that the criterion can reject
    rng = random.Random(34)
    n = 4
    rejected = 0
    trials = 100
    for _ in range(trials):
        m = _compound(n, zmod97, rng)
        rows = [list(r) for r in m.rows]
        r = rng.randrange(m.dim)
        c = rng.randrange(m.dim)
        rows[r][c] = zmod97.add(rows[r][c], 1)
        if not plucker.is_member(matrices.Matrix(zmod97, rows), n):
            rejected += 1
    print(f"perturbation trials rejected: {rejected}/{trials}")
    assert rejected > 0


def test_parabolic_zero_check_identity(zmod97):
    assert plucker.parabolic_zero_check(matrices.identity(zmod97, 10), (1, 2), 5)


def test_parabolic_zero_check_precondition(zmod97):
    rng = random.Random(35)
    m = _compound(5, zmod97, rng)
    with pytest.raises(ValueError):
        plucker.parabolic_zero_check(m, (1, 2), 5)


def test_parabolic_zero_check_transvection_image(poly_xi):
    xi = poly_xi.var("xi")
    m = exterior.cauchy_binet(matrices.transvection(poly_xi, 5, 3, 4, xi), 5)
    assert plucker.parabolic_zero_check(m, (1, 2), 5)


def _zero_block_loop(g, I, n):
    """The zero block of parabolic_zero_check as a loop over label pairs: the
    referee of its index arrays."""
    for K in indexing.pairs(n):
        if set(K) & set(I):
            continue
        for J in indexing.pairs(n):
            if indexing.height(I, J) != 1:
                continue
            if not g.ring.is_zero(g.at(indexing.rank(K, n), indexing.rank(J, n))):
                return False
    return True


@pytest.mark.parametrize(
    "ring",
    [rings.ModularRing(97), rings.ModularRing(2**31 - 1), rings.PolynomialRing(("x",))],
    ids=["zmod97", "zmod-wide", "poly"],
)
def test_zero_block_index_arrays_agree_with_the_pair_loop(ring):
    # random matrices with a standard column at I and a zero block, then one
    # nonzero planted inside the block or outside it
    rng = random.Random(40)
    for n in (4, 5, 6):
        N = indexing.dim(n)
        for I in indexing.pairs(n):
            rI = indexing.rank(I, n)
            block = [
                (indexing.rank(K, n), indexing.rank(J, n))
                for K in indexing.pairs(n)
                if not set(K) & set(I)
                for J in indexing.pairs(n)
                if indexing.height(I, J) == 1
            ]
            outside = [
                (r, c) for r in range(N) for c in range(N) if c != rI and (r, c) not in block
            ]
            for plant in ((), block, outside):
                rows = [[ring.random(rng) for _ in range(N)] for _ in range(N)]
                for r, c in block:
                    rows[r][c] = ring.zero
                for r in range(N):
                    rows[r][rI] = ring.one if r == rI else ring.zero
                if plant:
                    r, c = rng.choice(plant)
                    rows[r][c] = ring.coerce(rng.randint(1, 96))
                g = matrices.Matrix(ring, rows)
                got = plucker.parabolic_zero_check(g, I, n)
                assert got == _zero_block_loop(g, I, n)
                assert got == (plant is not block), (n, I)


def _parabolic_compound(n, ring, rng):
    # block upper-triangular source with a unit-determinant top 2x2 block
    word = []
    for _ in range(6):
        word.append((1, 2, ring.random(rng)))
        word.append((2, 1, ring.random(rng)))
    for i in range(1, 3):
        for j in range(3, n + 1):
            word.append((i, j, ring.random(rng)))
    for i in range(3, n + 1):
        for j in range(3, n + 1):
            if i != j:
                word.append((i, j, ring.random(rng)))
    from extsquare.words import TransvWord

    x = TransvWord(n, word).eval(ring).fwd
    return exterior.cauchy_binet(x, n)


def test_trivial_column_reduces_a_sum(zmod97):
    # with a standard column at A, the six-term sum collapses to a single
    # signed entry
    rng = random.Random(36)
    n = 5
    A = (1, 2)
    for _ in range(100):
        g = _parabolic_compound(n, zmod97, rng)
        assert plucker.parabolic_zero_check(g, A, n)
        for H in indexing.quads(n):
            if not set(A) <= set(H):
                continue
            rest = tuple(x for x in H if x not in A)
            s = indexing.shuffle_sign(A, rest)
            for C in indexing.pairs(n):
                expected = g.at(indexing.rank(rest, n), indexing.rank(C, n))
                if s == -1:
                    expected = zmod97.neg(expected)
                assert plucker.a_sum(g, H, A, C, n) == expected


def _near_member(g, r, c, delta):
    rows = [list(row) for row in g.rows]
    rows[r][c] = g.ring.add(rows[r][c], delta)
    return matrices.Matrix(g.ring, rows)


def _agrees_with_referee(g, n):
    got = plucker.is_member(g, n)
    assert got == (plucker._first_violation(g, n) is None)
    return got


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(4, 7),
    seed=st.integers(0, 2**32 - 1),
    spot=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 96)),
)
def test_int64_path_agrees_with_referee(n, seed, spot):
    ring = rings.ModularRing(97)
    g = _compound(n, ring, random.Random(seed))
    assert _agrees_with_referee(g, n)
    r, c, delta = spot
    _agrees_with_referee(_near_member(g, r % g.dim, c % g.dim, delta), n)


# The float64 bounds at inner dimension 6: the largest modulus with one limb,
# 6 (m-1)^2 + m <= 2^53, and the largest with any limb, (m-1) 8 + m <= 2^53.
_ONE_LIMB_EDGE = 38_745_321
_LIMB_EDGE = (2**53 + 8) // 9
# The int64 bounds the path had before it ran in float64: now two moduli in
# the limb range, and two past every limb.
_FORMER_EDGES = [876706517, 876706559, 768614336404564651, 768614336404564652]


@pytest.mark.parametrize("m", [_ONE_LIMB_EDGE, _ONE_LIMB_EDGE + 1, _LIMB_EDGE, _LIMB_EDGE + 1] + _FORMER_EDGES)
def test_int64_guard_edges_agree_with_referee(m):
    # both sides of the one-limb bound at inner dimension 6, and of the
    # limb bound; at n = 5, Z/_LIMB_EDGE stores g in python ints
    ring = rings.ModularRing(m)
    assert (matrices._kernel(ring, 6) == matrices.ONE_LIMB) == (m <= _ONE_LIMB_EDGE)
    assert (matrices._kernel(ring, 6) is None) == (m > _LIMB_EDGE)
    rng = random.Random(m)
    for n in (4, 5):
        g = _compound(n, ring, rng)
        assert _agrees_with_referee(g, n)
        near = _near_member(g, rng.randrange(g.dim), rng.randrange(g.dim), m - 1)
        assert not _agrees_with_referee(near, n)
        full = matrices.Matrix(ring, [[m - 1] * g.dim for _ in range(g.dim)])
        assert not _agrees_with_referee(full, n)


@pytest.mark.parametrize("m", [_ONE_LIMB_EDGE, _ONE_LIMB_EDGE + 1, 2**31 - 1, _LIMB_EDGE])
def test_a_signed_all_top_left_factor_stays_exact(monkeypatch, m):
    # an all-(m-1) g makes the left factor of the a-sum products +-(m-1) in
    # every entry, the largest the float64 bounds allow for a signed factor:
    # each product equals the one over Z reduced mod m, at one limb, at the
    # widest limbs, at two limbs and at one-bit limbs, and is_member agrees
    # with _first_violation
    ring, n = rings.ModularRing(m), 5
    N = indexing.dim(n)
    g = matrices.Matrix(ring, [[m - 1] * N for _ in range(N)])
    seen = []
    product = matrices._kernel_matmul

    def spy(a, b, modulus, s):
        out = product(a, b, modulus, s)
        seen.append((a, b, out.copy()))
        return out

    monkeypatch.setattr(matrices, "_kernel_matmul", spy)
    assert not _agrees_with_referee(g, n)
    assert seen
    for a, b, out in seen:
        assert (abs(a) == m - 1).all() and (a < 0).any() and (a > 0).any()
        exact = a.astype(np.int64).astype(object) @ b.astype(np.int64).astype(object)
        assert (out.astype(np.int64) % m == exact % m).all()


@pytest.mark.parametrize("block_entries", [1, 2000])
def test_int64_blocks_agree_with_referee(monkeypatch, zmod97, block_entries):
    # one 4-subset per block, and blocks that split the 4-subsets unevenly
    monkeypatch.setattr(plucker, "_BLOCK_ENTRIES", block_entries)
    rng = random.Random(39)
    for n in (5, 6):
        g = _compound(n, zmod97, rng)
        assert _agrees_with_referee(g, n)
        for r in (0, g.dim // 2, g.dim - 1):
            assert not _agrees_with_referee(_near_member(g, r, rng.randrange(g.dim), 1), n)


def _refuse(*_args):
    raise AssertionError("wrong membership path")


@pytest.mark.parametrize("m", [97, _ONE_LIMB_EDGE, _ONE_LIMB_EDGE + 1, 876706517, 876706559, 2**31 - 1, _LIMB_EDGE])
def test_int64_path_decides_inside_the_guard(monkeypatch, m):
    # one limb for the first two moduli, limbs of 24, 20, 20, 19 and 1 bits
    # for the others
    ring = rings.ModularRing(m)
    rng = random.Random(37)
    found = [(n, _compound(n, ring, rng)) for n in range(4, 9)]
    monkeypatch.setattr(plucker, "_first_violation", _refuse)
    monkeypatch.setattr(plucker, "a_sum", _refuse)
    widths = set()
    product = matrices._kernel_matmul

    def spy(a, b, modulus, s):
        widths.add(s)
        return product(a, b, modulus, s)

    monkeypatch.setattr(matrices, "_kernel_matmul", spy)
    for n, g in found:
        assert plucker.is_member(g, n)
        assert not plucker.is_member(_near_member(g, 3, 4, 1), n)
        assert not plucker.is_member(_near_member(g, g.dim - 1, 0, m - 1), n)
    # the a-sum blocks multiply at the kernel's own width, limbs included
    assert widths == {matrices._kernel(ring, 6)}


@pytest.mark.parametrize("ring", [rings.IntegerRing(), rings.ModularRing(2**61 - 1),
                                  rings.ModularRing(2**62 + 1)])
def test_generic_path_decides_past_the_guard(monkeypatch, ring):
    # Z, a modulus with no limb width at dim 6, and one with m >= 2^62
    g = _compound(4, ring, random.Random(38))
    monkeypatch.setattr(plucker, "_is_member_float64", _refuse)
    assert plucker.is_member(g, 4)
    assert not plucker.is_member(_near_member(g, 3, 4, 1), 4)
