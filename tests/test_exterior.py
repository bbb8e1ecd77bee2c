"""Compound map, transvection expansions, monomial elements, routing."""

import random

import pytest

from extsquare import exterior, generate, indexing, matrices, rings, words
from extsquare.words import ext_letter_matrix


def test_compound_of_identity(zmod97):
    e = matrices.identity(zmod97, 5)
    assert exterior.cauchy_binet(e, 5) == matrices.identity(zmod97, 10)


def test_compound_of_diagonal():
    ring = rings.PolynomialRing(("a", "b", "c"))
    a, b, c = (ring.var(v) for v in "abc")
    x = matrices.Matrix(
        ring,
        [
            [a, ring.zero, ring.zero],
            [ring.zero, b, ring.zero],
            [ring.zero, ring.zero, c],
        ],
    )
    m = exterior.cauchy_binet(x, 3)
    assert m.at(0, 0) == ring.mul(a, b)
    assert m.at(1, 1) == ring.mul(a, c)
    assert m.at(2, 2) == ring.mul(b, c)
    for r in range(3):
        for c_ in range(3):
            if r != c_:
                assert m.at(r, c_) == ring.zero


def test_compound_is_multiplicative(zmod97):
    rng = random.Random(20)
    for _ in range(30):
        x = generate.source_pair(4, zmod97, 10, rng).fwd
        y = generate.source_pair(4, zmod97, 10, rng).fwd
        lhs = exterior.cauchy_binet(x.mul(y), 4)
        rhs = exterior.cauchy_binet(x, 4).mul(exterior.cauchy_binet(y, 4))
        assert lhs == rhs


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize(
    "modulus,int64", [(97, True), (2**31, True), (2**31 + 1, False)],
    ids=["97", "2^31", "2^31+1"],
)
def test_minors_over_zmod_equal_the_integer_minors_reduced(n, modulus, int64):
    # the int64 branch up to (m-1)^2 < 2^62, the ring loop past it
    ring = rings.ModularRing(modulus)
    assert exterior._int64_minors(ring) is int64
    rng = random.Random(n)
    integers = rings.IntegerRing()
    top = modulus - 1
    for rows in (
        [[top] * n for _ in range(n)],
        [[rng.choice((0, 1, top, rng.randrange(modulus))) for _ in range(n)] for _ in range(n)],
    ):
        want = exterior.cauchy_binet(matrices.Matrix(integers, rows), n)
        got = exterior.cauchy_binet(matrices.Matrix(ring, rows), n)
        assert got.rows == tuple(tuple(v % modulus for v in row) for row in want.rows)


def test_compound_rejects_small_rank(zmod97):
    with pytest.raises(ValueError):
        exterior.cauchy_binet(matrices.identity(zmod97, 2), 2)


def test_expansion_letters_worked_example(poly_xi):
    xi = poly_xi.var("xi")
    word = exterior.ext_transvection(1, 3, xi, 5)
    assert word.letters == (
        ((1, 2), (2, 3), poly_xi.neg(xi)),
        ((1, 4), (3, 4), xi),
        ((1, 5), (3, 5), xi),
    )


def test_expansion_length_and_oracle_ascending(poly_xi):
    xi = poly_xi.var("xi")
    word = exterior.ext_transvection(2, 3, xi, 4)
    assert len(word) == 2
    oracle = exterior.cauchy_binet(matrices.transvection(poly_xi, 4, 2, 3, xi), 4)
    assert word.eval(poly_xi).fwd == oracle


def test_expansion_oracle_descending(poly_xi):
    xi = poly_xi.var("xi")
    word = exterior.ext_transvection(3, 1, xi, 4)
    oracle = exterior.cauchy_binet(matrices.transvection(poly_xi, 4, 3, 1, xi), 4)
    assert word.eval(poly_xi).fwd == oracle


def test_letter_matrix_matches_oracle_everywhere(poly_xi):
    xi = poly_xi.var("xi")
    for n in (3, 4, 5):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                oracle = exterior.cauchy_binet(
                    matrices.transvection(poly_xi, n, i, j, xi), n
                )
                assert ext_letter_matrix(poly_xi, n, i, j, xi) == oracle


def test_p_element_is_signed_permutation(integers):
    for i, j in ((1, 2), (3, 1), (2, 4)):
        m = exterior.p_element(i, j, 4).eval(integers).fwd
        for r in range(m.dim):
            nonzero = [m.at(r, c) for c in range(m.dim) if m.at(r, c) != 0]
            assert len(nonzero) == 1 and nonzero[0] in (1, -1)
        for c in range(m.dim):
            nonzero = [m.at(r, c) for r in range(m.dim) if m.at(r, c) != 0]
            assert len(nonzero) == 1 and nonzero[0] in (1, -1)


def test_monomial_row_and_column_moves(poly_xi):
    xi = poly_xi.var("xi")
    n = 5
    for (i, j, k) in ((1, 2, 3), (2, 3, 5), (4, 2, 1)):
        t = ext_letter_matrix(poly_xi, n, i, j, xi)
        p_ki = exterior.p_element(k, i, n).eval(poly_xi)
        assert p_ki.fwd.mul(t).mul(p_ki.bwd) == ext_letter_matrix(poly_xi, n, k, j, xi)
        p_kj = exterior.p_element(k, j, n).eval(poly_xi)
        assert p_kj.fwd.mul(t).mul(p_kj.bwd) == ext_letter_matrix(poly_xi, n, i, k, xi)


def test_route_target_shapes():
    n = 5
    assert len(exterior.route_target(2, 3, n)) == 0
    assert exterior.route_target(4, 3, n) == exterior.p_element(4, 2, n)
    assert len(exterior.route_target(1, 4, n)) == 6
    # the double collision (3, 2) is the one case needing three moves
    assert len(exterior.route_target(3, 2, n)) == 9


def test_route_target_moves_letters(poly_xi):
    # the dense N x N oracle of the n x n route certificate: W t23(xi) W^-1
    # equals t_kl(xi) with every exterior letter a matrix over Z[xi]
    xi = poly_xi.var("xi")
    for n in (4, 5, 6, 7):
        t23 = ext_letter_matrix(poly_xi, n, 2, 3, xi)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k == l:
                    continue
                w = exterior.route_target(k, l, n).eval(poly_xi)
                moved = w.fwd.mul(t23).mul(w.bwd)
                assert moved == ext_letter_matrix(poly_xi, n, k, l, xi), (n, k, l)


def test_routes_at_n10_need_no_exterior_letter(monkeypatch):
    # sources and targets are built and checked in n x n only
    def refuse(*args, **kwargs):
        raise AssertionError("a route used an N x N letter or product")

    for name in ("vec_mat", "mat_vec"):
        monkeypatch.setattr(matrices, name, refuse)
    monkeypatch.setattr(words, "ext_letter_matrix", refuse)
    monkeypatch.setattr(words.ExtWord, "eval", refuse)
    exterior.route_source.cache_clear()
    exterior.route_target.cache_clear()
    n = 10
    signs = {exterior.route_source(I, J, n)[1] for I, J in _height_one_pairs(n)}
    assert signs == {1, -1}
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k != l:
                exterior.route_target(k, l, n)


def test_route_source_trivial_case():
    word, s = exterior.route_source((1, 3), (1, 2), 5)
    assert len(word) == 0 and s == 1


def test_route_source_requires_height_one():
    with pytest.raises(ValueError):
        exterior.route_source((1, 2), (3, 4), 5)


def _height_one_pairs(n):
    return [
        (I, J)
        for I in indexing.pairs(n)
        for J in indexing.pairs(n)
        if indexing.height(I, J) == 1
    ]


def test_route_source_places_entry(zmod97):
    rng = random.Random(21)
    for n in (4, 5, 6, 7):
        r13 = indexing.rank((1, 3), n)
        r12 = indexing.rank((1, 2), n)
        for I, J in _height_one_pairs(n):
            word, s = exterior.route_source(I, J, n)
            g = generate.compound_of_random(n, zmod97, 12, rng)
            w = word.eval(zmod97)
            routed = w.fwd.mul(g.fwd).mul(w.bwd)
            expected = g.fwd.at(indexing.rank(I, n), indexing.rank(J, n))
            got = routed.at(r13, r12)
            assert got == (expected if s == 1 else zmod97.neg(expected)), (n, I, J)


def _probe_sign(word, I, J, n):
    """The route sign read off a dense probe: W E_IJ W^-1 over Z at
    ({1,3}, {1,2}), with W the word's matrix."""
    ring = rings.IntegerRing()
    N = indexing.dim(n)
    probe_rows = [[0] * N for _ in range(N)]
    probe_rows[indexing.rank(I, n)][indexing.rank(J, n)] = 1
    probe = matrices.Matrix(ring, probe_rows)
    w = word.eval(ring)
    routed = w.fwd.mul(probe).mul(w.bwd)
    return routed.at(indexing.rank((1, 3), n), indexing.rank((1, 2), n))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_route_sign_read_through_vectors_equals_the_probe_sign(n):
    signs = set()
    for I, J in _height_one_pairs(n):
        word, s = exterior.route_source(I, J, n)
        assert s == _probe_sign(word, I, J, n), (I, J)
        signs.add(s)
    assert signs == {1, -1}


def test_compound_pair_certifies(zmod97):
    x = generate.source_pair(5, zmod97, 10, random.Random(22))
    p = exterior.compound_pair(x, 5)
    assert p.fwd.mul(p.bwd).is_identity()
