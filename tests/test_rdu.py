"""The decomposition engine: cases, certificates, verification, errors."""

import random

import pytest

from extsquare import exterior, generate, indexing, level, matrices, plucker, rdu, rings, words
from extsquare.words import ConjWord, ext_letter_matrix


def _engine(n, seed, ring=None, length=15):
    ring = ring or rings.ModularRing(97)
    g = generate.compound_of_random(n, ring, length, generate.rng_for(seed, "rdu", n))
    return g, rdu.ReverseDecomposer(g, n)


def test_canonical_entry_instance():
    # the (13, 12) entry decomposes at (2, 3) with the entry itself as the
    # realized argument
    g, eng = _engine(4, 1)
    d = eng.entry((1, 3), (1, 2), 2, 3)
    assert d.case == "h1-entry"
    assert len(d.word) == 8
    assert d.param == g.fwd.at(indexing.rank((1, 3), 4), indexing.rank((1, 2), 4))
    assert rdu.verify(d.word, g, 2, 3, d.param, 4)
    assert all(ok for _, ok in d.certificates)


def test_identity_matrix_gives_zero_params(zmod97):
    g = matrices.identity_pair(zmod97, 6)
    eng = rdu.ReverseDecomposer(g, 4)
    d = eng.entry((1, 3), (1, 2), 2, 3)
    assert zmod97.is_zero(d.param)
    assert d.word.eval_matrix(g).is_identity()
    d2 = eng.diagonal((1, 2), (3, 4), 2, 3)
    assert zmod97.is_zero(d2.param)
    assert len(d2.word) == 48


def test_all_cases_lengths_and_verification():
    g, eng = _engine(5, 2)
    n = 5
    cases = [
        (eng.entry((1, 3), (1, 2), 2, 3), "h1-entry", 8),
        (eng.entry((1, 2), (3, 4), 4, 1), "h0-entry", 16),
        (eng.diagonal((1, 2), (1, 3), 3, 2), "h1-diag", 24),
        (eng.diagonal((1, 2), (3, 4), 5, 1), "h0-diag", 48),
    ]
    for d, case, length in cases:
        assert d.case == case
        assert len(d.word) == length
        assert rdu.verify(d.word, g, d.k, d.l, d.param, n)


def test_entry_param_is_exact_entry():
    g, eng = _engine(4, 3)
    n = 4
    for I in indexing.pairs(n):
        for J in indexing.pairs(n):
            if I == J:
                continue
            d = eng.entry(I, J, 2, 3)
            assert d.param == g.fwd.at(indexing.rank(I, n), indexing.rank(J, n))


def test_diagonal_param_is_difference():
    g, eng = _engine(4, 4)
    n = 4
    d = eng.diagonal((1, 2), (1, 4), 2, 3)
    rI, rJ = indexing.rank((1, 2), n), indexing.rank((1, 4), n)
    ring = g.ring
    assert d.param == ring.sub(g.fwd.at(rI, rI), g.fwd.at(rJ, rJ))


def test_flipped_exponent_fails_verification():
    g, eng = _engine(4, 5)
    d = eng.entry((2, 3), (2, 4), 2, 3)
    assert rdu.verify(d.word, g, 2, 3, d.param, 4)
    flipped = list(d.word.terms)
    eps, h = flipped[3]
    flipped[3] = (-eps, h)
    bad = ConjWord(4, flipped)
    assert not rdu.verify(bad, g, 2, 3, d.param, 4)


def test_verify_does_not_use_the_factored_evaluator(monkeypatch):
    # the referee must not share the optimized evaluator it referees
    g, eng = _engine(5, 11)
    d = eng.diagonal((1, 2), (3, 4), 5, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the referee called the factored evaluator")

    monkeypatch.setattr(ConjWord, "eval_matrix", refuse)
    monkeypatch.setattr(words, "_conj_product", refuse)
    assert rdu.verify(d.word, g, d.k, d.l, d.param, 5)
    assert not rdu.verify(d.word, g, d.k, d.l, g.ring.add(d.param, 1), 5)


def test_dispatch_matches_height():
    g, eng = _engine(4, 6)
    d = eng.decompose(rdu.GeneratorTarget("entry", (1, 2), (1, 3), 2, 3))
    assert d.case == "h1-entry"
    d = eng.decompose(rdu.GeneratorTarget("entry", (1, 2), (3, 4), 2, 3))
    assert d.case == "h0-entry"
    d = eng.decompose(rdu.GeneratorTarget("diagdiff", (1, 2), (2, 3), 2, 3))
    assert d.case == "h1-diag"
    d = eng.decompose(rdu.GeneratorTarget("diagdiff", (1, 3), (2, 4), 2, 3))
    assert d.case == "h0-diag"
    with pytest.raises(rdu.DecompositionError):
        eng.decompose(rdu.GeneratorTarget("mystery", (1, 2), (1, 3), 2, 3))


def test_rank_and_height_errors(zmod97):
    with pytest.raises(rdu.RankError):
        rdu.ReverseDecomposer(matrices.identity_pair(zmod97, 3), 3)
    g, eng = _engine(4, 7)
    with pytest.raises(rdu.HeightError):
        eng.entry((1, 2), (1, 2), 2, 3)
    with pytest.raises(rdu.DecompositionError):
        eng.entry((1, 2), (1, 3), 2, 2)


def test_membership_gate(zmod97):
    rows = [[0] * 6 for _ in range(6)]
    for r in range(6):
        rows[r][r] = 1
    rows[5][5] = 2
    inv = [row[:] for row in rows]
    inv[5][5] = zmod97.inverse(2)
    bad = matrices.InvPair(
        matrices.Matrix(zmod97, rows), matrices.Matrix(zmod97, inv)
    )
    with pytest.raises(rdu.MembershipError):
        rdu.ReverseDecomposer(bad, 4)
    # bypassing the gate is fail-closed: either a certificate rejects the
    # construction, or the returned word still verifies exactly
    eng = rdu.ReverseDecomposer(bad, 4, check_membership=False)
    d = eng.entry((1, 3), (1, 2), 2, 3)  # zero slot: degenerate but correct
    assert zmod97.is_zero(d.param)
    assert rdu.verify(d.word, bad, 2, 3, d.param, 4)
    with pytest.raises(rdu.CertificateError, match="parabolic-zeros"):
        eng.diagonal((2, 4), (3, 4), 2, 3)


def test_every_target_index(zmod97):
    g, eng = _engine(4, 8)
    n = 4
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k == l:
                continue
            d = eng.entry((1, 4), (2, 4), k, l)
            assert rdu.verify(d.word, g, k, l, d.param, n)


def test_level_sweep_small():
    g, eng = _engine(4, 9)
    n = 4
    total = 0
    for target in rdu.targets_of_level(g, n):
        d = eng.decompose(target)
        assert all(ok for _, ok in d.certificates)
        assert rdu.verify(d.word, g, d.k, d.l, d.param, n)
        total += len(d.word)
    assert total > 0


def test_eight_conjugate_system_counts_and_generation():
    g, eng = _engine(4, 10)
    n = 4
    ring = g.ring
    system = eng.eight_conjugate_system()
    N = indexing.dim(n)
    assert len(system) == N * N - 1
    assert all(len(word) == 8 for _, _, _, word, _ in system)
    assert sum(len(word) for *_, word, _ in system) == 8 * (N * N - 1)
    # the realized values generate the same modular ideal as the level slots
    import math

    d_sys = ring.modulus
    for *_, param in system:
        d_sys = math.gcd(d_sys, param)
    d_lvl = ring.modulus
    for gen in level.level_generators(g.fwd, n):
        d_lvl = math.gcd(d_lvl, gen.value)
    assert d_sys == d_lvl


def test_poly_ring_decomposition_symbolic():
    # a compound of a symbolic transvection product decomposes exactly over
    # the polynomial ring as well
    ring = rings.PolynomialRing(("a", "b"))
    a, b = ring.var("a"), ring.var("b")
    from extsquare.words import TransvWord

    x = TransvWord(4, ((1, 2, a), (3, 1, b), (2, 4, ring.one))).eval(ring)
    g = exterior.compound_pair(x, 4)
    eng = rdu.ReverseDecomposer(g, 4)
    d = eng.entry((1, 3), (1, 2), 2, 3)
    assert rdu.verify(d.word, g, 2, 3, d.param, 4)
    assert d.param == g.fwd.at(indexing.rank((1, 3), 4), indexing.rank((1, 2), 4))


def test_full_congruence_params_vanish_mod_d():
    # parameters realized from a scalar-congruent matrix lie in (d)
    d = 5
    ring = rings.ModularRing(35)
    rng = generate.rng_for(99, "full")
    g = generate.congruent_compound(4, ring, d, 12, rng, scalar=2)
    from extsquare import level as level_mod

    assert level_mod.congruence_class(g.fwd, d) == "full"
    eng = rdu.ReverseDecomposer(g, 4)
    for target in rdu.targets_of_level(g, 4)[:12]:
        dres = eng.decompose(target)
        assert dres.param % d == 0


def test_height_one_path_property():
    for n in (4, 5, 6, 7):
        path = rdu.height_one_path(n)
        assert sorted(path) == sorted(indexing.pairs(n))
        for P, Q in zip(path, path[1:]):
            assert indexing.height(P, Q) == 1
