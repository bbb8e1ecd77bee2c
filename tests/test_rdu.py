"""The decomposition engine: cases, certificates, verification, errors."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    # the referee must not share the optimized evaluator it referees, and
    # over Z/m with (m-1)^2 < 2^62 it shares no word evaluator at all
    found = []
    for ring in (rings.ModularRing(97), rings.ModularRing(2**31 - 1)):
        g, eng = _engine(5, 11, ring)
        found.append((g, eng.diagonal((1, 2), (3, 4), 5, 1)))

    def refuse(*args, **kwargs):
        raise AssertionError("the referee called an evaluator of the engine")

    monkeypatch.setattr(ConjWord, "eval_matrix", refuse)
    monkeypatch.setattr(words, "_conj_product", refuse)
    monkeypatch.setattr(words.ExtWord, "eval", refuse)
    monkeypatch.setattr(words, "ext_letter_matrix", refuse)
    monkeypatch.setattr(rdu, "ext_letter_matrix", refuse)
    for g, d in found:
        assert len(d.word) == 48
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


# -- the batched referee against the letter-by-letter product ----------------

REFEREE_RINGS = {
    "zmod97": rings.ModularRing(97),
    "zmod-mersenne-31": rings.ModularRing(2**31 - 1),
}


@lru_cache(maxsize=None)
def _real_words(ring_id):
    """g and an 8-, 16-, 24- and 48-term decomposition over one ring, n = 5."""
    g, eng = _engine(5, 12, REFEREE_RINGS[ring_id])
    return g, (
        eng.entry((1, 3), (1, 2), 2, 3),
        eng.entry((1, 2), (3, 4), 4, 1),
        eng.diagonal((1, 2), (1, 3), 3, 2),
        eng.diagonal((1, 2), (3, 4), 5, 1),
    )


def _perturb_letter(word, ring, which, rng):
    """Shift the argument of one letter in the first or last term with letters."""
    terms = list(word.terms)
    order = range(len(terms)) if which == "first" else reversed(range(len(terms)))
    t = next(t for t in order if terms[t][1].letters)
    eps, h = terms[t]
    letters = list(h.letters)
    p = rng.randrange(len(letters))
    i, j, xi = letters[p]
    letters[p] = (i, j, ring.add(ring.coerce(xi), rng.randrange(1, ring.modulus)))
    terms[t] = (eps, words.ExtWord(word.n, letters))
    return ConjWord(word.n, terms)


def _assert_products_agree(word, g, k, l, xi, n):
    """Same product and same verdict from the batched pass and the loop."""
    loop = rdu._naive_product(word, g)
    assert np.array_equal(rdu._batched_product(word, g), loop._np)
    expected = exterior.cauchy_binet(matrices.transvection(g.ring, n, k, l, xi), n)
    verdict = rdu.verify(word, g, k, l, xi, n)
    assert verdict == (loop == expected)
    return verdict


@settings(max_examples=40, deadline=None)
@given(
    ring_id=st.sampled_from(sorted(REFEREE_RINGS)),
    case=st.integers(0, 3),
    change=st.sampled_from(("none", "param", "first", "last")),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_referee_matches_the_loop_on_real_words(ring_id, case, change, seed):
    ring = REFEREE_RINGS[ring_id]
    g, found = _real_words(ring_id)
    d = found[case]
    rng = random.Random(seed)
    word, param = d.word, d.param
    if change == "param":
        param = ring.add(param, rng.randrange(1, ring.modulus))
    elif change != "none":
        word = _perturb_letter(word, ring, change, rng)
    assert _assert_products_agree(word, g, d.k, d.l, param, 5) == (change == "none")


@settings(max_examples=60, deadline=None)
@given(
    ring_id=st.sampled_from(sorted(REFEREE_RINGS)),
    n=st.sampled_from((4, 5)),
    lengths=st.one_of(
        st.lists(st.integers(0, 6), max_size=10),
        st.sampled_from((8, 48)).map(lambda t: [3] * t),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_referee_matches_the_loop_on_random_words(ring_id, n, lengths, seed):
    # conjugators of any length, empty ones included, in random order
    ring = REFEREE_RINGS[ring_id]
    rng = random.Random(seed)
    g = generate.compound_of_random(n, ring, 8, rng)
    word = ConjWord(
        n,
        [
            (rng.choice((1, -1)), generate.random_ext_word(n, ring, rng.randint(0, k), rng))
            for k in lengths
        ],
    )
    _assert_products_agree(word, g, 2, 3, ring.random(rng), n)


@pytest.mark.parametrize(
    "modulus,batched", [(2**31, True), (2**31 + 1, False)], ids=["2^31", "2^31+1"]
)
def test_referee_at_the_one_limb_bound(monkeypatch, modulus, batched):
    # all-(m-1) matrices and letters: the largest residues the batched
    # updates see; both paths equal the same product over Z reduced mod m
    ring = rings.ModularRing(modulus)
    assert (matrices._int64_kernel(ring, 1) == matrices.ONE_LIMB) is batched
    n, top = 4, modulus - 1
    N = indexing.dim(n)
    full = matrices.Matrix(ring, [[top] * N] * N)
    g = matrices.InvPair._trusted(full, full)  # g^{+-1} both all-(m-1); never multiplied together
    rng = random.Random(21)
    letters = [(i, j, top) for i, j, _ in generate.random_ext_word(n, ring, 5, rng).letters]
    h = words.ExtWord(n, letters)
    word = ConjWord(n, [(1, h), (-1, words.ExtWord(n)), (-1, h + h), (1, h)])

    integers = rings.IntegerRing()
    g_int = matrices.Matrix(integers, [[top] * N] * N)
    want = matrices.identity(integers, N)
    for _, x in word.terms:
        fwd = bwd = matrices.identity(integers, N)
        for i, j, xi in x.letters:
            fwd = fwd.mul(ext_letter_matrix(integers, n, i, j, xi))
        for i, j, xi in reversed(x.letters):
            bwd = bwd.mul(ext_letter_matrix(integers, n, i, j, -xi))
        want = want.mul(bwd).mul(g_int).mul(fwd)
    want = tuple(tuple(v % modulus for v in row) for row in want.rows)

    assert rdu._naive_product(word, g).rows == want
    if batched:
        assert tuple(map(tuple, rdu._batched_product(word, g).tolist())) == want

    def refuse(*args, **kwargs):
        raise AssertionError("verify took the other path")

    monkeypatch.setattr(rdu, "_naive_product" if batched else "_batched_product", refuse)
    assert not rdu.verify(word, g, 2, 3, 1, n)
