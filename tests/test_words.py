"""Word evaluation, formal inverses, conjugate words."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from extsquare import exterior, generate, indexing, matrices, rdu, rings
from extsquare import words as words_mod
from extsquare.words import ConjWord, ExtWord, PairWord, TransvWord, ext_letter_matrix


def test_empty_words_evaluate_to_identity(zmod97):
    e10 = matrices.identity(zmod97, 10)
    assert ExtWord(5).eval(zmod97).fwd == e10
    assert PairWord(5).eval(zmod97).fwd == e10
    assert TransvWord(5).eval(zmod97).fwd == matrices.identity(zmod97, 5)


def test_single_letter_matches_expansion_product(poly_xi):
    # one exterior letter at (1,3), n=5, equals the product of its three
    # pair-indexed transvections
    xi = poly_xi.var("xi")
    direct = ext_letter_matrix(poly_xi, 5, 1, 3, xi)
    expansion = PairWord(
        5,
        (
            ((1, 2), (2, 3), poly_xi.neg(xi)),
            ((1, 4), (3, 4), xi),
            ((1, 5), (3, 5), xi),
        ),
    )
    assert expansion.eval(poly_xi).fwd == direct
    assert ExtWord(5, ((1, 3, xi),)).eval(poly_xi).fwd == direct


def test_word_times_formal_inverse_is_identity(zmod97):
    rng = random.Random(11)
    e = matrices.identity(zmod97, indexing.dim(5))
    for _ in range(100):
        w = generate.random_ext_word(5, zmod97, rng.randint(0, 12), rng)
        winv = w.inverse(zmod97)
        assert (w + winv).eval(zmod97).fwd == e
        assert w.inverse(zmod97).inverse(zmod97) == w


def test_eval_is_concat_homomorphism(zmod97):
    rng = random.Random(12)
    for n in (4, 5, 6):
        for _ in range(20):
            a = generate.random_ext_word(n, zmod97, rng.randint(0, 8), rng)
            b = generate.random_ext_word(n, zmod97, rng.randint(0, 8), rng)
            assert (a + b).eval(zmod97).fwd == a.eval(zmod97).fwd.mul(b.eval(zmod97).fwd)


def test_eval_pair_is_certified(zmod97):
    rng = random.Random(13)
    w = generate.random_ext_word(5, zmod97, 10, rng)
    p = w.eval(zmod97)
    assert p.fwd.mul(p.bwd).is_identity()


def test_zmod_and_generic_paths_agree():
    # the fast modular path must match the generic letter-product path
    ring = rings.ModularRing(97)
    rng = random.Random(14)
    for _ in range(20):
        w = generate.random_ext_word(4, ring, rng.randint(1, 6), rng)
        fast = w.eval(ring)
        slow_fwd = matrices.identity(ring, 6)
        for i, j, xi in w.letters:
            slow_fwd = slow_fwd.mul(ext_letter_matrix(ring, 4, i, j, xi))
        assert fast.fwd == slow_fwd


def test_bad_letters_rejected():
    with pytest.raises(ValueError):
        ExtWord(5, ((1, 1, 3),))
    with pytest.raises(ValueError):
        ExtWord(5, ((0, 2, 3),))
    with pytest.raises(ValueError):
        ExtWord(2)
    with pytest.raises(ValueError):
        PairWord(4, (((1, 2), (1, 2), 1),))


def test_conj_word_empty_and_identity_term(zmod97):
    rng = random.Random(15)
    g = generate.compound_of_random(4, zmod97, 15, rng)
    empty = ConjWord(4)
    assert empty.eval_matrix(g).is_identity()
    single = ConjWord(4, ((1, ExtWord(4)),))
    assert single.eval_matrix(g) == g.fwd
    flipped = ConjWord(4, ((-1, ExtWord(4)),))
    assert flipped.eval_matrix(g) == g.bwd


def test_conj_word_inverse_evaluates_to_inverse(zmod97):
    rng = random.Random(16)
    for _ in range(50):
        g = generate.compound_of_random(4, zmod97, 10, rng)
        terms = []
        for _ in range(rng.randint(1, 5)):
            terms.append(
                (rng.choice((1, -1)), generate.random_ext_word(4, zmod97, rng.randint(0, 5), rng))
            )
        w = ConjWord(4, terms)
        winv = w.inverse()
        assert len(winv) == len(w)
        assert w.eval_matrix(g).mul(winv.eval_matrix(g)).is_identity()


def test_conj_word_eval_matrix_matches_naive_product(zmod97):
    rng = random.Random(17)
    g = generate.compound_of_random(4, zmod97, 12, rng)
    terms = [
        (rng.choice((1, -1)), generate.random_ext_word(4, zmod97, 3, rng))
        for _ in range(4)
    ]
    w = ConjWord(4, terms)
    assert w.eval_matrix(g) == rdu._naive_product(w, g)


def test_conj_word_validation(zmod97):
    with pytest.raises(ValueError):
        ConjWord(4, ((2, ExtWord(4)),))
    with pytest.raises(ValueError):
        ConjWord(4, ((1, ExtWord(5)),))
    g5 = generate.compound_of_random(5, zmod97, 5, random.Random(0))
    with pytest.raises(ValueError):
        ConjWord(4).eval_matrix(g5)


def test_expand_matches_eval(poly_xi):
    xi = poly_xi.var("xi")
    w = ExtWord(5, ((2, 4, xi), (1, 3, poly_xi.neg(xi))))
    assert w.expand().eval(poly_xi).fwd == w.eval(poly_xi).fwd


# -- factored conjugate-word evaluation against the naive product -------------

RINGS = {
    "zmod97": rings.ModularRing(97),  # one-limb int64 kernel
    "zmod-wide": rings.ModularRing(2**31 - 1),  # two-limb int64 kernel at N = 6
    "zmod-widest": rings.ModularRing(2**61 - 1),  # pure python: no limb fits at N = 6
    "int": rings.IntegerRing(),
    "poly": rings.PolynomialRing(("x",)),
}


def _naive_eval_matrix(word, g):
    """Letter by letter: every conjugator multiplied out from its letters."""
    ring, n = g.ring, word.n
    acc = matrices.identity(ring, g.dim)
    for eps, h in word.terms:
        fwd = matrices.identity(ring, g.dim)
        bwd = matrices.identity(ring, g.dim)
        for i, j, xi in h.letters:
            fwd = fwd.mul(ext_letter_matrix(ring, n, i, j, xi))
        for i, j, xi in reversed(h.letters):
            bwd = bwd.mul(ext_letter_matrix(ring, n, i, j, ring.neg(ring.coerce(xi))))
        acc = acc.mul(bwd).mul(g.fwd if eps == 1 else g.bwd).mul(fwd)
    return acc


def _shared_segment_word(ring, n, rng, shape):
    """Terms built as shared prefix + middle + shared suffix.

    Middles come from a pool of three letters, so neighbouring conjugators
    share runs of letters the way routed engine words do.  `shape` holds one
    entry per term: "empty", "same" (repeat the previous conjugator) or a
    middle length.
    """
    prefix = generate.random_ext_word(n, ring, rng.randint(0, 3), rng)
    suffix = generate.random_ext_word(n, ring, rng.randint(0, 3), rng)
    pool = generate.random_ext_word(n, ring, 3, rng).letters
    terms = []
    for kind in shape:
        eps = rng.choice((1, -1))
        if kind == "empty":
            h = ExtWord(n)
        elif kind == "same":
            h = terms[-1][1] if terms else prefix + suffix
        else:
            h = prefix + ExtWord(n, [rng.choice(pool) for _ in range(kind)]) + suffix
        terms.append((eps, h))
    return ConjWord(n, terms)


@settings(max_examples=60, deadline=None)
@given(
    ring_id=st.sampled_from(sorted(RINGS)),
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(
        st.one_of(st.sampled_from(("empty", "same")), st.integers(0, 3)), max_size=8
    ),
)
def test_factored_eval_matrix_equals_naive_product(ring_id, seed, shape):
    ring = RINGS[ring_id]
    rng = random.Random(seed)
    n = 4
    g = generate.compound_of_random(n, ring, 6, rng)
    word = _shared_segment_word(ring, n, rng, shape)
    assert word.eval_matrix(g) == _naive_eval_matrix(word, g)
    assert word.eval_matrix(g, {}) == _naive_eval_matrix(word, g)


@pytest.mark.parametrize("ring_id", sorted(RINGS))
def test_factored_eval_matrix_named_shapes(ring_id):
    ring = RINGS[ring_id]
    n = 4
    rng = random.Random(19)
    g = generate.compound_of_random(n, ring, 6, rng)
    h = generate.random_ext_word(n, ring, 4, rng)
    k = generate.random_ext_word(n, ring, 3, rng)
    e = ExtWord(n)
    shapes = {
        "empty conjugators": [(1, e), (-1, e), (1, e)],
        "singleton runs": [(1, h), (-1, k), (1, h + k), (-1, k + h)],
        "all equal": [(1, h + k)] * 3 + [(-1, h + k)] * 2,
        "mixed exponents": [(1, h), (-1, h + k), (-1, h), (1, h + k + h), (1, e)],
    }
    cache: dict = {}
    for name, terms in shapes.items():
        word = ConjWord(n, terms)
        assert word.eval_matrix(g, cache) == _naive_eval_matrix(word, g), name
        assert word.inverse().eval_matrix(g, cache) == _naive_eval_matrix(
            word.inverse(), g
        ), name


def test_letter_cache_keeps_each_ring_apart():
    # 5 is the same payload in Z/97, Z/101 and Z, so only the ring in the
    # cache key tells their letters apart
    n, i, j = 5, 4, 2
    domains = [
        rings.ModularRing(97),
        rings.ModularRing(101),
        rings.IntegerRing(),
        rings.PolynomialRing(("xi",)),
    ]
    words_mod._LETTER_CACHE.clear()
    for _ in range(2):  # the second round reads the cache
        for ring in domains:
            got = ext_letter_matrix(ring, n, i, j, 5)
            oracle = exterior.cauchy_binet(matrices.transvection(ring, n, i, j, 5), n)
            assert got.ring == ring and got == oracle, ring
    words_mod._LETTER_CACHE.clear()


def test_letter_cache_is_bounded_on_a_wide_modulus():
    # every letter argument of a modulus near 2^20 is a new key, so a sweep
    # past the cap must evict; the evicting int64 path stays exact
    ring = rings.ModularRing(2**20 - 3)
    n = 6
    words_mod._LETTER_CACHE.clear()
    rng = random.Random(20)
    sweep = [generate.random_ext_word(n, ring, 6, rng) for _ in range(720)]
    fast = [w.eval(ring) for w in sweep]
    assert len(words_mod._LETTER_CACHE) == words_mod._LETTER_CACHE_MAX
    again = sweep[0].eval(ring)  # its letters were evicted and are rebuilt
    assert len(words_mod._LETTER_CACHE) == words_mod._LETTER_CACHE_MAX
    assert again == fast[0]
    # referee: the same letters multiplied over Z, then reduced mod m
    integers = rings.IntegerRing()
    N = indexing.dim(n)
    for w, pair in zip(sweep, fast):
        slow = matrices.identity(integers, N)
        for i, j, xi in w.letters:
            slow = slow.mul(ext_letter_matrix(integers, n, i, j, xi))
        assert pair.fwd.rows == tuple(
            tuple(x % ring.modulus for x in row) for row in slow.rows
        )
    assert all(p.fwd.mul(p.bwd).is_identity() for p in fast)
    words_mod._LETTER_CACHE.clear()
