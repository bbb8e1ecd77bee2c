"""Word evaluation, formal inverses, conjugate words."""

import random
from functools import partial

import numpy as np
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
    # every letter pair is one matrices._unipotent_pair: on every ring kind,
    # the pair of each species, of transvection_pair and of identity_pair is
    # the product of its letters' matrices, built one by one
    # (matrices.transvection, ext_letter_matrix), with the inverse letters'
    # product in reverse order as bwd; float64 storage where _kernel gives a
    # kernel
    rng = random.Random(14)
    n, N = 4, indexing.dim(4)
    poly = rings.PolynomialRing(("x",))
    for ring in (rings.IntegerRing(), rings.ModularRing(97), rings.ModularRing(2**31 - 1), rings.ModularRing(2**61 - 1), poly):

        def check(pair, dim, letter, letters):
            fwd = bwd = matrices.identity(ring, dim)
            for a, b, xi in letters:
                xi = ring.coerce(xi)
                fwd = fwd.mul(letter(a, b, xi))
                bwd = letter(a, b, ring.neg(xi)).mul(bwd)
            assert (pair.fwd, pair.bwd) == (fwd, bwd), (ring, letters)
            if matrices._kernel(ring, dim) is not None:
                assert pair._stack.dtype == pair.fwd._np.dtype == pair.bwd._np.dtype == np.float64

        def transvection(dim):
            return partial(matrices.transvection, ring, dim)

        def pair_letter(row, col, xi):
            return matrices.transvection(ring, N, indexing.rank(row, n) + 1, indexing.rank(col, n) + 1, xi)

        for _ in range(20):
            w = generate.random_ext_word(n, ring, rng.randint(0, 6), rng)
            check(w.eval(ring), N, partial(ext_letter_matrix, ring, n), w.letters)
            t = generate.random_transv_word(n, ring, rng.randint(0, 6), rng)
            check(t.eval(ring), n, transvection(n), t.letters)
            p = w.expand()
            check(p.eval(ring), N, pair_letter, p.letters)
            i, j, xi = generate._random_letters(n, 1, rng, ring.random)[0]
            check(matrices.transvection_pair(ring, n, i, j, xi), n, transvection(n), [(i, j, xi)])
        check(matrices.identity_pair(ring, N), N, None, [])


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
    "zmod97": rings.ModularRing(97),  # one float64 limb
    "zmod-wide": rings.ModularRing(2**31 - 1),  # two float64 limbs at N = 6
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
        "one term": [(-1, h)],
        "shared prefix, no suffix": [(1, h + k), (-1, h), (1, h + k + h)],
    }
    cache: dict = {}
    for name, terms in shapes.items():
        word = ConjWord(n, terms)
        assert word.eval_matrix(g, cache) == _naive_eval_matrix(word, g), name
        assert word.inverse().eval_matrix(g, cache) == _naive_eval_matrix(
            word.inverse(), g
        ), name


def test_letter_cache_keeps_each_ring_apart():
    # a letter is the one-letter segment (i, j, xi) of the caller's cache.
    # 5 is the same payload in Z/97, Z/101, Z and Z[xi], so only the ring
    # in the cache key tells their letters apart
    n, i, j = 5, 4, 2
    letter = ExtWord(n, ((i, j, 5),))
    domains = [
        rings.ModularRing(97),
        rings.ModularRing(101),
        rings.IntegerRing(),
        rings.PolynomialRing(("xi",)),
    ]
    cache: dict = {}
    for _ in range(2):  # the second round reads the cache
        for ring in domains:
            oracle = exterior.cauchy_binet(matrices.transvection(ring, n, i, j, 5), n)
            assert ext_letter_matrix(ring, n, i, j, 5) == oracle, ring
            pair = letter.eval(ring, cache)
            assert pair.ring == ring and pair.fwd == oracle, ring
            back = letter.inverse(ring).eval(ring, cache)
            assert back.ring == ring and back.fwd == pair.bwd, ring


def test_one_segment_cache_keeps_each_ring_apart():
    # the same letters over Z/97, Z/101, Z and Z[x] through one cache dict:
    # a segment of one ring must not answer for another, neither in
    # ExtWord.eval nor in ConjWord.eval_matrix
    n = 4
    word = ExtWord(n, ((1, 2, 5), (3, 4, 7), (2, 3, 1)))
    conj = ConjWord(n, ((1, word), (-1, word + ExtWord(n, ((4, 1, 2),)))))
    domains = [
        rings.ModularRing(97),
        rings.ModularRing(101),
        rings.IntegerRing(),
        rings.PolynomialRing(("x",)),
    ]
    cache: dict = {}
    for _ in range(2):  # the second round reads the cache
        for ring in domains:
            pair = word.eval(ring, cache)
            assert pair.ring == ring and pair == word.eval(ring), ring
            g = generate.compound_of_random(n, ring, 6, random.Random(22))
            assert conj.eval_matrix(g, cache) == _naive_eval_matrix(conj, g), ring


def test_one_segment_cache_is_bounded_on_a_wide_modulus():
    # every letter argument of a modulus near 2^20 is a new key, so a sweep
    # and its referee over Z, through one cache dict, pass the cap and
    # evict; the evicting float64 path stays exact
    ring = rings.ModularRing(2**20 - 3)
    integers = rings.IntegerRing()
    n = 6
    rng = random.Random(20)
    sweep = [generate.random_ext_word(n, ring, 6, rng) for _ in range(720)]
    cache: dict = {}
    fast = [w.eval(ring, cache) for w in sweep]
    # referee: the same letters multiplied over Z, then reduced mod m
    slow = [w.eval(integers, cache) for w in sweep]
    assert len(cache) == words_mod._SEGMENT_CACHE_MAX
    again = sweep[0].eval(ring, cache)  # it and its letters were evicted
    assert len(cache) == words_mod._SEGMENT_CACHE_MAX
    assert again == fast[0] and again is not fast[0]
    for pair, referee in zip(fast, slow):
        assert pair.fwd.rows == tuple(
            tuple(x % ring.modulus for x in row) for row in referee.fwd.rows
        )
    assert all(p.fwd.mul(p.bwd).is_identity() for p in fast)


# -- the run memo: the cores' words, kept per matrix g -----------------------


def test_one_cache_keeps_each_matrix_apart():
    # the same word on two matrices through one cache dict: the run memo of
    # the first matrix must not answer for the second
    ring = rings.ModularRing(97)
    n = 4
    rng = random.Random(21)
    g1 = generate.compound_of_random(n, ring, 8, rng)
    g2 = generate.compound_of_random(n, ring, 8, rng)
    p = generate.random_ext_word(n, ring, 2, rng)
    h = generate.random_ext_word(n, ring, 2, rng)
    word = ConjWord(n, ((1, p), (-1, p + h), (1, p + h + p)))
    cache: dict = {}
    for _ in range(2):  # the second round reads the memo
        for g in (g1, g2):
            assert word.eval_matrix(g, cache) == _naive_eval_matrix(word, g)
    assert g1.fwd != g2.fwd
    assert sum(1 for key in cache if key[0] == "runs") == 2


@settings(max_examples=40, deadline=None)
@given(
    ring_id=st.sampled_from(sorted(RINGS)),
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(
        st.one_of(st.sampled_from(("empty", "same")), st.integers(0, 3)),
        min_size=1, max_size=6,
    ),
)
def test_warm_cache_variants_equal_naive_product(ring_id, seed, shape):
    # a word, then variants whose top-level runs repeat the word's own runs
    # (retargeted), reverse them with flipped exponents (inverted) or join
    # them with a second word's runs (concatenated), all through one cache
    ring = RINGS[ring_id]
    rng = random.Random(seed)
    n = 4
    g = generate.compound_of_random(n, ring, 6, rng)
    word = _shared_segment_word(ring, n, rng, shape)
    other = _shared_segment_word(ring, n, rng, shape[::-1])
    suffix = generate.random_ext_word(n, ring, rng.randint(1, 3), rng)
    cache: dict = {}
    variants = [
        word,
        rdu.retarget(word, suffix),
        word.inverse(),
        rdu.retarget(word.inverse(), suffix),
        word + other,
        other + word.inverse(),
        rdu.retarget(word + other, suffix),
        word,
    ]
    for variant in variants:
        assert variant.eval_matrix(g, cache) == _naive_eval_matrix(variant, g)


@pytest.mark.parametrize("ring_id", ["zmod97", "zmod-wide"])
def test_words_not_recalled_multiply_their_forward_sides_only(monkeypatch, ring_id):
    # a word no kept core words make up is multiplied out as the forward
    # sides of its telescoped chain: on a fresh cache, every kernel call
    # outside the making of segments (ExtWord.eval) has one N x N left
    # operand, never a stacked pair, and the product is the naive one
    ring = RINGS[ring_id]
    n = 4
    N = indexing.dim(n)
    rng = random.Random(26)
    g = generate.compound_of_random(n, ring, 6, rng)
    lefts, segments = [], []
    kernel, evaluate = matrices._kernel_matmul, ExtWord.eval

    def spy_kernel(a, *args):
        if not segments:
            lefts.append(a.shape)
        return kernel(a, *args)

    def spy_eval(self, *args):
        segments.append(1)
        try:
            return evaluate(self, *args)
        finally:
            segments.pop()

    monkeypatch.setattr(matrices, "_kernel_matmul", spy_kernel)
    monkeypatch.setattr(ExtWord, "eval", spy_eval)
    for shape in ([1, 2, "same", 0], ["empty", 3, "same", 2], [2] * 8):
        word = _shared_segment_word(ring, n, rng, shape)
        lefts.clear()
        got = word.eval_matrix(g, {})
        assert lefts and set(lefts) == {(N, N)}, shape
        assert got == _naive_eval_matrix(word, g), shape


def test_words_not_made_of_kept_core_words_leave_the_run_memo_as_it_was():
    # g's run memo holds the cores' words alone, written as each core is
    # built: eval_matrix multiplies any other word out and keeps nothing,
    # on a fresh cache and through an engine's cache alike
    ring = RINGS["zmod97"]
    n = 4
    rng = random.Random(24)
    g = generate.compound_of_random(n, ring, 6, rng)
    cache: dict = {}
    for shape in ([1, 2, "same", 0], ["empty", 3, "same"], [2] * 8, [1]):
        word = _shared_segment_word(ring, n, rng, shape)
        for w in (word, word.inverse()):
            assert w.eval_matrix(g, cache) == _naive_eval_matrix(w, g), shape
    assert cache[("runs", id(g))][1] == {}
    # a core's word with one letter changed, through the engine's cache
    n = 5
    g = generate.compound_of_random(n, ring, 3 * n, random.Random(25))
    eng = rdu.ReverseDecomposer(g, n)
    word = eng._core((1, 3), (1, 2))[0]
    memo = eng._cache[("runs", id(g))][1]
    before = dict(memo)
    eps, h = word.terms[3]
    (i, j, xi), *rest = h.letters
    changed = ExtWord(n, ((i, j, ring.add(xi, 1)), *rest))
    bad = ConjWord(n, word.terms[:3] + ((eps, changed),) + word.terms[4:])
    assert bad.eval_matrix(g, eng._cache) == rdu._naive_product(bad, g)
    assert eng._cache[("runs", id(g))][1] is memo
    assert list(memo) == list(before)
    assert all(memo[key] is pair for key, pair in before.items())


def test_bounded_put_drops_the_oldest_entries():
    store: dict = {}
    for key in range(5):
        words_mod._bounded_put(store, key, -key, 3)
        assert len(store) <= 3
    assert store == {2: -2, 3: -3, 4: -4}
    store = {key: key for key in range(10)}  # already past a lowered cap
    words_mod._bounded_put(store, "new", 0, 4)
    assert list(store) == [7, 8, 9, "new"]


# -- runs recalled by inverse and by absolute letters, on engine words ---------

SEGMENT_RINGS = {name: RINGS[name] for name in ("zmod97", "zmod-wide", "int")}


def _engine_words(eng, n):
    """(word, whether its product is the identity) for engine words whose
    runs the memo recalls in every way: core words of both orientations,
    each after its formal inverse and followed by it, and an h0 entry and a
    diagonal difference, whose second core enters inverted."""
    slots = [((1, 3), (1, 2)), ((1, 2), (1, 3)), ((2, 3), (2, 4)), ((1, 4), (2, 4))]
    assert {exterior.route_source(I, J, n)[1] for I, J in slots} == {1, -1}
    out = []
    for I, J in slots:
        word = eng._core(I, J)[0]
        out += [(word.inverse(), False), (word, False), (word + word.inverse(), True)]
    out.append((eng.entry((1, 2), (3, 4), 2, 3).word, False))
    out.append((eng.diagonal((1, 2), (1, 3), n, 1).word, False))
    return out


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("ring_id", sorted(SEGMENT_RINGS))
def test_engine_words_through_one_cache_equal_a_fresh_cache_and_the_naive_product(
    monkeypatch, ring_id, n
):
    ring = SEGMENT_RINGS[ring_id]
    g = generate.compound_of_random(n, ring, 3 * n, random.Random(23 + n))
    eng = rdu.ReverseDecomposer(g, n)
    recalled = []
    recall = words_mod._recall

    def kept(memo, key):
        hit = recall(memo, key)
        if hit is not None:
            recalled.append("memo" if key in memo else "inverse")
        return hit

    monkeypatch.setattr(words_mod, "_recall", kept)
    shared: dict = {}
    for word, identity in _engine_words(eng, n):
        got = word.eval_matrix(g, shared)
        assert got == word.eval_matrix(g, {}) == rdu._naive_product(word, g)
        assert got == word.eval_matrix(g, eng._cache)
        if identity:
            assert got.is_identity()
    # runs were recalled from the memo directly and by inverse
    assert {"memo", "inverse"} <= set(recalled)


@pytest.mark.parametrize("ring_id", ("zmod97", "zmod-wide", "int", "poly"))
def test_a_segment_of_one_j_is_written_without_a_product(monkeypatch, ring_id):
    # letters that share one j and have distinct i annihilate pairwise, so a
    # fresh cached segment of them, a core's column stabilizer T or a single
    # letter, is written in one step: no kernel call, both sides equal to
    # the letters multiplied out, and each inverse written the same way
    ring, n = RINGS[ring_id], 6
    rng = random.Random(29)
    pay = lambda: ring.coerce(rng.randrange(-50, 50))  # noqa: E731
    segments = [
        tuple((s, 1, pay()) for s in range(2, n + 1)),  # T
        ((4, 2, pay()), (1, 2, pay()), (6, 2, pay())),  # one j, i unsorted
        ((3, 5, pay()),),  # a single letter
    ]
    want = [ExtWord(n, letters).eval(ring) for letters in segments]
    calls = []
    matmul = matrices._kernel_matmul
    monkeypatch.setattr(matrices, "_kernel_matmul", lambda *a: calls.append(1) or matmul(*a))
    cache: dict = {}
    for letters, pair in zip(segments, want):
        word = ExtWord(n, letters)
        got = word.eval(ring, cache)
        assert (got.fwd, got.bwd) == (pair.fwd, pair.bwd), letters
        back = word.inverse(ring).eval(ring, cache)
        assert (back.fwd, back.bwd) == (pair.bwd, pair.fwd), letters
    assert calls == []
    assert len(cache) == 2 * len(segments)
    # a repeated i, or a second j, is no such segment: it is multiplied out
    five, seven = ring.coerce(5), ring.coerce(7)
    for letters in (((3, 1, five), (3, 1, seven)), ((2, 1, five), (1, 3, seven))):
        got, pair = ExtWord(n, letters).eval(ring, cache), ExtWord(n, letters).eval(ring)
        assert (got.fwd, got.bwd) == (pair.fwd, pair.bwd), letters


@pytest.mark.parametrize("modulus", [97, 2**31 - 1])
def test_letters_store_canonical_residues_from_unreduced_payloads(modulus):
    # matrices._unipotent_pair stores its values as they are, ring payloads;
    # every public way to a letter coerces first, so the unreduced payloads
    # -1 and m + 5, and a RingElement built around m + 7 (the dataclass
    # does not reduce it), still give residues in [0, m), equal to the
    # reduced ones
    ring, n = rings.ModularRing(modulus), 5
    N = indexing.dim(n)

    def canonical(m):
        residues = m._residues()
        return 0 <= residues.min() and residues.max() < modulus

    for x, x_mod in ((-1, modulus - 1), (modulus + 5, 5), (rings.RingElement(ring, modulus + 7), 7)):
        t = matrices.transvection(ring, N, 2, 7, x)
        assert canonical(t) and t == matrices.transvection(ring, N, 2, 7, x_mod)
        letter = ext_letter_matrix(ring, n, 2, 4, x)
        assert canonical(letter) and letter == ext_letter_matrix(ring, n, 2, 4, x_mod)
        for letters in (((2, 4, x),), ((3, 1, x), (5, 1, x)), ((2, 4, x), (1, 3, x))):
            want = ExtWord(n, [(i, j, x_mod) for i, j, _ in letters]).eval(ring)
            for cache in (None, {}):
                pair = ExtWord(n, letters).eval(ring, cache)
                assert canonical(pair.fwd) and canonical(pair.bwd), letters
                assert (pair.fwd, pair.bwd) == (want.fwd, want.bwd), letters
        # the other species and transvection_pair go through the same writer
        transv = [(2, 4, x), (4, 1, x)]
        pairs = [((1, 2), (3, 4), x), ((2, 5), (1, 3), x)]
        for got, want in (
            (TransvWord(n, transv).eval(ring), TransvWord(n, [(i, j, x_mod) for i, j, _ in transv]).eval(ring)),
            (PairWord(n, pairs).eval(ring), PairWord(n, [(r, c, x_mod) for r, c, _ in pairs]).eval(ring)),
            (matrices.transvection_pair(ring, N, 2, 7, x), matrices.transvection_pair(ring, N, 2, 7, x_mod)),
        ):
            assert canonical(got.fwd) and canonical(got.bwd)
            assert (got.fwd, got.bwd) == (want.fwd, want.bwd)
