"""The decomposition engine: cases, certificates, verification, errors."""

import math
import random
import re
import sys
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
    monkeypatch.setattr(words.ExtWord, "_trusted", refuse)
    monkeypatch.setattr(words, "_run_memo", refuse)
    monkeypatch.setattr(words, "_bounded_put", refuse)
    monkeypatch.setattr(words, "ext_letter_matrix", refuse)
    monkeypatch.setattr(rdu, "ext_letter_matrix", refuse)
    monkeypatch.setattr(words, "_letter_support", refuse)
    monkeypatch.setattr(words, "_signed_support", refuse)
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


def test_membership_gate(monkeypatch, zmod97):
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
    monkeypatch.setattr(plucker, "is_member", lambda *_: True)
    eng = rdu.ReverseDecomposer(bad, 4)
    d = eng.entry((1, 3), (1, 2), 2, 3)  # zero slot: degenerate but correct
    assert zmod97.is_zero(d.param)
    assert rdu.verify(d.word, bad, 2, 3, d.param, 4)
    with pytest.raises(rdu.CertificateError, match="parabolic-zeros"):
        eng.diagonal((2, 4), (3, 4), 2, 3)


def test_failed_certificate_names_the_target(monkeypatch, zmod97):
    # the fail-closed non-member of test_membership_gate, through decompose
    rows = [[1 if r == c else 0 for c in range(6)] for r in range(6)]
    inv = [row[:] for row in rows]
    rows[5][5], inv[5][5] = 2, zmod97.inverse(2)
    bad = matrices.InvPair(matrices.Matrix(zmod97, rows), matrices.Matrix(zmod97, inv))
    monkeypatch.setattr(plucker, "is_member", lambda *_: True)
    eng = rdu.ReverseDecomposer(bad, 4)
    target = rdu.GeneratorTarget("diagdiff", (2, 4), (3, 4), 2, 3)
    with pytest.raises(rdu.CertificateError) as info:
        eng.decompose(target)
    assert str(info.value) == (
        "decomposition certificate failed: parabolic-zeros "
        "(diagdiff (2, 4) (3, 4) at (2, 3))"
    )


def test_failed_system_slot_names_the_slot(monkeypatch):
    # one slot's core claims a wrong argument; the system check names it
    g, eng = _engine(4, 8)
    build = eng._core

    def wrong(I, J, tau=None):
        word, param, certs = build(I, J, tau)
        if (I, J, tau) == ((1, 3), (2, 3), None):
            param = g.ring.add(param, 1)
        return word, param, certs

    monkeypatch.setattr(eng, "_core", wrong)
    with pytest.raises(rdu.CertificateError) as info:
        eng.eight_conjugate_system(1, 4)
    assert str(info.value) == (
        "decomposition certificate failed: system verification "
        "(entry (1, 3) (2, 3) at (1, 4))"
    )


def test_a_cached_core_conjugates_nothing(monkeypatch):
    # g is conjugated only to build a core: once every core a target needs
    # is cached, decomposing it at another position conjugates nothing
    g, eng = _engine(5, 9)
    calls = []
    conjugate = matrices.conjugate

    def counted(*args):
        calls.append(1)
        return conjugate(*args)

    monkeypatch.setattr(matrices, "conjugate", counted)
    for kind, I, J in (("entry", (1, 3), (1, 2)), ("entry", (1, 2), (3, 4)),
                       ("diagdiff", (1, 2), (1, 3)), ("diagdiff", (1, 2), (3, 4))):
        eng.decompose(rdu.GeneratorTarget(kind, I, J, 2, 3))
        built = len(calls)
        assert built
        d = eng.decompose(rdu.GeneratorTarget(kind, I, J, 5, 1))
        assert len(calls) == built, (kind, I, J)
        assert rdu.verify(d.word, g, 5, 1, d.param, 5)
        calls.clear()


def _sweep(eng, g, n, after_each=lambda: None, targets=None):
    out = []
    for gen in level.level_generators(g.fwd, n):
        for k, l in targets or ((2, 3), (1, n)):
            d = eng.decompose(rdu.GeneratorTarget(gen.kind, gen.I, gen.J, k, l))
            out.append((d.word, d.param, d.case, d.certificates))
            after_each()
    out.append(eng.eight_conjugate_system())
    after_each()
    return out


def test_engine_caches_stay_under_their_caps_with_identical_results(monkeypatch):
    # a full n = 5 sweep with the segment cap at a few entries evicts all
    # the time; words, params and certificates must not change, and no
    # cache may grow past its cap at any point
    n = 5
    g, eng = _engine(n, 12)
    want = _sweep(eng, g, n)
    caps = {"_SEGMENT_CACHE_MAX": 24}
    for name, cap in caps.items():
        monkeypatch.setattr(words, name, cap)
    small = rdu.ReverseDecomposer(g, n)
    memo_sizes, memo_keys = [], set()

    def check():
        # letters are one-letter segments, so this bounds them too
        assert len(small._cache) <= 24
        for key, slot in small._cache.items():
            if key[0] == "runs":
                _, memo = slot
                memo_sizes.append((len(memo), len(small._core_cache)))
                memo_keys.update(memo)

    assert _sweep(small, g, n, check) == want
    # the memo was used, by the cores' words, and never held more entries
    # than the cores built so far
    assert memo_sizes and all(size <= cores for size, cores in memo_sizes)
    assert any(len(k) > 1 for k in memo_keys)


def test_every_run_memo_key_is_a_tuple_of_terms():
    # one entry kind: the cores' commutator words, kept under their terms
    # (eps, letters from g on)
    n = 5
    g, eng = _engine(n, 12)
    _sweep(eng, g, n)
    _, memo = eng._cache[("runs", id(g))]
    assert memo
    for key in memo:
        assert isinstance(key, tuple) and key, key
        for term in key:
            assert isinstance(term, tuple) and len(term) == 2, key
            eps, letters = term
            assert eps in (1, -1) and isinstance(letters, tuple), key
            assert all(len(letter) == 3 for letter in letters), key


SEGMENT_RINGS = {
    "zmod97": rings.ModularRing(97),  # one float64 limb
    "zmod-wide": rings.ModularRing(2**31 - 1),  # two float64 limbs at N = 10
    "int": rings.IntegerRing(),  # pure python
}


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("ring_id", sorted(SEGMENT_RINGS))
def test_each_letter_in_the_engine_cache_is_its_letter_matrix_pair(ring_id, n):
    # a letter is the one-letter segment of the engine's own cache: after a
    # sweep each such entry is the letter and its inverse letter as
    # ext_letter_matrix builds them, and the cache holds them under its cap
    ring = SEGMENT_RINGS[ring_id]
    g, eng = _engine(n, 13, ring)
    _sweep(eng, g, n, targets=((2, 3),))
    letters = {
        key[2][0]: pair for key, pair in _segments(eng).items() if len(key[2]) == 1
    }
    assert len(letters) >= n
    for (i, j, xi), pair in letters.items():
        inverse = ring.neg(ring.coerce(xi))
        assert (pair.fwd, pair.bwd) == (
            ext_letter_matrix(ring, n, i, j, xi),
            ext_letter_matrix(ring, n, i, j, inverse),
        ), (i, j, xi)
    assert len(eng._cache) <= words._SEGMENT_CACHE_MAX


def _validated(n, terms):
    """ConjWord(n, ...) on ExtWord(n, letters) for (eps, letters) terms."""
    return ConjWord(n, [(eps, words.ExtWord(n, letters)) for eps, letters in terms])


def test_trusted_words_equal_their_validated_construction():
    # reconjugate, retarget, ConjWord.__add__ and ConjWord.inverse build on
    # validated words and check only the rank of what they add; each word
    # must equal the one built through ConjWord(n, ...) and ExtWord(n, ...)
    ring, n = rings.ModularRing(97), 5
    rng = generate.rng_for(3, "trusted")
    word = ConjWord(n, [((-1) ** t, generate.random_ext_word(n, ring, k, rng)) for t, k in enumerate((0, 3, 1, 4))])
    other = ConjWord(n, [(1, generate.random_ext_word(n, ring, 2, rng))])
    fix = generate.random_ext_word(n, ring, 3, rng)
    terms = [(eps, h.letters) for eps, h in word.terms]
    assert rdu.reconjugate(word, fix) == _validated(n, [(eps, fix.letters + h) for eps, h in terms])
    assert rdu.retarget(word, fix) == _validated(n, [(eps, h + fix.letters) for eps, h in terms])
    assert word + other == _validated(n, terms + [(eps, h.letters) for eps, h in other.terms])
    assert word.inverse() == _validated(n, [(-eps, h) for eps, h in reversed(terms)])
    # a prefix or suffix of another rank, or of another species, is refused
    for bad in (generate.random_ext_word(n + 1, ring, 2, rng), words.PairWord(n)):
        for build in (rdu.reconjugate, rdu.retarget):
            with pytest.raises(ValueError):
                build(word, bad)
    with pytest.raises(ValueError):
        word + ConjWord(n + 1)


@pytest.mark.parametrize("ring_id", sorted(SEGMENT_RINGS))
def test_core_words_equal_their_validated_construction(monkeypatch, ring_id):
    # _build_core writes T, z and the eight-term word unchecked; over a sweep
    # each must equal the word built the long way: T read entry by entry from
    # g1 = P^-1 g P for the outer prefix P, and z and the eight-term word
    # [a, z] = (z conjugated by a^-1) z^-1 through ConjWord(n, ...)
    ring, n = SEGMENT_RINGS[ring_id], 5
    g, eng = _engine(n, 17, ring)
    built = []
    reconjugate = rdu.reconjugate
    monkeypatch.setattr(rdu, "reconjugate", lambda w, p: built.append((w, p)) or reconjugate(w, p))
    _sweep(eng, g, n, targets=((2, 3),))
    assert len(built) == 2 * len(eng._core_cache)
    s_inv = (2, 3, ring.neg(ring.one))
    r12 = indexing.rank((1, 2), n)
    for (z, outer), (word, again) in zip(built[::2], built[1::2]):
        assert again is outer
        g1 = matrices.conjugate(g, words.ExtWord(n, outer.letters).eval(ring))
        T = tuple((s, 1, g1.fwd.at(indexing.rank((1, s), n), r12)) for s in range(2, n + 1))
        t_inv = words.ExtWord(n, T).inverse(ring).letters
        z_terms = [(-1, ()), (1, t_inv), (-1, (s_inv,) + t_inv), (1, T + (s_inv,) + t_inv)]
        assert z == _validated(n, z_terms)
        a_inv = ((1, 3, ring.one),)
        assert word == _validated(
            n, [(eps, h + a_inv) for eps, h in z_terms] + [(-eps, h) for eps, h in reversed(z_terms)]
        )


def _holds_a_matrix(value, depth: int = 0) -> bool:
    if isinstance(value, (matrices.Matrix, matrices.InvPair)):
        return True
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = value
    else:
        return False
    return depth < 4 and any(_holds_a_matrix(x, depth + 1) for x in items)


def test_no_module_level_store_holds_a_matrix_after_a_sweep():
    # engine state lives in the engine and the caller's cache, and is freed
    # with them; no module-level dict, list or set keeps a matrix or pair
    n = 5
    for ring in (rings.ModularRing(97), rings.ModularRing(2**31 - 1)):
        g, eng = _engine(n, 14, ring)
        _sweep(eng, g, n, targets=((2, 3),))
    found = [
        f"{name}.{attr}"
        for name, module in sorted(sys.modules.items())
        if name == "extsquare" or name.startswith("extsquare.")
        for attr, value in vars(module).items()
        if not attr.startswith("__")
        and isinstance(value, (dict, list, set))
        and _holds_a_matrix(value)
    ]
    assert eng._cache  # the last engine's state is still alive
    assert not found, found


def _segments(eng):
    return {key: pair for key, pair in eng._cache.items() if key[0] != "runs"}


def _check_segments(segments, ring):
    for (ring_key, rank, letters), pair in segments.items():
        assert ring_key == ring.key()
        assert pair == words.ExtWord(rank, letters).eval(ring), letters


@pytest.mark.parametrize("ring_id", ["zmod97", "zmod-wide"])
def test_every_engine_array_is_float64_after_a_sweep(ring_id):
    # storage has one dtype: after a level sweep and the system check, the
    # stacks of g, of every segment and of every core word in g's run memo,
    # and both sides read from each, are float64
    n = 5
    g, eng = _engine(n, 13, SEGMENT_RINGS[ring_id])
    _sweep(eng, g, n)
    memo = eng._cache[("runs", id(g))][1]
    pairs = [g, *_segments(eng).values(), *memo.values()]
    assert memo and len(pairs) > len(memo) + 1
    for pair in pairs:
        assert pair._stack.dtype == np.float64
        assert pair.fwd._np.dtype == pair.bwd._np.dtype == np.float64


def _inverted_pairs(monkeypatch):
    """Every pair InvPair.invert returns, kept alive so that ids stay unique."""
    made = []
    invert = matrices.InvPair.invert

    def kept(self):
        made.append(invert(self))
        return made[-1]

    monkeypatch.setattr(matrices.InvPair, "invert", kept)
    return made


def _counting_compose(monkeypatch):
    calls = []
    compose = matrices.InvPair.compose

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(matrices.InvPair, "compose", counted)
    return calls


@pytest.mark.parametrize("ring_id", sorted(SEGMENT_RINGS))
def test_segment_entries_are_the_products_of_their_letters(monkeypatch, ring_id):
    # segments extend cached suffixes (ExtWord.eval); after a full n = 5 sweep
    # every entry must still be its letters multiplied out one by one
    n = 5
    g, eng = _engine(n, 13, SEGMENT_RINGS[ring_id])
    composed = _counting_compose(monkeypatch)
    inverted = _inverted_pairs(monkeypatch)
    _sweep(eng, g, n, targets=((2, 3), (3, 2), (1, n)))
    assert composed
    segments = _segments(eng)
    # some entries were kept inverted: a core's T^-1, T's pair (ExtWord._keep)
    made = {id(pair) for pair in inverted}
    assert any(id(pair) in made for pair in segments.values())
    _check_segments(segments, g.ring)


_ONE_LIMB_LAST_15 = 24_504_693  # the largest m with 15 (m-1)^2 + m <= 2^53


@pytest.mark.parametrize(
    "ring, n",
    [
        pytest.param(SEGMENT_RINGS[ring_id], n, id=f"{ring_id}-{n}")
        for ring_id in sorted(SEGMENT_RINGS)
        for n in (4, 5)
    ]
    + [
        pytest.param(rings.PolynomialRing(("x",)), 4, id="poly-4"),
        pytest.param(rings.PolynomialRing(("x",)), 5, id="poly-5"),
        pytest.param(rings.ModularRing(_ONE_LIMB_LAST_15), 6, id="one-limb-last-15"),
        pytest.param(rings.ModularRing(_ONE_LIMB_LAST_15 + 1), 6, id="one-limb-past-15"),
    ],
)
def test_each_column_stabilizer_is_its_letters_multiplied_out(ring, n):
    # _build_core writes T = prod (s, 1, x_s) and T^-1 in one step each,
    # and keeps the pair under T's letters: both sides of every such entry
    # must equal the word multiplied out letter by letter, with no cache
    g, eng = _engine(n, 13, ring, length=2 * n)
    for gen in level.level_generators(g.fwd, n):
        eng.decompose(rdu.GeneratorTarget(gen.kind, gen.I, gen.J, 2, 3))
    stabilizers = {
        letters: pair
        for (_, _, letters), pair in _segments(eng).items()
        if [(i, j) for i, j, _ in letters] == [(s, 1) for s in range(2, n + 1)]
    }
    assert len(stabilizers) >= n
    for letters, pair in stabilizers.items():
        want = words.ExtWord(n, letters).eval(ring)
        assert (pair.fwd, pair.bwd) == (want.fwd, want.bwd), letters


@pytest.mark.parametrize("ring_id", sorted(SEGMENT_RINGS))
def test_a_letter_is_checked_in_place(ring_id):
    # _is_letter compares a product with the letter (i, j, xi) at its support
    # and against the identity elsewhere; one changed entry of either kind,
    # or on the diagonal, is refused, on float64 storage and on python rows
    ring, n, i, j = SEGMENT_RINGS[ring_id], 5, 4, 2
    N = indexing.dim(n)
    assert (matrices._kernel(ring, N) is None) == (ring_id == "int")
    xi = ring.coerce(-7)
    letter = ext_letter_matrix(ring, n, i, j, xi)
    assert rdu._is_letter(letter, n, i, j, xi)
    assert not rdu._is_letter(letter, n, i, j, ring.add(xi, ring.one))
    assert not rdu._is_letter(letter, n, j, i, xi)
    rows, cols, _ = words._letter_support(n, i, j)
    support = set(zip(rows.tolist(), cols.tolist()))
    off = next((r, c) for r in range(N) for c in range(N) if r != c and (r, c) not in support)
    for r, c in ((int(rows[0]), int(cols[0])), off, (N - 1, N - 1)):
        data = [list(row) for row in letter.rows]
        data[r][c] = ring.add(data[r][c], ring.one)
        assert not rdu._is_letter(matrices.Matrix(ring, data), n, i, j, xi), (r, c)


def test_no_letter_certificate_builds_its_letter(monkeypatch):
    # final-verified, eight-conjugate-core and the system verification
    # compare in place; only the radical factor multiplies by a letter,
    # (2, 1, -c), so that is the only letter rdu builds over a sweep
    n = 5
    g, eng = _engine(n, 11)
    built = []

    def spy(ring, rank, i, j, payload):
        built.append((i, j))
        return ext_letter_matrix(ring, rank, i, j, payload)

    monkeypatch.setattr(rdu, "ext_letter_matrix", spy)
    _sweep(eng, g, n)
    assert set(built) == {(2, 1)}


def test_segment_entries_stay_exact_while_a_small_cap_evicts(monkeypatch):
    # with room for a few entries, suffixes and heads are evicted between
    # the segments that extend them; every entry is checked after each step
    n = 5
    g, eng = _engine(n, 13)
    want = _sweep(rdu.ReverseDecomposer(g, n), g, n)
    monkeypatch.setattr(words, "_SEGMENT_CACHE_MAX", 5)
    composed = _counting_compose(monkeypatch)

    def check():
        assert len(eng._cache) <= 5
        _check_segments(_segments(eng), g.ring)

    assert _sweep(eng, g, n, check) == want
    assert composed


def test_a_core_takes_at_most_27_kernel_calls(monkeypatch):
    # a guard on the engine's work, counted and not timed: over the n = 5,
    # Z/97 sweep at (2, 3) for one seed, building a core multiplies 26.6 N x N
    # products on average (29.5 before T was written in one step, 44.4
    # before run pairs, 83.6 before each pair became one stacked product and
    # g was conjugated once per prefix)
    n = 5
    g, eng = _engine(n, 11)
    calls, cores = [], []
    kernel = matrices._kernel_matmul
    build = rdu.ReverseDecomposer._build_core

    def counted_kernel(*args):
        calls.append(1)
        return kernel(*args)

    def counted_build(self, *args):
        before = len(calls)
        out = build(self, *args)
        cores.append(len(calls) - before)
        return out

    monkeypatch.setattr(matrices, "_kernel_matmul", counted_kernel)
    monkeypatch.setattr(rdu.ReverseDecomposer, "_build_core", counted_build)
    for gen in level.level_generators(g.fwd, n):
        eng.decompose(rdu.GeneratorTarget(gen.kind, gen.I, gen.J, 2, 3))
    assert len(cores) == 101
    assert sum(cores) / len(cores) <= 27


def test_a_core_takes_at_most_34_kernel_calls_and_its_word_at_most_8(monkeypatch):
    # the same sweep as above: a core multiplies 25.6 N x N products on
    # average (44.4 before run pairs), and the eight-conjugate-core
    # certificate none (17 before run pairs, 4 before the commutator pair
    # was kept): it recalls the pair A^-1 Z A Z^-1 that
    # words._keep_commutator made from z's pair
    n = 5
    g, eng = _engine(n, 11)
    calls, cores, eights, finals = [], [], [], []
    kernel = matrices._kernel_matmul
    build = rdu.ReverseDecomposer._build_core
    finalize = rdu.ReverseDecomposer._finalize
    evaluate = ConjWord.eval_matrix

    def counted_kernel(*args):
        calls.append(1)
        return kernel(*args)

    def counted_build(self, *args):
        before = len(calls)
        cores.append(None)
        out = build(self, *args)
        cores[-1] = len(calls) - before
        return out

    def counted_eval(self, *args):
        before = len(calls)
        out = evaluate(self, *args)
        if cores and cores[-1] is None and len(self) == 8:  # the core's own word
            eights.append(len(calls) - before)
        return out

    def counted_finalize(self, *args):
        before = len(calls)
        out = finalize(self, *args)
        finals.append(len(calls) - before)
        return out

    monkeypatch.setattr(matrices, "_kernel_matmul", counted_kernel)
    monkeypatch.setattr(rdu.ReverseDecomposer, "_build_core", counted_build)
    monkeypatch.setattr(rdu.ReverseDecomposer, "_finalize", counted_finalize)
    monkeypatch.setattr(ConjWord, "eval_matrix", counted_eval)
    for gen in level.level_generators(g.fwd, n):
        eng.decompose(rdu.GeneratorTarget(gen.kind, gen.I, gen.J, 2, 3))
    assert len(cores) == len(eights) == 101
    assert sum(cores) / len(cores) <= 34
    assert max(eights) <= 8
    # the final certificate recalls its cores' words whole: 0.60 on average
    # (1.91 when a word of several cores was cut into groups)
    assert sum(finals) / len(finals) <= 2


def test_each_engine_store_keeps_one_kind_of_entry(monkeypatch):
    # g's run memo keeps the cores' commutator words only, so no z pair:
    # every core's word, as written, is kept, and every final word of this
    # sweep is recalled as its cores' words (words._core_words), so the
    # memo holds one entry per core and nothing else;
    # and the core cache holds at most one core per slot,
    # N (N - 1 + 2 (n - 2)) in all (plain and combined-diagonal cores of
    # each ordered height-one pair, a combined-entry core of each ordered
    # height-zero pair), so a second system check builds none
    n = 5
    N = indexing.dim(n)
    g, eng = _engine(n, 1, length=4 * n)
    # one core leaves one memo entry, its eight-term word
    word = eng._core((1, 2), (2, 4))[0]
    memo = eng._cache[("runs", id(g))][1]
    assert list(memo) == [tuple((eps, h.letters) for eps, h in word.terms)]
    zs = set()
    chain = words._chain

    def spy(ring_, n_, word, *args):
        zs.add(tuple((eps, h.letters) for eps, h in word.terms))
        return chain(ring_, n_, word, *args)

    monkeypatch.setattr(words, "_chain", spy)
    _sweep(eng, g, n, targets=((2, 3),))
    cores = {tuple((eps, h.letters) for eps, h in core[0].terms) for core in eng._core_cache.values()}
    assert zs
    assert set(memo) == cores
    assert len(memo) == len(eng._core_cache)
    assert not zs & set(memo)
    assert len(eng._core_cache) <= N * (N - 1 + 2 * (n - 2))
    builds = []
    build = rdu.ReverseDecomposer._build_core
    monkeypatch.setattr(
        rdu.ReverseDecomposer, "_build_core", lambda self, *a: builds.append(a) or build(self, *a)
    )
    eng.eight_conjugate_system()
    assert builds == []


@pytest.mark.parametrize(
    "ring",
    [pytest.param(SEGMENT_RINGS[ring_id], id=ring_id) for ring_id in sorted(SEGMENT_RINGS)]
    + [pytest.param(rings.PolynomialRing(("x",)), id="poly")],
)
def test_z_and_the_kept_commutator_pair_are_their_words_multiplied_out(monkeypatch, ring):
    # _build_core makes z's pair in one pass over the telescoped chain on g1
    # (words._chain), and keeps the commutator word's pair A^-1 Z A Z^-1,
    # made from it, in g's run memo (words._keep_commutator) under the
    # core's word; for every core of a sweep both pairs must be their words
    # multiplied out, on both sides, and every core's word must be kept
    n = 5
    g, eng = _engine(n, 13, ring, length=2 * n)
    chain, keep = words._chain, words._keep_commutator
    zs, commutators = [], set()

    def spy_chain(ring_, n_, word, *args):
        pair = chain(ring_, n_, word, *args)
        assert pair.fwd == rdu._naive_product(word, g)
        assert pair.bwd == rdu._naive_product(word.inverse(), g)
        zs.append(len(word))
        return pair

    def spy_keep(*args):
        keep(*args)
        memo = eng._cache[("runs", id(g))][1]
        key = next(reversed(memo))
        word = _validated(n, key)
        assert memo[key].fwd == rdu._naive_product(word, g), key
        assert memo[key].bwd == rdu._naive_product(word.inverse(), g), key
        commutators.add(key)

    monkeypatch.setattr(words, "_chain", spy_chain)
    monkeypatch.setattr(words, "_keep_commutator", spy_keep)
    for gen in level.level_generators(g.fwd, n):
        eng.decompose(rdu.GeneratorTarget(gen.kind, gen.I, gen.J, 2, 3))
    assert zs == [4] * len(eng._core_cache)
    assert commutators == {
        tuple((eps, h.letters) for eps, h in core[0].terms) for core in eng._core_cache.values()
    }


def _guard_sweep_calls(monkeypatch):
    """The kernel calls of each core build and of each final certificate
    over the guard sweep (Z/97, n = 5, seed 11, targets (2, 3))."""
    n = 5
    g, eng = _engine(n, 11)
    calls, cores, finals = [], [], []
    kernel = matrices._kernel_matmul
    build, finalize = rdu.ReverseDecomposer._build_core, rdu.ReverseDecomposer._finalize

    def counted(store, method):
        def wrapper(self, *args):
            before = len(calls)
            out = method(self, *args)
            store.append(len(calls) - before)
            return out

        return wrapper

    monkeypatch.setattr(matrices, "_kernel_matmul", lambda *a: calls.append(1) or kernel(*a))
    monkeypatch.setattr(rdu.ReverseDecomposer, "_build_core", counted(cores, build))
    monkeypatch.setattr(rdu.ReverseDecomposer, "_finalize", counted(finals, finalize))
    for gen in level.level_generators(g.fwd, n):
        eng.decompose(rdu.GeneratorTarget(gen.kind, gen.I, gen.J, 2, 3))
    return cores, finals


def test_the_guard_sweep_counts_products_in_every_core(monkeypatch):
    # the guards count matrices._kernel_matmul calls, so every engine product
    # must pass through it whatever its dtype (float64 over Z/97): a core
    # that multiplied past it would count 0 and pass them vacuously
    cores, _ = _guard_sweep_calls(monkeypatch)
    assert len(cores) == 101
    assert min(cores) >= 1


def test_every_final_certificate_takes_at_most_6_kernel_calls(monkeypatch):
    # a final word of several cores is recalled as its cores' kept words
    # (words._core_words): 0.60 calls on average and 5 at most, where
    # cutting a 24-term h1-diag word into groups took up to 72
    _, finals = _guard_sweep_calls(monkeypatch)
    assert len(finals) == 103
    assert max(finals) <= 6


def test_a_core_word_is_recalled_whole_without_a_product(monkeypatch):
    # the guard sweep below: the eight-conjugate-core certificate recalls
    # the kept commutator pair whole, so its eval_matrix takes no kernel
    # call (4 when the word was made from z's runs)
    n = 5
    g, eng = _engine(n, 11)
    calls, eights, building = [], [], []
    kernel = matrices._kernel_matmul
    build = rdu.ReverseDecomposer._build_core
    evaluate = ConjWord.eval_matrix

    def counted_build(self, *args):
        building.append(1)
        try:
            return build(self, *args)
        finally:
            building.pop()

    def counted_eval(self, *args):
        before = len(calls)
        out = evaluate(self, *args)
        if building:
            eights.append(len(calls) - before)
        return out

    monkeypatch.setattr(matrices, "_kernel_matmul", lambda *a: calls.append(1) or kernel(*a))
    monkeypatch.setattr(rdu.ReverseDecomposer, "_build_core", counted_build)
    monkeypatch.setattr(ConjWord, "eval_matrix", counted_eval)
    for gen in level.level_generators(g.fwd, n):
        eng.decompose(rdu.GeneratorTarget(gen.kind, gen.I, gen.J, 2, 3))
    assert len(eights) == 101
    assert set(eights) == {0}


def test_z_takes_at_most_9_kernel_calls_and_its_commutator_word_at_most_4(monkeypatch):
    # the same sweep as the guards above: z's chain is 9 stacked products
    # and keeps nothing; the eight-term word recalls the commutator pair
    # that words._keep_commutator made from z's pair (3 products, outside
    # eval_matrix), so that word takes none
    n = 5
    g, eng = _engine(n, 11)
    calls, zs, eights = [], [], []
    kernel = matrices._kernel_matmul
    chain = words._chain
    build = rdu.ReverseDecomposer._build_core
    evaluate = ConjWord.eval_matrix
    building = []

    def counted_kernel(*args):
        calls.append(1)
        return kernel(*args)

    def counted_chain(*args):
        before = len(calls)
        out = chain(*args)
        zs.append(len(calls) - before)
        return out

    def counted_build(self, *args):
        building.append(1)
        try:
            return build(self, *args)
        finally:
            building.pop()

    def counted_eval(self, *args):
        before = len(calls)
        out = evaluate(self, *args)
        if building and len(self) == 8:
            eights.append(len(calls) - before)
        return out

    monkeypatch.setattr(matrices, "_kernel_matmul", counted_kernel)
    monkeypatch.setattr(words, "_chain", counted_chain)
    monkeypatch.setattr(rdu.ReverseDecomposer, "_build_core", counted_build)
    monkeypatch.setattr(ConjWord, "eval_matrix", counted_eval)
    for gen in level.level_generators(g.fwd, n):
        eng.decompose(rdu.GeneratorTarget(gen.kind, gen.I, gen.J, 2, 3))
    assert len(zs) == len(eights) == 101
    assert max(zs) <= 9
    assert sum(eights) / len(eights) <= 4


def test_a_changed_letter_of_z_fails_four_conjugate_z(monkeypatch):
    # z's pass reads its segments by the word's own letters: with one
    # payload of z's last conjugator changed, z's product no longer equals
    # the direct h s h^-1 T s^-1 T^-1, and the core names that certificate
    n = 5
    g, eng = _engine(n, 11)
    ring = g.ring
    reconjugate = rdu.reconjugate

    def changed(word, prefix):
        if len(word) == 4:  # z; the eight-term word is built after it
            eps, h = word.terms[-1]
            (i, j, xi), rest = h.letters[0], h.letters[1:]
            h = words.ExtWord(n, ((i, j, ring.add(xi, ring.one)),) + rest)
            word = ConjWord(n, word.terms[:-1] + ((eps, h),))
        return reconjugate(word, prefix)

    monkeypatch.setattr(rdu, "reconjugate", changed)
    with pytest.raises(rdu.CertificateError, match="four-conjugate-z"):
        eng.decompose(rdu.GeneratorTarget("entry", (1, 2), (2, 4), 2, 3))


@pytest.mark.parametrize("slot", [((1, 2), (2, 4)), ((1, 3), (1, 2))])
def test_a_changed_letter_of_the_commutator_word_fails_eight_conjugate_core(monkeypatch, slot):
    # the commutator pair is kept only for a word whose terms are z's with
    # a^-1 appended, then z's formal inverse: with one payload of its last
    # a^-1-conjugated term changed (through rdu.retarget, which appends
    # a^-1), the word is multiplied out as written and is no longer the
    # letter; at ((1, 3), (1, 2)) the outer prefix is empty, and the word's
    # top level cuts into three groups
    n = 5
    g, eng = _engine(n, 11)
    ring = g.ring
    retarget = rdu.retarget
    assert (len(exterior.route_source(*slot, n)[0]) == 0) == (slot == ((1, 3), (1, 2)))

    def changed(word, suffix):
        word = retarget(word, suffix)
        if len(word) == 4:  # z with a^-1 appended; final words are longer
            eps, h = word.terms[-1]
            (i, j, xi), rest = h.letters[0], h.letters[1:]
            h = words.ExtWord(n, ((i, j, ring.add(xi, ring.one)),) + rest)
            word = ConjWord(n, word.terms[:-1] + ((eps, h),))
        return word

    monkeypatch.setattr(rdu, "retarget", changed)
    with pytest.raises(rdu.CertificateError, match="eight-conjugate-core"):
        eng._core(*slot)


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


REFEREE_SHAPES = {
    # conjugator lengths per term: odd tree levels, both sides of a power of two
    "longest-1": [1, 0, 1],
    "longest-2": [2, 1],
    "longest-3": [3, 1, 2],
    "longest-16": [16, 5, 16],
    "longest-17": [17, 16, 1],
    "longest-33": [33, 2],
    "single-term": [9],
    "all-empty": [0, 0, 0],
    "empty-and-long": [0, 33, 0, 0, 20, 0],
}


def _spy_dtypes(monkeypatch):
    """The dtypes of every stack the batched referee builds or multiplies:
    the n x n transvection stack, its product (the minors keep its dtype)
    and the N x N chain."""
    seen = []
    build, pairwise = rdu._transvection_stack, rdu._pairwise_product

    def spy_build(*args):
        stack = build(*args)
        seen.append(stack.dtype)
        return stack

    def spy_pairwise(stack, *args):
        seen.append(stack.dtype)
        return pairwise(stack, *args)

    monkeypatch.setattr(rdu, "_transvection_stack", spy_build)
    monkeypatch.setattr(rdu, "_pairwise_product", spy_pairwise)
    return seen


# the dtypes the batched referee must take on each ring at n <= 7: the
# n x n stack, built and multiplied, then the N x N chain
REFEREE_DTYPES = {
    "zmod97": dict.fromkeys((4, 5, 6, 7), (np.float64, np.float64)),
    "zmod-mersenne-31": {4: (np.int64, np.int64)} | dict.fromkeys((5, 6, 7), (np.int64, np.float64)),
}


def _stack_dtypes(stack, chain, calls=1):
    """What _spy_dtypes sees over `calls` batched products."""
    return [np.dtype(stack), np.dtype(stack), np.dtype(chain)] * calls


@pytest.mark.parametrize("shape", sorted(REFEREE_SHAPES))
@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("ring_id", sorted(REFEREE_RINGS))
def test_batched_referee_matches_the_loop_on_named_shapes(monkeypatch, ring_id, n, shape):
    seen = _spy_dtypes(monkeypatch)
    ring = REFEREE_RINGS[ring_id]
    rng = random.Random(f"{ring_id} {n} {shape}")
    g = generate.compound_of_random(n, ring, 8, rng)
    word = ConjWord(
        n,
        [
            (rng.choice((1, -1)), generate.random_ext_word(n, ring, k, rng))
            for k in REFEREE_SHAPES[shape]
        ],
    )
    assert [len(h) for _, h in word.terms] == REFEREE_SHAPES[shape]
    _assert_products_agree(word, g, 2, 3, ring.random(rng), n)
    assert seen == _stack_dtypes(*REFEREE_DTYPES[ring_id][n], calls=2)


# Z/97 on one float64 limb throughout; Z/(2^31 - 1) with balanced int64
# n x n stacks and float64 limbs for its N = 10 and 15 chains; 1 610 612 741,
# a prime with balanced int64 up to dim 10 and float64 limbs at N = 15
EDGE_RINGS = {"zmod97": 97, "mersenne-31": 2**31 - 1, "limbs-at-15": 1_610_612_741}

# pairs of terms (eps, h), (-eps, h), each multiplying out to the identity,
# inserted into a decomposition: conjugator lengths per pair
EDGE_SHAPES = {"none": [], "empty-conjugator": [0], "length-one": [1, 1], "very-unequal": [1, 60, 0, 2]}


@lru_cache(maxsize=None)
def _edge_words(ring_id, n):
    """g and its 8-, 16-, 24- and 48-term decompositions over one ring."""
    g, eng = _engine(n, 17, rings.ModularRing(EDGE_RINGS[ring_id]))
    return g, (
        eng.entry((1, 3), (1, 2), 2, 3),
        eng.entry((1, 2), (3, 4), 4, 1),
        eng.diagonal((1, 2), (1, 3), 3, 2),
        eng.diagonal((1, 2), (3, 4), 5, 1),
    )


def _assert_refereed(word, g, k, l, xi, n, rng):
    """The batched product equals the loop's; verify accepts (k, l, xi) and
    rejects xi + 1 and the word with one exponent flipped."""
    assert np.array_equal(rdu._batched_product(word, g), rdu._naive_product(word, g)._residues())
    assert rdu.verify(word, g, k, l, xi, n)
    assert not rdu.verify(word, g, k, l, g.ring.add(xi, 1), n)
    terms = list(word.terms)
    t = rng.randrange(len(terms))
    terms[t] = (-terms[t][0], terms[t][1])
    assert not rdu.verify(ConjWord(n, terms), g, k, l, xi, n)


@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
@pytest.mark.parametrize("case", [0, 1, 2, 3], ids=["8-term", "16-term", "24-term", "48-term"])
@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("ring_id", sorted(EDGE_RINGS))
def test_batched_referee_on_edge_shapes_of_real_words(ring_id, n, case, shape):
    # a decomposition of every case length, with identity pairs of the
    # shape's conjugator lengths inserted at one place
    g, found = _edge_words(ring_id, n)
    d = found[case]
    assert len(d.word) == (8, 16, 24, 48)[case]
    rng = random.Random(f"edge {ring_id} {n} {case} {shape}")
    pairs = []
    for k in EDGE_SHAPES[shape]:
        eps, h = rng.choice((1, -1)), generate.random_ext_word(n, g.ring, k, rng)
        pairs += [(eps, h), (-eps, h)]
    at = rng.randrange(len(d.word) + 1)
    word = ConjWord(n, d.word.terms[:at] + tuple(pairs) + d.word.terms[at:])
    _assert_refereed(word, g, d.k, d.l, d.param, n, rng)


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("ring_id", sorted(EDGE_RINGS))
def test_batched_referee_on_a_one_term_word(ring_id, n, eps):
    # T = 1, no product between conjugators: g is the exterior transvection
    # t_23(xi)'s compound, and the conjugator's letters commute with t_23,
    # so the word's product is g^eps, the target t_23(eps xi)
    ring = rings.ModularRing(EDGE_RINGS[ring_id])
    rng = random.Random(f"one term {ring_id} {n} {eps}")
    xi = ring.random(rng) or 1
    g = exterior.compound_pair(matrices.transvection_pair(ring, n, 2, 3, xi), n)
    far = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j and not {i, j} & {2, 3}]
    h = words.ExtWord(n, [(*rng.choice(far), ring.random(rng)) for _ in range(7)])
    _assert_refereed(ConjWord(n, [(eps, h)]), g, 2, 3, xi if eps == 1 else ring.neg(xi), n, rng)


@pytest.mark.parametrize(
    "modulus,batched", [(2**31, True), (2**31 + 1, False)], ids=["2^31", "2^31+1"]
)
def test_referee_at_the_one_limb_bound(monkeypatch, modulus, batched):
    # all-(m-1) matrices and letters: the largest residues the batched
    # updates see; both paths equal the same product over Z reduced mod m
    ring = rings.ModularRing(modulus)
    assert exterior._int64_minors(ring) is batched
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


def _largest_modulus(fits):
    """The largest m >= 2 with fits(m), for a bound that holds up to some m
    below 2^31 and fails from there on."""
    lo, hi = 2, 2**31
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _all_top_word(n, ring, shape, top=None):
    """A word whose letters all have argument `top`, m - 1 unless given:
    four terms, one of them with an empty conjugator ("mixed"), a single
    term ("one-term"), or three terms with empty conjugators ("all-empty")."""
    top = ring.modulus - 1 if top is None else top
    rng = random.Random(f"all-top {n}")
    h = words.ExtWord(n, [(i, j, top) for i, j, _ in generate.random_ext_word(n, ring, 5, rng).letters])
    e = words.ExtWord(n)
    return ConjWord(n, {
        "mixed": [(1, h), (-1, e), (-1, h + h), (1, h)],
        "one-term": [(-1, h)],
        "all-empty": [(1, e), (-1, e), (-1, e)],
    }[shape])


def _all_top_product(word, modulus, top=None):
    """g over Z/m with every entry `top`, m - 1 unless given (trusted as its
    own inverse: the two are never multiplied together), and the word's
    product with that g over Z, reduced mod m."""
    top = modulus - 1 if top is None else top
    N = indexing.dim(word.n)
    pairs = []
    for ring in (rings.ModularRing(modulus), rings.IntegerRing()):
        full = matrices.Matrix(ring, [[top] * N] * N)
        pairs.append(matrices.InvPair._trusted(full, full))
    over_z = rdu._naive_product(word, pairs[1])
    return pairs[0], tuple(tuple(v % modulus for v in row) for row in over_z.rows)


def _assert_referee_on_all_top(monkeypatch, modulus, n, shape, dtypes, top=None):
    """All-(m-1) g and letters, the largest canonical residues the stacks
    see (all-`top` where given): the batched product, from stacks of the
    (n x n, N x N) `dtypes`, and the loop both equal the product over Z
    reduced mod m.  Returns the dtypes of the minor stacks."""
    word = _all_top_word(n, rings.ModularRing(modulus), shape, top)
    g, want = _all_top_product(word, modulus, top)
    assert rdu._naive_product(word, g).rows == want

    seen = _spy_dtypes(monkeypatch)
    minors, residue_minors = [], exterior._residue_minors

    def spy_minors(x, m):
        minors.append(x.dtype)
        return residue_minors(x, m)

    monkeypatch.setattr(exterior, "_residue_minors", spy_minors)
    got = rdu._batched_product(word, g)
    assert got.dtype == np.int64
    assert tuple(map(tuple, got.tolist())) == want
    assert seen == _stack_dtypes(*dtypes)
    lifted = set(minors)
    assert not rdu.verify(word, g, 2, 3, 1, n)
    return lifted


@pytest.mark.parametrize("inside", [True, False], ids=["largest", "next"])
@pytest.mark.parametrize("n", [4, 6])
def test_referee_at_the_float64_bound(monkeypatch, n, inside):
    # one float64 limb at N up to the largest m with N (m-1)^2 + m <= 2^53,
    # two limbs from the next m on, where the chain runs in balanced int64
    N = indexing.dim(n)
    modulus = _largest_modulus(lambda m: N * (m - 1) ** 2 + m <= 2**53) + (not inside)
    ring = rings.ModularRing(modulus)
    s = matrices._kernel(ring, N)
    if inside:
        assert s == matrices.ONE_LIMB
    else:
        assert s and ((modulus - 1).bit_length() - 1) // s == 1
    dtypes = (np.float64, np.float64 if inside else np.int64)
    assert _assert_referee_on_all_top(monkeypatch, modulus, n, "mixed", dtypes) == {np.dtype(np.float64)}


@pytest.mark.parametrize("shape", ["mixed", "one-term", "all-empty"])
@pytest.mark.parametrize(
    "bound", ["float-minors-largest", "float-minors-next", "2^31"]
)
def test_referee_at_the_minor_bound_and_at_2_to_the_31(monkeypatch, bound, shape):
    # float64 minors at dim 1 up to the largest m with (m-1)^2 + m <= 2^53,
    # int64 ones from the next m on and at m = 2^31, the largest m the
    # batched referee serves; at n = 5 the n x n products run in balanced
    # int64 at all three, so the minors are int64 too, and the N = 10 chain
    # in balanced int64 up to m = 1 920 767 767 and in float64 limbs at 2^31
    largest = _largest_modulus(lambda m: (m - 1) ** 2 + m <= 2**53)
    modulus = {"float-minors-largest": largest, "float-minors-next": largest + 1, "2^31": 2**31}[bound]
    ring = rings.ModularRing(modulus)
    float_minors = bound == "float-minors-largest"
    assert (matrices._kernel(ring, 1) == matrices.ONE_LIMB) is float_minors
    assert exterior._int64_minors(ring)
    dtypes = (np.int64, np.float64 if bound == "2^31" else np.int64)
    minors = _assert_referee_on_all_top(monkeypatch, modulus, 5, shape, dtypes)
    assert minors == {np.dtype(np.int64)}


# the largest m with dim h^2 + h < 2^63, h = floor(m/2), at dims 8 and 10
BALANCED_LARGEST = {8: 2**31 - 1, 10: 1_920_767_767}


@pytest.mark.parametrize("inside", [True, False], ids=["largest", "next"])
@pytest.mark.parametrize("dim", sorted(BALANCED_LARGEST))
def test_referee_kernel_at_the_balanced_bound(dim, inside):
    # one balanced int64 product up to the largest m, float64 limbs from the
    # next m on; rows and columns of residue h, whose balanced value is
    # +-h, make every sum dim h^2, the bound itself (m - 1 balances to -1)
    modulus = BALANCED_LARGEST[dim] + (not inside)
    ring, h = rings.ModularRing(modulus), modulus // 2
    assert (dim * h * h + h < 2**63) is inside
    kind = matrices._referee_kernel(ring, dim)
    a = np.full((2, dim, dim), h)
    if inside:
        assert kind == matrices.BALANCED
        a = matrices._balance(a, modulus)
        assert (np.abs(a) == h).all()
    else:
        assert kind == matrices._kernel(ring, dim) >= 1
        a = a.astype(np.float64)
    got = matrices._referee_matmul(a, a, modulus, kind).astype(np.int64) % modulus
    assert set(got.ravel().tolist()) == {dim * h * h % modulus}


@pytest.mark.parametrize(
    "dim,inside,shape",
    [(8, True, "mixed"), (8, False, "mixed")]
    + [(10, inside, shape) for inside in (True, False) for shape in ("mixed", "all-empty")],
)
def test_referee_at_the_balanced_bound(monkeypatch, dim, inside, shape):
    # g and letters of residue h = floor(m/2), balanced value +-h, at n = 8,
    # whose n x n stacks have dim 8, and at n = 5, whose chain has N = 10;
    # "all-empty" multiplies g by g^-1 = g in the chain, sums of N h^2
    modulus = BALANCED_LARGEST[dim] + (not inside)
    ring = rings.ModularRing(modulus)
    assert (matrices._referee_kernel(ring, dim) == matrices.BALANCED) is inside
    if dim == 8:
        n, dtypes = 8, (np.int64 if inside else np.float64, np.float64)
    else:
        n, dtypes = 5, (np.int64, np.int64 if inside else np.float64)
    minors = _assert_referee_on_all_top(monkeypatch, modulus, n, shape, dtypes, modulus // 2)
    assert minors == {np.dtype(np.int64)}


@pytest.mark.parametrize("modulus", [97, 2**31 - 1, 2**31])
def test_transvection_stack_holds_residues_of_its_kind(modulus):
    # balanced residues in [-h, m-1-h], h = floor(m/2), where the n x n
    # products run in int64 (both wide moduli at n = 5), canonical float64
    # ones in [0, m) elsewhere (Z/97); letters and their inverses alike
    ring = rings.ModularRing(modulus)
    rng = random.Random(f"stack {modulus}")
    word = ConjWord(5, [(1, generate.random_ext_word(5, ring, k, rng)) for k in (6, 0, 9)])
    kind = matrices._referee_kernel(ring, 5)
    stack = rdu._transvection_stack(word, ring, kind, (2, 3, 1))
    if modulus == 97:
        assert kind == matrices.ONE_LIMB and stack.dtype == np.float64
        assert 0 <= stack.min() and stack.max() <= modulus - 1
    else:
        h = modulus // 2
        assert kind == matrices.BALANCED and stack.dtype == np.int64
        assert -h <= stack.min() and stack.max() <= modulus - 1 - h


def _referee_bound_moduli():
    """Both sides of every bound of matrices._referee_kernel at the dims of
    words at n = 4 to 6 (n and N) and of the balanced bound at dims 8 to
    10, with 2^31 - 1 and 2^31."""
    out = {2**31 - 1, 2**31}
    for dim in (4, 5, 6, 10, 15):
        largest = _largest_modulus(lambda m: dim * (m - 1) ** 2 + m <= 2**53)
        out |= {largest, largest + 1}
    for dim in (8, 9, 10):
        largest = _largest_modulus(lambda m: dim * (m // 2) ** 2 + m // 2 < 2**63)
        out |= {largest, largest + 1}
    return sorted(out)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    modulus=st.sampled_from(_referee_bound_moduli()),
    n=st.integers(4, 6),
    lengths=st.lists(st.integers(0, 5), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_referee_matches_the_loop_at_every_kernel_bound(modulus, n, lengths, seed):
    ring = rings.ModularRing(modulus)
    rng = random.Random(seed)
    g = generate.compound_of_random(n, ring, 6, rng)
    word = ConjWord(
        n,
        [
            (rng.choice((1, -1)), generate.random_ext_word(n, ring, k, rng))
            for k in lengths
        ],
    )
    got = rdu._batched_product(word, g)
    assert np.array_equal(got, rdu._naive_product(word, g)._residues())


# -- delayed reduction in the one-limb float64 stacks --------------------------


def _spy_reductions(monkeypatch):
    """The shape of every stack matrices._float64_reduce reduces."""
    shapes, reduce = [], matrices._float64_reduce

    def spy(c, m):
        shapes.append(c.shape)
        return reduce(c, m)

    monkeypatch.setattr(matrices, "_float64_reduce", spy)
    return shapes


def _alternating_word(n, modulus, length, terms):
    """`terms` terms, each conjugated by `length` letters alternating
    t_12(m-1) and t_21(m-1): the entries of their products grow like
    (m-1)^k over k letters, so they come near the bounds the referee
    carries (about m^8 for eight letters)."""
    top = modulus - 1
    h = words.ExtWord(n, [((1, 2, top), (2, 1, top))[p % 2] for p in range(length)])
    return ConjWord(n, [((-1) ** t, h) for t in range(terms)])


def _assert_delayed_product(monkeypatch, word, modulus):
    """With all-(m-1) g, the batched product and the loop both equal the
    product over Z reduced mod m; returns the shapes of the reduced stacks."""
    g, want = _all_top_product(word, modulus)
    assert rdu._naive_product(word, g).rows == want
    shapes = _spy_reductions(monkeypatch)
    assert tuple(map(tuple, rdu._batched_product(word, g).tolist())) == want
    return shapes


# the largest m whose letter trees run three levels unreduced: a letter's
# rows sum to at most m and its entries are at most m - 1, so two levels
# leave row sums m^4 and entries m^3 (m - 1), and the third level runs
# unreduced while m^7 (m - 1) + m <= 2^53
TREE_LARGEST = 98


@pytest.mark.parametrize("inside", [True, False], ids=["largest", "next"])
@pytest.mark.parametrize("length", [8, 16])
def test_delayed_reduction_at_the_letter_tree_bound(monkeypatch, length, inside):
    # 8 letters take three levels: one reduction, at the end, up to m = 98,
    # and one more before the third level from m = 99 on.  16 letters take
    # a fourth level, which at m = 98 needs its input reduced (unreduced it
    # would reach 97^16); at m = 99 the reduction before the third level
    # leaves room for the fourth.  Reductions are listed by stack length.
    assert _largest_modulus(lambda m: m**7 * (m - 1) + m <= 2**53) == TREE_LARGEST
    assert TREE_LARGEST**8 + TREE_LARGEST <= 2**53 < (TREE_LARGEST + 1) ** 8
    modulus = TREE_LARGEST + (not inside)
    shapes = _assert_delayed_product(monkeypatch, _alternating_word(4, modulus, length, 3), modulus)
    tree = [shape[0] for shape in shapes if len(shape) == 4]
    assert tree == {(8, True): [1], (8, False): [2, 1], (16, True): [2, 1], (16, False): [4, 1]}[length, inside]


# the largest m whose N = 15 chains run two levels unreduced after a
# reduction: canonical residues have entries m - 1 and row sums 15 (m - 1),
# one level leaves 15 (m - 1)^2 and 225 (m - 1)^2, and the next runs
# unreduced while 3375 (m - 1)^4 + m <= 2^53
CHAIN_LARGEST = 1279


@pytest.mark.parametrize("inside", [True, False], ids=["largest", "next"])
def test_delayed_reduction_at_the_chain_bound(monkeypatch, inside):
    # four terms at n = 6: the chain's first level, the 4 products
    # X_t g^{eps_t}, runs 4 -> 2 -> 1, reduced before the third level, and
    # the product times X_T is reduced at the end; up to m = 1279 that is
    # all, from m = 1280 on the first level is reduced before the second
    # too.  The stacks of 15 x 15 matrices are listed by length (the
    # minors, reduced as (15, 15, 6), are not)
    assert _largest_modulus(lambda m: 3375 * (m - 1) ** 4 + m <= 2**53) == CHAIN_LARGEST
    modulus = CHAIN_LARGEST + (not inside)
    assert matrices._referee_kernel(rings.ModularRing(modulus), 15) == matrices.ONE_LIMB
    shapes = _assert_delayed_product(monkeypatch, _alternating_word(6, modulus, 8, 4), modulus)
    chain = [shape[0] for shape in shapes if shape[-1] == 15]
    assert chain == ([2, 1] if inside else [4, 2, 1])


# the largest m at each n whose products x_t x_{t+1}^-1 reach the minors
# unreduced: their entries are at most e = n (m - 1)^2, their minors at
# most e^2 in absolute value, and e^2 + m <= 2^53
MINOR_LARGEST = {4: 4871, 6: 3978}


@pytest.mark.parametrize("inside", [True, False], ids=["largest", "next"])
@pytest.mark.parametrize("n", sorted(MINOR_LARGEST))
def test_delayed_reduction_at_the_minor_bound(monkeypatch, n, inside):
    # three terms: the two products x_1 x_2^-1 and x_2 x_3^-1 are one n x n
    # stack of length 2, reduced before the minors only from the next m on
    largest = MINOR_LARGEST[n]
    assert _largest_modulus(lambda m: (n * (m - 1) ** 2) ** 2 + m <= 2**53) == largest
    modulus = largest + (not inside)
    shapes = _assert_delayed_product(monkeypatch, _alternating_word(n, modulus, 8, 3), modulus)
    between = [shape for shape in shapes if len(shape) == 3 and shape[-1] == n]
    assert between == ([] if inside else [(2, n, n)])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    modulus=st.sampled_from(
        sorted({TREE_LARGEST, CHAIN_LARGEST} | set(MINOR_LARGEST.values()) | {4357})
        + sorted({TREE_LARGEST + 1, CHAIN_LARGEST + 1, 4358} | {m + 1 for m in MINOR_LARGEST.values()})
    ),
    n=st.integers(4, 6),
    lengths=st.lists(st.integers(0, 20), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_referee_matches_the_loop_at_every_delayed_bound(modulus, n, lengths, seed):
    # random words on both sides of every edge above (4357 is the minor
    # edge at n = 5); conjugators up to 20 letters take five tree levels
    ring = rings.ModularRing(modulus)
    rng = random.Random(seed)
    g = generate.compound_of_random(n, ring, 6, rng)
    word = ConjWord(
        n,
        [
            (rng.choice((1, -1)), generate.random_ext_word(n, ring, k, rng))
            for k in lengths
        ],
    )
    got = rdu._batched_product(word, g)
    assert np.array_equal(got, rdu._naive_product(word, g)._residues())


@pytest.mark.parametrize("case,reductions", [("8-term", 5), ("16-term", 6)])
def test_zmod97_verify_reduces_only_where_a_bound_requires(monkeypatch, case, reductions):
    # the float64 reductions of one verify at n = 6 over Z/97, where every
    # product used to be reduced (11 and 13): two in the letter tree (before
    # its fourth level and at the end), one in the minors, and in the chain,
    # whose first level is the T products X_t g^{eps_t}, one every two
    # levels and one at the end, after X_T: 8-term words have 3 levels
    # after the first (one reduction), 16-term words 4 (two).  The guard
    # counts calls; it does not time them.
    g, eng = _engine(6, 13)
    if case == "8-term":
        d = eng.entry((1, 3), (1, 2), 2, 3)
    else:
        d = eng.entry((1, 2), (3, 4), 4, 1)
    assert len(d.word) == int(case.split("-")[0])
    shapes = _spy_reductions(monkeypatch)
    assert rdu.verify(d.word, g, d.k, d.l, d.param, 6)
    assert len(shapes) == reductions


LETTER_PAYLOADS = {
    "above-m": lambda ring: ring.modulus + 5,
    "beyond-int64": lambda ring: 2**70 + 3,
    "negative": lambda ring: -1,
    "negative-beyond-int64": lambda ring: -(2**65) - 7,
    "bool": lambda ring: True,
    "ring-element": lambda ring: ring.elem(5),
}


@pytest.mark.parametrize("payload", sorted(LETTER_PAYLOADS))
@pytest.mark.parametrize("modulus", [97, 2**31 - 1])
@pytest.mark.parametrize("where", ["one-letter", "every-letter"])
def test_transvection_stack_coerces_payloads_as_the_ring_does(modulus, payload, where):
    # the array read of plain ints and the per-payload ring.coerce give the
    # stack of the coerced word, and the batched product the loop's
    ring = rings.ModularRing(modulus)
    rng = random.Random(f"payloads {modulus} {payload}")
    g = generate.compound_of_random(5, ring, 6, rng)
    value = LETTER_PAYLOADS[payload](ring)
    terms, coerced = [], []
    for k in (4, 0, 7):
        letters = list(generate.random_ext_word(5, ring, k, rng).letters)
        for p in range(len(letters)) if where == "every-letter" else range(min(1, len(letters))):
            letters[p] = letters[p][:2] + (value,)
        terms.append((1, words.ExtWord(5, letters)))
        coerced.append((1, words.ExtWord(5, [(i, j, ring.coerce(x)) for i, j, x in letters])))
    word, plain = ConjWord(5, terms), ConjWord(5, coerced)
    kind = matrices._referee_kernel(ring, 5)
    target = (2, 3, 1)
    assert np.array_equal(
        rdu._transvection_stack(word, ring, kind, target), rdu._transvection_stack(plain, ring, kind, target)
    )
    assert np.array_equal(rdu._batched_product(word, g), rdu._naive_product(word, g)._residues())


@pytest.mark.parametrize("payload", [2.5, 3.0, "3", np.int64(3)], ids=["float", "integral-float", "str", "np.int64"])
def test_transvection_stack_refuses_what_the_ring_refuses(payload):
    # np.fromiter would truncate 2.5 and parse "3"; the referee raises the
    # error ring.coerce raises instead, from the stack and from verify
    ring = rings.ModularRing(97)
    with pytest.raises(TypeError) as refused:
        ring.coerce(payload)
    g, _ = _engine(4, 2)
    word = ConjWord(4, [(1, words.ExtWord(4, [(1, 2, 5), (2, 3, payload)]))])
    with pytest.raises(refused.type, match=re.escape(str(refused.value))):
        rdu._transvection_stack(word, ring, matrices.ONE_LIMB, (2, 3, 1))
    with pytest.raises(refused.type, match=re.escape(str(refused.value))):
        rdu.verify(word, g, 2, 3, 1, 4)


@pytest.mark.parametrize("dim", [1, 2, 6, 10, 15, 45])
def test_float64_kernel_takes_the_widest_exact_limb(dim):
    # the width is the widest s with (m-1) ((dim+1) 2^s - dim) + m <= 2^53;
    # at the largest m for each width, and the next, a product of all-(m-1)
    # rows with columns whose low limb is all ones equals the product over Z
    # reduced mod m
    def fits(m, s):
        return (m - 1) * ((dim + 1) * 2**s - dim) + m <= 2**53

    checked = 0
    for width in range(1, 24):
        largest = _largest_modulus(lambda m: fits(m, width))
        if largest == 2**31 - 1 or dim * (largest - 1) ** 2 + largest <= 2**53:
            continue  # no limb bound below 2^31, or one limb
        for m in (largest, largest + 1):
            s = matrices._kernel(rings.ModularRing(m), dim)
            assert fits(m, s) and not fits(m, s + 1)
            b = (((m - 1) >> s) << s) - 1
            prod = matrices._float64_matmul(
                np.full((2, dim, dim), m - 1.0), np.full((2, dim, dim), float(b)), m, s
            )
            assert set(prod.ravel().tolist()) == {dim * (m - 1) * b % m}
            checked += 1
    assert checked >= 4


def test_float64_kernel_answers_none_off_its_range():
    assert matrices._kernel(rings.IntegerRing(), 1) is None
    assert matrices._kernel(rings.ModularRing(2**53), 1) is None
    assert matrices._kernel(rings.ModularRing(2**61 - 1), 6) is None
    assert matrices._kernel(rings.ModularRing(2**31 - 1), 10) == 18


@pytest.mark.parametrize(
    "ring",
    [rings.ModularRing(97), rings.ModularRing(2**31 - 1), rings.IntegerRing()],
    ids=["zmod97-batched", "zmod-mersenne-31-batched", "int-naive"],
)
@pytest.mark.parametrize("k,l", [(3, 3), (0, 2), (2, 6), (6, 1)])
def test_verify_rejects_a_bad_target_on_both_paths(ring, k, l):
    # k = l or out of range raises before any product, batched or naive
    g, eng = _engine(5, 3, ring, length=6)
    word = eng.entry((1, 3), (1, 2), 2, 3).word
    message = re.escape(f"bad index (k = {k}, l = {l} at n = 5)")
    with pytest.raises(ValueError, match=message):
        rdu.verify(word, g, k, l, 1, 5)
    with pytest.raises(ValueError, match=message):
        rdu.first_difference(word, g, k, l, 1, 5)


def test_verify_over_the_mersenne_prime_multiplies_no_int64_product(monkeypatch):
    # what this refuses is the engine's kernel, _kernel_matmul: the
    # referee's own balanced int64 products (through
    # matrices._referee_matmul) do run here, at n = 5 on every n x n stack
    g, eng = _engine(5, 13, rings.ModularRing(2**31 - 1))
    d = eng.diagonal((1, 2), (3, 4), 4, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the referee called the engine's kernel")

    monkeypatch.setattr(matrices, "_kernel_matmul", refuse)
    assert rdu.verify(d.word, g, d.k, d.l, d.param, 5)
    assert rdu.first_difference(d.word, g, d.k, d.l, g.ring.add(d.param, 1), 5) is not None


@pytest.mark.parametrize("n", [4, 5])
def test_wide_modulus_verify_runs_no_float64_product_below_dim_8(monkeypatch, n):
    # over Z/(2^31 - 1) every referee stack of dim <= 7 runs in balanced
    # int64: at n = 4 (N = 6) verify makes no float64 product, and at n = 5
    # only the N = 10 chain does, one call per level of its 17 factors
    g, eng = _engine(n, 13, rings.ModularRing(2**31 - 1))
    d = eng.entry((1, 3), (1, 2), 2, 3)
    assert len(d.word) == 8
    dims, float64_matmul = [], matrices._float64_matmul

    def spy(a, b, m, s):
        dims.append(a.shape[-1])
        return float64_matmul(a, b, m, s)

    monkeypatch.setattr(matrices, "_float64_matmul", spy)
    assert rdu.verify(d.word, g, d.k, d.l, d.param, n)
    assert dims == ([] if n == 4 else [10] * 5)
