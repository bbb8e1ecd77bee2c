"""Acceptance criteria, one test per criterion, all at exact equality.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Trial counts and rank ranges are part of the contract and
are not scaled down here.
"""

import functools
import math
import random

from extsquare import (
    certify,
    exterior,
    generate,
    indexing,
    level,
    matrices,
    plucker,
    rdu,
    rings,
    stabilizer,
)
from extsquare.words import ConjWord, ExtWord, ext_letter_matrix

SEED = 20250808


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS")

        return wrapper

    return deco


@criterion(1, "transvection expansion equals compound minors (n=3..6)")
def test_criterion_01_expansion_certification():
    ring = rings.PolynomialRing(("xi",))
    xi = ring.var("xi")
    for n in range(3, 7):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                word = exterior.ext_transvection(i, j, xi, n)
                assert len(word) == n - 2
                oracle = exterior.cauchy_binet(
                    matrices.transvection(ring, n, i, j, xi), n
                )
                assert word.eval(ring).fwd == oracle


@criterion(2, "worked expansion example, exact letters (n=5)")
def test_criterion_02_worked_example():
    ring = rings.PolynomialRing(("xi",))
    xi = ring.var("xi")
    word = exterior.ext_transvection(1, 3, xi, 5)
    assert word.letters == (
        ((1, 2), (2, 3), ring.neg(xi)),
        ((1, 4), (3, 4), xi),
        ((1, 5), (3, 5), xi),
    )


@criterion(3, "column stabilizer fixes every vector (symbolic + randomized)")
def test_criterion_03_column_stabilizer():
    assert certify.column_stabilizer_suite((5,)).status == "pass"
    ring = rings.ModularRing(97)
    for n in range(3, 8):
        rng = generate.rng_for(SEED, "stabilizer", n)
        for _ in range(1000):
            w = plucker.PairVector(
                n, ring, [ring.random(rng) for _ in range(indexing.dim(n))]
            )
            j = rng.randrange(1, n + 1)
            word = stabilizer.column_stabilizer(j, w)
            assert matrices.mat_vec(word.eval(ring).fwd, w.entries) == w.entries


@criterion(4, "three-letter stabilizer on compound columns + residual law")
def test_criterion_04_plucker_stabilizer():
    ring = rings.ModularRing(97)
    for n in (5, 6, 7):
        rng = generate.rng_for(SEED, "t1", n)
        for _ in range(100):
            m = generate.compound_of_random(n, ring, 12, rng).fwd
            for pair in indexing.pairs(n):
                w = plucker.PairVector.column_of(m, n, pair)
                word = stabilizer.plucker_stabilizer(w)
                assert len(word) == 3
                assert (
                    matrices.mat_vec(word.eval(ring).fwd, w.entries) == w.entries
                )
    # residual on a non-member vector equals the short relations coordinatewise
    rng = generate.rng_for(SEED, "t1-residual")
    n = 6
    w = plucker.PairVector(
        n, ring, [ring.random(rng) for _ in range(indexing.dim(n))]
    )
    assert not plucker.column_satisfies(w)
    word = ExtWord(
        n,
        (
            (2, 3, w.at((4, 5))),
            (2, 4, ring.neg(w.at((3, 5)))),
            (2, 5, w.at((3, 4))),
        ),
    )
    moved = matrices.mat_vec(word.eval(ring).fwd, w.entries)
    for idx, pair in enumerate(indexing.pairs(n)):
        residual = ring.sub(moved[idx], w.entries[idx])
        if 2 not in pair:
            assert ring.is_zero(residual)
            continue
        i = pair[0] if pair[1] == 2 else pair[1]
        f = plucker.plucker_poly(i, (3, 4, 5), w)
        if indexing.sign(2, i) == -1:
            f = ring.neg(f)
        assert residual == f


@criterion(5, "membership criterion: randomized members + symbolic families")
def test_criterion_05_membership():
    ring = rings.ModularRing(97)
    for n in (4, 5, 6):
        rng = generate.rng_for(SEED, "member", n)
        for _ in range(100):
            g = generate.compound_of_random(n, ring, 12, rng)
            assert plucker.is_member(g.fwd, n)
    assert certify.criterion_suite(4).status == "pass"


@criterion(6, "forced zero pattern of a parabolic compound (n=5)")
def test_criterion_06_parabolic_pattern():
    assert certify.parabolic_pattern_suite().status == "pass"
    # position-for-position against the displayed 10 x 10 pattern
    template = [
        "1*********",
        "0*********",
        "0*********",
        "0*********",
        "0*********",
        "0*********",
        "0*********",
        "0000000***",
        "0000000***",
        "0000000***",
    ]
    ring = rings.ModularRing(97)
    rng = generate.rng_for(SEED, "parabolic")
    from extsquare.words import TransvWord

    letters = []
    for _ in range(4):
        letters.append((1, 2, ring.random(rng)))
        letters.append((2, 1, ring.random(rng)))
    for i in (1, 2):
        for j in (3, 4, 5):
            letters.append((i, j, ring.random(rng)))
    for i in (3, 4, 5):
        for j in (3, 4, 5):
            if i != j:
                letters.append((i, j, ring.random(rng)))
    x = TransvWord(5, letters).eval(ring).fwd
    g = exterior.cauchy_binet(x, 5)
    for r in range(10):
        for c in range(10):
            spot = template[r][c]
            if spot == "1":
                assert g.at(r, c) == ring.one
            elif spot == "0":
                assert ring.is_zero(g.at(r, c))


@criterion(7, "monomial conjugation identities (n=4..6, symbolic)")
def test_criterion_07_monomial_identities():
    assert certify.monomial_suite((4, 5, 6)).status == "pass"


@criterion(8, "verified conjugate words at exact lengths 8/16/24/48")
def test_criterion_08_reverse_decomposition():
    ring = rings.ModularRing(97)
    expected_lengths = {"h1-entry": 8, "h0-entry": 16, "h1-diag": 24, "h0-diag": 48}
    for n in (4, 5, 6):
        N = indexing.dim(n)
        bound = 8 * (N * N - 1)
        targets = [(2, 3), (3, 2), (1, 2), (1, n), (n, 1)]
        for trial in range(20):
            rng = generate.rng_for(SEED, "headline", n, trial)
            g = generate.compound_of_random(n, ring, 25, rng)
            engine = rdu.ReverseDecomposer(g, n)
            for gen in level.level_generators(g.fwd, n):
                for k, l in targets:
                    d = engine.decompose(
                        rdu.GeneratorTarget(gen.kind, gen.I, gen.J, k, l)
                    )
                    assert len(d.word) == expected_lengths[d.case]
                    assert len(d.word) <= bound
                    assert all(ok for _, ok in d.certificates)
                    assert d.param == gen.value
                    assert rdu.verify(d.word, g, k, l, d.param, n)
            # aggregate: one eight-term word per level generator slot, so the
            # whole generating system costs exactly 8 (N^2 - 1) conjugates
            system = engine.eight_conjugate_system()
            assert len(system) == N * N - 1
            total_letters = sum(len(word) for *_, word, _ in system)
            assert total_letters == bound
            d_sys = ring.modulus
            for *_, param in system:
                d_sys = math.gcd(d_sys, param)
            d_lvl = ring.modulus
            for gen in level.level_generators(g.fwd, n):
                d_lvl = math.gcd(d_lvl, gen.value)
            assert d_sys == d_lvl


@criterion(9, "commutators of scalar-congruent matrices reduce to identity")
def test_criterion_09_congruence_commutators():
    d = 5
    ring = rings.ModularRing(35)
    rng = generate.rng_for(SEED, "scf")
    g = generate.congruent_compound(4, ring, d, 12, rng, scalar=2)
    assert level.congruence_class(g.fwd, d) == "full"
    for _ in range(100):
        w = generate.random_ext_word(4, ring, rng.randint(1, 6), rng)
        e = w.eval(ring)
        assert level.congruence_class(matrices.commutator(g, e).fwd, d) == "principal"


def _expansion_detector() -> bool:
    ring = rings.PolynomialRing(("xi",))
    xi = ring.var("xi")
    try:
        for i, j in ((1, 3), (2, 1), (3, 4), (2, 4)):
            word = exterior.ext_transvection(i, j, xi, 4)
            oracle = exterior.cauchy_binet(
                matrices.transvection(ring, 4, i, j, xi), 4
            )
            if word.eval(ring).fwd != oracle:
                return False
            if ext_letter_matrix(ring, 4, i, j, xi) != oracle:
                return False
    except AssertionError:
        return False
    return True


def _membership_detector() -> bool:
    ring = rings.ModularRing(97)
    g = generate.compound_of_random(
        4, ring, 15, generate.rng_for(SEED, "mutation-member")
    )
    return plucker.is_member(g.fwd, 4)


@criterion(10, "seeded mutations are caught by the suites")
def test_criterion_10_mutation_sensitivity(monkeypatch, clear_sign_dependent_caches):
    caught = []

    # 1-3: orientation flips inside the expansion sign rule
    for site in ((2, 1), (4, 1), (3, 2)):
        with monkeypatch.context() as mp:
            clear_sign_dependent_caches()
            orig = indexing.canon

            def mutant(i, j, n=None, _site=site, _orig=orig):
                pair, s = _orig(i, j, n)
                if (i, j) == _site:
                    s = -s
                return pair, s

            mp.setattr(indexing, "canon", mutant)
            caught.append(not _expansion_detector())
        clear_sign_dependent_caches()

    # 4-5: shuffle sign flips break the membership families
    for site in (((1, 3), (2, 4)), ((1, 2), (3, 4))):
        with monkeypatch.context() as mp:
            orig_shuffle = indexing.shuffle_sign

            def mutant(B, D, _site=site, _orig=orig_shuffle):
                s = _orig(B, D)
                if (tuple(B), tuple(D)) == _site:
                    s = -s
                return s

            mp.setattr(indexing, "shuffle_sign", mutant)
            caught.append(not _membership_detector())

    # 6-8: a flipped conjugate exponent fails independent verification
    ring = rings.ModularRing(97)
    g = generate.compound_of_random(
        4, ring, 20, generate.rng_for(SEED, "mutation-eps")
    )
    engine = rdu.ReverseDecomposer(g, 4)
    rng = generate.rng_for(SEED, "mutation-eps-pick")
    for d in (
        engine.entry((1, 3), (1, 2), 2, 3),
        engine.entry((1, 2), (3, 4), 2, 3),
        engine.diagonal((1, 2), (1, 3), 2, 3),
    ):
        terms = list(d.word.terms)
        pick = rng.randrange(len(terms))
        eps, h = terms[pick]
        terms[pick] = (-eps, h)
        caught.append(not rdu.verify(ConjWord(4, terms), g, d.k, d.l, d.param, 4))

    # 9: a flipped stabilizer argument stops fixing the generic vector
    names = tuple(f"w{a}{b}" for a, b in indexing.pairs(4))
    poly = rings.PolynomialRing(names)
    w = plucker.PairVector(4, poly, tuple(poly.var(v) for v in names))
    word = stabilizer.column_stabilizer(1, w)
    i0, j0, arg0 = word.letters[0]
    tampered = ExtWord(4, ((i0, j0, poly.neg(arg0)),) + word.letters[1:])
    caught.append(
        matrices.mat_vec(tampered.eval(poly).fwd, w.entries) != w.entries
    )

    # 10: a flipped expansion letter argument diverges from the minor oracle
    xi_ring = rings.PolynomialRing(("xi",))
    xi = xi_ring.var("xi")
    word = exterior.ext_transvection(2, 4, xi, 5)
    r, c, arg = word.letters[1]
    from extsquare.words import PairWord

    tampered_word = PairWord(
        5, (word.letters[0], (r, c, xi_ring.neg(arg))) + word.letters[2:]
    )
    oracle = exterior.cauchy_binet(matrices.transvection(xi_ring, 5, 2, 4, xi), 5)
    caught.append(tampered_word.eval(xi_ring).fwd != oracle)

    assert len(caught) == 10
    assert all(caught), f"undetected mutations at positions {[i for i, c in enumerate(caught) if not c]}"
