"""Ring arithmetic: canonical forms, laws, inverses."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from extsquare import rings


def test_zmod_add_example():
    R = rings.ModularRing(5)
    assert R.add(3, 4) == 2


def test_poly_difference_of_squares():
    R = rings.PolynomialRing(("x",))
    x = R.var("x")
    lhs = R.mul(R.add(x, R.one), R.sub(x, R.one))
    assert lhs == R.sub(R.mul(x, x), R.one)


def test_zero_equals_neg_zero():
    for R in (rings.IntegerRing(), rings.ModularRing(7), rings.PolynomialRing(("a",))):
        assert R.neg(R.zero) == R.zero


def test_ring_mismatch_raises():
    a = rings.ModularRing(5).elem(2)
    b = rings.ModularRing(7).elem(2)
    with pytest.raises(rings.RingMismatchError):
        _ = a + b


def test_zmod_inverse_against_scan():
    R = rings.ModularRing(7)
    # oracle: scan all residues for the product equal to one
    expected = next(b for b in range(7) if (3 * b) % 7 == 1)
    assert expected == 5
    assert R.inverse(3) == expected


def test_zmod_inverse_of_one():
    for m in (2, 5, 12, 97):
        assert rings.ModularRing(m).inverse(1) == 1


def test_zmod_inverse_non_unit():
    with pytest.raises(rings.NonUnitError):
        rings.ModularRing(4).inverse(2)


@pytest.mark.parametrize(
    "ring",
    [rings.IntegerRing(), rings.ModularRing(97), rings.PolynomialRing(("a", "b"))],
    ids=["int", "zmod", "poly"],
)
def test_ring_laws_random(ring):
    rng = random.Random(1234)
    for _ in range(1000):
        a, b, c = (ring.random(rng) for _ in range(3))
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.mul(a, b) == ring.mul(b, a)


@pytest.mark.parametrize(
    "ring",
    [rings.IntegerRing(), rings.ModularRing(13), rings.PolynomialRing(("a", "b"))],
    ids=["int", "zmod", "poly"],
)
def test_zero_and_one_laws(ring):
    rng = random.Random(77)
    for _ in range(50):
        x = ring.random(rng)
        assert ring.add(ring.zero, x) == x
        assert ring.mul(ring.one, x) == x


@st.composite
def monomial_lists(draw):
    n_terms = draw(st.integers(0, 5))
    return [
        (
            (draw(st.integers(0, 3)), draw(st.integers(0, 3))),
            draw(st.integers(-10, 10)),
        )
        for _ in range(n_terms)
    ]


@settings(max_examples=200)
@given(monomial_lists())
def test_poly_canonical_idempotent(raw):
    R = rings.PolynomialRing(("a", "b"))
    once = R.canon(raw)
    assert R.canon(once) == once
    assert all(coeff != 0 for _, coeff in once)
    keys = [(sum(e), e) for e, _ in once]
    assert keys == sorted(keys, reverse=True)


@settings(max_examples=200)
@given(monomial_lists(), monomial_lists())
def test_poly_add_mul_match_dict_model(raw_a, raw_b):
    # oracle: dictionary accumulation of coefficients
    R = rings.PolynomialRing(("a", "b"))
    a, b = R.canon(raw_a), R.canon(raw_b)

    def model_add(p, q):
        acc = {}
        for e, c in list(p) + list(q):
            acc[e] = acc.get(e, 0) + c
        return {e: c for e, c in acc.items() if c}

    def model_mul(p, q):
        acc = {}
        for ea, ca in p:
            for eb, cb in q:
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0) + ca * cb
        return {e: c for e, c in acc.items() if c}

    assert dict(R.add(a, b)) == model_add(a, b)
    assert dict(R.mul(a, b)) == model_mul(a, b)


def test_poly_evaluation_homomorphism():
    R = rings.PolynomialRing(("a", "b", "c"))
    rng = random.Random(99)
    for _ in range(100):
        p, q = R.random(rng), R.random(rng)
        point = {"a": rng.randint(-5, 5), "b": rng.randint(-5, 5), "c": rng.randint(-5, 5)}
        assert R.evaluate(R.add(p, q), point) == R.evaluate(p, point) + R.evaluate(q, point)
        assert R.evaluate(R.mul(p, q), point) == R.evaluate(p, point) * R.evaluate(q, point)


def test_element_wrapper_ops():
    R = rings.ModularRing(11)
    a, b = R.elem(7), R.elem(8)
    assert (a + b).payload == 4
    assert (a - b).payload == 10
    assert (a * b).payload == 1
    assert (-a).payload == 4
    assert a.inverse().payload == 8
    assert R.elem(0).is_zero()


def test_ring_descriptor_validation():
    with pytest.raises(ValueError):
        rings.ModularRing(1)
    with pytest.raises(ValueError):
        rings.PolynomialRing(())
    with pytest.raises(ValueError):
        rings.PolynomialRing(("x", "x"))
