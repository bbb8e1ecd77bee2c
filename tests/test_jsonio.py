"""JSON forms of rings and elements, owned by jsonio."""

import random

import pytest

from extsquare import jsonio, rings


@pytest.mark.parametrize(
    "ring",
    [rings.IntegerRing(), rings.ModularRing(97), rings.PolynomialRing(("a", "b"))],
    ids=["int", "zmod", "poly"],
)
def test_ring_and_element_json_round_trip(ring):
    rng = random.Random(5)
    desc = jsonio.ring_to_json(ring)
    assert jsonio.ring_from_json(desc) == ring
    for _ in range(20):
        x = ring.random(rng)
        assert jsonio.elem_from_json(ring, jsonio.elem_to_json(ring, x)) == x


def test_ring_and_element_encodings_follow_the_readme():
    poly = rings.PolynomialRing(("a", "b"))
    assert jsonio.ring_to_json(rings.IntegerRing()) == {"type": "int"}
    assert jsonio.ring_to_json(rings.ModularRing(97)) == {"type": "zmod", "modulus": 97}
    assert jsonio.ring_to_json(poly) == {"type": "poly_int", "vars": ["a", "b"]}
    assert jsonio.elem_to_json(rings.IntegerRing(), -5) == "-5"
    assert jsonio.elem_to_json(rings.ModularRing(97), -1) == "96"
    assert jsonio.elem_from_json(rings.ModularRing(97), "-1") == 96
    x = poly.canon([((0, 0), 2), ((1, 0), 5)])
    encoded = [{"coeff": "5", "exps": [1, 0]}, {"coeff": "2", "exps": [0, 0]}]
    assert jsonio.elem_to_json(poly, x) == encoded
    assert jsonio.elem_from_json(poly, encoded) == x
