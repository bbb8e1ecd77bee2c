"""Exact matrix algebra and certified inverse pairs."""

import math
import random

import numpy as np
import pytest

from extsquare import generate, indexing, jsonio, matrices, plucker, rings
from extsquare.words import ExtWord, ext_letter_matrix


def _random_matrix(ring, dim, rng):
    return matrices.Matrix(
        ring, [[ring.random(rng) for _ in range(dim)] for _ in range(dim)]
    )


def test_identity_law(zmod97):
    rng = random.Random(0)
    m = _random_matrix(zmod97, 4, rng)
    e = matrices.identity(zmod97, 4)
    assert e.mul(m) == m
    assert m.mul(e) == m


def test_eq_reflexive(zmod97):
    m = _random_matrix(zmod97, 3, random.Random(1))
    assert m == m


def test_associativity_random():
    ring = rings.ModularRing(7)
    rng = random.Random(2)
    for _ in range(25):
        a, b, c = (_random_matrix(ring, 4, rng) for _ in range(3))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_associativity_poly():
    ring = rings.PolynomialRing(("a", "b"))
    rng = random.Random(3)
    for _ in range(5):
        a, b, c = (_random_matrix(ring, 3, rng) for _ in range(3))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_dimension_and_ring_mismatch(zmod97):
    a = matrices.identity(zmod97, 3)
    b = matrices.identity(zmod97, 4)
    with pytest.raises(ValueError):
        a.mul(b)
    c = matrices.identity(rings.ModularRing(5), 3)
    with pytest.raises(rings.RingMismatchError):
        a.mul(c)


def test_invpair_certification(zmod97):
    e = matrices.identity(zmod97, 3)
    m = matrices.transvection(zmod97, 3, 1, 2, 5)
    with pytest.raises(ValueError):
        matrices.InvPair(m, m)  # m is not its own inverse
    p = matrices.InvPair(e, e)
    assert p.invert() == p


def test_pair_compose_and_invert(zmod97):
    rng = random.Random(4)
    p = generate.source_pair(4, zmod97, 12, rng)
    q = generate.source_pair(4, zmod97, 12, rng)
    e = matrices.identity_pair(zmod97, 4)
    assert p.compose(p.invert()) == e
    assert p.invert().invert() == p
    composed = p.compose(q)
    assert composed.fwd == p.fwd.mul(q.fwd)
    assert composed.bwd.mul(composed.fwd).is_identity()


def test_transvection_pair_product(zmod97):
    a = matrices.transvection_pair(zmod97, 4, 1, 2, 3)
    b = matrices.transvection_pair(zmod97, 4, 3, 4, 9)
    assert a.compose(b).fwd == a.fwd.mul(b.fwd)


def test_conjugation_inverse_relations(zmod97):
    rng = random.Random(5)
    x = generate.source_pair(4, zmod97, 10, rng)
    y = generate.source_pair(4, zmod97, 10, rng)
    left = matrices.conjugate(y, x, "left")
    assert matrices.conjugate(left, x, "right") == y
    with pytest.raises(ValueError):
        matrices.conjugate(y, x, "sideways")


def test_commutator_with_identity(zmod97):
    x = generate.source_pair(4, zmod97, 10, random.Random(6))
    e = matrices.identity_pair(zmod97, 4)
    assert matrices.commutator(x, e) == e
    assert matrices.commutator(e, x) == e


def test_chevalley_example_symbolic():
    ring = rings.PolynomialRing(("xi", "zeta"))
    xi, zeta = ring.var("xi"), ring.var("zeta")
    x = matrices.transvection_pair(ring, 3, 1, 2, xi)
    y = matrices.transvection_pair(ring, 3, 2, 3, zeta)
    expected = matrices.transvection(ring, 3, 1, 3, ring.mul(xi, zeta))
    assert matrices.commutator(x, y).fwd == expected


def test_shifted_commutator_identity(zmod97):
    # [xy, z]^x == [y, z] [z, x^-1] for random invertible triples
    rng = random.Random(7)
    e = matrices.identity_pair(zmod97, 4)
    for _ in range(200):
        x, y, z = (generate.source_pair(4, zmod97, 8, rng) for _ in range(3))
        lhs = matrices.conjugate(matrices.commutator(x.compose(y), z), x, "right")
        rhs = matrices.commutator(y, z).compose(matrices.commutator(z, x.invert()))
        assert lhs == rhs
    assert matrices.conjugate(e, e, "right") == e


def test_mat_vec_and_vec_mat(zmod97):
    m = matrices.transvection(zmod97, 3, 1, 3, 2)
    assert matrices.mat_vec(m, (1, 1, 1)) == (3, 1, 1)
    assert matrices.vec_mat((1, 1, 1), m) == (1, 1, 3)


def test_scalar_and_is_scalar(zmod97):
    s = matrices.scalar_matrix(zmod97, 4, 5)
    assert s.is_scalar()
    assert not s.is_identity()
    assert matrices.identity(zmod97, 4).is_scalar()
    assert not matrices.transvection(zmod97, 4, 1, 2, 1).is_scalar()


def test_compose_multiplies_both_sides(zmod97):
    rng = random.Random(8)
    p = generate.source_pair(4, zmod97, 10, rng)
    q = generate.source_pair(4, zmod97, 10, rng)
    assert p.compose(q).fwd == p.fwd.mul(q.fwd)
    assert p.compose(q).bwd == q.bwd.mul(p.bwd)


# -- the float64 kernels on both sides of their bounds ------------------------


def _last_float64_modulus(dim):
    """The largest m with dim (m-1)^2 + m <= 2^53."""
    t = math.isqrt(2**53 // dim)
    while dim * t * t + t + 1 > 2**53:
        t -= 1
    while dim * (t + 1) ** 2 + t + 2 <= 2**53:
        t += 1
    return t + 1


def _last_limb_modulus(dim, s):
    """The largest m with (m-1) ((dim+1) 2^s - dim) + m <= 2^53: the last m
    with limbs of width s or wider at this dim."""
    c = (dim + 1) * 2**s - dim
    return (2**53 + c) // (c + 1)


def _edges(dim):
    """(label, modulus, kernel) on both sides of each bound at this dim."""
    one = _last_float64_modulus(dim)
    fits = _last_limb_modulus(dim, 1)  # the largest m with any limb
    return [
        ("one-limb-last", one, "one limb"),
        ("one-limb-past", one + 1, "limbs"),
        ("mersenne-31", 2**31 - 1, "limbs"),
        ("limbs-last", fits, "limbs"),
        ("limbs-past", fits + 1, "python"),
        ("store-last", 2**53, "python"),  # every residue is a float64, still python entries
        ("store-past", 2**53 + 1, "python"),
    ]


def _limb_edges(dim):
    """(modulus, width) at the last m of each limb width s that serves some
    m past one limb, and at the next m, whose width is s - 1 (no limb past
    s = 1)."""
    out, s = [], 1
    while (last := _last_limb_modulus(dim, s)) > _last_float64_modulus(dim):
        out += [(last, s), (last + 1, s - 1 or None)]
        s += 1
    return out


def _kernel_name(ring, dim):
    s = matrices._kernel(ring, dim)
    return {None: "python", matrices.ONE_LIMB: "one limb"}.get(s, "limbs")


def _reduce(m, modulus):
    return tuple(tuple(x % modulus for x in row) for row in m.rows)


def _int_product(a_rows, b_rows, modulus):
    """The product of two lists of rows over Z, reduced mod m, as rows."""
    out = (np.array(a_rows, dtype=object) @ np.array(b_rows, dtype=object)) % modulus
    return tuple(map(tuple, out.tolist()))


INTEGERS = rings.IntegerRing()
KERNEL_DIMS = (6, 10, 15, 28, 45)
EDGES = [
    pytest.param(dim, m, kernel, id=f"{dim}-{label}")
    for dim in KERNEL_DIMS
    for label, m, kernel in _edges(dim)
]


@pytest.mark.parametrize("dim,modulus,kernel", EDGES)
def test_int64_kernels_match_the_integer_product_at_their_bounds(dim, modulus, kernel):
    ring = rings.ModularRing(modulus)
    assert _kernel_name(ring, dim) == kernel
    # entries are float64 exactly when products run in float64
    storage = matrices.identity(ring, dim)._np
    assert (storage is not None) == (kernel != "python")
    assert storage is None or storage.dtype == np.float64
    rng = random.Random(dim * 7 + modulus)
    top = [[modulus - 1] * dim for _ in range(dim)]
    cases = [
        (top, top),
        (top, [[ring.random(rng) for _ in range(dim)] for _ in range(dim)]),
        ([[ring.random(rng) for _ in range(dim)] for _ in range(dim)], top),
    ]
    for a_rows, b_rows in cases:
        a, b = matrices.Matrix(ring, a_rows), matrices.Matrix(ring, b_rows)
        za, zb = matrices.Matrix(INTEGERS, a_rows), matrices.Matrix(INTEGERS, b_rows)
        want = _reduce(za.mul(zb), modulus)
        assert a.mul(b).rows == want
        # (a, b) then (b, a): both sides of the stacked product are a b
        pair = matrices._pair_product([matrices.InvPair._trusted(a, b), matrices.InvPair._trusted(b, a)])
        assert (pair.fwd.rows, pair.bwd.rows) == (want, want)
        v = b_rows[0]
        assert matrices.mat_vec(a, v) == tuple(x % modulus for x in matrices.mat_vec(za, v))
        assert matrices.vec_mat(v, a) == tuple(x % modulus for x in matrices.vec_mat(v, za))


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_every_limb_width_matches_the_integer_product_at_its_edges(dim):
    # at the last m of each limb width and at the next: Matrix.mul,
    # _pair_product, mat_vec and vec_mat of all-(m-1) and random factors,
    # and ExtWord.eval, equal the product over Z reduced mod m
    edges = _limb_edges(dim)
    assert len(edges) >= 40
    for modulus, width in edges:
        ring = rings.ModularRing(modulus)
        assert matrices._kernel(ring, dim) == width
        rng = random.Random(dim * modulus)
        top = [[modulus - 1] * dim for _ in range(dim)]
        rand = [[ring.random(rng) for _ in range(dim)] for _ in range(dim)]
        a, b = matrices.Matrix(ring, top), matrices.Matrix(ring, rand)
        assert b.mul(a).rows == _int_product(rand, top, modulus)
        pair = matrices._pair_product([matrices.InvPair._trusted(a, b), matrices.InvPair._trusted(a, a)])
        assert pair.fwd.rows == _int_product(top, top, modulus)
        assert pair.bwd.rows == _int_product(top, rand, modulus)
        assert matrices.mat_vec(a, top[0]) == tuple(r[0] for r in _int_product(top, [[x] for x in top[0]], modulus))
        assert matrices.vec_mat(rand[0], a) == _int_product([rand[0]], top, modulus)[0]
        _assert_ext_word_eval(dim, modulus, 0)


@pytest.mark.parametrize("dim,modulus,kernel", EDGES)
def test_ext_word_eval_matches_the_integer_product_at_the_bounds(dim, modulus, kernel):
    _assert_ext_word_eval(dim, modulus, 3)


def _assert_ext_word_eval(dim, modulus, extra):
    """A word of three all-(m-1) or unit letters and `extra` random ones,
    evaluated as a pair, equals its letters multiplied over Z, reduced."""
    ring = rings.ModularRing(modulus)
    n = indexing.ambient_rank(dim)
    rng = random.Random(dim + modulus)
    letters = [(1, 2, modulus - 1), (2, 1, modulus - 1), (3, n, 1)]
    letters += generate.random_ext_word(n, ring, extra, rng).letters
    pair = ExtWord(n, letters).eval(ring)
    fwd = matrices.identity(INTEGERS, dim)
    bwd = matrices.identity(INTEGERS, dim)
    for i, j, xi in letters:
        fwd = fwd.mul(ext_letter_matrix(INTEGERS, n, i, j, xi))
    for i, j, xi in reversed(letters):
        bwd = bwd.mul(ext_letter_matrix(INTEGERS, n, i, j, -xi))
    assert pair.fwd.rows == _reduce(fwd, modulus)
    assert pair.bwd.rows == _reduce(bwd, modulus)


@pytest.mark.parametrize("dim", [10, 15, 45])
def test_mersenne_31_takes_two_limbs(dim):
    m = 2**31 - 1
    s = matrices._kernel(rings.ModularRing(m), dim)
    assert s != matrices.ONE_LIMB and ((m - 1).bit_length() - 1) // s + 1 == 2


def test_no_limb_fits_for_mersenne_61_at_dim_6():
    assert matrices._kernel(rings.ModularRing(2**61 - 1), 6) is None
    assert matrices._kernel(rings.IntegerRing(), 6) is None


# -- storage is read only inside matrices, through its accessors ---------------


def test_storage_is_read_only_inside_matrices():
    # every other module reaches Matrix storage through at, column, rows,
    # _gather, _residues and _from_residues
    import re
    from pathlib import Path

    src = Path(matrices.__file__).parent
    named = {
        path.name: sorted(set(re.findall(r"\b(?:_np_data|_np|_rows)\b", path.read_text())))
        for path in src.glob("*.py")
        if path.name != "matrices.py"
    }
    assert {name: found for name, found in named.items() if found} == {}


def _ring_loop(ring, a, b):
    """The product of two lists of rows, entry by entry in the ring."""
    out = []
    for row in a:
        out_row = []
        for c in range(len(b[0])):
            total = ring.zero
            for k, x in enumerate(row):
                total = ring.add(total, ring.mul(x, b[k][c]))
            out_row.append(total)
        out.append(out_row)
    return out


_LIMB_EDGE_6 = _last_limb_modulus(6, 1)  # the largest modulus with limbs at dim 6
ACCESSOR_RINGS = [
    pytest.param(rings.ModularRing(97), 6, id="zmod97-one-limb"),
    pytest.param(rings.ModularRing(2**31 - 1), 10, id="mersenne-31-limbs"),
    pytest.param(rings.ModularRing(_LIMB_EDGE_6), 10, id="limbs-at-6-python-at-10"),
    pytest.param(INTEGERS, 5, id="int"),
    pytest.param(rings.PolynomialRing(("x",)), 3, id="poly"),
]


@pytest.mark.parametrize("ring,dim", ACCESSOR_RINGS)
def test_accessors_and_the_ring_product_agree_with_the_ring_loop(ring, dim):
    rng = random.Random(dim)
    a, b = (_random_matrix(ring, dim, rng) for _ in range(2))
    a_rows = [[a.at(r, c) for c in range(dim)] for r in range(dim)]
    b_rows = [[b.at(r, c) for c in range(dim)] for r in range(dim)]
    rows = np.array([rng.randrange(dim) for _ in range(3 * dim)])
    cols = np.array([rng.randrange(dim) for _ in range(3 * dim)])
    assert a._gather(rows, cols) == [a_rows[r][c] for r, c in zip(rows, cols)]
    assert a.rows == tuple(map(tuple, a_rows))
    assert a.column(1) == tuple(row[1] for row in a_rows)
    assert a.mul(b).rows == tuple(map(tuple, _ring_loop(ring, a_rows, b_rows)))
    v = b_rows[0]
    assert matrices.mat_vec(a, v) == tuple(row[0] for row in _ring_loop(ring, a_rows, [[x] for x in v]))
    assert matrices.vec_mat(v, a) == tuple(_ring_loop(ring, [v], a_rows)[0])
    if ring.kind == "zmod":
        residues = a._residues()
        assert residues.dtype == np.int64 and residues.tolist() == a_rows
        if matrices._kernel(ring, dim) is not None:
            assert matrices._from_residues(ring, residues.copy()) == a


@pytest.mark.parametrize("dim,modulus,kernel", EDGES)
def test_vector_products_match_the_ring_loop_at_their_bounds(dim, modulus, kernel):
    ring = rings.ModularRing(modulus)
    rng = random.Random(dim + 3 * modulus)
    a_rows = [[ring.random(rng) for _ in range(dim)] for _ in range(dim)]
    a_rows[0] = [modulus - 1] * dim
    a = matrices.Matrix(ring, a_rows)
    for v in ([modulus - 1] * dim, [ring.random(rng) for _ in range(dim)]):
        assert matrices.mat_vec(a, v) == tuple(row[0] for row in _ring_loop(ring, a_rows, [[x] for x in v]))
        assert matrices.vec_mat(v, a) == tuple(_ring_loop(ring, [v], a_rows)[0])


@pytest.mark.parametrize("ring,dim", ACCESSOR_RINGS)
def test_equals_at_compares_the_payloads_at_paired_positions(ring, dim):
    rng = random.Random(dim + 1)
    a = _random_matrix(ring, dim, rng)
    flat = np.array([rng.randrange(dim * dim) for _ in range(3 * dim)])
    want = [a.at(f // dim, f % dim) for f in flat.tolist()]
    # as stored, and as the bwd of a pair: a transposed view into its stack
    for m in (a, matrices.InvPair(a, a, check=False).bwd):
        assert m._equals_at(flat, matrices._payloads(ring, want))
        for k in (0, len(want) - 1):
            wrong = list(want)
            wrong[k] = ring.add(wrong[k], ring.one)
            assert not m._equals_at(flat, matrices._payloads(ring, wrong))


# -- invertible pairs: one stacked product per factor -------------------------


_ONE_LIMB_LAST_15 = _last_float64_modulus(15)
PAIR_RINGS = [
    pytest.param(rings.ModularRing(97), 6, "one limb", id="zmod97-6"),
    pytest.param(rings.ModularRing(2**31 - 1), 6, "limbs", id="mersenne-31-6"),
    pytest.param(rings.ModularRing(2**31 - 1), 10, "limbs", id="mersenne-31-10"),
    pytest.param(rings.ModularRing(_ONE_LIMB_LAST_15), 15, "one limb", id="one-limb-last-15"),
    pytest.param(rings.ModularRing(_ONE_LIMB_LAST_15 + 1), 15, "limbs", id="one-limb-past-15"),
    pytest.param(INTEGERS, 6, "python", id="int-6"),
    pytest.param(rings.PolynomialRing(("x",)), 6, "python", id="poly-6"),
]


def _sides(ring, fwd_factors, bwd_factors):
    """Both sides of a pair product as rows, each computed twice: by a chain
    of Matrix.mul, and by _ring_product alone (the pure-python referee)."""
    out = []
    for factors in (fwd_factors, bwd_factors):
        by_mul = factors[0]
        for f in factors[1:]:
            by_mul = by_mul.mul(f)
        by_ring = factors[0].rows
        for f in factors[1:]:
            by_ring = matrices._ring_product(ring, by_ring, tuple(zip(*f.rows)))
        assert by_mul.rows == tuple(map(tuple, by_ring))
        out.append(by_mul.rows)
    return out


def _assert_pair(pair, fwd_factors, bwd_factors):
    want_fwd, want_bwd = _sides(pair.ring, fwd_factors, bwd_factors)
    assert pair.fwd.rows == want_fwd
    assert pair.bwd.rows == want_bwd


def _pairs(ring, dim, rng):
    """Pairs of three origins: a word's evaluation, a JSON round trip (the
    certifying constructor) and identity_pair."""
    length = 4 if ring.kind == "poly" else 2 * dim
    x = generate.source_pair(dim, ring, length, rng)
    y = jsonio.pair_from_json(jsonio.pair_to_json(generate.source_pair(dim, ring, length, rng)))
    return [x, y, matrices.identity_pair(ring, dim)]


@pytest.mark.parametrize("ring,dim,kernel", PAIR_RINGS)
def test_pair_products_equal_the_separate_products_and_the_ring_product(ring, dim, kernel):
    assert _kernel_name(ring, dim) == kernel
    pairs = _pairs(ring, dim, random.Random(dim * 11 + 1))
    for a in pairs:
        # a stacked pair holds each side once; its views read the stack
        assert (a._stack is not None) == (kernel != "python")
        inv = a.invert()
        assert (inv.fwd, inv.bwd) == (a.bwd, a.fwd)
        assert inv.invert() == a
        for b in pairs:
            _assert_pair(a.compose(b), [a.fwd, b.fwd], [b.bwd, a.bwd])
            _assert_pair(matrices.conjugate(a, b, "right"), [b.bwd, a.fwd, b.fwd], [b.bwd, a.bwd, b.fwd])
            _assert_pair(matrices.conjugate(a, b, "left"), [b.fwd, a.fwd, b.bwd], [b.fwd, a.bwd, b.bwd])
            _assert_pair(
                matrices.commutator(a, b), [a.fwd, b.fwd, a.bwd, b.bwd], [b.fwd, a.fwd, b.bwd, a.bwd]
            )


@pytest.mark.parametrize("ring,dim,kernel", PAIR_RINGS)
def test_ext_word_pairs_equal_their_letters_multiplied_out(ring, dim, kernel):
    # a word evaluated letter by letter, from the formal inverse's cached
    # pair, and by extending a cached suffix
    n = indexing.ambient_rank(dim)
    rng = random.Random(dim * 13 + 2)
    word = generate.random_ext_word(n, ring, 5, rng)
    inverse = word.inverse(ring)
    fwd = [ext_letter_matrix(ring, n, i, j, xi) for i, j, xi in word.letters]
    bwd = [ext_letter_matrix(ring, n, i, j, xi) for i, j, xi in inverse.letters]
    _assert_pair(word.eval(ring), fwd, bwd)
    _assert_pair(ExtWord(n, word.letters[:1]).eval(ring), fwd[:1], bwd[-1:])
    cache = {}
    inverse.eval(ring, cache)
    _assert_pair(word.eval(ring, cache), fwd, bwd)
    # the inverse's entry was inverted: the word added only its own entry
    # to the inverse's and its letters' (one-letter segments)
    keys = [inverse.letters, word.letters] + [(x,) for x in inverse.letters]
    assert set(cache) == {(ring.key(), n, letters) for letters in keys}
    cache = {}
    ExtWord(n, word.letters[2:]).eval(ring, cache)
    _assert_pair(word.eval(ring, cache), fwd, bwd)


# -- the float64 kernel: canonical residues on BLAS, reduced once per chain ---


FLOAT64_EDGES = [
    pytest.param(dim, _last_float64_modulus(dim) + past, id=f"{dim}-{'past' if past else 'last'}")
    for dim in (1, 6, 10, 15, 28, 45)
    for past in (0, 1)
]


def _ring_chain(ring, factors):
    """The product of a list of rows-tuples by _ring_product alone."""
    acc = factors[0]
    for f in factors[1:]:
        acc = matrices._ring_product(ring, acc, tuple(zip(*f)))
    return tuple(map(tuple, acc))


@pytest.mark.parametrize("dim,modulus", FLOAT64_EDGES)
def test_float64_kernel_matches_the_ring_product_at_its_bound(monkeypatch, dim, modulus):
    # chains of four factors, the first all m - 1: at the last modulus the
    # product runs in one float64 limb and its bound makes _chain_matmul
    # reduce before the second and third products and at the end; past it,
    # in float64 limbs, every limb product reduced
    ring = rings.ModularRing(modulus)
    inside = modulus == _last_float64_modulus(dim)
    s = matrices._kernel(ring, dim)
    assert (s == matrices.ONE_LIMB) is inside and s is not None
    chain = 3 if inside else 3 * (((modulus - 1).bit_length() - 1) // s + 1)
    reductions = []
    reduce = matrices._float64_reduce
    monkeypatch.setattr(matrices, "_float64_reduce", lambda c, m: reductions.append(c.shape) or reduce(c, m))
    rng = random.Random(dim + modulus)
    top = matrices.Matrix(ring, [[modulus - 1] * dim for _ in range(dim)])
    fwd = [top] + [_random_matrix(ring, dim, rng) for _ in range(3)]
    bwd = [_random_matrix(ring, dim, rng) for _ in range(3)] + [top]
    assert matrices._product(ring, dim, fwd).rows == _ring_chain(ring, [f.rows for f in fwd])
    assert reductions == [(dim, dim)] * chain
    pairs = [matrices.InvPair._trusted(f, b) for f, b in zip(fwd, bwd)]
    pair = matrices._pair_product(pairs)
    assert pair.fwd.rows == _ring_chain(ring, [f.rows for f in fwd])
    assert pair.bwd.rows == _ring_chain(ring, [b.rows for b in reversed(bwd)])
    assert reductions == [(dim, dim)] * chain + [(2, dim, dim)] * chain
    for v in ([modulus - 1] * dim, [ring.random(rng) for _ in range(dim)]):
        assert matrices.mat_vec(top, v) == tuple(row[0] for row in _ring_chain(ring, [top.rows, [[x] for x in v]]))
        assert matrices.vec_mat(v, top) == _ring_chain(ring, [[v], top.rows])[0]


def _last_two_product_modulus(dim):
    """The largest m with dim^2 (m-1)^3 + m <= 2^53: the last m at which
    _chain_matmul runs two one-limb products before it reduces."""
    lo, hi = 2, 2**20
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if dim**2 * (mid - 1) ** 3 + mid <= 2**53 else (lo, mid - 1)
    return lo


@pytest.mark.parametrize("dim,past", [(d, p) for d in (6, 10, 15) for p in (0, 1)], ids=lambda v: str(v))
def test_chain_matmul_reduces_mid_chain_exactly_where_its_bound_requires(monkeypatch, dim, past):
    # a chain of three all-(m-1) factors on one limb: at the last m with
    # dim^2 (m-1)^3 + m <= 2^53 both products run unreduced and the chain
    # is reduced once, at the end; at the next m it is reduced before the
    # second product too
    modulus = _last_two_product_modulus(dim) + past
    ring = rings.ModularRing(modulus)
    assert matrices._kernel(ring, dim) == matrices.ONE_LIMB
    reductions = []
    reduce = matrices._float64_reduce
    monkeypatch.setattr(matrices, "_float64_reduce", lambda c, m: reductions.append(c.shape) or reduce(c, m))
    top = matrices.Matrix(ring, [[modulus - 1] * dim for _ in range(dim)])
    assert matrices._product(ring, dim, [top] * 3).rows == _ring_chain(ring, [top.rows] * 3)
    assert len(reductions) == 1 + past


def _numbers(obj):
    """Every number in a JSON-ready object."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _numbers(item)]
    return [obj] if isinstance(obj, (int, float)) else []


def test_zmod97_reads_hand_out_ints_never_floats():
    # on one float64 limb (Z/97) and on float64 limbs (Z/(2^31 - 1))
    n = 6
    dim = indexing.dim(n)
    for ring, kernel in ((rings.ModularRing(97), "one limb"), (rings.ModularRing(2**31 - 1), "limbs")):
        assert _kernel_name(ring, dim) == kernel
        pair = generate.source_pair(dim, ring, 2 * dim, random.Random(5))
        reads = []
        for a in (pair.fwd, pair.bwd, pair.fwd.mul(pair.bwd.mul(pair.fwd))):
            assert a._np.dtype == np.float64 and a._residues().dtype == np.int64
            reads += [a.at(2, 3), *a.column(4), *(x for row in a.rows for x in row)]
            reads += a._gather(np.arange(dim), np.arange(dim)[::-1])
            reads += matrices.mat_vec(a, a.column(1)) + matrices.vec_mat(a.rows[0], a)
        reads += _numbers(jsonio.pair_to_json(pair, n=n)) + _numbers(jsonio.matrix_to_json(pair.bwd, n=n))
        reads += _numbers(jsonio.vector_to_json(plucker.PairVector.column_of(pair.fwd, n, (1, 2))))
        assert reads and {type(x) for x in reads} == {int}, ring


def test_the_two_storage_kinds_of_one_matrix_are_equal_and_hash_equally():
    # the same residues given as rows and as an int64 array: _from_residues
    # stores as _kernel decides, float64 over Z/97, and the two matrices
    # and pairs are equal and hash equally
    ring, dim = rings.ModularRing(97), 10
    rng = random.Random(8)
    rows = [[[ring.random(rng) for _ in range(dim)] for _ in range(dim)] for _ in range(2)]
    fwd, bwd = (matrices.Matrix(ring, r) for r in rows)
    fwd64, bwd64 = (matrices._from_residues(ring, np.array(r, dtype=np.int64)) for r in rows)
    assert (fwd._np.dtype, fwd64._np.dtype) == (np.float64, np.float64)
    assert fwd == fwd64 and fwd64 == fwd and hash(fwd) == hash(fwd64)
    pair, pair64 = matrices.InvPair._trusted(fwd, bwd), matrices.InvPair._trusted(fwd64, bwd64)
    assert pair == pair64 and hash(pair) == hash(pair64)


@pytest.mark.parametrize("modulus", [97, 2**31 - 1, 2**61 - 1, None], ids=["zmod97", "mersenne-31", "mersenne-61", "int"])
def test_matrix_entries_pass_through_ring_coerce(modulus):
    # Matrix(ring, rows) stores ring.coerce's answers: unreduced ints, an int
    # past int64, a RingElement around an unreduced payload (the dataclass
    # does not reduce it), True and a numpy integer give the matrix of the
    # reduced rows, on float64 storage and on tuples alike
    ring = rings.IntegerRing() if modulus is None else rings.ModularRing(modulus)
    m = modulus or 97
    given = [-1, m + 5, 10**19, rings.RingElement(ring, m + 7), True, np.int64(3), 0, 1, 2]
    plain = [-1, m + 5, 10**19, m + 7, 1, 3, 0, 1, 2]
    reduced = [[x if modulus is None else x % modulus for x in plain[r : r + 3]] for r in (0, 3, 6)]
    got = matrices.Matrix(ring, [given[r : r + 3] for r in (0, 3, 6)])
    want = matrices.Matrix(ring, reduced)
    assert got == want and hash(got) == hash(want)
    assert got.rows == want.rows == tuple(map(tuple, reduced))
    index = np.arange(3)
    for a in (got, want):
        reads = [a.at(r, c) for r in range(3) for c in range(3)] + [x for c in range(3) for x in a.column(c)]
        reads += a._gather(index, index[::-1]) + [x for row in a.rows for x in row]
        assert reads == [x for row in reduced for x in row] + [row[c] for c in range(3) for row in reduced] + [
            reduced[r][2 - r] for r in range(3)
        ] + [x for row in reduced for x in row]
        assert {type(x) for x in reads} == {int}
    with pytest.raises(rings.RingMismatchError):
        matrices.Matrix(ring, [[rings.RingElement(rings.ModularRing(5), 1)]])
    with pytest.raises(ValueError, match="matrix must be square"):
        matrices.Matrix(ring, [[1, 0], [0]])
