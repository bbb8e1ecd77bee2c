"""Deterministic generation of test matrices and words.

All randomness flows through rng_for, which derives an independent stream
from a 64-bit seed and a label tuple, so any artifact is reproducible from
(seed, labels) alone.  Invertible source matrices are built as products of
random elementary transvections, which stay invertible with a known inverse
over every supported ring.
"""

from __future__ import annotations

import random

try:  # the builtin digest; hashlib would also load OpenSSL, several MB resident
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed the module
    from hashlib import sha256

from . import exterior, matrices
from .words import ExtWord, TransvWord


def rng_for(seed: int, *labels) -> random.Random:
    """Independent deterministic stream for a seed and a label tuple."""
    material = repr((int(seed), labels)).encode()
    digest = sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _random_letters(dim: int, length: int, rng: random.Random, arg):
    """`length` letters (i, j, arg(rng)) with i != j, drawn i, j, then arg."""
    if dim < 2 or length < 0:
        raise ValueError(f"need dim >= 2 and length >= 0, got dim {dim}, length {length}")
    letters = []
    for _ in range(length):
        i = rng.randrange(1, dim + 1)
        j = rng.randrange(1, dim + 1)
        while j == i:
            j = rng.randrange(1, dim + 1)
        letters.append((i, j, arg(rng)))
    return letters


def random_transv_word(dim: int, ring, length: int, rng: random.Random) -> TransvWord:
    return TransvWord(dim, _random_letters(dim, length, rng, ring.random))


def random_ext_word(n: int, ring, length: int, rng: random.Random) -> ExtWord:
    return ExtWord(n, _random_letters(n, length, rng, ring.random))


def source_pair(n: int, ring, length: int, rng: random.Random) -> matrices.InvPair:
    """Random invertible n x n matrix with certified inverse."""
    return random_transv_word(n, ring, length, rng).eval(ring)


def compound_of_random(n: int, ring, length: int, rng: random.Random) -> matrices.InvPair:
    """Compound image of a random invertible source matrix."""
    return exterior.compound_pair(source_pair(n, ring, length, rng), n)


def congruent_compound(
    n: int, ring, d: int, length: int, rng: random.Random, scalar: int | None = None
) -> matrices.InvPair:
    """Compound of a source congruent to a scalar modulo d.

    The source is scalar * (product of transvections with arguments in d*R),
    so its compound reduces to scalar^2 times the identity modulo d.  Over a
    modular ring the scalar must be a unit; d must divide the modulus.
    """
    if ring.kind != "zmod":
        raise ValueError("congruent generation is provided modulo m")
    if ring.modulus % d != 0:
        raise ValueError(f"{d} does not divide the modulus")
    m = ring.modulus
    letters = _random_letters(n, length, rng, lambda r: (d * r.randrange(m // d)) % m)
    base = TransvWord(n, letters).eval(ring)
    if scalar is None:
        scalar = 1
    c = scalar % ring.modulus
    c_inv = ring.inverse(c)
    scaled = matrices.InvPair(
        matrices.scalar_matrix(ring, n, c).mul(base.fwd),
        matrices.scalar_matrix(ring, n, c_inv).mul(base.bwd),
    )
    return exterior.compound_pair(scaled, n)
