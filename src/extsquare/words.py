"""Symbolic words in elementary generators.

Three word species appear in the calculus, all immutable and never freely
reduced (letter counts are part of the contract):

* TransvWord  -- a word in plain elementary transvections t_{i,j}(xi) of a
  fixed dimension; used for n x n source matrices.
* PairWord    -- a word in elementary transvections of the C(n,2)-dimensional
  group whose row/column labels are two-element subsets of [n]; this is what
  an exterior transvection expands into.
* ExtWord     -- a word in exterior transvections: each letter (i, j, xi)
  stands for the image of t_{i,j}(xi) under the second compound map, an
  N x N matrix touching n-2 positions.

ConjWord records a product of elementary conjugates h^-1 g^{+-1} h of a fixed
matrix g, with h an ExtWord; its length (number of terms) is the quantity the
decomposition engine counts, and eval_matrix multiplies it out against g.

_letter_support is the one source of the exterior-letter sign rule: letter
matrices and the pair-indexed expansion in exterior read it.  Letter
matrices, for every ring, sit in one bounded cache that ExtWord.eval and
ext_letter_matrix share.  Words choose no kernel: matrices._identity_plus
builds each letter and matrices._product multiplies each chain of letters
and of conjugated segments.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import groupby

import numpy as np

from . import indexing, matrices


@lru_cache(maxsize=None)
def _letter_support(n: int, i: int, j: int):
    """Index arrays for the positions an exterior letter touches.

    For every a outside {i, j} the letter carries sign(a,i) * sign(a,j) * xi
    at row {a,i}, column {a,j}; the positions are disjoint from each other
    and from the diagonal, so a letter matrix is filled in one assignment.
    """
    rows, cols, signs = [], [], []
    for a in range(1, n + 1):
        if a == i or a == j:
            continue
        r, si = indexing.canon(a, i)
        c, sj = indexing.canon(a, j)
        rows.append(indexing.rank(r, n))
        cols.append(indexing.rank(c, n))
        signs.append(si * sj)
    return (
        np.array(rows, dtype=np.intp),
        np.array(cols, dtype=np.intp),
        np.array(signs, dtype=np.int64),
    )


# Keyed by ring and letter, so a wide modulus would grow it without end;
# past the cap the oldest entries go.  The cap holds the whole Z/97 working
# set for n <= 6 (about 4 800 letters).
_LETTER_CACHE: dict = {}
_LETTER_CACHE_MAX = 8192


def _letter(ring, n: int, i: int, j: int, xi) -> matrices.Matrix:
    """ext_letter_matrix for valid indices and a ring payload xi, cached."""
    key = (ring, n, i, j, xi)
    hit = _LETTER_CACHE.get(key)
    if hit is None:
        rows, cols, signs = _letter_support(n, i, j)
        neg = ring.neg(xi)
        values = [xi if s == 1 else neg for s in signs.tolist()]
        hit = matrices._identity_plus(ring, indexing.dim(n), rows, cols, values)
        if len(_LETTER_CACHE) >= _LETTER_CACHE_MAX:
            # pop with a default: another thread may evict the same key
            _LETTER_CACHE.pop(next(iter(_LETTER_CACHE), None), None)
        _LETTER_CACHE[key] = hit
    return hit


def _canon_letters(letters):
    out = []
    for i, j, payload in letters:
        out.append((int(i), int(j), payload))
    return tuple(out)


def ext_letter_matrix(ring, n: int, i: int, j: int, payload) -> matrices.Matrix:
    """The N x N matrix of a single exterior transvection letter.

    It is the identity plus, for every a outside {i, j}, the entry
    sign(a,i) * sign(a,j) * xi at row {a,i}, column {a,j} (sorted labels),
    at the positions and signs of _letter_support.  All touched positions
    are independent, so this closed form equals the product of the letter's
    elementary-transvection expansion.
    """
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("bad index")
    return _letter(ring, n, i, j, ring.coerce(payload))


def _inverse_letters(letters, ring):
    """Formal inverse of a letter sequence: reversed, arguments negated."""
    return tuple((i, j, ring.neg(ring.coerce(xi))) for i, j, xi in reversed(letters))


def _eval_letters(ring, dim: int, letters, letter) -> matrices.InvPair:
    """The product of letter(i, j, xi) over `letters`, with its inverse as the
    product over the formal inverse.  Payloads are coerced once, here, so
    `letter` receives ring payloads."""
    fwd = [(i, j, ring.coerce(xi)) for i, j, xi in letters]
    bwd = [(i, j, ring.neg(xi)) for i, j, xi in reversed(fwd)]
    return matrices.InvPair._trusted(
        matrices._product(ring, dim, [letter(*t) for t in fwd]),
        matrices._product(ring, dim, [letter(*t) for t in bwd]),
    )


class TransvWord:
    """Word in plain elementary transvections over a fixed dimension."""

    __slots__ = ("dim", "letters")

    def __init__(self, dim: int, letters=()):
        self.dim = dim
        letters = _canon_letters(letters)
        for i, j, _ in letters:
            if i == j or not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError("bad index")
        self.letters = letters

    def __len__(self):
        return len(self.letters)

    def __add__(self, other: "TransvWord") -> "TransvWord":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return TransvWord(self.dim, self.letters + other.letters)

    def __eq__(self, other):
        if not isinstance(other, TransvWord):
            return NotImplemented
        return self.dim == other.dim and self.letters == other.letters

    def inverse(self, ring) -> "TransvWord":
        return TransvWord(self.dim, _inverse_letters(self.letters, ring))

    def eval(self, ring) -> matrices.InvPair:
        letter = partial(matrices.transvection, ring, self.dim)
        return _eval_letters(ring, self.dim, self.letters, letter)


class PairWord:
    """Word in elementary transvections with pair-valued row/column labels."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters=()):
        self.n = n
        out = []
        for row, col, payload in letters:
            row = tuple(row)
            col = tuple(col)
            indexing.rank(row, n)
            indexing.rank(col, n)
            if row == col:
                raise ValueError("bad index")
            out.append((row, col, payload))
        self.letters = tuple(out)

    def __len__(self):
        return len(self.letters)

    def __add__(self, other: "PairWord") -> "PairWord":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return PairWord(self.n, self.letters + other.letters)

    def __eq__(self, other):
        if not isinstance(other, PairWord):
            return NotImplemented
        return self.n == other.n and self.letters == other.letters

    def inverse(self, ring) -> "PairWord":
        return PairWord(self.n, _inverse_letters(self.letters, ring))

    def eval(self, ring) -> matrices.InvPair:
        N = indexing.dim(self.n)

        def letter(row, col, xi):
            r, c = indexing.rank(row, self.n), indexing.rank(col, self.n)
            return matrices.transvection(ring, N, r + 1, c + 1, xi)

        return _eval_letters(ring, N, self.letters, letter)


class ExtWord:
    """Word in exterior transvections over ambient rank n."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters=()):
        if n < 3:
            raise ValueError("rank too small")
        letters = _canon_letters(letters)
        for i, j, _ in letters:
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("bad index")
        self.n = n
        self.letters = letters

    def __len__(self):
        return len(self.letters)

    def __add__(self, other: "ExtWord") -> "ExtWord":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return ExtWord(self.n, self.letters + other.letters)

    def __eq__(self, other):
        if not isinstance(other, ExtWord):
            return NotImplemented
        return self.n == other.n and self.letters == other.letters

    def __hash__(self):
        return hash((self.n, self.letters))

    def inverse(self, ring) -> "ExtWord":
        return ExtWord(self.n, _inverse_letters(self.letters, ring))

    def eval(self, ring, cache: dict | None = None) -> matrices.InvPair:
        key = None
        if cache is not None:
            key = (self.n, self.letters)
            hit = cache.get(key)
            if hit is not None:
                return hit
        letter = partial(_letter, ring, self.n)
        pair = _eval_letters(ring, indexing.dim(self.n), self.letters, letter)
        if cache is not None:
            cache[key] = pair
        return pair

    def expand(self) -> PairWord:
        """Expansion into elementary transvections of the pair-indexed group."""
        from . import exterior

        word = PairWord(self.n)
        for i, j, xi in self.letters:
            word = word + exterior.ext_transvection(i, j, xi, self.n)
        return word


class ConjWord:
    """Product of elementary conjugates h^-1 g^{eps} h of an unspecified g."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=()):
        self.n = n
        out = []
        for eps, h in terms:
            if eps not in (1, -1):
                raise ValueError("conjugate exponent must be +1 or -1")
            if not isinstance(h, ExtWord) or h.n != n:
                raise ValueError("conjugator rank mismatch")
            out.append((eps, h))
        self.terms = tuple(out)

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "ConjWord") -> "ConjWord":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return ConjWord(self.n, self.terms + other.terms)

    def __eq__(self, other):
        if not isinstance(other, ConjWord):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def inverse(self) -> "ConjWord":
        """Formal inverse: reversed terms with flipped exponents, same length."""
        return ConjWord(self.n, tuple((-eps, h) for eps, h in reversed(self.terms)))

    def eval_matrix(self, g: matrices.InvPair, cache: dict | None = None) -> matrices.Matrix:
        """Forward product, factored over the segments the conjugators share.

        Conjugators are built as route prefix + core segment + target
        suffix, so the terms share long runs of letters.  By associativity
        the product is S^-1 (prod of the terms stripped of S) S for the
        common suffix S, and a run of consecutive terms whose conjugators
        share a prefix P is evaluated against P^-1 g^{+-1} P.  Every letter
        still multiplies in against g.  Segments are evaluated through
        ExtWord.eval with `cache`, so a caller's dict keeps segments that
        recur across words.  `rdu.verify` does not use this evaluator: over
        Z/m with (m-1)^2 < 2^62 it applies every letter of every conjugator
        to its own copy of g^{+-1} in one batched int64 pass, and elsewhere
        it multiplies each conjugator out letter by letter.
        """
        N = indexing.dim(self.n)
        if g.dim != N:
            raise ValueError("dimension mismatch")
        if not self.terms:
            return matrices.identity(g.ring, N)
        if cache is None:
            cache = {}
        terms = [(eps, h.letters) for eps, h in self.terms]
        return _conj_product(g.ring, self.n, terms, {1: g.fwd, -1: g.bwd}, cache)


def _shared_prefix_len(words) -> int:
    first = words[0]
    k = min(len(w) for w in words)
    for w in words[1:]:
        i = 0
        while i < k and w[i] == first[i]:
            i += 1
        k = i
    return k


def _conj_product(ring, n: int, terms, base: dict, cache: dict) -> matrices.Matrix:
    """Product of X^-1 b^eps X over nonempty `terms` of (eps, letters of X).

    `base[eps]` is b^eps for every exponent the terms use; b is g conjugated
    by the prefix stripped so far.
    """
    k = _shared_prefix_len([h[::-1] for _, h in terms])
    if k:
        s = ExtWord(n, terms[0][1][-k:]).eval(ring, cache)
        inner = _conj_product(ring, n, [(eps, h[:-k]) for eps, h in terms], base, cache)
        return s.bwd.mul(inner).mul(s.fwd)
    parts = []
    for head, group in groupby(terms, key=lambda t: t[1][:1]):
        run = list(group)
        if not head:  # empty conjugators contribute b^eps directly
            parts.extend(base[eps] for eps, _ in run)
            continue
        p = _shared_prefix_len([h for _, h in run])
        x = ExtWord(n, run[0][1][:p]).eval(ring, cache)
        run_base = {eps: x.bwd.mul(base[eps]).mul(x.fwd) for eps in {e for e, _ in run}}
        parts.append(
            _conj_product(ring, n, [(eps, h[p:]) for eps, h in run], run_base, cache)
        )
    return matrices._product(ring, indexing.dim(n), parts)
