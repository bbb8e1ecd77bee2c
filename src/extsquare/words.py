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

The three share one container, _LetterWord: length, concatenation,
equality and the formal inverse exist once, and each species checks its
own labels and evaluates itself.

ConjWord records a product of elementary conjugates h^-1 g^{+-1} h of a fixed
matrix g, with h an ExtWord; its length (number of terms) is the quantity the
decomposition engine counts, and eval_matrix multiplies it out against g:
the common suffix of its conjugators stripped, then recalled as its
eight-term core words from g's run memo, or else as the forward sides of
its telescoped chain (_chain_factors).  The run memo holds the cores'
commutator words alone: a core's z is made as the pair of such a chain on
the routed g1 = P^-1 g P (_chain),
and its commutator word's pair A^-1 Z A Z^-1 from z's pair Z and a^-1's
segment A (_keep_commutator).  ExtWord.eval keeps the segments in a
caller's cache, each entry exactly the product of its key's letters: a new
segment is written in one step when its letters share one j and have
distinct i (a letter, or a core's column stabilizer), or extends its
longest cached proper suffix; a core keeps T^-1 as T's pair inverted
(ExtWord._keep).  Every pair is one stack where matrices stores arrays
(see matrices.InvPair), so both of its sides multiply in one kernel call.

_letter_support is the one source of the exterior-letter sign rule: letter
matrices, the pair-indexed expansion in exterior and the signs rdu reads off
a letter come from it.  A single letter matrix is built uncached by
ext_letter_matrix; every cache here belongs to a caller.  The
segment cache drops its oldest entries past its cap through _bounded_put;
g's run memo, a slot of it, grows by one entry per core built, and the
engine's core cache, which never evicts, bounds it.  Words choose no
kernel: matrices._unipotent_pair writes a letter matrix (its forward
side), every letter pair of the three species (_eval_letters) and each
cached segment of one j (a letter, or a core's column stabilizer) with
its inverse, matrices._pair_product multiplies
letter pairs and z's telescoped chain, and matrices._product the forward
sides of recalled core words and of any other word's chain.
"""

from __future__ import annotations

from functools import lru_cache, partial

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


# The cap sits above the working set of a full level sweep at n <= 7, so
# an engine evicts segments only at larger ranks.  After a full level sweep
# over Z/97 at n = 6 (seed 1, a 24-letter source, targets (2, 3) and
# (1, 6), then the system check), a caller's segment cache (ExtWord.eval)
# holds 634 segments, 54 of them letters, and the run memo of g 234
# entries, the commutator words of the 234 cores; at n = 7 (a 28-letter
# source), 1 161 segments (1 187 over Z/(2^31 - 1)) and 452 entries; at
# n = 10 (a 40-letter source, targets (2, 3) only), 4 875 and 2 052.
_SEGMENT_CACHE_MAX = 8192


def _bounded_put(store: dict, key, value, cap: int) -> None:
    """store[key] = value, first dropping the oldest entries so that at most
    `cap` remain (dicts keep insertion order)."""
    while len(store) >= cap:
        # pop with a default: another thread may evict the same key
        store.pop(next(iter(store), None), None)
    store[key] = value


def _signed_support(ring, n: int, i: int, j: int, xi):
    """_letter_support with the payloads, xi or -xi by sign, for a ring payload xi."""
    rows, cols, signs = _letter_support(n, i, j)
    neg = ring.neg(xi)
    return rows, cols, [xi if s == 1 else neg for s in signs.tolist()]


def ext_letter_matrix(ring, n: int, i: int, j: int, payload) -> matrices.Matrix:
    """The N x N matrix of a single exterior transvection letter.

    It is the identity plus, for every a outside {i, j}, the entry
    sign(a,i) * sign(a,j) * xi at row {a,i}, column {a,j} (sorted labels),
    at the positions and signs of _letter_support: the forward side of the
    letter's matrices._unipotent_pair.  All touched positions are
    independent, so this closed form equals the product of the letter's
    elementary-transvection expansion.  Nothing is cached.
    """
    if not indexing._is_pair(i, j, n):
        raise ValueError("bad index")
    support = _signed_support(ring, n, i, j, ring.coerce(payload))
    return matrices._unipotent_pair(ring, indexing.dim(n), *support).fwd


def _eval_letters(ring, dim: int, letters, support) -> matrices.InvPair:
    """The product of the letters, with its inverse as the product over the
    formal inverse.  A letter (a, b, xi) is I + A with A^2 = 0, A's (rows,
    cols, payloads) being support(a, b, ring.coerce(xi)), so its pair is one
    matrices._unipotent_pair; the pairs multiply by matrices._pair_product."""
    if not letters:
        return matrices.identity_pair(ring, dim)
    pairs = [matrices._unipotent_pair(ring, dim, *support(a, b, ring.coerce(xi))) for a, b, xi in letters]
    return pairs[0] if len(pairs) == 1 else matrices._pair_product(pairs)


class _LetterWord:
    """What the three letter-word species share: a size, the attribute named
    by _SIZE (TransvWord.dim, or the rank n), a tuple of letters
    (label, label, xi), and the formal operations on them.  Each species
    checks its own labels (_checked) and evaluates itself."""

    __slots__ = ("letters",)
    _SIZE = "n"
    _MISMATCH = "rank mismatch"

    def __init__(self, size: int, letters=()):
        letters = self._checked(size, letters)
        setattr(self, self._SIZE, size)
        self.letters = letters

    @classmethod
    def _trusted(cls, size: int, letters: tuple):
        """A word on a tuple of letters taken from validated words, unchecked."""
        word = object.__new__(cls)
        setattr(word, cls._SIZE, size)
        word.letters = letters
        return word

    def __len__(self):
        return len(self.letters)

    def __add__(self, other):
        size = getattr(self, self._SIZE)
        if getattr(other, self._SIZE) != size:
            raise ValueError(self._MISMATCH)
        return self._trusted(size, self.letters + other.letters)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        attr = self._SIZE
        return getattr(self, attr) == getattr(other, attr) and self.letters == other.letters

    def inverse(self, ring):
        """Formal inverse: letters reversed, arguments negated."""
        letters = tuple((i, j, ring.neg(ring.coerce(xi))) for i, j, xi in reversed(self.letters))
        return self._trusted(getattr(self, self._SIZE), letters)


class TransvWord(_LetterWord):
    """Word in plain elementary transvections over a fixed dimension."""

    __slots__ = ("dim",)
    _SIZE = "dim"
    _MISMATCH = "dimension mismatch"

    @staticmethod
    def _checked(dim: int, letters) -> tuple:
        out = tuple((int(i), int(j), xi) for i, j, xi in letters)
        for i, j, _ in out:
            if not indexing._is_pair(i, j, dim):
                raise ValueError("bad index")
        return out

    def eval(self, ring) -> matrices.InvPair:
        return _eval_letters(ring, self.dim, self.letters, lambda i, j, xi: ([i - 1], [j - 1], [xi]))


class PairWord(_LetterWord):
    """Word in elementary transvections with pair-valued row/column labels."""

    __slots__ = ("n",)

    @staticmethod
    def _checked(n: int, letters) -> tuple:
        out = []
        for row, col, payload in letters:
            row = tuple(row)
            col = tuple(col)
            indexing.rank(row, n)
            indexing.rank(col, n)
            if row == col:
                raise ValueError("bad index")
            out.append((row, col, payload))
        return tuple(out)

    def eval(self, ring) -> matrices.InvPair:
        rank = partial(indexing.rank, n=self.n)
        return _eval_letters(ring, indexing.dim(self.n), self.letters, lambda r, c, xi: ([rank(r)], [rank(c)], [xi]))


class ExtWord(_LetterWord):
    """Word in exterior transvections over ambient rank n."""

    __slots__ = ("n",)

    @staticmethod
    def _checked(n: int, letters) -> tuple:
        if n < 3:
            raise ValueError("rank too small")
        return TransvWord._checked(n, letters)

    def __hash__(self):
        return hash((self.n, self.letters))

    def eval(self, ring, cache: dict | None = None) -> matrices.InvPair:
        """The word's matrix and its inverse.

        A caller's `cache` keeps the pair under (ring.key(), n, letters), at
        most _SEGMENT_CACHE_MAX entries in all, and every entry is exactly
        the product of the letters of its key over its ring, so one cache
        may serve several rings.  On a miss a word whose letters share one j
        and have distinct i, a single letter or a core's column stabilizer,
        is written in one step (_one_column_pair); any other extends its
        longest cached proper suffix letters[p:]: the head letters[:p] is
        read from the cache when it is there and multiplied out (and not
        stored) otherwise, and the pair is the head composed with the tail.  Without a cached suffix the word is
        multiplied out.  Either is stored under the word's own key only.
        Multiplying out takes each letter's one-letter segment from the
        cache, storing it there when new.  Without a cache the word is
        multiplied out from letters built anew, and nothing is stored; nor
        is the empty word, the identity.
        """
        n, letters = self.n, self.letters
        if cache is None or not letters:
            return _eval_letters(ring, indexing.dim(n), letters, partial(_signed_support, ring, n))
        rk = ring.key()
        key = (rk, n, letters)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if len({j for _, j, _ in letters}) == 1 and len({i for i, _, _ in letters}) == len(letters):
            pair = _one_column_pair(ring, n, letters)
        else:
            for p in range(1, len(letters)):
                tail = cache.get((rk, n, letters[p:]))
                if tail is not None:
                    head = cache.get((rk, n, letters[:p]))
                    if head is None:
                        head = _letter_product(ring, n, letters[:p], cache)
                    pair = head.compose(tail)
                    break
            else:
                pair = _letter_product(ring, n, letters, cache)
        _bounded_put(cache, key, pair, _SEGMENT_CACHE_MAX)
        return pair

    def _keep(self, ring, pair: matrices.InvPair, cache: dict) -> None:
        """Keep `pair`, the word's own pair over `ring`, as eval keeps it: a
        core's T^-1 as T's pair inverted, a view that spares its one-column
        write."""
        _bounded_put(cache, (ring.key(), self.n, self.letters), pair, _SEGMENT_CACHE_MAX)

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

    @classmethod
    def _trusted(cls, n: int, terms: tuple) -> "ConjWord":
        """A word on a tuple of terms (eps, h) built from validated words, each
        h an ExtWord of rank n, unchecked."""
        word = object.__new__(cls)
        word.n = n
        word.terms = terms
        return word

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "ConjWord") -> "ConjWord":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return ConjWord._trusted(self.n, self.terms + other.terms)

    def __eq__(self, other):
        if not isinstance(other, ConjWord):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def inverse(self) -> "ConjWord":
        """Formal inverse: reversed terms with flipped exponents, same length."""
        return ConjWord._trusted(self.n, _inverse_terms(self.terms))

    def eval_matrix(self, g: matrices.InvPair, cache: dict | None = None) -> matrices.Matrix:
        """Forward product, factored over the segments the conjugators share.

        Conjugators are built as route prefix + core segment + target
        suffix, so the terms share long runs of letters.  By associativity
        the product is S^-1 (prod of the terms stripped of S) S for the
        common suffix S.  The rest is recalled as its eight-term core words
        (_core_words) when g's run memo holds every one, else as the
        forward sides of its telescoped chain (_chain_factors), where each
        factor is g^{+-1} or a segment, multiplied out.  Nothing is kept in
        the memo here.

        `cache` is the caller's dict, shared across words, matrices and
        rings.  It keeps segments (ExtWord.eval, keyed by (ring.key(), n,
        letters)) and, under ("runs", id(g)), a pair (g, memo): g's run
        memo, which keeps each core's commutator word's pair under its
        terms with their absolute conjugators (the letters from g on),
        written by _keep_commutator only; the slot holds g, so its id is
        not reused while the entry lives.  A core word is recalled
        directly or inverted (a view, no product) from its formal
        inverse's.

        `rdu.verify` does not use this evaluator: over Z/m with
        (m-1)^2 < 2^62 it multiplies each conjugator out as n x n
        transvections and lifts them all by one batched compound, and
        elsewhere it multiplies each conjugator out letter by letter.
        """
        N = indexing.dim(self.n)
        if g.dim != N:
            raise ValueError("dimension mismatch")
        if not self.terms:
            return matrices.identity(g.ring, N)
        if cache is None:
            cache = {}
        terms = tuple((eps, h.letters) for eps, h in self.terms)
        return _conj_product(g.ring, self.n, terms, g, cache, _run_memo(cache, g))


def _run_memo(cache: dict, g: matrices.InvPair) -> dict:
    """g's run memo in a caller's cache (see ConjWord.eval_matrix), moved to
    the newest place so that a full cache drops segments first.  It holds
    the cores' commutator words alone, one per core built."""
    key = ("runs", id(g))
    slot = cache.pop(key, None) or (g, {})
    _bounded_put(cache, key, slot, _SEGMENT_CACHE_MAX)
    return slot[1]


def _shared_len(words) -> int:
    """The length of the suffix that all `words` share: each word is
    compared whole at the length shared so far (one tuple comparison), and
    letter by letter only where that differs."""
    first = words[0]
    k = min(map(len, words))
    for w in words[1:]:
        if not k:
            break
        if w[len(w) - k :] == first[len(first) - k :]:
            continue
        i = 0
        while i < k and w[~i] == first[~i]:
            i += 1
        k = i
    return k


def _segment(ring, n: int, letters: tuple, cache: dict) -> matrices.InvPair:
    return ExtWord._trusted(n, letters).eval(ring, cache)


def _letter_product(ring, n: int, letters: tuple, cache: dict) -> matrices.InvPair:
    """The pair of nonempty `letters`: the product of their one-letter
    segments in `cache`."""
    return matrices._pair_product([_segment(ring, n, (x,), cache) for x in letters])


def _one_column_pair(ring, n: int, letters: tuple) -> matrices.InvPair:
    """The pair of nonempty `letters` that share one j and have distinct i,
    written in one step.  A letter (i, j, x) is I + A_i, A_i at rows {a,i}
    and columns {a,j}.  No column {a,j} is a row {b,r} of A_r (j is not in
    {b, r}), so A_i A_r = 0, and the A_i sit at distinct positions (at
    column {a,j} their rows {a,i} differ): the pair is I +- sum A_i."""
    rows, cols, values = zip(*(_signed_support(ring, n, i, j, ring.coerce(xi)) for i, j, xi in letters))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return matrices._unipotent_pair(ring, indexing.dim(n), rows, cols, sum(values, []))


def _inverse_terms(terms: tuple) -> tuple:
    """The terms of the formal inverse: reversed, exponents flipped."""
    return tuple((-eps, h) for eps, h in reversed(terms))


def _recall(memo: dict, key):
    """The pair kept for the terms `key` in g's run memo, else the inverse (a
    view) of the pair kept for their formal inverse, else None."""
    hit = memo.get(key)
    if hit is not None:
        return hit
    hit = memo.get(_inverse_terms(key))
    return None if hit is None else hit.invert()


def _core_words(memo: dict, terms) -> list:
    """The forward sides of the eight-term words `terms` is made of, one or
    several, as a core's word or a final word of its cores' words, each
    recalled from g's run memo (_recall), if every one is there; else []."""
    if len(terms) % 8:
        return []
    cores = [_recall(memo, terms[a : a + 8]) for a in range(0, len(terms), 8)]
    return [core.fwd for core in cores] if all(cores) else []


def _conj_product(ring, n: int, terms, g: matrices.InvPair, cache: dict, memo: dict) -> matrices.Matrix:
    """Forward product of X^-1 g^eps X over nonempty `terms` of (eps,
    letters of X), `memo` being g's run memo: the common suffix S stripped
    as S^-1 (...) S, then the rest recalled as its core words
    (_core_words), else the forward sides of its telescoped chain on g
    (_chain_factors) multiplied out, one product per factor."""
    k = _shared_len([h for _, h in terms])
    if k:
        s = _segment(ring, n, terms[0][1][-k:], cache)
        inner = _conj_product(ring, n, tuple((eps, h[:-k]) for eps, h in terms), g, cache, memo)
        return matrices._product(ring, inner.dim, (s.bwd, inner, s.fwd))
    parts = _core_words(memo, terms)
    if parts:
        return matrices._product(ring, indexing.dim(n), parts)
    factors = _chain_factors(ring, n, terms, g, cache, 0)
    return matrices._product(ring, indexing.dim(n), [f.fwd for f in factors])


def _chain(ring, n: int, word: ConjWord, base: matrices.InvPair, cache: dict, p: int) -> matrices.InvPair:
    """The pair of `word` on g (see _chain_factors): a core's z on g1, one
    stacked product per factor."""
    terms = tuple((eps, h.letters) for eps, h in word.terms)
    return matrices._pair_product(_chain_factors(ring, n, terms, base, cache, p))


def _chain_factors(ring, n: int, terms, base: matrices.InvPair, cache: dict, p: int) -> list:
    """The pairs whose product, left to right, is the pair on g of the word
    of `terms`, (eps, letters of X), whose conjugators all begin with the
    same p letters P, with `base` the pair of b = P^-1 g P: a core's z on
    g1 (_chain), or with p = 0 on g itself any word eval_matrix does not
    recall (_conj_product, which multiplies the forward sides alone).

    Past P the conjugators X_1, X_2, ..., X_m telescope: the product is
    X_1^-1 b^e1 (X_1 X_2^-1) b^e2 (X_2 X_3^-1) ... b^em X_m, and each
    X_t X_t+1^-1 is taken once the suffix the two share cancels.  X_m is
    cut into pieces where such a suffix was cut, so each factor is b, b^-1
    (a view), a segment of `cache` or one inverted (a view): for z, whose
    X_1 is empty, g1^-1 T g1 s g1^-1 T^-1 g1 T s^-1 t^-1, which _chain
    multiplies in 9 stacked products.  Nothing is kept.
    """
    xs = [h[p:] for _, h in terms]
    shared = [_shared_len(pair) for pair in zip(xs, xs[1:])]
    powers = {1: base, -1: base.invert()}
    factors = [_segment(ring, n, xs[0], cache).invert()] if xs[0] else []
    factors.append(powers[terms[0][0]])  # X_1^-1 b^e1 (X_1 X_2^-1) b^e2 ... b^em X_m
    for t in range(1, len(xs)):
        k = shared[t - 1]
        left, right = xs[t - 1][: len(xs[t - 1]) - k], xs[t][: len(xs[t]) - k]
        if left:
            factors.append(_segment(ring, n, left, cache))
        if right:
            factors.append(_segment(ring, n, right, cache).invert())
        factors.append(powers[terms[t][0]])
    last = xs[-1]
    cuts = sorted({len(last)} | {len(last) - min(shared[t:]) for t in range(len(shared))})
    factors += [_segment(ring, n, last[a:b], cache) for a, b in zip([0] + cuts, cuts) if a < b]
    return factors


def _keep_commutator(z_word: ConjWord, z: matrices.InvPair, a_inv: tuple, sigma: int, word: ConjWord, cache: dict, g: matrices.InvPair) -> None:
    """Keep in g's run memo the pair of a core's commutator word [a, z],
    `word`, if its terms are exactly those built here: z's terms (of
    `z_word`, conjugators from g on) with the letters `a_inv` of a^-1
    appended, then z's formal inverse, all formally inverted when sigma is
    -1.  The pair is A^-1 Z A Z^-1 for z's pair Z = `z` and the segment A
    of `a_inv`, three stacked products (inverted, a view, when sigma is
    -1).  This is the memo's one writer, run once per core built.  A word
    written otherwise keeps nothing, so eval_matrix multiplies it out as
    written."""
    terms = tuple((eps, h.letters) for eps, h in z_word.terms)
    built = tuple((eps, h + a_inv) for eps, h in terms) + _inverse_terms(terms)
    key = tuple((eps, h.letters) for eps, h in word.terms)
    if key != (built if sigma == 1 else _inverse_terms(built)):
        return
    pair = matrices.commutator(_segment(z.ring, word.n, a_inv, cache).invert(), z)
    _run_memo(cache, g)[key] = pair if sigma == 1 else pair.invert()
