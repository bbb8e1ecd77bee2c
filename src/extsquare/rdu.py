"""Constructive decomposition of exterior transvections into conjugates.

Given a certified invertible matrix g in the compound group, every level
generator value xi (an off-diagonal entry or a difference of diagonal
entries) admits an explicit word of elementary conjugates h^-1 g^{+-1} h
whose product is the exterior transvection with argument xi.  The word
length is exact by construction: 8 for a height-one entry, 16 for a
height-zero entry, 24 for a diagonal difference of height-one indices and
48 for height zero.

Every construction step is asserted as a named certificate, and the final
word is multiplied out and compared with the target transvection before it
is returned; a failed certificate raises instead of degrading.

The eight-term core works at the fixed position ({1,3}, {1,2}):

    T    product of exterior letters fixing the first column of the routed g
    h    g^-1 T g, which lands in a parabolic with a forced zero block
    z    [T^-1 h, s]^{T^-1} with s the unit exterior letter at (2, 3),
         expanded into four conjugates through [xy,z]^x = [y,z] [z,x^-1]
    out  [letter(1,3,-1), z], eight conjugates multiplying out to the
         exterior letter at (2, 3) with the routed entry as argument

Monomial routing moves the working entry into place beforehand and the
resulting transvection to the requested index pair afterwards; both routes
ride inside the conjugators, so term counts never change.  An orientation
flip from routing is absorbed by formally inverting the word, which also
preserves length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exterior, indexing, level, matrices, plucker, words
from .words import ConjWord, ExtWord, ext_letter_matrix


class DecompositionError(ValueError):
    """Precondition failure for a decomposition request."""


class RankError(DecompositionError):
    pass


class HeightError(DecompositionError):
    pass


class MembershipError(DecompositionError):
    pass


class CertificateError(RuntimeError):
    """An asserted construction step failed; indicates a bug, never input."""


CASE_LENGTHS = {"h1-entry": 8, "h0-entry": 16, "h1-diag": 24, "h0-diag": 48}


@dataclass(frozen=True)
class GeneratorTarget:
    """Which level generator to realize, and at which transvection index."""

    kind: str  # "entry" or "diagdiff"
    I: tuple
    J: tuple
    k: int
    l: int


@dataclass(frozen=True)
class Decomposition:
    word: ConjWord
    param: object  # ring payload of the realized argument
    case: str
    certificates: tuple
    k: int
    l: int
    n: int


def _require(ok: bool, name: str):
    if not ok:
        raise CertificateError(f"decomposition certificate failed: {name}")
    return (name, True)


def reconjugate(word: ConjWord, prefix: ExtWord) -> ConjWord:
    """Rewrite conjugates of (prefix-related g) as conjugates of g itself.

    If each term of word is x^-1 b^eps x and b = P^-1 g P with P = eval of
    prefix, the same product is (prefix + x)-conjugates of g.
    """
    return ConjWord(word.n, tuple((eps, prefix + h) for eps, h in word.terms))


def retarget(word: ConjWord, suffix: ExtWord) -> ConjWord:
    """Conjugate the whole product by the inverse of suffix's evaluation."""
    return ConjWord(word.n, tuple((eps, h + suffix) for eps, h in word.terms))


class ReverseDecomposer:
    """Decomposition engine bound to one certified compound-group matrix."""

    def __init__(self, g: matrices.InvPair, n: int | None = None, *, check_membership: bool = True):
        if n is None:
            n = indexing.ambient_rank(g.dim)
        if n < 4:
            raise RankError("rank too small: need n >= 4")
        if g.dim != indexing.dim(n):
            raise RankError("dimension does not match ambient rank")
        if check_membership and not plucker.is_member(g.fwd, n):
            raise MembershipError("matrix fails the compound-group criterion")
        self.g = g
        self.n = n
        self.ring = g.ring
        self._cache: dict = {}
        self._core_cache: dict = {}

    # -- helpers ---------------------------------------------------------

    def _rank(self, pair) -> int:
        return indexing.rank(tuple(pair), self.n)

    def _single(self, i: int, j: int, payload) -> ExtWord:
        return ExtWord(self.n, ((i, j, payload),))

    def _signed(self, payload, s: int):
        return payload if s == 1 else self.ring.neg(payload)

    def _transvection_target(self, k: int, l: int, payload) -> matrices.Matrix:
        return ext_letter_matrix(self.ring, self.n, k, l, payload)

    # -- the eight-conjugate core ----------------------------------------

    def _core_words(self, tag, pair: matrices.InvPair, I, J, prefix: ExtWord | None = None):
        """Memoized eight-conjugate core at position (2, 3) for one slot.

        The returned word is written on self.g (any conjugation relating
        `pair` to self.g must be supplied as `prefix`) and multiplies out to
        the exterior letter at (2, 3) with argument pair_{I,J}.  The cached
        value is target independent; callers reroute it per target.
        """
        hit = self._core_cache.get(tag)
        if hit is not None:
            return hit
        word, param, certs = self._build_core(pair, I, J)
        if prefix is not None:
            word = reconjugate(word, prefix)
        value = (word, param, tuple(certs))
        self._core_cache[tag] = value
        return value

    def _build_core(self, pair: matrices.InvPair, I, J):
        """Eight conjugates of `pair` multiplying to letter (2,3, pair_{I,J}).

        Returns (word, param, certificates); the word's conjugators already
        carry the source route, and an orientation flip from the source
        route has been absorbed by formal inversion.
        """
        ring, n = self.ring, self.n
        I = tuple(I)
        J = tuple(J)
        certs = []

        src, sigma = exterior.route_source(I, J, n)
        g1 = matrices.conjugate(pair, src.eval(ring, self._cache), "left")
        r13, r12 = self._rank((1, 3)), self._rank((1, 2))
        c = g1.fwd.at(r13, r12)
        certs.append(
            _require(
                c == self._signed(pair.fwd.at(self._rank(I), self._rank(J)), sigma),
                "entry-routed",
            )
        )

        # Column stabilizer at j = 1 built from the routed first column; for
        # j = 1 every orientation sign is the same, so the plain entries work.
        T = ExtWord(
            n,
            tuple(
                (s, 1, g1.fwd.at(self._rank(tuple(sorted((1, s)))), r12))
                for s in range(2, n + 1)
            ),
        )
        Tm = T.eval(ring, self._cache)
        col = g1.fwd.column(r12)
        certs.append(
            _require(matrices.mat_vec(Tm.fwd, col) == tuple(col), "column-fixed")
        )

        H = g1.bwd.mul(Tm.fwd).mul(g1.fwd)
        e_col = tuple(
            ring.one if r == r12 else ring.zero for r in range(g1.dim)
        )
        certs.append(_require(H.column(r12) == e_col, "parabolic-column"))
        certs.append(
            _require(plucker.parabolic_zero_check(H, (1, 2), n), "parabolic-zeros")
        )

        s_word = self._single(2, 3, ring.one)
        t_inv = T.inverse(ring)
        s_inv = s_word.inverse(ring)
        z = ConjWord(
            n,
            (
                (-1, ExtWord(n)),
                (1, t_inv),
                (-1, s_inv + t_inv),
                (1, T + s_inv + t_inv),
            ),
        )
        z_val = z.eval_matrix(g1, self._cache)

        # Direct route: z = T [T^-1 h, s] T^-1, multiplied out from matrices.
        Hinv = g1.bwd.mul(Tm.bwd).mul(g1.fwd)
        X = Tm.bwd.mul(H)
        Xinv = Hinv.mul(Tm.fwd)
        S = ext_letter_matrix(ring, n, 2, 3, ring.one)
        Sinv = ext_letter_matrix(ring, n, 2, 3, ring.neg(ring.one))
        z_direct = Tm.fwd.mul(X).mul(S).mul(Xinv).mul(Sinv).mul(Tm.bwd)
        certs.append(_require(z_val == z_direct, "four-conjugate-z"))

        u = z_val.mul(ext_letter_matrix(ring, n, 2, 1, ring.neg(c)))
        certs.append(_require(self._in_radical(u), "radical-factor"))

        a_inv = self._single(1, 3, ring.one)  # inverse of letter (1,3,-1)
        final = ConjWord(
            n, tuple((eps, h + a_inv) for eps, h in z.terms)
        ) + z.inverse()
        certs.append(
            _require(
                final.eval_matrix(g1, self._cache)
                == ext_letter_matrix(ring, n, 2, 3, c),
                "eight-conjugate-core",
            )
        )

        word = reconjugate(final, src.inverse(ring))
        if sigma == -1:
            word = word.inverse()
        param = pair.fwd.at(self._rank(I), self._rank(J))
        return word, param, certs

    def _in_radical(self, u: matrices.Matrix) -> bool:
        """Identity outside the strictly block-upper positions.

        Blocks order the pair labels by their overlap with {1, 2}: the pair
        {1,2} itself, then pairs meeting it in one index, then the rest.
        The abelian unipotent radical sits strictly above the diagonal in
        this grading.
        """
        ring, n = self.ring, self.n

        def block(pair):
            inter = len(set(pair) & {1, 2})
            return 2 - inter

        ps = indexing.pairs(n)
        for r, P in enumerate(ps):
            for c_, Q in enumerate(ps):
                if block(P) < block(Q):
                    continue
                want = ring.one if r == c_ else ring.zero
                if u.at(r, c_) != want:
                    return False
        return True

    # -- public cases ------------------------------------------------------

    def entry(self, I, J, k: int, l: int) -> Decomposition:
        """Entry generator g_{I,J}: length 8 (height one) or 16 (height zero)."""
        I, J = tuple(sorted(I)), tuple(sorted(J))
        self._check_target(k, l)
        h = indexing.height(I, J)
        if I == J:
            raise HeightError("entry generator requires I != J")
        if h == 1:
            return self._entry_h1(I, J, k, l)
        return self._entry_h0(I, J, k, l)

    def diagonal(self, I, J, k: int, l: int) -> Decomposition:
        """Diagonal difference g_{I,I} - g_{J,J}: length 24 or 48."""
        I, J = tuple(sorted(I)), tuple(sorted(J))
        self._check_target(k, l)
        if I == J:
            raise HeightError("diagonal difference requires I != J")
        if indexing.height(I, J) == 1:
            return self._diag_h1(I, J, k, l)
        return self._diag_h0(I, J, k, l)

    def decompose(self, target: GeneratorTarget) -> Decomposition:
        for pair in (target.I, target.J):
            indexing.rank(tuple(sorted(pair)), self.n)  # ValueError names the pair
        if target.kind == "entry":
            return self.entry(target.I, target.J, target.k, target.l)
        if target.kind == "diagdiff":
            return self.diagonal(target.I, target.J, target.k, target.l)
        raise DecompositionError(f"unknown generator kind {target.kind!r}")

    def _check_target(self, k: int, l: int):
        if k == l or not (1 <= k <= self.n and 1 <= l <= self.n):
            raise DecompositionError("bad transvection target")

    def _with_target(self, word: ConjWord, k: int, l: int) -> ConjWord:
        return retarget(word, exterior.route_target(k, l, self.n).inverse(self.ring))

    def _finalize(self, word, param, certs, case, k, l) -> Decomposition:
        certs = list(certs)
        certs.append(
            _require(
                word.eval_matrix(self.g, self._cache)
                == self._transvection_target(k, l, param),
                "final-verified",
            )
        )
        if len(word) != CASE_LENGTHS[case]:
            raise CertificateError(
                f"decomposition certificate failed: length {len(word)} != "
                f"{CASE_LENGTHS[case]} for {case}"
            )
        return Decomposition(word, param, case, tuple(certs), k, l, self.n)

    def _entry_h1(self, I, J, k, l) -> Decomposition:
        word, param, certs = self._core_words(("g", I, J), self.g, I, J)
        word = self._with_target(word, k, l)
        return self._finalize(word, param, certs, "h1-entry", k, l)

    def _combined_core(self, tag, tau: ExtWord, I, J):
        """Core words at (I, J) of g conjugated by the one-letter word tau,
        absorbing tau, and the entry v of that conjugate at (I, J)."""
        gt = matrices.conjugate(self.g, tau.eval(self.ring, self._cache))
        v = gt.fwd.at(self._rank(I), self._rank(J))
        word, param, certs = self._core_words(tag, gt, I, J, prefix=tau)
        return word, param, certs, v

    def _combined_entry_core(self, A, B):
        """Core for the conjugated-matrix entry that absorbs a height-zero slot.

        With A = {a1, a2}, B = {b1, b2} disjoint, conjugating by the letter
        (b1, a1, -1) puts the value kappa * g_{A,B} + g_{I0,B} at the
        height-one position (I0, B), I0 = {b1, a2}; the word realizing it is
        eight conjugates of g after absorbing the conjugating letter.
        """
        ring = self.ring
        a1, a2 = A
        b1 = B[0]
        tau = self._single(b1, a1, ring.neg(ring.one))
        I0 = tuple(sorted((b1, a2)))
        word, param, certs, v = self._combined_core(("h0-combined", A, B), tau, I0, B)
        kappa = indexing.sign(a2, b1) * indexing.sign(a2, a1)
        return word, param, certs, v, kappa, I0

    def _entry_h0(self, A, B, k, l) -> Decomposition:
        ring = self.ring
        w1, p1, c1, v, kappa, I0 = self._combined_entry_core(A, B)
        gAB = self.g.fwd.at(self._rank(A), self._rank(B))
        companion = self.g.fwd.at(self._rank(I0), self._rank(B))
        certs = [
            _require(
                v == ring.add(self._signed(gAB, kappa), companion), "seam-entry"
            ),
            _require(p1 == v, "combined-param"),
        ]
        certs.extend(("combined:" + name, ok) for name, ok in c1)
        w2, p2, c2 = self._core_words(("g", I0, B), self.g, I0, B)
        certs.append(_require(p2 == companion, "companion-param"))
        certs.extend(("companion:" + name, ok) for name, ok in c2)

        word = self._with_target(w1 + w2.inverse(), k, l)
        if kappa == -1:
            word = word.inverse()
        return self._finalize(word, gAB, certs, "h0-entry", k, l)

    def _combined_diag_core(self, I, J):
        """Core for the conjugated-matrix entry absorbing a diagonal difference.

        For height-one I = {i, h}, J = {j, h}, conjugating by the letter
        (i, j, +1) puts beta * (g_{I,I} - g_{J,J}) + g_{I,J} - g_{J,I} at
        position (I, J).
        """
        ring = self.ring
        common = (set(I) & set(J)).pop()
        i = (set(I) - set(J)).pop()
        j = (set(J) - set(I)).pop()
        tau = self._single(i, j, ring.one)
        word, param, certs, v = self._combined_core(("diag-combined", I, J), tau, I, J)
        beta = indexing.sign(common, i) * indexing.sign(common, j)
        return word, param, certs, v, beta

    def _diag_h1(self, I, J, k, l) -> Decomposition:
        ring = self.ring
        w1, p1, c1, v, beta = self._combined_diag_core(I, J)
        rI, rJ = self._rank(I), self._rank(J)
        diff = ring.sub(self.g.fwd.at(rI, rI), self.g.fwd.at(rJ, rJ))
        expected = ring.add(
            self._signed(diff, beta),
            ring.sub(self.g.fwd.at(rI, rJ), self.g.fwd.at(rJ, rI)),
        )
        certs = [
            _require(v == expected, "seam-diag"),
            _require(p1 == v, "combined-param"),
        ]
        certs.extend(("combined:" + name, ok) for name, ok in c1)
        w2, _, c2 = self._core_words(("g", I, J), self.g, I, J)
        certs.extend(("entry-forward:" + name, ok) for name, ok in c2)
        w3, _, c3 = self._core_words(("g", J, I), self.g, J, I)
        certs.extend(("entry-backward:" + name, ok) for name, ok in c3)

        word = self._with_target(w1 + w2.inverse() + w3, k, l)
        if beta == -1:
            word = word.inverse()
        return self._finalize(word, diff, certs, "h1-diag", k, l)

    def _diag_h0(self, I, J, k, l) -> Decomposition:
        ring = self.ring
        K = tuple(sorted((min(I), min(J))))
        first = self._diag_h1(I, K, k, l)
        second = self._diag_h1(K, J, k, l)
        word = first.word + second.word
        param = ring.add(first.param, second.param)
        rI, rJ = self._rank(I), self._rank(J)
        diff = ring.sub(self.g.fwd.at(rI, rI), self.g.fwd.at(rJ, rJ))
        certs = [_require(param == diff, "telescope")]
        certs.extend(("first:" + name, ok) for name, ok in first.certificates)
        certs.extend(("second:" + name, ok) for name, ok in second.certificates)
        return self._finalize(word, param, certs, "h0-diag", k, l)

    # -- aggregate system --------------------------------------------------

    def eight_conjugate_system(self, k: int = 2, l: int = 3):
        """One verified eight-term word per level generator slot.

        Entry slots of height one are realized directly.  For a height-zero
        slot the word realizes the combined entry of a conjugated matrix
        (the slot value plus a height-one entry), and diagonal slots follow
        a height-one path through the pair labels, each edge realizing the
        combined diagonal difference of a conjugated matrix.  Together the
        realized values generate the same ideal as the level generators,
        using dim^2 - 1 words of exactly eight conjugates each.
        """
        n = self.n
        out = []
        for I in indexing.pairs(n):
            for J in indexing.pairs(n):
                if I == J:
                    continue
                if indexing.height(I, J) == 1:
                    word, param, _ = self._core_words(("g", I, J), self.g, I, J)
                    out.append(("entry", I, J, word, param))
                else:
                    word, param, _, _, _, _ = self._combined_entry_core(I, J)
                    out.append(("combined-entry", I, J, word, param))
        path = height_one_path(n)
        for P, Q in zip(path, path[1:]):
            word, param, _, _, _ = self._combined_diag_core(P, Q)
            out.append(("combined-diagonal", P, Q, word, param))
        results = []
        for kind, I, J, word, param in out:
            word = self._with_target(word, k, l)
            if len(word) != 8:
                raise CertificateError(
                    "decomposition certificate failed: system word length"
                )
            if word.eval_matrix(self.g, self._cache) != self._transvection_target(
                k, l, param
            ):
                raise CertificateError(
                    "decomposition certificate failed: system verification"
                )
            results.append((kind, I, J, word, param))
        return results


def height_one_path(n: int):
    """A path through all pair labels with consecutive pairs sharing an index."""
    seq = []
    for i in range(1, n):
        cols = list(range(i + 1, n + 1))
        if i % 2 == 0:
            cols.reverse()
        seq.extend((i, c) for c in cols)
    return seq


def verify(word: ConjWord, g: matrices.InvPair, k: int, l: int, xi, n: int | None = None) -> bool:
    """Independent referee: multiply the word out against the minor oracle.

    The full product is compared exactly; nothing is sampled.  Over Z/m with
    (m-1)^2 < 2^62 it comes from _batched_product, which applies every
    letter of every conjugator to its own copy of g^{+-1} and shares no
    word evaluator with the engine.  Over other rings it comes from
    _naive_product, letter by letter.  Neither calls the factored
    `ConjWord.eval_matrix` that the engine's own certificates use.
    """
    if n is None:
        n = indexing.ambient_rank(g.dim)
    if g.dim != indexing.dim(word.n):
        raise ValueError("dimension mismatch")
    if n != word.n:
        raise ValueError(f"rank mismatch: n is {n} but the word has n = {word.n}")
    ring = g.ring
    xi = ring.coerce(xi)
    expected = exterior.cauchy_binet(
        matrices.transvection(ring, n, k, l, xi), n
    )
    if matrices._int64_kernel(ring, 1) == matrices.ONE_LIMB:
        product = matrices.Matrix(ring, None, _np_data=_batched_product(word, g))
    else:
        product = _naive_product(word, g)
    return product == expected


def _naive_product(word: ConjWord, g: matrices.InvPair) -> matrices.Matrix:
    """Every conjugator multiplied out letter by letter into a fresh cache,
    and the terms multiplied in one by one; the referee of _batched_product.
    """
    ring = g.ring
    cache: dict = {}
    acc = matrices.identity(ring, g.dim)
    for eps, h in word.terms:
        x = h.eval(ring, cache)
        base = g.fwd if eps == 1 else g.bwd
        acc = acc.mul(x.bwd).mul(base).mul(x.fwd)
    return acc


def _batched_product(word: ConjWord, g: matrices.InvPair):
    """The word's product as an int64 array over Z/m with (m-1)^2 < 2^62.

    Every term starts as its own copy of g^{+-1} in one (T, N, N) stack.  A
    letter is I + E whose rows R and columns C (from _letter_support) are
    disjoint, so E^2 = 0 and its inverse is I - E: conjugating by it is
    M[:, C] += v M[:, R] (M times the letter), then M[R, :] -= v M[C, :]
    (the inverse times M), each one product plus one residue, below
    2^62 + 2^31 < 2^63.  Letter position p is applied to all terms whose
    conjugator reaches it at once; the stack is kept longest conjugator
    first, so those terms are a prefix.  Then the T terms are multiplied
    together in order, pairwise.  Shared segments are never factored out.
    """
    ring, n, N = g.ring, word.n, g.dim
    m = ring.modulus
    if not word.terms:
        return np.identity(N, dtype=np.int64) % m
    # stable sort, longest conjugator first
    order = sorted(range(len(word.terms)), key=lambda t: -len(word.terms[t][1]))
    terms = [word.terms[t] for t in order]
    lens = np.array([len(h) for _, h in terms])
    letters: dict = {}  # distinct (i, j, xi) -> row of the letter tables
    ids = [letters.setdefault(x, len(letters)) for _, h in terms for x in h.letters]
    M = np.stack([g.fwd._np if eps == 1 else g.bwd._np for eps, _ in terms])
    if ids:
        support = {(i, j): words._letter_support(n, i, j) for i, j, _ in letters}
        rows, cols, signs = (np.stack(a) for a in zip(*(support[i, j] for i, j, _ in letters)))
        xs = np.array([ring.coerce(x) for _, _, x in letters], dtype=np.int64)
        ids = np.array(ids)
        # (position, term) of every letter, in the flat order of ids
        term = np.repeat(np.arange(len(terms)), lens)
        pos = np.arange(len(ids)) - np.repeat(np.cumsum(lens) - lens, lens)
        shape = (int(lens[0]), len(terms), n - 2)
        R, C = np.zeros(shape, np.intp), np.zeros(shape, np.intp)
        V = np.zeros(shape + (1,), np.int64)
        R[pos, term], C[pos, term] = rows[ids], cols[ids]
        V[pos, term, :, 0] = (signs * xs[:, None])[ids] % m
        tt = np.arange(len(terms))[:, None]
        for p in range(shape[0]):
            k = int(np.count_nonzero(lens > p))
            t, r, c, v = tt[:k], R[p, :k], C[p, :k], V[p, :k]
            M[t, :, c] = (M[t, :, c] + v * M[t, :, r]) % m
            M[t, r, :] = (M[t, r, :] - v * M[t, c, :]) % m
    M[order] = M.copy()  # back to the word's order
    s = matrices._int64_kernel(ring, N)
    while len(M) > 1:
        head = matrices._int64_matmul(M[0:-1:2], M[1::2], m, s)
        M = np.concatenate([head, M[-1:]]) if len(M) % 2 else head
    return M[0]


def targets_of_level(g: matrices.InvPair, n: int, k: int = 2, l: int = 3):
    """GeneratorTargets covering every level generator of g."""
    out = []
    for gen in level.level_generators(g.fwd, n):
        out.append(GeneratorTarget(gen.kind, gen.I, gen.J, k, l))
    return out
