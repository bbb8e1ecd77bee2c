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
is returned; a failed certificate raises instead of degrading, and
`decompose` names the target it failed on.

Every word certificate is evaluated on the engine's own g, through one
shared cache, so each core's word is multiplied once per engine, and
`final-verified` and the system check recall it for every target
(inverted where a core enters a word inverted).  z's pair is made in one
pass over its telescoped chain on the routed g1 (words._chain), and the
eight-term word's pair from it (words._keep_commutator), which keeps it
in g's run memo; the memo holds those words alone, one per core.
Cores are cached per slot, at most N (N - 1 + 2 (n - 2)) for N = C(n, 2):
a plain and a combined-diagonal core per ordered pair of height one, and a
combined-entry core per ordered pair of height zero.

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

import contextlib
import itertools
from dataclasses import dataclass
from functools import lru_cache

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


def _checked_rank(word: ConjWord, w: ExtWord) -> None:
    """Refuse a prefix or suffix w that is not an ExtWord of word's rank."""
    if not isinstance(w, ExtWord) or w.n != word.n:
        raise ValueError("conjugator rank mismatch")


def reconjugate(word: ConjWord, prefix: ExtWord) -> ConjWord:
    """Rewrite conjugates of (prefix-related g) as conjugates of g itself.

    If each term of word is x^-1 b^eps x and b = P^-1 g P with P = eval of
    prefix, the same product is (prefix + x)-conjugates of g.  Both words
    are validated already, so only prefix's rank is checked.
    """
    _checked_rank(word, prefix)
    n, p = word.n, prefix.letters
    return ConjWord._trusted(n, tuple((eps, ExtWord._trusted(n, p + h.letters)) for eps, h in word.terms))


def retarget(word: ConjWord, suffix: ExtWord) -> ConjWord:
    """Conjugate the whole product by the inverse of suffix's evaluation
    (only suffix's rank is checked, as in reconjugate)."""
    _checked_rank(word, suffix)
    n, s = word.n, suffix.letters
    return ConjWord._trusted(n, tuple((eps, ExtWord._trusted(n, h.letters + s)) for eps, h in word.terms))


@lru_cache(maxsize=1024)
def _route_inverse(route: ExtWord, ring) -> ExtWord:
    """route.inverse(ring), kept per route word and ring: a target route (of
    exterior.route_target, itself cached) enters every decomposition to its
    target inverted.  Keyed on the word, not its indices, so a route rebuilt
    after that cache is cleared is inverted anew."""
    return route.inverse(ring)


class ReverseDecomposer:
    """Decomposition engine bound to one certified compound-group matrix."""

    def __init__(self, g: matrices.InvPair, n: int | None = None):
        if n is None:
            n = indexing.ambient_rank(g.dim)
        if n < 4:
            raise RankError("rank too small: need n >= 4")
        if g.dim != indexing.dim(n):
            raise RankError("dimension does not match ambient rank")
        if not plucker.is_member(g.fwd, n):
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
        """The one-letter word (i, j, payload) for a valid pair i, j and a
        ring payload."""
        return ExtWord._trusted(self.n, ((i, j, payload),))

    def _signed(self, payload, s: int):
        return payload if s == 1 else self.ring.neg(payload)

    def _letter_sign(self, i: int, j: int, row) -> int:
        """sign(a,i) sign(a,j), the sign of xi in row {a, i} = `row` of the
        letter (i, j, xi), as words._letter_support gives it."""
        rows, _, signs = words._letter_support(self.n, i, j)
        return int(signs[rows.tolist().index(self._rank(row))])

    # -- the eight-conjugate core ----------------------------------------

    def _core(self, I, J, tau: ExtWord | None = None):
        """(word, param, certificates) of the core for the slot (I, J) of g,
        or of tau^-1 g tau for the one-letter word tau, cached under (I, J,
        tau's letters or None); see _build_core.  The value is target
        independent, and a hit multiplies nothing."""
        key = (I, J, None if tau is None else tau.letters)
        hit = self._core_cache.get(key)
        if hit is None:
            hit = self._core_cache[key] = self._build_core(I, J, tau)
        return hit

    def _build_core(self, I, J, tau: ExtWord | None):
        """Eight conjugates of self.g multiplying to letter (2,3, pair_{I,J})
        for pair = g, or tau^-1 g tau, conjugated here only.

        Returns (word, param, certificates), param = pair_{I,J}.  The core is
        built on g1, the source-routed pair, and written on self.g through
        the outer prefix P = tau + src^-1 (g1 = P^-1 g P); an orientation flip
        from the source route is absorbed by formal inversion.  T's pair is
        written in one step (ExtWord.eval) and kept inverted as t^-1's
        (ExtWord._keep); h = g1^-1 T g1 and h^-1 are one conjugation of it.
        z's pair Z takes 9 products (words._chain, on g1), and the word's
        pair A^-1 Z A Z^-1, for a^-1's segment A, 3 more; it is kept in g's
        run memo only if the word's terms are exactly those built from z's
        (words._keep_commutator), so the eight-conjugate-core certificate
        recalls it, and reads it in place (_is_letter).
        """
        ring, n = self.ring, self.n
        pair = self.g if tau is None else matrices.conjugate(self.g, tau.eval(ring, self._cache))
        certs = []

        src, sigma = exterior.route_source(I, J, n)
        outer = src.inverse(ring) if tau is None else tau + src.inverse(ring)
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
        # {1, s} has rank s - 2.
        col = g1.fwd.column(r12)
        T = ExtWord._trusted(n, tuple((s, 1, col[s - 2]) for s in range(2, n + 1)))
        Tm = T.eval(ring, self._cache)
        certs.append(
            _require(matrices.mat_vec(Tm.fwd, col) == tuple(col), "column-fixed")
        )

        h_pair = matrices.conjugate(Tm, g1)  # g1^-1 T g1 and its inverse
        H, Hinv = h_pair.fwd, h_pair.bwd
        e_col = tuple(
            ring.one if r == r12 else ring.zero for r in range(g1.dim)
        )
        certs.append(_require(H.column(r12) == e_col, "parabolic-column"))
        certs.append(
            _require(plucker.parabolic_zero_check(H, (1, 2), n), "parabolic-zeros")
        )

        s_word = self._single(2, 3, ring.one)
        t_inv = T.inverse(ring)
        t_inv._keep(ring, Tm.invert(), self._cache)
        s_inv = s_word.inverse(ring)
        z = ConjWord._trusted(
            n,
            (
                (-1, ExtWord._trusted(n, ())),
                (1, t_inv),
                (-1, s_inv + t_inv),
                (1, T + s_inv + t_inv),
            ),
        )
        z_word = reconjugate(z, outer)
        z_pair = words._chain(ring, n, z_word, g1, self._cache, len(outer))

        # Direct route from matrices: z = T [T^-1 h, s] T^-1 = h s h^-1 T s^-1 T^-1.
        S = s_word.eval(ring, self._cache)
        z_direct = matrices._product(ring, g1.dim, (H, S.fwd, Hinv, Tm.fwd, S.bwd, Tm.bwd))
        certs.append(_require(z_pair.fwd == z_direct, "four-conjugate-z"))

        u = z_pair.fwd.mul(ext_letter_matrix(ring, n, 2, 1, ring.neg(c)))
        certs.append(_require(u._equals_at(*_radical_complement(n, ring)), "radical-factor"))

        a_inv = self._single(1, 3, ring.one)  # inverse of letter (1,3,-1)
        word = reconjugate(retarget(z, a_inv) + z.inverse(), outer)
        if sigma == -1:
            word = word.inverse()
        words._keep_commutator(z_word, z_pair, a_inv.letters, sigma, word, self._cache, self.g)
        param = pair.fwd.at(self._rank(I), self._rank(J))
        # the word itself, flip absorbed: letter (2,3, c)^sigma = letter (2,3, param)
        certs.append(
            _require(
                _is_letter(word.eval_matrix(self.g, self._cache), n, 2, 3, param),
                "eight-conjugate-core",
            )
        )
        return word, param, tuple(certs)

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
        """The case's word for `target`; a failed certificate is re-raised
        naming the kind, I, J and (k, l) it failed on."""
        for pair in (target.I, target.J):
            indexing.rank(tuple(sorted(pair)), self.n)  # ValueError names the pair
        if target.kind not in ("entry", "diagdiff"):
            raise DecompositionError(f"unknown generator kind {target.kind!r}")
        case = self.entry if target.kind == "entry" else self.diagonal
        try:
            return case(target.I, target.J, target.k, target.l)
        except CertificateError as exc:
            where = f"{target.kind} {tuple(target.I)} {tuple(target.J)}"
            raise CertificateError(
                f"{exc} ({where} at ({target.k}, {target.l}))"
            ) from exc

    def _check_target(self, k: int, l: int):
        if not indexing._is_pair(k, l, self.n):
            raise DecompositionError("bad transvection target")

    def _with_target(self, word: ConjWord, k: int, l: int) -> ConjWord:
        return retarget(word, _route_inverse(exterior.route_target(k, l, self.n), self.ring))

    def _verified(self, word: ConjWord, param, k: int, l: int, name: str, length: int, what: str):
        """Certificate `name`: word multiplies out on self.g to the letter at
        (k, l) with argument param; a length other than `length` names `what`."""
        cert = _require(
            _is_letter(word.eval_matrix(self.g, self._cache), self.n, k, l, param),
            name,
        )
        if len(word) != length:
            raise CertificateError(
                f"decomposition certificate failed: length {len(word)} != {length} for {what}"
            )
        return cert

    def _finalize(self, word, param, certs, case, k, l) -> Decomposition:
        cert = self._verified(word, param, k, l, "final-verified", CASE_LENGTHS[case], case)
        return Decomposition(word, param, case, tuple(certs) + (cert,), k, l, self.n)

    def _entry_h1(self, I, J, k, l) -> Decomposition:
        word, param, certs = self._core(I, J)
        word = self._with_target(word, k, l)
        return self._finalize(word, param, certs, "h1-entry", k, l)

    def _combined_entry_core(self, A, B):
        """Core for the conjugated-matrix entry that absorbs a height-zero
        slot, with kappa and I0: ((word, param, certificates), kappa, I0).

        With A = {a1, a2}, B = {b1, b2} disjoint, conjugating by the letter
        (b1, a1, -1) puts the value kappa * g_{A,B} + g_{I0,B} at the
        height-one position (I0, B), I0 = {b1, a2}, kappa being the letter's
        sign at row I0; the word realizing it is eight conjugates of g after
        absorbing the conjugating letter.
        """
        ring = self.ring
        a1, a2 = A
        b1 = B[0]
        tau = self._single(b1, a1, ring.neg(ring.one))
        I0 = tuple(sorted((b1, a2)))
        return self._core(I0, B, tau), self._letter_sign(b1, a1, I0), I0

    def _entry_h0(self, A, B, k, l) -> Decomposition:
        ring = self.ring
        (w1, p1, c1), kappa, I0 = self._combined_entry_core(A, B)
        gAB = self.g.fwd.at(self._rank(A), self._rank(B))
        companion = self.g.fwd.at(self._rank(I0), self._rank(B))
        # A core's param is the entry it realizes, so combined-param (p1
        # against tau^-1 g tau at (I0, B)) and companion-param (p2 against g
        # there) hold by construction; artifacts keep both names.
        certs = [
            _require(
                p1 == ring.add(self._signed(gAB, kappa), companion), "seam-entry"
            ),
            ("combined-param", True),
        ]
        certs.extend(("combined:" + name, ok) for name, ok in c1)
        w2, _, c2 = self._core(I0, B)
        certs.append(("companion-param", True))
        certs.extend(("companion:" + name, ok) for name, ok in c2)

        word = self._with_target(w1 + w2.inverse(), k, l)
        if kappa == -1:
            word = word.inverse()
        return self._finalize(word, gAB, certs, "h0-entry", k, l)

    def _combined_diag_core(self, I, J):
        """Core for the conjugated-matrix entry absorbing a diagonal
        difference, with beta: ((word, param, certificates), beta).

        For height-one I = {i, h}, J = {j, h}, conjugating by the letter
        (i, j, +1) puts beta * (g_{I,I} - g_{J,J}) + g_{I,J} - g_{J,I} at
        position (I, J), beta being the letter's sign at row I.
        """
        ring = self.ring
        i = (set(I) - set(J)).pop()
        j = (set(J) - set(I)).pop()
        tau = self._single(i, j, ring.one)
        return self._core(I, J, tau), self._letter_sign(i, j, I)

    def _diag_h1(self, I, J, k, l) -> Decomposition:
        ring = self.ring
        (w1, p1, c1), beta = self._combined_diag_core(I, J)
        rI, rJ = self._rank(I), self._rank(J)
        diff = ring.sub(self.g.fwd.at(rI, rI), self.g.fwd.at(rJ, rJ))
        expected = ring.add(
            self._signed(diff, beta),
            ring.sub(self.g.fwd.at(rI, rJ), self.g.fwd.at(rJ, rI)),
        )
        # combined-param holds by construction, as in _entry_h0
        certs = [
            _require(p1 == expected, "seam-diag"),
            ("combined-param", True),
        ]
        certs.extend(("combined:" + name, ok) for name, ok in c1)
        w2, _, c2 = self._core(I, J)
        certs.extend(("entry-forward:" + name, ok) for name, ok in c2)
        w3, _, c3 = self._core(J, I)
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
                    word, param, _ = self._core(I, J)
                    out.append(("entry", I, J, word, param))
                else:
                    word, param, _ = self._combined_entry_core(I, J)[0]
                    out.append(("combined-entry", I, J, word, param))
        path = height_one_path(n)
        for P, Q in zip(path, path[1:]):
            word, param, _ = self._combined_diag_core(P, Q)[0]
            out.append(("combined-diagonal", P, Q, word, param))
        results = []
        for kind, I, J, word, param in out:
            word = self._with_target(word, k, l)
            try:
                self._verified(word, param, k, l, "system verification", 8, "system word")
            except CertificateError as exc:
                raise CertificateError(f"{exc} ({kind} {I} {J} at ({k}, {l}))") from exc
            results.append((kind, I, J, word, param))
        return results


@lru_cache(maxsize=64)
def _radical_complement(n: int, ring):
    """Positions where a matrix in the parabolic's unipotent radical equals
    the identity, as matrices._identity_at gives them.

    Blocks grade the pair labels by their overlap with {1, 2}: the pair
    {1,2} itself, then pairs meeting it in one index, then the rest.  The
    abelian unipotent radical sits strictly above the diagonal in this
    grading, so it is the identity wherever grade(row) >= grade(col).
    """
    grade = np.array([2 - len(set(p) & {1, 2}) for p in indexing.pairs(n)])
    return matrices._identity_at(ring, grade[:, None] >= grade[None, :])


@lru_cache(maxsize=64)
def _letter_complement(n: int, ring, i: int, j: int):
    """The positions off the letter (i, j, xi)'s support, as
    matrices._identity_at gives them."""
    rows, cols, _ = words._letter_support(n, i, j)
    mask = np.ones((indexing.dim(n),) * 2, dtype=bool)
    mask[rows, cols] = False
    return matrices._identity_at(ring, mask)


def _is_letter(product: matrices.Matrix, n: int, i: int, j: int, xi) -> bool:
    """Whether `product` is the letter (i, j, xi), read in place: its signed
    payloads at the support, the identity elsewhere.  No letter is built."""
    ring = product.ring
    rows, cols, values = words._signed_support(ring, n, i, j, ring.coerce(xi))
    return product._gather(rows, cols) == values and product._equals_at(*_letter_complement(n, ring, i, j))


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

    The full product is compared exactly with the 2 x 2 minors of the
    n x n transvection t_kl(xi); nothing is sampled.  Over Z/m with
    (m-1)^2 < 2^62 it comes from _batched_product, which multiplies the
    conjugators out as n x n transvections, telescopes neighbouring ones
    and lifts them all by one batched compound, sharing no word evaluator
    and no letter rule with the engine; every stack runs at
    matrices._referee_kernel for its dim, in float64 residues where every
    BLAS sum stays an exact integer (reduced only where a proven bound on
    the next product would pass 2^53), else in int64 balanced residues
    where no sum can overflow, else in float64 limbs.  Over other rings it
    comes from _naive_product, letter by letter.  Neither calls the
    factored `ConjWord.eval_matrix` that the engine's own certificates use,
    and neither reads a cache the engine writes.
    """
    return first_difference(word, g, k, l, xi, n) is None


def first_difference(word: ConjWord, g: matrices.InvPair, k: int, l: int, xi, n: int | None = None):
    """None when `word` verifies (see verify); else (I, J, got, want): the
    pair labels of the first entry, in row-major order, where the word's
    product differs from the target letter, and both payloads there.

    The product is computed once and compared whole, as a residue array on
    the batched path; Matrix objects are built, and the entry looked for,
    only after that comparison fails."""
    if n is None:
        n = indexing.ambient_rank(g.dim)
    if g.dim != indexing.dim(word.n):
        raise ValueError("dimension mismatch")
    if n != word.n:
        raise ValueError(f"rank mismatch: n is {n} but the word has n = {word.n}")
    if not indexing._is_pair(k, l, n):
        raise ValueError(f"bad index (k = {k}, l = {l} at n = {n})")
    ring = g.ring
    xi = ring.coerce(xi)
    if exterior._int64_minors(ring):
        t = np.identity(n, dtype=np.int64)
        t[k - 1, l - 1] = xi
        got, want = _batched_product(word, g), exterior._residue_minors(t, ring.modulus)
        if np.array_equal(got, want):
            return None
        product, expected = matrices._from_residues(ring, got), matrices._from_residues(ring, want)
    else:
        product = _naive_product(word, g)
        expected = exterior.cauchy_binet(matrices.transvection(ring, n, k, l, xi), n)
        if product == expected:
            return None
    ps = indexing.pairs(n)
    r, c = next(
        (r, c)
        for r in range(g.dim)
        for c in range(g.dim)
        if product.at(r, c) != expected.at(r, c)
    )
    return ps[r], ps[c], product.at(r, c), expected.at(r, c)


def _naive_product(word: ConjWord, g: matrices.InvPair) -> matrices.Matrix:
    """Every conjugator multiplied out letter by letter, with no cache (a
    cache would extend one term's conjugator from another's), each letter
    built anew, and the terms multiplied in one by one; the referee of
    _batched_product.  It shares no state with the engine, whose letters
    sit in its own segment cache.
    """
    ring = g.ring
    acc = matrices.identity(ring, g.dim)
    for eps, h in word.terms:
        x = h.eval(ring)
        base = g.fwd if eps == 1 else g.bwd
        acc = acc.mul(x.bwd).mul(base).mul(x.fwd)
    return acc


def _batched_product(word: ConjWord, g: matrices.InvPair):
    """The word's product as an int64 array over Z/m with (m-1)^2 < 2^62.

    A term is X_t^-1 g^{eps_t} X_t, and X_t, the product of its
    conjugator's exterior letters, is the second compound of the product
    x_t of the n x n transvections t_ij(xi) of those letters (the paper's
    definition of a letter).  So every x_t and x_t^-1 is multiplied out in
    n x n (_transvection_stack, pairwise along the letter positions), and
    the product telescopes: X_1^-1 g^{eps_1} (X_1 X_2^-1) g^{eps_2} ...
    (X_{T-1} X_T^-1) g^{eps_T} X_T.  One batched n x n product forms
    x_t x_{t+1}^-1 for t < T, one call of exterior._residue_minors lifts
    the T + 1 factors x_1^-1, x_t x_{t+1}^-1 and x_T to N x N (the compound
    is multiplicative), and the chain of 2T + 1 factors is multiplied
    pairwise.  Every letter of every conjugator is applied in its own term;
    nothing is shared between terms or calls, and the engine's sign rule
    for letters (words._letter_support) is not read.

    Every stack runs at matrices._referee_kernel for its dim.  At ONE_LIMB
    (Z/97) the residues are float64, and _pairwise_product reduces a level
    only when its exact bound requires it; the rows of a letter sum to at
    most 1 + (m-1), and those of a canonical N x N factor to N (m-1).  The
    products x_t x_{t+1}^-1 of canonical x are non-negative integers up to
    e = n (m-1)^2, so their minors lie in [-e^2, e^2]; they reach
    _residue_minors unreduced where e^2 + m <= 2^53 (every n <= 6 over
    Z/97), which keeps every minor exact and reducible.  At BALANCED the
    residues are balanced int64 (Z/(2^31 - 1) at n <= 7, and its N = 6
    chain at n = 4), elsewhere float64 limbs (its N = 10 and 15 chains),
    and every product is reduced.  The minors keep the n x n product's
    dtype, int64 unless that is one float64 limb: |ad - bc| is at most
    2 floor(m/2)^2 < 2^62 for balanced residues and (m-1)^2 < 2^62 for
    canonical ones.  The minors and g^{+-1} enter the chain as canonical
    residues, balanced there where the chain is int64, and the product is
    made canonical before it is returned.
    """
    ring, n, N = g.ring, word.n, g.dim
    m = ring.modulus
    T = len(word.terms)
    if not T:
        return np.identity(N, dtype=np.int64) % m
    s = matrices._referee_kernel(ring, n)
    # the stack is passed, not named, so its first level frees it; a
    # letter's rows sum to at most 1 + (m-1)
    x = _pairwise_product(_transvection_stack(word, ring, s), m, s, m)
    if s == matrices.ONE_LIMB:
        between = x[: T - 1] @ x[T + 1 :]
        top = n * (m - 1) ** 2  # its entries; its minors are at most top^2
        if top * top + m > 2**53:
            matrices._float64_reduce(between, m)
    else:
        between = matrices._referee_matmul(x[: T - 1], x[T + 1 :], m, s)
    # x_1^-1, then x_t x_{t+1}^-1 for t < T, then x_T
    x = np.concatenate([x[T : T + 1], between, x[T - 1 : T]])
    if s != matrices.ONE_LIMB:
        x = x.astype(np.int64, copy=False)
    X = exterior._residue_minors(x, m)
    s = matrices._referee_kernel(ring, N)
    balanced = s == matrices.BALANCED
    eps = np.array([eps for eps, _ in word.terms])[:, None, None]
    chain = np.empty((2 * T + 1, N, N), np.int64 if balanced else np.float64)
    chain[0::2] = X
    chain[1::2] = np.where(eps == 1, g.fwd._residues(chain.dtype), g.bwd._residues(chain.dtype))
    if balanced:
        matrices._balance(chain, m)
    out = _pairwise_product(chain, m, s, N * (m - 1))
    return out % m if balanced else out.astype(np.int64)


def _transvection_stack(word: ConjWord, ring, kind):
    """The letters of the T conjugators as n x n transvections, in one stack
    (P, 2T, n, n) for the longest conjugator length P: slot t holds the
    conjugator of term t as t_ij(xi) in order, slot T + t its inverse as
    t_ij(-xi) in reverse order, each padded with identities.  Balanced int64
    residues where `kind`, an answer of matrices._referee_kernel, is
    BALANCED, canonical float64 residues otherwise."""
    n, m, T = word.n, ring.modulus, len(word.terms)
    balanced = kind == matrices.BALANCED
    lens = np.array([len(h) for _, h in word.terms])
    X = np.zeros((max(int(lens.max()), 1), 2 * T, n, n), np.int64 if balanced else np.float64)
    X.reshape(-1, n * n)[:, :: n + 1] = 1
    letters = [x for _, h in word.terms for x in h.letters]
    if letters:
        i, j, xi = _letter_arrays(letters, ring)
        inv = -xi
        if balanced:
            matrices._balance(xi, m)
            matrices._balance(inv, m)
        else:
            inv %= m
        # (term, position) of every letter, in the flat order of `letters`
        term = np.repeat(np.arange(T), lens)
        pos = np.arange(len(letters)) - np.repeat(np.cumsum(lens) - lens, lens)
        X[pos, term, i, j] = xi
        X[lens[term] - 1 - pos, T + term, i, j] = inv
    return X


def _letter_arrays(letters, ring):
    """The 0-based rows i and columns j of (i, j, xi) letters, and their
    payloads coerced into Z/m, as three int64 arrays.

    Where every payload is a python int within int64, all three are read in
    one np.fromiter pass and xi is reduced % m, as ring.coerce reduces an
    int.  The type check comes first because np.fromiter would also take
    what ring.coerce refuses (it truncates 2.5 and parses "3"); any other
    payload (a bool, a RingElement, an int beyond int64, or one that
    raises) goes through ring.coerce, once per distinct payload."""
    if {int} == {type(x) for _, _, x in letters}:
        with contextlib.suppress(OverflowError):
            flat = np.fromiter(itertools.chain.from_iterable(letters), np.int64, 3 * len(letters))
            i, j, xi = flat.reshape(-1, 3).T
            return i - 1, j - 1, xi % ring.modulus
    i, j, payloads = zip(*letters)
    coerced = {x: ring.coerce(x) for x in set(payloads)}
    return np.array(i) - 1, np.array(j) - 1, np.array([coerced[x] for x in payloads], np.int64)


def _pairwise_product(stack, m: int, s, rows: int):
    """The product, in order, of the residue matrices of `stack` along its
    first axis, multiplied pairwise (an odd one out waits for the next
    level) at the answer s of matrices._referee_kernel, as residues of the
    stack's kind: canonical for float64, balanced for BALANCED.

    At BALANCED and at limb widths matrices._referee_matmul reduces every
    product.  At ONE_LIMB the reduction is delayed, on the bounds that
    matrices._chain_matmul proves for the engine's chains: the entries are
    canonical residues, so non-negative integers at most e = m - 1, and
    `rows` bounds every row sum by r; a product's entries are at most
    r(A) e(B) and its row sums r(A) r(B), so a level takes r -> r^2 and
    e -> r e, and the odd one out, at r and e, stays within them.  A level
    is multiplied unreduced while r e + m <= 2^53, which keeps every entry
    exact and reducible.  Otherwise the stack is reduced first, to e = m - 1
    and r = min(r, dim (m-1)), where r e + m <= dim (m-1)^2 + m <= 2^53 is
    the ONE_LIMB condition itself.  The product is reduced once at the end
    unless e < m already.
    """
    top = m - 1
    dim = stack.shape[-1]
    while len(stack) > 1:
        if s != matrices.ONE_LIMB:
            head = matrices._referee_matmul(stack[0:-1:2], stack[1::2], m, s)
        else:
            if rows * top + m > 2**53:
                matrices._float64_reduce(stack, m)
                rows, top = min(rows, dim * (m - 1)), m - 1
            head = stack[0:-1:2] @ stack[1::2]
            rows, top = rows * rows, rows * top
        stack = np.concatenate([head, stack[-1:]]) if len(stack) % 2 else head
    if top >= m:
        matrices._float64_reduce(stack, m)
    return stack[0]


def targets_of_level(g: matrices.InvPair, n: int, k: int = 2, l: int = 3):
    """GeneratorTargets covering every level generator of g."""
    out = []
    for gen in level.level_generators(g.fwd, n):
        out.append(GeneratorTarget(gen.kind, gen.I, gen.J, k, l))
    return out
