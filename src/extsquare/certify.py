"""Symbolic self-certification suites.

Each suite proves one family of identities exactly, over polynomial rings
with fully generic indeterminates, and returns SuiteResult records.  The
command line front end runs them all and turns any failure into a nonzero
exit status; the test suite asserts them individually.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exterior, indexing, matrices, plucker, rings, stabilizer
from .words import ext_letter_matrix


@dataclass(frozen=True)
class SuiteResult:
    name: str
    status: str  # "pass", "fail", or "skip"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _result(name: str, ok: bool, detail: str = "") -> SuiteResult:
    return SuiteResult(name, "pass" if ok else "fail", detail)


def expansion_suite(max_n: int) -> SuiteResult:
    """Transvection expansions equal compound minor matrices, all i != j."""
    ring = rings.PolynomialRing(("xi",))
    xi = ring.var("xi")
    for n in range(3, max_n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                try:
                    word = exterior.ext_transvection(i, j, xi, n)
                except AssertionError as exc:
                    return _result("transvection-expansion", False, str(exc))
                oracle = exterior.cauchy_binet(
                    matrices.transvection(ring, n, i, j, xi), n
                )
                if word.eval(ring).fwd != oracle:
                    return _result(
                        "transvection-expansion", False, f"n={n} (i,j)=({i},{j})"
                    )
                if ext_letter_matrix(ring, n, i, j, xi) != oracle:
                    return _result(
                        "transvection-expansion", False, f"letter n={n} ({i},{j})"
                    )
    return _result("transvection-expansion", True, f"n=3..{max_n}")


def worked_expansion_example() -> SuiteResult:
    """The n=5 expansion of the (1,3) letter, literal letter check."""
    ring = rings.PolynomialRing(("xi",))
    xi = ring.var("xi")
    word = exterior.ext_transvection(1, 3, xi, 5)
    expected = (
        ((1, 2), (2, 3), ring.neg(xi)),
        ((1, 4), (3, 4), xi),
        ((1, 5), (3, 5), xi),
    )
    return _result("expansion-example", word.letters == expected, "n=5 (1,3)")


def chevalley_suite(max_n: int) -> SuiteResult:
    """Commutator relations between elementary transvections, symbolically."""
    ring = rings.PolynomialRing(("xi", "zeta"))
    xi, zeta = ring.var("xi"), ring.var("zeta")
    for n in range(3, min(max_n, 5) + 1):
        idx = [
            (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
        ]
        for i, j in idx:
            x = matrices.transvection_pair(ring, n, i, j, xi)
            add = matrices.transvection(ring, n, i, j, ring.add(xi, zeta))
            if x.fwd.mul(matrices.transvection(ring, n, i, j, zeta)) != add:
                return _result("chevalley-relations", False, f"additivity ({i},{j})")
            for h, k in idx:
                y = matrices.transvection_pair(ring, n, h, k, zeta)
                got = matrices.commutator(x, y).fwd
                if j != h and i != k:
                    want = matrices.identity(ring, n)
                elif j == h and i != k:
                    want = matrices.transvection(ring, n, i, k, ring.mul(xi, zeta))
                elif j != h and i == k:
                    want = matrices.transvection(
                        ring, n, h, j, ring.neg(ring.mul(zeta, xi))
                    )
                else:
                    continue  # both coincidences: no short closed form
                if got != want:
                    return _result(
                        "chevalley-relations", False, f"({i},{j}) vs ({h},{k})"
                    )
    return _result("chevalley-relations", True, f"n=3..{min(max_n, 5)}")


def _generic_vector(n: int):
    names = tuple(f"w{a}{b}" for a, b in indexing.pairs(n))
    ring = rings.PolynomialRing(names)
    entries = tuple(ring.var(name) for name in names)
    return plucker.PairVector(n, ring, entries)


def _generic_matrix(n: int):
    names = tuple(f"x{r}{c}" for r in range(1, n + 1) for c in range(1, n + 1))
    ring = rings.PolynomialRing(names)
    labels = range(1, n + 1)
    return matrices.Matrix(ring, [[ring.var(f"x{r}{c}") for c in labels] for r in labels])


def column_stabilizer_suite(ns=(3, 4, 5)) -> SuiteResult:
    """The column stabilizer fixes a fully generic vector, every column index."""
    for n in ns:
        w = _generic_vector(n)
        ring = w.ring
        for j in range(1, n + 1):
            word = stabilizer.column_stabilizer(j, w)
            if len(word) != n - 1:
                return _result("column-stabilizer", False, f"length n={n} j={j}")
            moved = matrices.mat_vec(word.eval(ring).fwd, w.entries)
            if moved != w.entries:
                return _result("column-stabilizer", False, f"n={n} j={j}")
    return _result("column-stabilizer", True, f"n in {tuple(ns)}")


def row_stabilizer_suite(ns=(3, 4)) -> SuiteResult:
    for n in ns:
        z = _generic_vector(n)
        ring = z.ring
        for i in range(1, n + 1):
            word = stabilizer.row_stabilizer(i, z)
            moved = matrices.vec_mat(z.entries, word.eval(ring).fwd)
            if moved != z.entries:
                return _result("row-stabilizer", False, f"n={n} i={i}")
    return _result("row-stabilizer", True, f"n in {tuple(ns)}")


def increment_cancellation_suite(n: int = 5) -> SuiteResult:
    """All six orderings of (p, q, j) give a vanishing stabilizer increment."""
    w = _generic_vector(n)
    ring = w.ring
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for j in range(1, n + 1):
                if len({p, q, j}) != 3:
                    continue
                if not ring.is_zero(stabilizer.pair_increment(p, q, j, w)):
                    return _result("increment-cancellation", False, f"{(p, q, j)}")
    return _result("increment-cancellation", True, f"n={n}")


def plucker_stabilizer_suite(n: int = 5) -> SuiteResult:
    """Residual of the three-letter stabilizer equals the short relations.

    For a fully generic vector w, the word stabilizer.plucker_stabilizer
    builds from w's coordinates (its column check skipped: the relations do
    not vanish on w) adds sign(2,i) * f_{i,(3,4,5)}(w) to coordinate {2,i}
    and nothing elsewhere.  On compound-matrix columns all these relations
    vanish, so the word is a stabilizer exactly there.
    """
    if n < 5:
        return SuiteResult("plucker-stabilizer", "skip", "needs n >= 5")
    w = _generic_vector(n)
    ring = w.ring
    word = stabilizer._three_letters(w)
    moved = matrices.mat_vec(word.eval(ring).fwd, w.entries)
    for idx, pair in enumerate(indexing.pairs(n)):
        residual = ring.sub(moved[idx], w.entries[idx])
        if 2 not in pair:
            if not ring.is_zero(residual):
                return _result("plucker-stabilizer", False, f"touched {pair}")
            continue
        i = pair[0] if pair[1] == 2 else pair[1]
        f = plucker.plucker_poly(i, (3, 4, 5), w)
        if indexing.sign(2, i) == -1:
            f = ring.neg(f)
        if residual != f:
            return _result("plucker-stabilizer", False, f"residual at {pair}")
    return _result("plucker-stabilizer", True, f"n={n}")


def plucker_vanishing_suite(n: int = 5) -> SuiteResult:
    """Short relations vanish on every column of a generic compound matrix."""
    if n < 5:
        return SuiteResult("plucker-vanishing", "skip", "needs n >= 5")
    m = exterior.cauchy_binet(_generic_matrix(n), n)
    ring = m.ring
    for col_pair in indexing.pairs(n):
        w = plucker.PairVector.column_of(m, n, col_pair)
        for i in range(1, n + 1):
            for J in indexing.triples(n):
                if not ring.is_zero(plucker.plucker_poly(i, J, w)):
                    return _result(
                        "plucker-vanishing", False, f"col {col_pair} f_{i},{J}"
                    )
    return _result("plucker-vanishing", True, f"generic source, n={n}")


def criterion_suite(n: int = 4) -> SuiteResult:
    """Both membership families hold for a generic compound matrix."""
    g = exterior.cauchy_binet(_generic_matrix(n), n)
    violation = plucker._first_violation(g, n)
    if violation is not None:
        return _result("membership-criterion", False, violation)
    return _result("membership-criterion", True, f"generic source, n={n}")


def monomial_suite(ns=(4, 5, 6)) -> SuiteResult:
    """Both monomial conjugation identities, all index triples, symbolically."""
    ring = rings.PolynomialRing(("xi",))
    xi = ring.var("xi")
    for n in ns:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                t = ext_letter_matrix(ring, n, i, j, xi)
                for k in range(1, n + 1):
                    if k in (i, j):
                        continue
                    pk_i = exterior.p_element(k, i, n).eval(ring)
                    if pk_i.fwd.mul(t).mul(pk_i.bwd) != ext_letter_matrix(
                        ring, n, k, j, xi
                    ):
                        return _result("monomial-moves", False, f"row n={n} {(i,j,k)}")
                    pk_j = exterior.p_element(k, j, n).eval(ring)
                    if pk_j.fwd.mul(t).mul(pk_j.bwd) != ext_letter_matrix(
                        ring, n, i, k, xi
                    ):
                        return _result("monomial-moves", False, f"col n={n} {(i,j,k)}")
    return _result("monomial-moves", True, f"n in {tuple(ns)}")


def parabolic_pattern_suite() -> SuiteResult:
    """Zero pattern of the compound of a block triangular source, n = 5.

    The source fixes the span of the first two basis vectors with a unit
    upper 2 x 2 block, so the compound has a standard first column; the
    forced zeros must land exactly where the block description says.
    """
    n = 5
    names = ("a", "b", "c") + tuple(f"u{k}" for k in range(6)) + tuple(
        f"v{k}" for k in range(9)
    )
    ring = rings.PolynomialRing(names)
    rows = [[ring.zero] * n for _ in range(n)]
    # unit-determinant 2x2 block from three transvection parameters
    top = matrices.transvection_pair(ring, 2, 1, 2, ring.var("a")).fwd
    top = top.mul(matrices.transvection(ring, 2, 2, 1, ring.var("b")))
    top = top.mul(matrices.transvection(ring, 2, 1, 2, ring.var("c")))
    for r in range(2):
        for c in range(2):
            rows[r][c] = top.at(r, c)
    for k in range(6):
        rows[k // 3][2 + k % 3] = ring.var(f"u{k}")
    for k in range(9):
        rows[2 + k // 3][2 + k % 3] = ring.var(f"v{k}")
    x = matrices.Matrix(ring, rows)
    g = exterior.cauchy_binet(x, n)
    r12 = indexing.rank((1, 2), n)
    if g.column(r12) != tuple(
        ring.one if r == r12 else ring.zero for r in range(g.dim)
    ):
        return _result("parabolic-pattern", False, "first column not standard")
    low = [indexing.rank(p, n) for p in indexing.pairs(n) if not set(p) & {1, 2}]
    high = [indexing.rank(p, n) for p in indexing.pairs(n) if set(p) & {1, 2}]
    for r in low:
        for c in high:
            if not ring.is_zero(g.at(r, c)):
                return _result("parabolic-pattern", False, f"nonzero at {(r, c)}")
    if not plucker.parabolic_zero_check(g, (1, 2), n):
        return _result("parabolic-pattern", False, "zero check rejected")
    return _result("parabolic-pattern", True, "n=5 block source")


def run_all(max_n: int):
    """Every suite at the requested size; returns a list of SuiteResult.

    A construction-time assertion anywhere inside a suite is reported as a
    failed result rather than an exception, so the front end can always
    print a complete list.
    """
    if not 3 <= max_n <= 6:
        raise ValueError("max_n must be between 3 and 6")
    plan = [
        ("transvection-expansion", lambda: expansion_suite(max_n)),
        ("expansion-example", worked_expansion_example),
        ("chevalley-relations", lambda: chevalley_suite(max_n)),
        (
            "column-stabilizer",
            lambda: column_stabilizer_suite(tuple(range(3, min(max_n, 5) + 1))),
        ),
        ("row-stabilizer", lambda: row_stabilizer_suite((3, 4))),
        (
            "increment-cancellation",
            lambda: increment_cancellation_suite(min(max_n, 5)),
        ),
        ("plucker-stabilizer", lambda: plucker_stabilizer_suite(min(max_n, 5))),
        ("plucker-vanishing", lambda: plucker_vanishing_suite(min(max_n, 5))),
        ("membership-criterion", lambda: criterion_suite(4)),
    ]
    if max_n >= 4:
        plan.append(
            ("monomial-moves", lambda: monomial_suite(tuple(range(4, max_n + 1))))
        )
    plan.append(("parabolic-pattern", parabolic_pattern_suite))
    results = []
    for name, runner in plan:
        try:
            results.append(runner())
        except AssertionError as exc:
            results.append(SuiteResult(name, "fail", str(exc)))
    return results
