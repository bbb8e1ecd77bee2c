"""Exact arithmetic for the supported coefficient rings.

Three kinds of commutative ring with 1 sit behind one payload-level
interface: arbitrary-precision integers, integers modulo m, and sparse
multivariate polynomials with integer coefficients.  Payloads are always
canonical (residues reduced into [0, m), monomial lists sorted in graded
lexicographic order with zero coefficients dropped), so two elements are
equal exactly when their payloads compare equal.

Payloads by ring kind:
    int      python int
    zmod     python int in [0, m)
    poly_int tuple of (exponent tuple, nonzero int coefficient)

Rings and elements are encoded and decoded as JSON by jsonio alone.
"""

from __future__ import annotations

from dataclasses import dataclass


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class NonUnitError(ValueError):
    """Inverse requested for a non-invertible residue."""


class Ring:
    """Base class: payload-level exact ring operations."""

    kind = "abstract"

    # -- subclasses provide: zero, one, add, mul, neg, canon, from_int,
    #    is_zero, random, key

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def coerce(self, value):
        """Accept a RingElement, a python int, or a raw payload; the answer
        is canonical (a RingElement's payload is canonicalised too, since
        the dataclass does not check it)."""
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatchError("ring mismatch")
            return self.canon(value.payload)
        if isinstance(value, int):
            return self.from_int(value)
        return self.canon(value)

    def elem(self, value) -> "RingElement":
        return RingElement(self, self.coerce(value))


class IntegerRing(Ring):
    """Arbitrary-precision integers."""

    kind = "int"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def canon(self, a):
        if not isinstance(a, int):
            raise TypeError(f"integer payload expected, got {type(a).__name__}")
        return int(a)  # a bool is an int, but its payload is 0 or 1

    def from_int(self, k):
        return int(k)

    def is_zero(self, a):
        return a == 0

    def random(self, rng):
        return rng.randint(-4, 4)

    def key(self):
        return ("int",)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "IntegerRing()"


class ModularRing(Ring):
    """Integers modulo m, residues stored reduced into [0, m)."""

    kind = "zmod"

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise ValueError("modulus must be an integer >= 2")
        self.modulus = modulus
        self.zero = 0
        self.one = 1 % modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def canon(self, a):
        if not isinstance(a, int):
            raise TypeError(f"residue payload expected, got {type(a).__name__}")
        return a % self.modulus

    def from_int(self, k):
        return k % self.modulus

    def is_zero(self, a):
        return a == 0

    def inverse(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise NonUnitError("non-unit") from None

    def random(self, rng):
        return rng.randrange(self.modulus)

    def key(self):
        return ("zmod", self.modulus)

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ModularRing({self.modulus})"


def _grlex_key(monomial):
    exps, _ = monomial
    return (sum(exps), exps)


class PolynomialRing(Ring):
    """Sparse multivariate polynomials over the integers.

    A payload is a tuple of (exponent tuple, coefficient) monomials with
    nonzero integer coefficients, sorted graded-lexicographically with the
    leading monomial first.  No division is provided.
    """

    kind = "poly_int"

    def __init__(self, variables):
        names = tuple(variables)
        if not names or len(set(names)) != len(names) or any(not v for v in names):
            raise ValueError("variable names must be unique and nonempty")
        self.variables = names
        self.nvars = len(names)
        self.zero = ()
        self.one = (((0,) * self.nvars, 1),)

    def var(self, name):
        """Payload of a single variable."""
        idx = self.variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(self.nvars))
        return ((exps, 1),)

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        acc = dict(a)
        for exps, coeff in b:
            c = acc.get(exps, 0) + coeff
            if c:
                acc[exps] = c
            else:
                del acc[exps]
        return self._from_dict(acc)

    def mul(self, a, b):
        if not a or not b:
            return ()
        acc = {}
        for ea, ca in a:
            for eb, cb in b:
                exps = tuple(x + y for x, y in zip(ea, eb))
                c = acc.get(exps, 0) + ca * cb
                if c:
                    acc[exps] = c
                else:
                    del acc[exps]
        return self._from_dict(acc)

    def neg(self, a):
        return tuple((exps, -coeff) for exps, coeff in a)

    def canon(self, a):
        acc = {}
        for exps, coeff in a:
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars:
                raise ValueError("exponent tuple has wrong arity")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = acc.get(exps, 0) + int(coeff)
            if c:
                acc[exps] = c
            elif exps in acc:
                del acc[exps]
        return self._from_dict(acc)

    def _from_dict(self, acc):
        return tuple(sorted(acc.items(), key=_grlex_key, reverse=True))

    def from_int(self, k):
        if k == 0:
            return ()
        return (((0,) * self.nvars, k),)

    def is_zero(self, a):
        return a == ()

    def evaluate(self, a, values):
        """Substitute integers for the variables; values maps name -> int."""
        point = tuple(values[name] for name in self.variables)
        total = 0
        for exps, coeff in a:
            term = coeff
            for base, e in zip(point, exps):
                term *= base ** e
            total += term
        return total

    def random(self, rng):
        acc = {}
        for _ in range(rng.randint(0, 2)):
            exps = tuple(rng.randint(0, 1) for _ in range(self.nvars))
            acc[exps] = acc.get(exps, 0) + rng.randint(-3, 3)
        return self._from_dict({e: c for e, c in acc.items() if c})

    def key(self):
        return ("poly_int", self.variables)

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and other.variables == self.variables

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PolynomialRing({list(self.variables)!r})"


@dataclass(frozen=True)
class RingElement:
    """A ring bundled with one canonical payload; supports exact arithmetic."""

    ring: Ring
    payload: object

    def _pair(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatchError("ring mismatch")
            return other.payload
        return self.ring.coerce(other)

    def __add__(self, other):
        return RingElement(self.ring, self.ring.add(self.payload, self._pair(other)))

    def __sub__(self, other):
        return RingElement(self.ring, self.ring.sub(self.payload, self._pair(other)))

    def __mul__(self, other):
        return RingElement(self.ring, self.ring.mul(self.payload, self._pair(other)))

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.payload))

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.ring == other.ring and self.payload == other.payload
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.key(), self.payload))

    def is_zero(self):
        return self.ring.is_zero(self.payload)

    def inverse(self):
        if not isinstance(self.ring, ModularRing):
            raise NonUnitError("inverse is only provided modulo m")
        return RingElement(self.ring, self.ring.inverse(self.payload))

