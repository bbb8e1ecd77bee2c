"""Exact dense square matrices over a ring, and invertible pairs.

Matrices are immutable after construction.  One function, _int64_kernel,
decides per (ring, dim) how a product runs, and with it how entries are
stored: a read-only int64 numpy array exactly when the product runs in
int64, payload tuples multiplied out in pure python otherwise.  Callers
choose no kernel: _identity_plus builds identities, transvections and
exterior letters, _product multiplies chains (Matrix.mul and every word
evaluation), and mat_vec and vec_mat take vectors; each asks it once:

* one limb, when dim (m-1)^2 < 2^62: one int64 matmul, then % m;
* k limbs, when m < 2^62 but one limb could overflow: the right factor is
  split into s-bit limbs and the limb products are combined mod m by
  Horner's rule (Z/(2^31 - 1) takes two limbs at dim 10, 15 and 45);
* pure python otherwise: Z, Z[x...], m >= 2^62, and moduli so wide that no
  limb width fits, such as 2^61 - 1 at dim 6.  That product is the referee
  of both int64 paths.

No general inversion over a ring is attempted.  Every invertible matrix in
the system is carried as an InvPair, a (g, g_inverse) bundle certified by
multiplying the two sides together.
"""

from __future__ import annotations

import numpy as np

from . import rings

ONE_LIMB = 0


def _int64_kernel(ring, dim: int):
    """How a product of dim x dim matrices over `ring` runs.

    ONE_LIMB when dim (m-1)^2 < 2^62; else the limb width s >= 1 of
    _limb_matmul, the widest with max(dim, 2) (m-1) (2^s - 1) < 2^62; else
    None, the pure-python product, which every ring other than Z/m takes
    too (for m >= 2^62 no width s >= 1 fits).  The max keeps acc * 2^s of
    _limb_matmul in bound at dim 1.
    """
    if ring.kind != "zmod":
        return None
    top = ring.modulus - 1
    if dim * top * top < 2**62:
        return ONE_LIMB
    s = ((2**62 - 1) // (max(dim, 2) * top) + 1).bit_length() - 1
    return s or None


def _limb_matmul(a, b, m: int, s: int):
    """a @ b mod m for int64 residues, b split into s-bit limbs b_k.

    Horner's rule from the top limb down: acc = (acc * 2^s + a @ b_k) % m.
    With s from _int64_kernel, a @ b_k <= dim (m-1) (2^s - 1) < 2^62 and
    acc * 2^s <= 2 (m-1) (2^s - 1) < 2^62, so no sum reaches 2^63.
    """
    mask = (1 << s) - 1
    top = ((m - 1).bit_length() - 1) // s
    acc = (a @ (b >> (top * s))) % m
    for k in range(top - 1, -1, -1):
        acc = ((acc << s) + a @ ((b >> (k * s)) & mask)) % m
    return acc


def _int64_matmul(a, b, m: int, s: int):
    """a @ b mod m for int64 residues, s from _int64_kernel (not None)."""
    if s == ONE_LIMB:
        return (a @ b) % m
    return _limb_matmul(a, b, m, s)


class Matrix:
    """A dim x dim matrix over a ring, stored row-major."""

    __slots__ = ("ring", "dim", "_np", "_rows")

    def __init__(self, ring, rows, _np_data=None):
        self.ring = ring
        if _np_data is not None:
            self.dim = _np_data.shape[0]
            _np_data.flags.writeable = False
            self._np = _np_data
            self._rows = None
            return
        rows = tuple(tuple(r) for r in rows)
        self.dim = len(rows)
        if any(len(r) != self.dim for r in rows):
            raise ValueError("matrix must be square")
        if _int64_kernel(ring, self.dim) is not None:
            data = np.array(rows, dtype=np.int64) % ring.modulus
            data.flags.writeable = False
            self._np = data
            self._rows = None
        else:
            self._np = None
            self._rows = rows

    @property
    def rows(self):
        if self._rows is None:
            self._rows = tuple(tuple(int(x) for x in row) for row in self._np)
        return self._rows

    def at(self, r: int, c: int):
        """Entry payload at 0-based position (r, c)."""
        if self._np is not None:
            return int(self._np[r, c])
        return self._rows[r][c]

    def column(self, c: int):
        if self._np is not None:
            return tuple(int(x) for x in self._np[:, c])
        return tuple(row[c] for row in self._rows)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise rings.RingMismatchError("ring mismatch")
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return _product(self.ring, self.dim, (self, other))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring or self.dim != other.dim:
            return False
        if self._np is not None and other._np is not None:
            return bool(np.array_equal(self._np, other._np))
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.ring.key(), self.rows))

    def is_identity(self) -> bool:
        return self == identity(self.ring, self.dim)

    def is_scalar(self) -> bool:
        ring = self.ring
        d = self.at(0, 0)
        for r in range(self.dim):
            for c in range(self.dim):
                want = d if r == c else ring.zero
                if self.at(r, c) != want:
                    return False
        return True

    def __repr__(self):
        return f"Matrix({self.ring!r}, dim={self.dim})"


def _identity_plus(ring, dim: int, rows, cols, values) -> Matrix:
    """The dim x dim identity with payloads `values` at the off-diagonal
    positions (rows[k], cols[k]), 0-based, stored as _int64_kernel decides."""
    if _int64_kernel(ring, dim) is not None:
        data = np.identity(dim, dtype=np.int64)
        data[rows, cols] = values
        return Matrix(ring, None, _np_data=data % ring.modulus)
    z, o = ring.zero, ring.one
    out = [[o if r == c else z for c in range(dim)] for r in range(dim)]
    for r, c, v in zip(rows, cols, values):
        out[r][c] = v
    return Matrix(ring, out)


def _product(ring, dim: int, factors) -> Matrix:
    """The product of a sequence of dim x dim matrices over `ring`, left to
    right (the identity when it is empty), with the kernel chosen once."""
    if not factors:
        return identity(ring, dim)
    s = _int64_kernel(ring, dim)
    if s is not None:
        m = ring.modulus
        acc = factors[0]._np
        for f in factors[1:]:
            acc = _int64_matmul(acc, f._np, m, s)
        return Matrix(ring, None, _np_data=acc)
    add, mul, zero = ring.add, ring.mul, ring.zero
    acc = factors[0].rows
    for f in factors[1:]:
        bt = list(zip(*f.rows))
        out_rows = []
        for ra in acc:
            out_row = []
            for cb in bt:
                total = zero
                for a, b in zip(ra, cb):
                    if a != zero and b != zero:
                        total = add(total, mul(a, b))
                out_row.append(total)
            out_rows.append(tuple(out_row))
        acc = out_rows
    return Matrix(ring, acc)


def identity(ring, dim: int) -> Matrix:
    return _identity_plus(ring, dim, [], [], [])


def scalar_matrix(ring, dim: int, payload) -> Matrix:
    z = ring.zero
    c = ring.coerce(payload)
    return Matrix(ring, [[c if r == s else z for s in range(dim)] for r in range(dim)])


def transvection(ring, dim: int, i: int, j: int, payload) -> Matrix:
    """The elementary matrix e + xi E_{i,j}, indices 1-based."""
    if i == j or not (1 <= i <= dim and 1 <= j <= dim):
        raise ValueError("bad index")
    return _identity_plus(ring, dim, [i - 1], [j - 1], [ring.coerce(payload)])


def mat_vec(m: Matrix, vec):
    """Matrix times column vector of payloads."""
    ring = m.ring
    if len(vec) != m.dim:
        raise ValueError("dimension mismatch")
    s = _int64_kernel(ring, m.dim)
    if s is not None:
        v = np.array(vec, dtype=np.int64)
        return tuple(int(x) for x in _int64_matmul(m._np, v, ring.modulus, s))
    add, mul, zero = ring.add, ring.mul, ring.zero
    out = []
    for row in m.rows:
        acc = zero
        for a, b in zip(row, vec):
            if a != zero and b != zero:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


def vec_mat(vec, m: Matrix):
    """Row vector of payloads times matrix."""
    ring = m.ring
    if len(vec) != m.dim:
        raise ValueError("dimension mismatch")
    s = _int64_kernel(ring, m.dim)
    if s is not None:
        v = np.array(vec, dtype=np.int64)
        return tuple(int(x) for x in _int64_matmul(v, m._np, ring.modulus, s))
    add, mul, zero = ring.add, ring.mul, ring.zero
    cols = list(zip(*m.rows))
    out = []
    for col in cols:
        acc = zero
        for a, b in zip(vec, col):
            if a != zero and b != zero:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


class InvPair:
    """A matrix with a certified inverse."""

    __slots__ = ("fwd", "bwd")

    def __init__(self, fwd: Matrix, bwd: Matrix, check: bool = True):
        if fwd.ring != bwd.ring or fwd.dim != bwd.dim:
            raise ValueError("forward and backward parts do not match")
        if check and not (fwd.mul(bwd).is_identity() and bwd.mul(fwd).is_identity()):
            raise ValueError("certificate failure: product is not the identity")
        self.fwd = fwd
        self.bwd = bwd

    @classmethod
    def _trusted(cls, fwd: Matrix, bwd: Matrix) -> "InvPair":
        return cls(fwd, bwd, check=False)

    @property
    def ring(self):
        return self.fwd.ring

    @property
    def dim(self):
        return self.fwd.dim

    def compose(self, other: "InvPair") -> "InvPair":
        return InvPair._trusted(self.fwd.mul(other.fwd), other.bwd.mul(self.bwd))

    def invert(self) -> "InvPair":
        return InvPair._trusted(self.bwd, self.fwd)

    def __eq__(self, other):
        if not isinstance(other, InvPair):
            return NotImplemented
        return self.fwd == other.fwd and self.bwd == other.bwd

    def __hash__(self):
        return hash((self.fwd, self.bwd))

    def __repr__(self):
        return f"InvPair(dim={self.dim}, ring={self.ring!r})"


def identity_pair(ring, dim: int) -> InvPair:
    e = identity(ring, dim)
    return InvPair._trusted(e, e)


def transvection_pair(ring, dim: int, i: int, j: int, payload) -> InvPair:
    xi = ring.coerce(payload)
    return InvPair._trusted(
        transvection(ring, dim, i, j, xi),
        transvection(ring, dim, i, j, ring.neg(xi)),
    )


def conjugate(y: InvPair, x: InvPair, side: str = "right") -> InvPair:
    """Conjugate y by x: left is x y x^-1, right is x^-1 y x."""
    if side == "left":
        return InvPair._trusted(
            x.fwd.mul(y.fwd).mul(x.bwd), x.fwd.mul(y.bwd).mul(x.bwd)
        )
    if side == "right":
        return InvPair._trusted(
            x.bwd.mul(y.fwd).mul(x.fwd), x.bwd.mul(y.bwd).mul(x.fwd)
        )
    raise ValueError("side must be 'left' or 'right'")


def commutator(x: InvPair, y: InvPair) -> InvPair:
    """Left-normed commutator x y x^-1 y^-1."""
    fwd = x.fwd.mul(y.fwd).mul(x.bwd).mul(y.bwd)
    bwd = y.fwd.mul(x.fwd).mul(y.bwd).mul(x.bwd)
    return InvPair._trusted(fwd, bwd)
