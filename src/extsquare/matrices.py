"""Exact dense square matrices over a ring, and invertible pairs.

Matrices are immutable after construction.  One function, _kernel, decides
per (ring, dim) how a product of dim x dim matrices runs, for the engine and
for membership alike, and with it how entries are stored: float64 residues
wherever it gives a kernel, payload tuples elsewhere.  Matrix(ring, rows)
validates outside input through ring.coerce; the package's own canonical
payloads go through the trusted _from_rows or _matrix.  Callers choose no
kernel: _identity_plus builds identities, transvections and exterior
letters, _unipotent_pair every elementary pair, I + A with I - A for
A^2 = 0, _product and _pair_product multiply chains (Matrix.mul and every
word evaluation), and mat_vec and vec_mat take vectors; each asks it once:

* ONE_LIMB, when dim (m-1)^2 + m <= 2^53 (Z/97 up to dim 9.8 * 10^11):
  one BLAS product per factor, and a chain reduced only where the bound
  _chain_matmul proves would pass 2^53 - m, and once at the end (four
  products run between reductions at dim 15).  A stacked (2, 15, 15)
  product takes 1.5 us, against 7.2 us in int64 then % m, and a reduction
  2.7 us (numpy 2.4 on OpenBLAS, a 2-CPU Xeon);
* a limb width s >= 1, when one limb could pass 2^53 but s-bit limbs fit:
  _float64_matmul splits the right factor into s-bit limbs and combines the
  limb products mod m by Horner's rule (Z/(2^31 - 1) takes two limbs at
  every dim up to 45);
* None, pure python, otherwise: Z, Z[x...], and every modulus from about
  2^53 / (dim + 3) up (2^49.8 at dim 6, 2^47.4 at dim 45), where no limb
  width fits.  That product, _ring_product, serves matrices and vectors
  alike and is the referee of the numpy paths.

Every engine and membership product of two arrays is one call of
_kernel_matmul (plucker's a-sum blocks through _chain_matmul too).  No
other module reads the storage.  They use at, column and rows, and four
package-internal accessors: Matrix._gather (payloads at paired positions),
Matrix._equals_at (whether the payloads at given positions are given ones,
in numpy for array storage, the payloads as _payloads makes them),
Matrix._residues (an int64 array, or the storage in the dtype asked for)
and _from_residues.  Reads hand out python ints or int64 arrays, never
floats.

_referee_kernel answers the same question for the batched stacks of the
referee rdu._batched_product, and _referee_matmul multiplies at its
answer: balanced int64 residues where _kernel gives limbs and their
products cannot overflow, else _kernel's own answer.  The referee shares
_float64_matmul and _float64_reduce with the engine, never _kernel_matmul.

No general inversion over a ring is attempted.  Every invertible matrix in
the system is carried as an InvPair, a (g, g_inverse) bundle certified by
multiplying the two sides together.  Where storage is an array a pair is
one (2, dim, dim) stack, so _pair_product multiplies both sides in one
kernel call per factor, at _kernel's answer.
"""

from __future__ import annotations

import numpy as np

from . import indexing, rings

ONE_LIMB = 0


def _kernel(ring, dim: int):
    """How a product of dim x dim matrices over `ring` runs, and so how they
    are stored: ONE_LIMB when dim (m-1)^2 + m <= 2^53; else the limb width
    s >= 1 of _float64_matmul, the widest with
    (m-1) ((dim+1) 2^s - dim) + m <= 2^53; else None, the pure-python
    product (every ring other than Z/m, and moduli from about
    2^53 / (dim + 3) up).  Entries are float64 residues wherever the answer
    is not None.

    Every integer up to 2^53 in absolute value is a float64, and a sum of
    integer terms is exact in any order BLAS adds them while the absolute
    values of the terms sum to at most 2^53 (see _chain_matmul).  The right
    factor holds canonical residues; the left one may be signed, with
    entries in (-m, m) (plucker's sign-weighted rows), so every bound below
    is on absolute values.  One limb: each product of two entries is at
    most (m-1)^2, a sum of dim of them at most dim (m-1)^2.  Limbs: Horner's
    rule forms acc 2^s + a @ b_k with acc in [0, m) and b_k in [0, 2^s), so
    acc 2^s <= (m-1) 2^s (exact: a power of two times an exact integer) and
    |a @ b_k| <= dim (m-1) (2^s - 1), whose sum is (m-1) ((dim+1) 2^s - dim).
    Both leave |c| + m <= 2^53, which _float64_reduce needs; a 2 x 2 minor
    ad - bc of residues, in (-(m-1)^2, (m-1)^2), is exact and reducible at
    ONE_LIMB for dim 1.
    """
    if ring.kind != "zmod":
        return None
    m = ring.modulus
    top = m - 1
    if dim * top * top + m <= 2**53:
        return ONE_LIMB
    # (dim+1) 2^s <= floor((2^53 - m) / (m-1)) + dim, an integer inequality
    widest = ((2**53 - m) // top + dim) // (dim + 1)
    return widest.bit_length() - 1 if widest >= 2 else None


def _kernel_matmul(a, b, m: int, s):
    """a @ b for float64 residue arrays at an answer s of _kernel, one call
    per engine or membership product: unreduced at ONE_LIMB (_chain_matmul
    reduces), else mod m by _float64_matmul."""
    if s == ONE_LIMB:
        return a @ b
    return _float64_matmul(a, b, m, s)


def _chain_matmul(acc, factors, m: int, s):
    """acc @ factors[0] @ factors[1] ... mod m, left to right, for float64
    arrays (or stacks) of canonical residues at the answer s of _kernel (not
    None): one _kernel_matmul per factor.  The first acc may be signed, with
    entries in (-m, m); the result is canonical.

    At ONE_LIMB the reduction is delayed, as in FFLAS-FFPACK (Dumas, Giorgi
    and Pernet, ACM TOMS 35(3), 2008).  For integer matrices, an entry of AB
    is at most r(A) e(B) in absolute value and a row sum of absolute values
    at most r(A) r(B), for r the largest row sum of absolute values and e
    the largest absolute entry.  A factor, and the first acc, have
    e <= m - 1 and r <= w = dim (m-1), so acc @ f, for acc with row sums up
    to r, has entries up to r (m-1) and row sums up to r w.  BLAS may sum in
    any order, fused or not, but every partial sum of integer terms is an
    integer no larger in absolute value than the sum of the terms' absolute
    values, so the product is exact while r (m-1) + m <= 2^53, as
    _float64_reduce needs.  acc is reduced in place before any product that
    could pass that, to entries in [0, m), so r <= w, where w (m-1) + m <=
    2^53 is the ONE_LIMB condition itself (the first acc, the caller's
    storage, is never reduced), and once at the end, so the result is
    canonical.
    """
    if s != ONE_LIMB:
        for f in factors:
            acc = _kernel_matmul(acc, f, m, s)
        return acc
    wide = acc.shape[-1] * (m - 1)
    rows = wide
    for f in factors:
        if rows * (m - 1) + m > 2**53:
            _float64_reduce(acc, m)
            rows = wide
        acc = _kernel_matmul(acc, f, m, s)
        rows *= wide
    return _float64_reduce(acc, m) if factors else acc


def _float64_matmul(a, b, m: int, s: int):
    """a @ b mod m for float64 residues, at a limb width s >= 1 from
    _kernel: Horner's rule over the s-bit limbs b_k of b from the top limb
    down, acc = (acc 2^s + a @ b_k) mod m, every product reduced by
    _float64_reduce.  b_k is floor(b / 2^(ks)) minus
    2^s floor(b / 2^((k+1)s)), each floor exact: a power-of-two scaling of
    an integer, rounded down to an integer."""
    k = ((m - 1).bit_length() - 1) // s
    high = np.floor(b * 2.0 ** (-k * s))
    acc = _float64_reduce(a @ high, m)
    while k:
        k -= 1
        low = np.floor(b * 2.0 ** (-k * s)) if k else b
        acc *= 2.0**s
        acc += a @ (low - high * 2.0**s)
        _float64_reduce(acc, m)
        high = low
    return acc


def _float64_reduce(c, m: int):
    """c mod m, in place, for a float64 array of integers with
    |c| + m <= 2^53, by the floor quotient c - floor(c / m) m.

    The division rounds c / m by a relative 2^-53 at most, so by less than
    |c| 2^-53 / m < 1/m; a c / m that is not an integer is at least 1/m
    from either neighbouring integer, so the floor q is exact.  Then
    |q m| <= |c| + m and c - q m in [0, m) are exact too.  floor, not
    trunc: minors and signed products can be negative.
    """
    q = c / m
    np.floor(q, out=q)
    q *= m
    c -= q
    return c


BALANCED = -1


def _referee_kernel(ring, dim: int):
    """How a batched stack of dim x dim residue matrices over `ring` runs
    (the referee rdu._batched_product): BALANCED, one int64 product of
    balanced residues, where _kernel gives a limb width and
    dim h^2 + h < 2^63 for h = floor(m/2); else _kernel's answer: ONE_LIMB,
    one float64 BLAS product (Z/97), a limb width s for _float64_matmul, or
    None.

    A balanced residue lies in [-h, m-1-h], so in absolute value it is at
    most h, a product of two at most h^2 and a sum of dim of them, with
    each of its partial sums, at most dim h^2: no int64 sum overflows.
    _balance then maps a product c to (c + h) mod m - h, where
    |c + h| <= dim h^2 + h < 2^63 and numpy's mod by m > 0 lies in [0, m),
    so the result is the balanced residue of c.  The bound holds for every
    m <= 2^31 up to dim 7, since 7 2^60 + 2^30 < 2^63; for m = 2^31 - 1
    also at dim 8, and for no m above 1 920 767 767 at dim 10.  Z/97 stays
    on float64, where one BLAS product is faster than numpy's int64 matmul.
    """
    s = _kernel(ring, dim)
    if s is None or s == ONE_LIMB:
        return s
    h = ring.modulus // 2
    return BALANCED if dim * h * h + h < 2**63 else s


def _balance(c, m: int):
    """c -> (c + h) mod m - h, h = floor(m/2), in place: the balanced
    residues of an int64 array with |c| + h < 2^63 (see _referee_kernel)."""
    h = m // 2
    c += h
    c %= m
    c -= h
    return c


def _referee_matmul(a, b, m: int, kind):
    """a @ b mod m at the answer `kind` of _referee_kernel, BALANCED or a
    limb width: balanced int64 residues at BALANCED, float64 limbs else."""
    if kind == BALANCED:
        return _balance(a @ b, m)
    return _float64_matmul(a, b, m, kind)


class Matrix:
    """A dim x dim matrix over a ring, stored row-major.  Matrix(ring, rows)
    checks that the rows are square and stores ring.coerce's answer for
    every entry (a numpy integer read as an int first)."""

    __slots__ = ("ring", "dim", "_np", "_rows")

    def __init__(self, ring, rows):
        rows = [list(r) for r in rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        coerce = ring.coerce
        _from_rows(ring, [[coerce(int(x) if isinstance(x, np.integer) else x) for x in r] for r in rows], self)

    @property
    def rows(self):
        if self._rows is None:
            self._rows = tuple(tuple(row) for row in self._residues().tolist())
        return self._rows

    def at(self, r: int, c: int):
        """Entry payload at 0-based position (r, c)."""
        if self._np is not None:
            return int(self._np[r, c])
        return self._rows[r][c]

    def column(self, c: int):
        if self._np is not None:
            return tuple(self._np[:, c].astype(np.int64).tolist())
        return tuple(row[c] for row in self._rows)

    def _gather(self, rows, cols) -> list:
        """The payloads at the 0-based positions (rows[k], cols[k]), for
        two integer index arrays of one length, as a list (which compares
        faster than a tuple)."""
        if self._np is not None:
            return self._np[rows, cols].astype(np.int64).tolist()
        data = self._rows
        return [data[r][c] for r, c in zip(rows.tolist(), cols.tolist())]

    def _equals_at(self, flat, payloads) -> bool:
        """Whether the payload at each 0-based row-major position flat[k]
        (row r, column c at r dim + c) is payloads[k], for an integer index
        array and payloads from _payloads of one length.  Array storage is
        compared in numpy, as the bytes of the entries there, as int64,
        against those of the int64 payload array."""
        if self._np is not None:
            return self._np.take(flat).astype(np.int64).tobytes() == payloads.tobytes()
        if isinstance(payloads, np.ndarray):
            payloads = payloads.tolist()
        return self._gather(*np.divmod(flat, self.dim)) == list(payloads)

    def _residues(self, dtype=np.int64):
        """The entries as an array of residues of `dtype`, int64 for Z/m with
        m <= 2^63, float64 where they are below 2^53: the storage,
        read-only, when it has that dtype, else a copy."""
        if self._np is not None:
            return self._np.astype(dtype, copy=False)
        return np.array(self._rows, dtype=dtype)

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


def _from_residues(ring, data) -> Matrix:
    """The matrix of `data`, a square int64 or float64 array of residues in
    [0, m), for a ring and dim where _kernel gives a kernel: stored as
    float64 (a copy where the dtype differs)."""
    return _matrix(ring, data.astype(np.float64, copy=False))


def _matrix(ring, data, out: Matrix | None = None) -> Matrix:
    """The matrix stored as `data`, a float64 array of residues, read-only;
    a new one unless `out` is given."""
    data.flags.writeable = False
    out = object.__new__(Matrix) if out is None else out
    out.ring, out.dim, out._np, out._rows = ring, data.shape[0], data, None
    return out


def _from_rows(ring, rows, out: Matrix | None = None) -> Matrix:
    """The matrix of `rows`, dim sequences of dim ring payloads, unchecked:
    the trusted writer of rows, as _matrix is of arrays."""
    dim = len(rows)
    if _kernel(ring, dim) is not None:
        return _matrix(ring, np.array(rows, dtype=np.float64).reshape(dim, dim), out)
    out = object.__new__(Matrix) if out is None else out
    out.ring, out.dim, out._np, out._rows = ring, dim, None, tuple(map(tuple, rows))
    return out


def _payloads(ring, values):
    """Ring payloads as Matrix._equals_at takes them: an int64 array over
    Z/m with m <= 2^63 (its payloads are residues), else a tuple.  Callers
    make them once per set of positions, not per comparison."""
    if ring.kind == "zmod" and ring.modulus <= 2**63:
        out = np.array(values, dtype=np.int64)
        out.flags.writeable = False
        return out
    return tuple(values)


def _identity_at(ring, mask):
    """(the 0-based row-major positions where the square boolean `mask` is
    true, the identity's payloads there as _payloads makes them), the
    arguments of Matrix._equals_at that ask for the identity there."""
    rows, cols = np.nonzero(mask)
    eye = _payloads(ring, [ring.one if d else ring.zero for d in (rows == cols).tolist()])
    flat = rows * len(mask) + cols
    flat.flags.writeable = False
    return flat, eye


def _identity_plus(ring, dim: int, rows, cols, values) -> Matrix:
    """The dim x dim identity with payloads `values` at the off-diagonal
    positions (rows[k], cols[k]), 0-based, stored as _kernel decides.
    The values are ring payloads (ring.coerce's answers, residues in [0, m)
    over Z/m), stored as they are."""
    if _kernel(ring, dim) is not None:
        data = np.eye(dim)
        data[rows, cols] = values
        return _matrix(ring, data)
    z, o = ring.zero, ring.one
    out = [[o if r == c else z for c in range(dim)] for r in range(dim)]
    for r, c, v in zip(rows, cols, values):
        out[r][c] = v
    return _from_rows(ring, out)


def _unipotent_pair(ring, dim: int, rows, cols, values) -> "InvPair":
    """The pair (I + A, I - A) for the dim x dim matrix A with ring payloads
    `values` (ring.coerce's answers) at the off-diagonal positions
    (rows[k], cols[k]), 0-based, stored as they are: the one writer of
    elementary pairs, letters and one-column segments.  The caller vouches
    that A^2 = 0, so that I - A is the inverse of I + A; it is not checked.
    Where storage is an array both sides are written into one stack (see
    InvPair), else each is an _identity_plus."""
    neg = [ring.neg(v) for v in values]
    if _kernel(ring, dim) is None:
        at = (ring, dim, rows, cols)
        return InvPair._trusted(_identity_plus(*at, values), _identity_plus(*at, neg))
    stack = np.zeros((2, dim, dim))
    stack.reshape(2, -1)[:, :: dim + 1] = 1
    stack[0, rows, cols] = values
    stack[1, cols, rows] = neg  # the transpose of I - A
    return _stacked(ring, stack)


def _product(ring, dim: int, factors) -> Matrix:
    """The product of a sequence of dim x dim matrices over `ring`, left to
    right (the identity when it is empty), with the kernel chosen once."""
    if not factors:
        return identity(ring, dim)
    s = _kernel(ring, dim)
    if s is not None:
        return _matrix(ring, _chain_matmul(factors[0]._np, [f._np for f in factors[1:]], ring.modulus, s))
    acc = factors[0].rows
    for f in factors[1:]:
        acc = _ring_product(ring, acc, tuple(zip(*f.rows)))
    return _from_rows(ring, acc)


def _ring_product(ring, rows, cols) -> list:
    """out[r][c] = the sum over k of rows[r][k] cols[c][k] in ring
    arithmetic: the one pure-python product, and the referee of the
    kernels of _kernel."""
    add, mul, zero = ring.add, ring.mul, ring.zero
    out = []
    for ra in rows:
        out_row = []
        for cb in cols:
            total = zero
            for a, b in zip(ra, cb):
                if a != zero and b != zero:
                    total = add(total, mul(a, b))
            out_row.append(total)
        out.append(tuple(out_row))
    return out


def identity(ring, dim: int) -> Matrix:
    return _identity_plus(ring, dim, [], [], [])


def scalar_matrix(ring, dim: int, payload) -> Matrix:
    return Matrix(ring, [[payload if r == s else ring.zero for s in range(dim)] for r in range(dim)])


def transvection(ring, dim: int, i: int, j: int, payload) -> Matrix:
    """The elementary matrix e + xi E_{i,j}, indices 1-based."""
    if not indexing._is_pair(i, j, dim):
        raise ValueError("bad index")
    return _identity_plus(ring, dim, [i - 1], [j - 1], [ring.coerce(payload)])


def mat_vec(m: Matrix, vec):
    """Matrix times column vector of payloads."""
    return _vector_product(m, vec, True)


def vec_mat(vec, m: Matrix):
    """Row vector of payloads times matrix."""
    return _vector_product(m, vec, False)


def _vector_product(m: Matrix, vec, column: bool) -> tuple:
    """m vec for a column vector, vec m for a row one, at m's kernel."""
    ring = m.ring
    if len(vec) != m.dim:
        raise ValueError("dimension mismatch")
    s = _kernel(ring, m.dim)
    if s is not None:
        v = (np.array(vec, dtype=np.int64) % ring.modulus).astype(np.float64)
        a, b = (m._np, v) if column else (v, m._np)
        return tuple(_chain_matmul(a, [b], ring.modulus, s).astype(np.int64).tolist())
    if column:
        return tuple(row[0] for row in _ring_product(ring, m.rows, (vec,)))
    return _ring_product(ring, (vec,), tuple(zip(*m.rows)))[0]


class InvPair:
    """A matrix with a certified inverse.

    Where _kernel gives a kernel, a pair is stored once, as a read-only
    (2, dim, dim) float64 residue stack: fwd, then the transpose of
    bwd; fwd and bwd are Matrix views into it.  The inverse of a product
    ab is b^-1 a^-1, whose transpose is a^-T b^-T, so the stack of ab is
    the stacked product of the stacks of a and b: compose and conjugate
    multiply both sides in one kernel call per factor, and
    invert is a view, the stack reversed and transposed.  The views are
    made when first read, so a pair that only feeds a product makes none.
    Over other rings fwd and bwd are held as they are and multiplied side
    by side.
    """

    __slots__ = ("ring", "dim", "_stack", "_fwd", "_bwd")

    def __init__(self, fwd: Matrix, bwd: Matrix, check: bool = True):
        if fwd.ring != bwd.ring or fwd.dim != bwd.dim:
            raise ValueError("forward and backward parts do not match")
        if check and not (fwd.mul(bwd).is_identity() and bwd.mul(fwd).is_identity()):
            raise ValueError("certificate failure: product is not the identity")
        if fwd._np is None:
            self.ring, self.dim, self._stack, self._fwd, self._bwd = fwd.ring, fwd.dim, None, fwd, bwd
        else:
            _stacked(fwd.ring, np.array((fwd._np, bwd._np.T)), self)

    @classmethod
    def _trusted(cls, fwd: Matrix, bwd: Matrix) -> "InvPair":
        return cls(fwd, bwd, check=False)

    @property
    def fwd(self) -> Matrix:
        if self._fwd is None:
            self._fwd = _matrix(self.ring, self._stack[0])
        return self._fwd

    @property
    def bwd(self) -> Matrix:
        if self._bwd is None:
            self._bwd = _matrix(self.ring, self._stack[1].T)
        return self._bwd

    def compose(self, other: "InvPair") -> "InvPair":
        return _pair_product((self, other))

    def invert(self) -> "InvPair":
        if self._stack is None:
            return InvPair._trusted(self._bwd, self._fwd)
        return _stacked(self.ring, self._stack[::-1].swapaxes(1, 2))

    def __eq__(self, other):
        if not isinstance(other, InvPair):
            return NotImplemented
        return self.fwd == other.fwd and self.bwd == other.bwd

    def __hash__(self):
        return hash((self.fwd, self.bwd))

    def __repr__(self):
        return f"InvPair(dim={self.dim}, ring={self.ring!r})"


def _stacked(ring, stack, pair: InvPair | None = None) -> InvPair:
    """The pair stored as `stack` (fwd, bwd transposed), made read-only; a
    new one unless `pair` is given."""
    stack.flags.writeable = False
    if pair is None:
        pair = object.__new__(InvPair)
    pair.ring, pair.dim, pair._stack, pair._fwd, pair._bwd = ring, stack.shape[1], stack, None, None
    return pair


def _pair_product(pairs) -> InvPair:
    """The product of a nonempty sequence of pairs of one ring and dim, left
    to right: one stacked kernel call per factor where pairs are stacks,
    else each side multiplied out, the backward one in reverse order."""
    first = pairs[0]
    ring, dim = first.ring, first.dim
    for p in pairs[1:]:
        if p.ring != ring:
            raise rings.RingMismatchError("ring mismatch")
        if p.dim != dim:
            raise ValueError("dimension mismatch")
    s = _kernel(ring, dim)
    if s is None:
        return InvPair._trusted(
            _product(ring, dim, [p.fwd for p in pairs]),
            _product(ring, dim, [p.bwd for p in reversed(pairs)]),
        )
    return _stacked(ring, _chain_matmul(first._stack, [p._stack for p in pairs[1:]], ring.modulus, s))


def identity_pair(ring, dim: int) -> InvPair:
    return _unipotent_pair(ring, dim, [], [], [])


def transvection_pair(ring, dim: int, i: int, j: int, payload) -> InvPair:
    """(t_ij(xi), t_ij(-xi)), indices 1-based, as one _unipotent_pair."""
    if not indexing._is_pair(i, j, dim):
        raise ValueError("bad index")
    return _unipotent_pair(ring, dim, [i - 1], [j - 1], [ring.coerce(payload)])


def conjugate(y: InvPair, x: InvPair, side: str = "right") -> InvPair:
    """Conjugate y by x: left is x y x^-1, right is x^-1 y x."""
    if side == "left":
        return _pair_product((x, y, x.invert()))
    if side == "right":
        return _pair_product((x.invert(), y, x))
    raise ValueError("side must be 'left' or 'right'")


def commutator(x: InvPair, y: InvPair) -> InvPair:
    """Left-normed commutator x y x^-1 y^-1."""
    return _pair_product((x, y, x.invert(), y.invert()))
