"""Exact dense linear algebra over the rationals and prime fields.

Everything downstream (normal forms, resolutions, Tor, isomorphism tests)
reduces to rank/kernel/solve questions over an exact field, so this module
deliberately avoids floating point: scalars are `fractions.Fraction` over the
rationals and plain ints in ``[0, p)`` over GF(p).

All elimination is one Gauss-Jordan step, `_insert_row`: a fresh row is
reduced by the reduced rows kept so far, keyed by pivot column, and if it
survives the other rows are reduced by it.  `Matrix.rref` runs the step on
each row of the matrix in turn; `SubspaceReducer.insert` runs it on one
vector.  Over GF(p) the rows are normalized to pivot 1.  Over Q they are
primitive integer rows (denominators cleared, content divided out), combined
by integer cross-multiplication and divided by their content again; they are
read back as `Fraction` entries by dividing each by its pivot.  The reduced
echelon basis of a row space is unique, so the results are the same
Fractions a Fraction elimination gives.

Products and kernel bases touch only nonzero entries, found by truth value,
since the matrices of resolutions and Hom spaces are mostly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "FieldSpec",
    "Matrix",
    "SubspaceReducer",
    "QQ",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the witness set covers all n < 3.3e24
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals when ``p is None``, otherwise GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and (self.p < 2 or self.p >= 2**31 or not _is_prime(self.p)):
            raise ValueError(f"field characteristic must be a prime < 2^31, got {self.p}")

    @property
    def name(self) -> str:
        return "rational" if self.p is None else f"gf {self.p}"

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def from_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    def from_fraction(self, num: int, den: int):
        if self.p is None:
            return Fraction(num, den)
        d = den % self.p
        if d == 0:
            raise ZeroDivisionError(f"denominator {den} vanishes in GF({self.p})")
        return num * pow(d, self.p - 2, self.p) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else a * b % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            return Fraction(1) / a
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def parse_scalar(self, text: str):
        """Parse ``int`` or ``int/int`` in this field."""
        if "/" in text:
            num, den = text.split("/", 1)
            return self.from_fraction(int(num), int(den))
        return self.from_int(int(text))

    def format_scalar(self, a) -> str:
        return str(a)


QQ = FieldSpec()


def _primitive_row(row: list) -> list[int]:
    """The integer row with coprime entries on the same line as a rational row."""
    nz = [(k, x.numerator, x.denominator) for k, x in enumerate(row) if x]
    den = lcm(*(d for _, _, d in nz))
    vals = [n * (den // d) for _, n, d in nz]
    g = gcd(*vals)
    ints = [0] * len(row)
    for (k, _, _), x in zip(nz, vals):
        ints[k] = x // g
    return ints


def _combine(u: list, row: list, j: int, p: int | None) -> list:
    """u minus the multiple of the reduced row ``row`` (pivot at j) that clears u[j].

    Over GF(p) row[j] is 1.  Over Q both rows are primitive integer rows:
    they are cross-multiplied, and the result is divided by its content.
    """
    c = u[j]
    if p is not None:
        return [(a - c * b) % p for a, b in zip(u, row)]
    g = gcd(row[j], c)
    a, b = row[j] // g, c // g
    new = [a * x - b * y for x, y in zip(u, row)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _insert_row(rows: dict[int, list], v: list, p: int | None) -> bool:
    """One Gauss-Jordan step: add the fresh row v to the reduced rows, keyed by pivot.

    v is reduced by the rows; if it survives, the rows are reduced by it and
    it is stored under its pivot.  True if it was stored.  Over GF(p) rows are
    normalized to pivot 1; over Q, v and the rows are primitive integer rows.
    """
    for j, row in rows.items():
        if v[j]:
            v = _combine(v, row, j, p)
    for piv, c in enumerate(v):
        if c:
            break
    else:
        return False
    if p is not None and c != 1:
        inv = pow(c, p - 2, p)
        v = [x * inv % p for x in v]
    for j, row in rows.items():
        if row[piv]:
            rows[j] = _combine(row, v, piv, p)
    rows[piv] = v
    return True


def _read_rows(rows: dict[int, list], p: int | None) -> list[list]:
    """The reduced rows in pivot order as field elements, with pivot 1 over Q too."""
    ordered = sorted(rows.items())
    if p is not None:
        return [r for _, r in ordered]
    zero = Fraction(0)
    return [[Fraction(x, r[j]) if x else zero for x in r] for j, r in ordered]


def _rref_rows(data: list[list], ncols: int, p: int | None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of the rows ``data`` (left as they are) and its pivots."""
    rows: dict[int, list] = {}
    for row in data:
        _insert_row(rows, list(row) if p is not None else _primitive_row(row), p)
    out = _read_rows(rows, p)
    if len(out) < len(data):
        zero = 0 if p is not None else Fraction(0)
        out += [[zero] * ncols for _ in range(len(data) - len(out))]
    return out, sorted(rows)


class Matrix:
    """Dense matrix with exact entries, row-major storage."""

    __slots__ = ("field", "rows", "cols", "data", "_rref")

    def __init__(self, field: FieldSpec, rows: int, cols: int, data=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            z = field.zero()
            self.data = [[z] * cols for _ in range(rows)]
        else:
            self.data = data
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix shape mismatch")
        self._rref = None

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: list[list]):
        r = len(rows)
        c = len(rows[0]) if rows else 0
        return cls(field, r, c, [list(row) for row in rows])

    @classmethod
    def zero(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        m = cls(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i][i] = one
        return m

    @classmethod
    def from_columns(cls, field: FieldSpec, cols: list[list], nrows: int | None = None):
        if not cols:
            if nrows is None:
                raise ValueError("need nrows for an empty column list")
            return cls(field, nrows, 0)
        n = len(cols[0])
        m = cls(field, n, len(cols))
        for j, col in enumerate(cols):
            for i in range(n):
                m.data[i][j] = col[i]
        return m

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, [row[:] for row in self.data])

    def column(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.data)

    def __add__(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix(
            f,
            self.rows,
            self.cols,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols, [[f.mul(c, x) for x in row] for row in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        p = self.field.p
        zero = self.field.zero()
        n = other.cols
        # the nonzero (j, b) pairs of each nonzero row k of the right factor,
        # found once; a left entry is looked at only where they exist
        sparse = []
        for k, row in enumerate(other.data):
            pairs = [(j, b) for j, b in enumerate(row) if b]
            if pairs:
                sparse.append((k, pairs))
        data = []
        for srow in self.data:
            acc = [zero] * n
            for k, pairs in sparse:
                a = srow[k]
                if a:
                    for j, b in pairs:
                        acc[j] += a * b
            data.append(acc if p is None else [x % p for x in acc])
        return Matrix(self.field, self.rows, n, data)

    def apply(self, vec: list) -> list:
        """Matrix times column vector, skipping the zero entries of vec."""
        # zero tests by truth value: a Fraction's __bool__ is cheaper than __eq__
        p = self.field.p
        zero = self.field.zero()
        nz = [(k, b) for k, b in enumerate(vec) if b]
        out = []
        for row in self.data:
            s = zero
            for k, b in nz:
                a = row[k]
                if a:
                    s += a * b
            out.append(s if p is None else s % p)
        return out

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix(
            self.field,
            self.rows,
            self.cols + other.cols,
            [ra + rb for ra, rb in zip(self.data, other.data)],
        )

    def rref(self) -> tuple["Matrix", int, list[int]]:
        """Unique reduced row echelon form: (reduced, rank, pivot columns)."""
        if self._rref is None:
            data, pivots = _rref_rows(self.data, self.cols, self.field.p)
            self._rref = (Matrix(self.field, self.rows, self.cols, data), len(pivots), pivots)
        return self._rref

    def rank(self) -> int:
        return self.rref()[1]

    def kernel_basis(self) -> "Matrix":
        """Columns spanning the right null space, in echelon-canonical form.

        The column for free variable j has a 1 in position j and the negated
        reduced coefficients in the pivot positions; columns are ordered by
        free column index.  Its rows at the free positions form the identity.
        """
        red, rank, pivots = self.rref()
        f = self.field
        pivset = set(pivots)
        free = [j for j in range(self.cols) if j not in pivset]
        zero, one = f.zero(), f.one()
        data = [[zero] * len(free) for _ in range(self.cols)]
        for k, j in enumerate(free):
            data[j][k] = one
        for row, pc in zip(red.data, pivots):
            out = data[pc]
            for k, j in enumerate(free):
                c = row[j]
                if c:
                    out[k] = f.neg(c)
        return Matrix(f, self.cols, len(free), data)

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """Some x with self @ x = rhs, or None; free variables are set to zero."""
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        m, pivots = _rref_rows(self.hstack(rhs).data, self.cols + rhs.cols, self.field.p)
        if pivots and pivots[-1] >= self.cols:
            return None
        x = Matrix(self.field, self.cols, rhs.cols)
        for row, pc in zip(m, pivots):
            x.data[pc] = row[self.cols:]
        return x


class SubspaceReducer:
    """Incremental reduced-echelon basis of a subspace of k^n.

    Supports membership tests, span growth and canonical reduction modulo the
    subspace; the reduction of any vector is supported on the complement of
    the pivot set, which doubles as a canonical basis of the quotient space.
    ``rows`` maps each pivot to its reduced row: over GF(p) a row with pivot
    1, over Q a primitive integer row, which `basis_rows` reads out as
    Fractions with pivot 1.
    """

    def __init__(self, field: FieldSpec, dim: int, vectors=None):
        self.field = field
        self.dim = dim
        self.rows: dict[int, list] = {}  # pivot index -> reduced row
        if vectors is not None:
            for v in vectors:
                self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: list) -> list:
        """vec minus its component in the span: v - sum of v[j] row_j / pivot_j."""
        p = self.field.p
        v = list(vec)
        for j, row in self.rows.items():
            c = v[j]
            if c:
                if p is None:
                    c = Fraction(c, row[j])
                    v = [a - c * b if b else a for a, b in zip(v, row)]
                else:
                    v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def contains(self, vec: list) -> bool:
        return not any(self.reduce(vec))

    def insert(self, vec: list) -> bool:
        """Add vec to the span; True if the rank grew."""
        p = self.field.p
        return _insert_row(self.rows, _primitive_row(vec) if p is None else list(vec), p)

    def complement_indices(self) -> list[int]:
        pivs = self.rows
        return [j for j in range(self.dim) if j not in pivs]

    def coords_in_complement(self, vec: list) -> list:
        """Coordinates of vec + span in the complement basis."""
        v = self.reduce(vec)
        return [v[j] for j in self.complement_indices()]

    def basis_rows(self) -> list[list]:
        return _read_rows(self.rows, self.field.p)
