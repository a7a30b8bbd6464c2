"""Exact linear algebra over the rationals and prime fields.

Everything downstream (normal forms, resolutions, Tor, isomorphism tests)
reduces to rank/kernel/solve questions over an exact field, so this module
deliberately avoids floating point.  Scalars are plain ints in ``[0, p)``
over GF(p).  Over the rationals a scalar is in canonical form: an int when
it is integral, and a `fractions.Fraction` only when its denominator is
greater than 1.  `str`, ``==`` and `hash` agree between an int and the
integral Fraction of the same value, so the form shows in no report.  Most
data is integral, and ints spare its arithmetic the cost of Fraction
objects.  This module is the only one that builds a Fraction, and every
value it returns is in canonical form.

A vector is a stored row: a {column: value} dict that stores no zero, each
value a field element in that form, since the vectors and matrices of
covers, kernels, resolutions, spans and Hom spaces are mostly zero.
`Matrix` keeps one stored row per row; products (`Matrix.row_times` is
one stored row times a matrix) and transposes iterate the stored entries
only, and `SubspaceReducer` reduces and reads out stored rows.  Dense lists
are read-outs only: ``Matrix.data`` and `SubspaceReducer.basis_rows`, built
anew on each read for checks outside the package.  No module of the package
calls them, nor `Matrix.rref` or `Matrix.solve`; the four stay for the
benchmark, which reads or traces them.  Dense lists are still accepted as
input where a matrix or span is built from parsed or given rows.

All elimination is one Gauss-Jordan step, `_insert_row`: a fresh row is
reduced by the reduced rows kept so far, keyed by pivot column, and if it
survives the other rows are reduced by it.  Elimination rows are
{column: value} dicts too, so `Matrix.rank`, `Matrix.rref`, `Matrix.solve`
and `kernel_vectors` run the step on the stored rows of a matrix in turn;
`SubspaceReducer.insert` runs it on one vector.  Over GF(p) the rows are
normalized to pivot 1.  Over Q they are primitive integer rows (denominators
cleared, content divided out), combined by integer cross-multiplication and
divided by their content again; they are read back as field elements by
dividing each entry by its pivot.  The reduced echelon basis of a row space
is unique, so the results are the values a Fraction elimination gives.

At that Q boundary each entry is converted once: `_primitive_row` takes an
integral row as it is and clears the denominators of any other, and a
reduced row is read out with one division per entry, the kernel's negated
entries included, which builds a Fraction only where the pivot does not
divide the entry; a row with pivot 1 is read out as it is.

A sum of field elements has one rule, here and in the modules that use this
one: raw values are accumulated, ``acc[k] = acc.get(k, 0) + c * x``, and
`stored_row` brings the sum to canonical form and drops its zeros once.
The elimination kernels `_primitive_row`, `_combine`, `_insert_row`,
`SubspaceReducer.reduce` and `kernel_vectors` are the exception: they
canonicalize entry by entry, on the integer rows of the Q elimination.
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
    "kernel_vectors",
    "stored_row",
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


def _rational(x):
    """The canonical form of the rational x: an int when it is integral."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _ratio(n: int, d: int):
    """n / d for ints n and d != 0, in canonical form."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals when ``p is None``, otherwise GF(p).

    Its elements are ints in ``[0, p)`` over GF(p).  Over Q an element is an
    int when it is integral and a `fractions.Fraction` with a denominator
    greater than 1 otherwise, and every method returns that form.
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and (self.p < 2 or self.p >= 2**31 or not _is_prime(self.p)):
            raise ValueError(f"field characteristic must be a prime < 2^31, got {self.p}")

    @property
    def name(self) -> str:
        return "rational" if self.p is None else f"gf {self.p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n if self.p is None else n % self.p

    def from_fraction(self, num: int, den: int):
        if self.p is None:
            return _rational(Fraction(num, den))
        d = den % self.p
        if d == 0:
            raise ZeroDivisionError(f"denominator {den} vanishes in GF({self.p})")
        return num * pow(d, self.p - 2, self.p) % self.p

    def add(self, a, b):
        return _rational(a + b) if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return _rational(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return _rational(a * b) if self.p is None else a * b % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            return _rational(1 / Fraction(a))
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


def stored_row(items, p: int | None) -> dict:
    """The stored row of (column, value) pairs: the nonzero values, in
    canonical form over Q and as ints in ``[0, p)`` over GF(p)."""
    if p is None:
        return {k: _rational(x) for k, x in items if x}
    return {k: y for k, x in items if (y := x % p)}


def _primitive_row(items) -> dict[int, int]:
    """The integer row with coprime entries on the same line as a rational row,
    given by its (column, value) pairs; zeros are dropped."""
    vals = {k: x for k, x in items if x}
    if not vals:
        return {}
    if any(type(x) is not int for x in vals.values()):
        den = lcm(*(x.denominator for x in vals.values()))
        vals = {k: x.numerator * (den // x.denominator) for k, x in vals.items()}
    g = gcd(*vals.values())
    if g == 1:
        return vals
    return {k: x // g for k, x in vals.items()}


def _fresh_row(row, p: int | None) -> dict:
    """An elimination row from a dense list or a {column: value} dict: its
    stored row over GF(p), its primitive integer row over Q."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    if p is not None:
        return stored_row(items, p)
    return _primitive_row(items)


def _combine(u: dict, row: dict, j: int, p: int | None) -> None:
    """Clear u[j], in place, by the multiple of the reduced row ``row`` (pivot at j).

    Over GF(p) row[j] is 1.  Over Q both rows are primitive integer rows:
    they are cross-multiplied, and u is divided by its content.  Entries that
    cancel are deleted, so u stores no zero.
    """
    c = u[j]
    if p is not None:
        for k, y in row.items():
            x = (u.get(k, 0) - c * y) % p
            if x:
                u[k] = x
            else:
                del u[k]
        return
    g = gcd(row[j], c)
    a, b = row[j] // g, c // g
    if a != 1:
        for k in u:
            u[k] *= a
    for k, y in row.items():
        x = u.get(k, 0) - b * y
        if x:
            u[k] = x
        else:
            del u[k]
    g = gcd(*u.values())
    if g > 1:
        for k in u:
            u[k] //= g


def _insert_row(rows: dict[int, dict], v: dict, p: int | None) -> bool:
    """One Gauss-Jordan step: add the fresh row v to the reduced rows, keyed by pivot.

    v is reduced by the rows; if it survives, the rows are reduced by it and
    it is stored under its pivot, its smallest column.  True if it was stored.
    Rows are {column: value} dicts that store no zero: over GF(p) normalized
    to pivot 1, over Q primitive integer rows.  v becomes one of them.
    """
    # a reduced row is zero at every other pivot, so clearing v at one pivot
    # leaves its entries at the others as they were
    for j in [k for k in v if k in rows]:
        _combine(v, rows[j], j, p)
    if not v:
        return False
    piv = min(v)
    if p is not None and v[piv] != 1:
        inv = pow(v[piv], p - 2, p)
        for k in v:
            v[k] = v[k] * inv % p
    for row in rows.values():
        if piv in row:
            _combine(row, v, piv, p)
    rows[piv] = v
    return True


def _eliminate(data, p: int | None) -> dict[int, dict]:
    """The reduced rows, keyed by pivot, of the rows ``data`` (lists or dicts)."""
    rows: dict[int, dict] = {}
    for row in data:
        _insert_row(rows, _fresh_row(row, p), p)
    return rows


def _field_row(row: dict, j: int, p: int | None) -> dict:
    """The reduced row with pivot j as field elements, with pivot 1 over Q
    too; the row itself where that is what it holds already."""
    if p is not None or row[j] == 1:
        return row
    d = row[j]
    return {k: _ratio(x, d) for k, x in row.items()}


def _dense_row(row: dict, ncols: int, zero) -> list:
    """The stored row ``row`` as a dense list of ``ncols`` entries."""
    dense = [zero] * ncols
    for k, x in row.items():
        dense[k] = x
    return dense


def kernel_vectors(field: FieldSpec, rows, ncols: int) -> tuple[list[dict], list[int]]:
    """A basis of the right null space of ``rows`` and its free columns.

    The rows are dense lists or {column: value} dicts with ``ncols`` columns.
    The basis vector of the free column j is a {column: value} dict with a 1
    at j and the negated reduced coefficients of column j at the pivots; the
    vectors are ordered by free column.
    """
    p = field.p
    red = _eliminate(rows, p)
    free = [j for j in range(ncols) if j not in red]
    one = field.one()
    vecs = {j: {j: one} for j in free}
    # each entry is built once: p - x over GF(p), where 0 < x < p, and over
    # Q -x/d for the integer entry x and pivot d of the primitive row
    for pc, row in red.items():
        d = row[pc]
        for j, x in row.items():
            if j != pc:
                if p is not None:
                    vecs[j][pc] = p - x
                elif d == 1:
                    vecs[j][pc] = -x
                else:
                    vecs[j][pc] = _ratio(-x, d)
    return [vecs[j] for j in free], free


class Matrix:
    """Exact matrix stored as sparse rows.

    ``entries`` holds one {column: value} dict per row that stores no zero,
    each value a field element in canonical form (see `FieldSpec`).  Every
    operation reads and builds stored entries only.  A Matrix is not changed
    once built.  ``data`` is a dense view of the rows, built anew on each
    read, so writing into it changes nothing.
    """

    __slots__ = ("field", "rows", "cols", "entries", "_rref")

    def __init__(self, field: FieldSpec, rows: int, cols: int, data=None):
        """The matrix with the dense rows ``data``, or the zero matrix."""
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            self.entries = [{} for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix shape mismatch")
            self.entries = [stored_row(enumerate(row), field.p) for row in data]
        self._rref = None

    @classmethod
    def from_entries(cls, field: FieldSpec, rows: int, cols: int, entries: list[dict]) -> "Matrix":
        """The matrix with the stored rows ``entries``, taken as they are: they
        must hold no zero and only field elements in canonical form."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m.entries, m._rref = field, rows, cols, entries, None
        return m

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: list[list]):
        return cls(field, len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def zero(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one = field.one()
        return cls.from_entries(field, n, n, [{i: one} for i in range(n)])

    @property
    def data(self) -> list[list]:
        """The dense rows, as new lists on each read."""
        zero = self.field.zero()
        return [_dense_row(row, self.cols, zero) for row in self.entries]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = [other.row_times(row) if row else {} for row in self.entries]
        return Matrix.from_entries(self.field, self.rows, other.cols, out)

    def row_times(self, row: dict) -> dict:
        """The row vector with the stored entries ``row`` times self, as stored entries."""
        acc: dict = {}
        get = acc.get
        right = self.entries
        for k, a in row.items():
            for j, b in right[k].items():
                acc[j] = get(j, 0) + a * b
        return stored_row(acc.items(), self.field.p)

    def transpose(self) -> "Matrix":
        out: list[dict] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, x in row.items():
                out[j][i] = x
        return Matrix.from_entries(self.field, self.cols, self.rows, out)

    def rref(self) -> tuple["Matrix", int, list[int]]:
        """Unique reduced row echelon form: (reduced, rank, pivot columns)."""
        if self._rref is None:
            p = self.field.p
            rows = _eliminate(self.entries, p)
            pivots = sorted(rows)
            entries = [_field_row(rows[j], j, p) for j in pivots]
            entries += [{} for _ in range(self.rows - len(rows))]
            reduced = Matrix.from_entries(self.field, self.rows, self.cols, entries)
            self._rref = (reduced, len(rows), pivots)
        return self._rref

    def rank(self) -> int:
        return len(_eliminate(self.entries, self.field.p))

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """Some x with self @ x = rhs, or None; free variables are set to zero."""
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        p, n = self.field.p, self.cols
        augmented = ({**a, **{n + k: x for k, x in b.items()}} for a, b in zip(self.entries, rhs.entries))
        rows = _eliminate(augmented, p)
        if rows and max(rows) >= n:
            return None
        out: list[dict] = [{} for _ in range(n)]
        for pc, row in rows.items():
            out[pc] = {k - n: c for k, c in _field_row(row, pc, p).items() if k >= n}
        return Matrix.from_entries(self.field, n, rhs.cols, out)


class SubspaceReducer:
    """Incremental reduced-echelon basis of a subspace of k^n.

    Supports membership tests, span growth and canonical reduction modulo the
    subspace.  Vectors are stored rows, {column: value} dicts that store no
    zero, with field elements in canonical form; `insert` also accepts a
    dense list, and `basis_rows` is the one dense read-out.  The reduction of
    any vector is zero at every pivot, so its keys are coordinates in the
    complement of the pivot set, which doubles as a canonical basis of the
    quotient space.  ``rows`` maps each pivot to its reduced row: over GF(p)
    a row with pivot 1, over Q a primitive integer row, which
    `echelon_rows` reads out as rows of field elements with pivot 1.
    """

    def __init__(self, field: FieldSpec, dim: int, vectors=None):
        self.field = field
        self.dim = dim
        self.rows: dict[int, dict] = {}  # pivot index -> reduced row
        if vectors is not None:
            for v in vectors:
                self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """The stored row vec minus its component in the span, as a new
        stored row: v - sum of v[j] row_j / pivot_j over the pivots j of v."""
        p = self.field.p
        rows = self.rows
        v = dict(vec)
        # a reduced row is zero at every other pivot, as in `_insert_row`
        for j in [k for k in v if k in rows]:
            row = rows[j]
            if p is not None:
                _combine(v, row, j, p)
                continue
            c = v[j] / row[j] if type(v[j]) is Fraction else _ratio(v[j], row[j])
            for k, b in row.items():
                x = v.get(k, 0) - c * b
                if x:
                    v[k] = _rational(x)
                else:
                    del v[k]
        return v

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec) -> bool:
        """Add vec, a stored row or a dense list, to the span; True if the
        rank grew."""
        p = self.field.p
        return _insert_row(self.rows, _fresh_row(vec, p), p)

    def complement_indices(self) -> list[int]:
        pivs = self.rows
        return [j for j in range(self.dim) if j not in pivs]

    def echelon_rows(self) -> list[dict]:
        """The reduced echelon basis in pivot order, as new stored rows of
        field elements with pivot 1."""
        p = self.field.p
        return [dict(_field_row(self.rows[j], j, p)) for j in sorted(self.rows)]

    def basis_rows(self) -> list[list]:
        """`echelon_rows` as dense lists."""
        zero = self.field.zero()
        return [_dense_row(row, self.dim, zero) for row in self.echelon_rows()]
