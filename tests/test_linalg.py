import random
from fractions import Fraction
from math import gcd

import pytest

from qred.linalg import FieldSpec, Matrix, QQ, SubspaceReducer, _eliminate, kernel_vectors

from conftest import is_field_element
from oracles import (
    DenseMatrix,
    DenseStepReducer,
    FieldSubspaceReducer,
    dense_kernel_basis,
    dense_rref,
    dense_solve,
    matrix_add,
    matrix_from_columns,
    matrix_kernel_basis,
    matrix_kernel_with_free,
    matrix_scale,
    rref_by_fractions,
    rref_mod_p,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def test_fieldspec_rejects_nonprimes():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec(2**31 + 11)


def test_scalar_parsing():
    assert QQ.parse_scalar("3/2") == Fraction(3, 2)
    assert GF5.parse_scalar("7") == 2
    assert GF5.parse_scalar("1/2") == 3  # inverse of 2 mod 5
    with pytest.raises(ZeroDivisionError):
        GF5.parse_scalar("1/5")


def test_rational_scalars_are_canonical():
    """Over Q every FieldSpec method, and Matrix sums and scalings, return an
    integral value as an int and build a Fraction only for a value whose
    denominator is greater than 1."""
    half = QQ.from_fraction(1, 2)
    pairs = [
        (QQ.zero(), 0), (QQ.one(), 1), (QQ.from_int(-3), -3), (QQ.from_fraction(4, -2), -2),
        (half, Fraction(1, 2)), (QQ.parse_scalar("6/3"), 2), (QQ.parse_scalar("-6/4"), Fraction(-3, 2)),
        (QQ.inv(half), 2), (QQ.inv(-3), Fraction(-1, 3)), (QQ.inv(Fraction(-1, 4)), -4),
        (QQ.add(half, half), 1), (QQ.sub(half, QQ.neg(half)), 1), (QQ.mul(half, 4), 2),
        (QQ.mul(half, 3), Fraction(3, 2)), (QQ.add(half, 1), Fraction(3, 2)), (QQ.neg(half), Fraction(-1, 2)),
    ]
    for got, want in pairs:
        assert got == want and is_field_element(QQ, got)
    assert sum(type(got) is int for got, _ in pairs) == 10
    m = Matrix(QQ, 1, 3, [[half, QQ.from_fraction(1, 3), QQ.neg(half)]])
    rows = [(matrix_add(m, m).entries[0], {0: 1, 1: Fraction(2, 3), 2: -1}), (matrix_scale(m, 6).entries[0], {0: 3, 1: 2, 2: -3})]
    rows += [(matrix_scale(m, half).entries[0], {0: Fraction(1, 4), 1: Fraction(1, 6), 2: Fraction(-1, 4)}), (matrix_add(m, matrix_scale(m, -1)).entries[0], {})]
    for got, want in rows:
        assert got == want and all(is_field_element(QQ, x) for x in got.values())


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    red, rank, pivots = m.rref()
    assert red == m and rank == 2 and pivots == [0, 1]


def test_rref_proportional_rows():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    red, rank, _ = m.rref()
    assert red.data == [[1, 2], [0, 0]]
    assert rank == 1


def test_rref_mod2():
    # hand row-reduce mod 2: rows are equal, rank 1
    m = Matrix.from_rows(GF2, [[1, 1], [1, 1]])
    red, rank, _ = m.rref()
    assert red.data == [[1, 1], [0, 0]]
    assert rank == 1


def test_kernel_identity_and_symmetry():
    assert matrix_kernel_basis(Matrix.identity(QQ, 3)).cols == 0
    k = matrix_kernel_basis(Matrix.from_rows(QQ, [[1, -1]]))
    assert k.cols == 1
    v = k.transpose().data[0]
    assert v[0] == v[1] != 0


def test_kernel_rank_one():
    # solve x + 2y = 0: canonical column (-2, 1)
    k = matrix_kernel_basis(Matrix.from_rows(QQ, [[1, 2], [2, 4]]))
    assert k.transpose().data == [[Fraction(-2), Fraction(1)]]


def test_solve_identity_and_homogeneous():
    rhs = matrix_from_columns(QQ, [[1, 7]])
    x = Matrix.identity(QQ, 2).solve(rhs)
    assert x == rhs
    x = Matrix.from_rows(QQ, [[1, 1]]).solve(matrix_from_columns(QQ, [[0]]))
    assert x.transpose().data == [[0, 0]]


def test_solve_inconsistent():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert m.solve(matrix_from_columns(QQ, [[1, 1]])) is None


def _random_matrix(rng, field, rows, cols):
    if field.p is None:
        return Matrix.from_rows(
            field, [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        )
    return Matrix.from_rows(
        field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    )


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
def test_rref_idempotent_and_rank_nullity(field):
    rng = random.Random(42)
    for _ in range(25):
        m = _random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 6))
        red, rank, _ = m.rref()
        red2, rank2, _ = red.rref()
        assert red2 == red and rank2 == rank
        ker = matrix_kernel_basis(m)
        assert rank + ker.cols == m.cols
        if ker.cols:
            assert (m @ ker).is_zero()


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
def test_solve_exactness(field):
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
        x0 = _random_matrix(rng, field, m.cols, 2)
        rhs = m @ x0
        x = m.solve(rhs)
        assert x is not None
        assert m @ x == rhs  # exact, no tolerance


def _random_rational_rows(rng, rows, cols):
    """Sparse signed rationals with zero rows, zero columns, duplicate, scaled
    and combined rows mixed in."""
    dens = (1, 1, 1, 2, 3, 7)
    out = [
        [
            Fraction(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < 0.45 else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    for c in range(cols):
        if rng.random() < 0.15:
            for row in out:
                row[c] = Fraction(0)
    for i in range(rows):
        roll = rng.random()
        if i and roll < 0.15:
            out[i] = list(out[rng.randrange(i)])
        elif i and roll < 0.3:
            s = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice(dens))
            out[i] = [s * x for x in out[rng.randrange(i)]]
        elif i > 1 and roll < 0.45:
            a, b = rng.sample(range(i), 2)
            out[i] = [x - Fraction(2, 3) * y for x, y in zip(out[a], out[b])]
        elif roll < 0.5:
            out[i] = [Fraction(0)] * cols
    return out


def _shapes(rng):
    yield 0, 0
    yield 0, 4
    for n in (1, 2, 7, 16):
        yield 1, n
        yield n, 1
    yield 12, 16
    yield 16, 12
    for _ in range(140):
        yield rng.randint(0, 12), rng.randint(0, 16)


# Rows whose reduced primitive rows have pivot 1, -1 or another integer, from
# integral and from non-integral entries.
_PIVOT_CASES = [
    [[1, 2, 0, 5], [0, 1, 3, 0]],
    [[-1, 2, 5, 0], [0, -1, 4, 1]],
    [[2, 3, 0, 1], [0, 5, 7, 0], [4, 6, 0, 2]],
    [[Fraction(1, 2), 1, Fraction(3, 2), 0]],
    [[Fraction(-1, 3), Fraction(2, 3), 0, 1], [0, 0, Fraction(-5, 7), Fraction(5, 7)]],
    [[Fraction(1, 2), Fraction(1, 3), 1, 0], [0, Fraction(2, 5), 0, Fraction(4, 7)]],
]


def test_rref_kernel_solve_match_fraction_oracle():
    """Integer-row elimination over Q against the Fraction Gauss-Jordan, on
    random rows and on rows whose reduced pivots are 1, -1 and non-units."""
    rng = random.Random(20251)
    outcomes = set()

    def check(data, rows, cols):
        m = Matrix(QQ, rows, cols, [list(r) for r in data])
        red, rank, pivots = m.rref()
        exp, exp_rank, exp_pivots = rref_by_fractions(data)
        assert (red.data, rank, pivots) == (exp, exp_rank, exp_pivots)
        _check_stored(red)
        assert m.data == data  # the input is left as it was
        for d in (row[j] for j, row in _eliminate(m.entries, None).items()):
            outcomes.add(f"pivot {d}" if d in (1, -1) else "pivot non-unit")
        outcomes.update("integral" if x.denominator == 1 else "non-integral" for row in data for x in row if x)

        free = [j for j in range(cols) if j not in exp_pivots]
        ker = matrix_kernel_basis(m)
        _check_stored(ker)
        assert (ker.rows, ker.cols) == (cols, len(free))
        for k, j in enumerate(free):
            expected = [Fraction(0)] * cols
            expected[j] = Fraction(1)
            for i, pc in enumerate(exp_pivots):
                expected[pc] = -exp[i][j]
            assert ker.transpose().data[k] == expected

        x0 = Matrix(QQ, cols, 2, _random_rational_rows(rng, cols, 2))
        for rhs in (m @ x0, Matrix(QQ, rows, 2, _random_rational_rows(rng, rows, 2))):
            aug, _, aug_pivots = rref_by_fractions([r + s for r, s in zip(data, rhs.data)])
            x = m.solve(rhs)
            if any(pc >= cols for pc in aug_pivots):
                assert x is None
                outcomes.add("unsolvable")
                continue
            expected = [[Fraction(0)] * 2 for _ in range(cols)]
            for i, pc in enumerate(aug_pivots):
                expected[pc] = aug[i][cols:]
            assert x.data == expected
            _check_stored(x)
            assert m @ x == rhs
            outcomes.add("solvable")
        outcomes.add("full rank" if rank == min(rows, cols) else "rank deficient")

    for rows, cols in _shapes(rng):
        check(_random_rational_rows(rng, rows, cols), rows, cols)
    for case in _PIVOT_CASES:
        check([[Fraction(x) for x in row] for row in case], len(case), len(case[0]))
    assert outcomes == {
        "solvable", "unsolvable", "full rank", "rank deficient",
        "pivot 1", "pivot -1", "pivot non-unit", "integral", "non-integral",
    }


def test_subspace_reducer_membership():
    red = SubspaceReducer(QQ, 3, [[1, 0, 1], [0, 1, 1]])
    assert red.rank == 2
    assert red.contains(_stored(QQ, [1, 1, 2]))
    assert not red.contains(_stored(QQ, [1, 1, 1]))
    assert red.complement_indices() == [2]
    assert not red.insert([2, 2, 4])
    assert red.insert([0, 0, 1])
    assert red.rank == 3


def _sparse_rows(rng, field, rows, cols):
    """Mostly-zero rows, with zero rows and zero columns mixed in."""
    if field.p is None:
        return _random_rational_rows(rng, rows, cols)
    out = [[rng.randrange(1, field.p) if rng.random() < 0.3 else 0 for _ in range(cols)] for _ in range(rows)]
    for row in out:
        if rng.random() < 0.3:
            row[:] = [0] * cols
    return out


def _triple_loop(field, a, b, cols):
    out = []
    for row in a:
        out.append([])
        for j in range(cols):
            s = field.zero()
            for k, x in enumerate(row):
                s = field.add(s, field.mul(x, b[k][j]))
            out[-1].append(s)
    return out


@pytest.mark.parametrize("field", [QQ, GF2, GF5], ids=["QQ", "GF2", "GF5"])
def test_matmul_and_is_zero_match_triple_loop(field):
    """Nonzero-only products against the triple loop on zero-heavy inputs,
    empty shapes, and products [A A] [B; -B] whose sums cancel to zero."""
    rng = random.Random(606)
    outcomes = set()
    for rows, inner in _shapes(rng):
        cols = rng.randint(0, 9)
        a = _sparse_rows(rng, field, rows, inner)
        b = _sparse_rows(rng, field, inner, cols)
        cancel_a = [row + row for row in a]
        cancel_b = b + [[field.neg(x) for x in row] for row in b]
        for x, y in ((a, b), (cancel_a, cancel_b)):
            mx = Matrix(field, rows, len(y), [list(r) for r in x])
            my = Matrix(field, len(y), cols, [list(r) for r in y])
            prod = mx @ my
            assert (prod.rows, prod.cols) == (rows, cols)
            assert prod.data == _triple_loop(field, x, y, cols)
            assert all(is_field_element(field, e) for r in prod.data for e in r)
            assert (mx.data, my.data) == (x, y)  # the factors are left as they were
            for m in (mx, my, prod):
                naive = all(e == 0 for r in m.data for e in r)
                assert m.is_zero() == naive
                outcomes.add(naive)
        assert (Matrix(field, rows, 2 * inner, cancel_a) @ Matrix(field, 2 * inner, cols, cancel_b)).is_zero()
    assert outcomes == {True, False}


def _entry(rng, field, ints):
    """A random scalar, zero half the time; over Q an int or a Fraction."""
    if rng.random() < 0.5:
        return field.zero() if not ints else 0
    if field.p is not None:
        return rng.randrange(1, field.p)
    if ints:
        return rng.choice((-3, -2, -1, 1, 2, 3, 6))
    return Fraction(rng.choice((-5, -2, -1, 1, 3, 4)), rng.choice((1, 1, 2, 3, 7)))


def _step_vector(rng, field, dim, inserted):
    """A zero vector, a combination of inserted vectors or a fresh vector."""
    ints = field.p is None and rng.random() < 0.5
    roll = rng.random()
    if roll < 0.15:
        return [0 if ints else field.zero()] * dim
    if roll < 0.45 and inserted:
        v = [0 if ints else field.zero()] * dim
        for w in rng.sample(inserted, min(len(inserted), rng.randint(1, 3))):
            c = _entry(rng, field, ints) or 1
            v = [field.add(a, field.mul(c, b)) for a, b in zip(v, w)]
        return v
    return [_entry(rng, field, ints) for _ in range(dim)]


def _no_float(rows):
    return not any(isinstance(x, float) for row in rows for x in row)


def _stored(field, vec: list) -> dict:
    """The stored row of a dense vector: its nonzero entries as field
    elements, over Q an int where the entry is integral."""
    if field.p is not None:
        return {k: x % field.p for k, x in enumerate(vec) if x}
    return {k: int(x) if Fraction(x).denominator == 1 else x for k, x in enumerate(vec) if x}


def _reduce_dense(field, red: SubspaceReducer, vec: list):
    """(reduce, complement coordinates, contains) of the dense vec, read off
    the stored row that red.reduce returns; that row must hold no zero, only
    field elements in their one stored form and no pivot key."""
    out = red.reduce(_stored(field, vec))
    assert all(x != 0 and is_field_element(field, x) and k not in red.rows for k, x in out.items())
    dense = _densify(out, red.dim, field)
    return dense, [dense[j] for j in red.complement_indices()], red.contains(_stored(field, vec))


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5], ids=["QQ", "GF2", "GF3", "GF5"])
def test_subspace_reducer_matches_field_row_oracle(field):
    """Integer-row (over Q) reducer against the reducer on rows with pivot 1,
    after every insert of fresh vectors, vectors of the span and zero vectors."""
    rng = random.Random(1151)
    outcomes = set()
    for _ in range(120):
        dim = rng.randint(0, 9)
        red, oracle = SubspaceReducer(field, dim), FieldSubspaceReducer(field, dim)
        inserted = []
        for _ in range(rng.randint(1, 12)):
            v = _step_vector(rng, field, dim, inserted)
            grew = red.insert(v)
            assert grew == oracle.insert(v)
            outcomes.add(grew)
            inserted.append(v)
            assert red.rank == oracle.rank
            assert red.complement_indices() == oracle.complement_indices()
            basis = red.basis_rows()
            assert basis == oracle.basis_rows() and _no_float(basis)
            for probe in (v, _step_vector(rng, field, dim, inserted), _step_vector(rng, field, dim, [])):
                got = _reduce_dense(field, red, probe)
                assert got == (oracle.reduce(probe), oracle.coords_in_complement(probe), oracle.contains(probe))
                assert _no_float(got[:2])
            for j, row in red.rows.items():
                # a {column: value} dict whose smallest key is the pivot
                assert min(row) == j and all(0 <= k < dim for k in row)
                assert all(x != 0 for x in row.values())  # no zero is stored
                if field.p is None:  # a primitive integer row
                    assert all(type(x) is int for x in row.values()) and gcd(*row.values()) == 1
                else:
                    assert row[j] == 1 and all(0 < x < field.p for x in row.values())
    assert outcomes == {True, False}


@pytest.mark.parametrize("field", [GF2, GF3, GF5], ids=["GF2", "GF3", "GF5"])
def test_rref_kernel_solve_match_column_elimination_mod_p(field):
    """Row-at-a-time elimination over GF(p) against column-by-column Gauss-Jordan."""
    p = field.p
    rng = random.Random(1152 + p)
    outcomes = set()
    for rows, cols in _shapes(rng):
        data = _sparse_rows(rng, field, rows, cols)
        m = Matrix(field, rows, cols, [list(r) for r in data])
        exp = [list(r) for r in data]
        exp_rank, exp_pivots = rref_mod_p(exp, p)
        assert m.rref()[0].data == exp and m.rref()[1:] == (exp_rank, exp_pivots)
        assert m.data == data  # the input is left as it was

        free = [j for j in range(cols) if j not in exp_pivots]
        ker = matrix_kernel_basis(m)
        assert (ker.rows, ker.cols) == (cols, len(free))
        for k, j in enumerate(free):
            expected = [0] * cols
            expected[j] = 1
            for i, pc in enumerate(exp_pivots):
                expected[pc] = -exp[i][j] % p
            assert ker.transpose().data[k] == expected

        x0 = Matrix(field, cols, 2, _sparse_rows(rng, field, cols, 2))
        for rhs in (m @ x0, Matrix(field, rows, 2, _sparse_rows(rng, field, rows, 2))):
            aug = [r + s for r, s in zip(data, rhs.data)]
            _, aug_pivots = rref_mod_p(aug, p)
            x = m.solve(rhs)
            if any(pc >= cols for pc in aug_pivots):
                assert x is None
                outcomes.add("unsolvable")
                continue
            expected = [[0] * 2 for _ in range(cols)]
            for i, pc in enumerate(aug_pivots):
                expected[pc] = aug[i][cols:]
            assert x.data == expected
            assert m @ x == rhs
            outcomes.add("solvable")
        outcomes.add("full rank" if exp_rank == min(rows, cols) else "rank deficient")
    assert outcomes == {"solvable", "unsolvable", "full rank", "rank deficient"}


def _as_dict(rng, field, vec: list, zeros: bool) -> dict:
    """vec as a {column: value} dict; with ``zeros`` some zero entries are
    kept as explicit zero values."""
    zero = rng.choice((0, field.zero()))
    return {k: x if x else zero for k, x in enumerate(vec) if x or (zeros and rng.random() < 0.5)}


def _densify(vec: dict, n: int, field) -> list:
    out = [field.zero()] * n
    for k, x in vec.items():
        out[k] = x
    return out


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5], ids=["QQ", "GF2", "GF3", "GF5"])
def test_sparse_step_matches_dense_step_oracle(field):
    """The Gauss-Jordan step on sparse rows against the same step on dense
    rows: rref, rank, pivots, kernel and solve of mostly-zero matrices, and
    the subspace reducer after every insert, with rows given as dense lists,
    as dicts and as dicts that hold explicit zeros."""
    rng = random.Random(1515 + (field.p or 0))
    outcomes = set()
    for rows, cols in _shapes(rng):
        data = _sparse_rows(rng, field, rows, cols)
        m = Matrix(field, rows, cols, [list(r) for r in data])
        red, rank, pivots = m.rref()
        exp = dense_rref(field, data, cols)
        assert (red.data, rank, pivots) == exp and _no_float(red.data)
        ker = dense_kernel_basis(field, data, cols)
        basis, free = matrix_kernel_with_free(m)
        assert (basis.rows, basis.cols, basis.transpose().data) == (cols, len(ker), ker)
        assert free == [j for j in range(cols) if j not in pivots]
        for given in (data, [_as_dict(rng, field, r, False) for r in data], [_as_dict(rng, field, r, True) for r in data]):
            vecs, vfree = kernel_vectors(field, given, cols)
            assert vfree == free and [_densify(v, cols, field) for v in vecs] == ker
            assert all(x != 0 for v in vecs for x in v.values())
        x0 = Matrix(field, cols, 2, _sparse_rows(rng, field, cols, 2))
        for rhs in (m @ x0, Matrix(field, rows, 2, _sparse_rows(rng, field, rows, 2))):
            x, expected = m.solve(rhs), dense_solve(field, data, cols, rhs.data, rhs.cols)
            assert (x if x is None else x.data) == expected
            outcomes.add("unsolvable" if x is None else "solvable")
        outcomes.add("full rank" if rank == min(rows, cols) else "rank deficient")
    assert outcomes == {"solvable", "unsolvable", "full rank", "rank deficient"}

    for _ in range(120):
        dim = rng.randint(0, 9)
        red, oracle = SubspaceReducer(field, dim), DenseStepReducer(field, dim)
        inserted = []
        for _ in range(rng.randint(1, 12)):
            v = _step_vector(rng, field, dim, inserted)
            given = rng.choice((v, _as_dict(rng, field, v, False), _as_dict(rng, field, v, True)))
            grew = red.insert(given)
            assert grew == oracle.insert(v)
            outcomes.add(grew)
            inserted.append(v)
            assert (red.rank, red.complement_indices()) == (oracle.rank, oracle.complement_indices())
            assert red.basis_rows() == oracle.basis_rows()
            for probe in (v, _step_vector(rng, field, dim, inserted), _step_vector(rng, field, dim, [])):
                got = _reduce_dense(field, red, probe)
                assert got == (oracle.reduce(probe), oracle.coords_in_complement(probe), oracle.contains(probe))
                assert _no_float(got[:2])
    assert {True, False} <= outcomes


def _check_stored(m: Matrix):
    """m stores {column: value} rows in range that hold no zero, each value
    a field element in its one stored form."""
    assert len(m.entries) == m.rows
    for row in m.entries:
        assert type(row) is dict
        for k, x in row.items():
            assert 0 <= k < m.cols and x != 0 and is_field_element(m.field, x)


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5], ids=["QQ", "GF2", "GF3", "GF5"])
def test_sparse_matrix_matches_dense_matrix_oracle(field):
    """Every Matrix operation, and the sum, scaling and kernel that
    `tests/oracles.py` keeps for Matrix, on sparse rows against the dense
    matrix, on mostly-zero matrices: the same dense view, no stored zero
    (also where sums and products cancel and for scale(0)), one entry type,
    inputs left as they were, and a dense view that is new on each read."""
    p = field.p
    rng = random.Random(1818 + (p or 0))
    zero, one = field.zero(), field.one()
    scalars = [zero, one, field.neg(one), rng.randrange(1, p) if p else Fraction(-7, 3)]
    if p is not None:
        scalars.append(p)  # zero in the field
    outcomes = set()

    def both(data, rows, cols):
        return Matrix(field, rows, cols, [list(r) for r in data]), DenseMatrix(field, rows, cols, [list(r) for r in data])

    for rows, cols in _shapes(rng):
        inner = rng.randint(0, 9)
        a, b = _sparse_rows(rng, field, rows, cols), _sparse_rows(rng, field, rows, cols)
        c = _sparse_rows(rng, field, cols, inner)
        neg_a = [[field.neg(x) for x in row] for row in a]
        (ma, da), (mb, db), (mc, dc), (mn, dn) = both(a, rows, cols), both(b, rows, cols), both(c, cols, inner), both(neg_a, rows, cols)
        (mw, dw), (mt, dt) = both([r + r for r in a], rows, 2 * cols), both(c + [[field.neg(x) for x in r] for r in c], 2 * cols, inner)
        stored = [[dict(r) for r in m.entries] for m in (ma, mb, mc, mn, mw, mt)]
        pairs = [(matrix_add(ma, mb), da + db), (matrix_add(ma, mn), da + dn), (ma @ mc, da @ dc), (mw @ mt, dw @ dt), (ma.transpose(), da.transpose())]
        # a left factor with empty rows: every other row of a is zero
        holes = [row if i % 2 else [zero] * cols for i, row in enumerate(a)]
        mh, dh = both(holes, rows, cols)
        pairs += [(mh @ mc, dh @ dc), (Matrix.from_entries(field, rows, inner, [mc.row_times(r) for r in mh.entries]), dh @ dc)]
        pairs += [(matrix_scale(ma, s), da.scale(s)) for s in scalars]
        pairs += [(matrix_kernel_with_free(ma)[0], da.kernel_with_free()[0])]
        x0 = Matrix(field, cols, 2, _sparse_rows(rng, field, cols, 2))
        for rhs in (ma @ x0, Matrix(field, rows, 2, _sparse_rows(rng, field, rows, 2))):
            x, dx = ma.solve(rhs), da.solve(DenseMatrix(field, rows, 2, rhs.data))
            assert (x is None) == (dx is None)
            outcomes.add("unsolvable" if x is None else "solvable")
            if x is not None:
                pairs.append((x, dx))
        for got, want in pairs:
            _check_stored(got)
            assert (got.rows, got.cols, got.data) == (want.rows, want.cols, want.data)
            outcomes.add("zero" if got.is_zero() else "nonzero")
        assert matrix_add(ma, mn).is_zero() and (mw @ mt).is_zero() and matrix_scale(ma, zero).is_zero()
        assert matrix_kernel_with_free(ma)[1] == da.kernel_with_free()[1]
        # the kernel entry at pivot column pc is the field negative of the
        # reduced entry of that row at the free column
        red, _, pivots = ma.rref()
        ker, free = matrix_kernel_with_free(ma)
        for row, pc in zip(red.entries, pivots):
            assert ker.entries[pc] == {k: field.neg(row[j]) for k, j in enumerate(free) if j in row}
        assert ma.rank() == da.rank()
        for vec in ([zero] * cols, _sparse_rows(rng, field, 1, cols)[0] if cols else []):
            # M times a column vector is the row vector times the transpose of M
            out = ma.transpose().row_times(_stored(field, vec))
            _check_stored(Matrix.from_entries(field, 1, rows, [out]))
            assert _densify(out, rows, field) == da.apply(vec)
        for other, dother in ((mb, db), (ma, da), (Matrix(field, rows, cols, a), da)):
            assert (ma == other) == (da == dother)
        assert [m.data for m in (ma, mb, mc, mn, mw, mt)] == [a, b, c, neg_a, [r + r for r in a], c + [[field.neg(x) for x in r] for r in c]]
        assert [m.entries for m in (ma, mb, mc, mn, mw, mt)] == stored  # the inputs are left as they were
        view = ma.data
        assert view == ma.data and view is not ma.data
        assert all(r is not s for r, s in zip(view, ma.data))
        if rows and cols:
            view[0][0] = one if not view[0][0] else zero
            assert ma.data == a  # a write into the view is lost
    assert outcomes == {"solvable", "unsolvable", "zero", "nonzero"}


@pytest.mark.parametrize("field", [QQ, GF2, GF5], ids=["QQ", "GF2", "GF5"])
def test_dense_rows_are_stored_as_field_elements(field):
    """Dense rows given with ints over Q, or with ints outside [0, p) over
    GF(p), are stored as the field's entries, zeros dropped."""
    p = field.p
    raw = [[0, 3, -2, 0], [5, 0, 0, 10], [0, 0, 0, 0]]
    m = Matrix(field, 3, 4, raw)
    _check_stored(m)
    assert m.data == [[field.from_int(x) for x in row] for row in raw]
    assert m == Matrix.from_rows(field, raw) == matrix_from_columns(field, [list(c) for c in zip(*raw)])
    if p == 5:
        assert m.entries[1] == {}  # 5 and 10 vanish in GF(5)
