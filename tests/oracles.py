"""Independent oracles used to freeze expected values.

These deliberately avoid the production code paths they certify: the tensor
oracle builds the relator quotient with raw loops, the cosyzygy oracle
computes injective dimension from explicit socles and injective envelopes
instead of the duality route, the normal-path oracle lists every path level
by level with a suffix scan instead of counting on the lead automaton, the
rref oracle eliminates on Fraction rows instead of primitive integer rows,
the GF(p) rref oracle eliminates column by column on the whole matrix
instead of inserting one row at a time, the dense-step oracle runs the
Gauss-Jordan step on dense rows instead of sparse ones, the dense-matrix
oracle keeps every entry of a matrix in row-major lists instead of storing
the nonzero entries of each row, the
subspace-reducer oracle keeps rows of field elements with pivot 1 instead
of primitive integer rows over Q,
the cover oracles take one product of arrow matrices per basis path instead
of propagating columns along arrows, the projective-sum oracle multiplies
every basis path by every arrow instead of copying cached blocks, the
subrepresentation oracle solves for coordinates instead of reading them at
the echelon pivots, the kernel oracle re-echelonizes the kernel basis
through a subspace reducer instead of reading coordinates at its free rows,
the kernel-product oracle multiplies the assembled cover by the kernel
basis matrix instead of applying the cached projectives to kernel vectors,
the summand oracle splits along an explicit idempotent f h^-1 g instead of
taking ker g, the projectivity oracle tests the rank of the cover map
instead of comparing dimensions only, the Ext^2 oracle counts summands of
minimal resolutions instead of reducing rules modulo rad*I + I*rad, the
Hom oracle writes the intertwining system N_a f_u = f_w M_a with its own row
loops instead of the balanced relations shared with the tensor product, the
minimal-relations oracle completes kQ/K for monomial algebras too instead of
keeping every monomial rule, the Gorenstein oracle resolves D(A) whole
instead of its indecomposable summands one by one, the Tor oracle takes the
homology of X tensored with a minimal resolution of Y, through composed
differentials, instead of counting Hom dimensions by dimension shifting,
the socle-layer oracle takes the radical layers of the dual over the
completed opposite algebra instead of reading the transposed matrices on the
reversed arrows, the product-algebra oracle completes the presentation of
A (x) B^op instead of assembling its rules from those of A and B^op, the
combination oracle sums scaled copies of whole matrices instead of
accumulating each row in one pass, the ends-first isomorphism oracle
computes End(M) and End(N) on every call instead of only when Hom(M, N)
shows no isomorphism, the bounded-pd oracle resolves all bound + 1 steps
instead of stopping at a simple summand of infinite projective dimension,
the simple-summand oracle scans basis pairs of Hom(S_u, K) and Hom(K, S_u)
instead of testing socle vectors against the radical, the corner oracle
computes the Loewy length of eAe apart and eliminates the evaluation of each
vertex pair anew at every degree instead of reading both off one enumeration
of the corner words and one kernel per vertex pair, the validation oracle
sums the scaled matrices of the paths of each relation instead of pushing
basis vectors through the arrow transposes, and the
restriction,
tensor, quotient and bimodule oracles fill their arrow matrices with their
own loops and closures instead of through one action builder and one reader
of product coordinates.

`compose_after`, `hom_from_projective` and `stable_isomorphic` are library
routines that the engine no longer calls; they live on here, where the
summand and Tor oracles use them and their tests keep checking them.  So
does `matrix_from_columns`, the dense column constructor that `Matrix` no
longer has; the column read-outs are `m.transpose().data`.  So do
`matrix_add`, `matrix_scale`, `matrix_kernel_with_free` and
`matrix_kernel_basis`, the sum, scaling and kernel columns that `Matrix`
no longer has, and `path_action`, the product of the arrow matrices along
a path, which the validation and cover oracles use.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from qred.algebra import (
    ConsistencyError,
    CornerStructure,
    DimensionNotResolved,
    Path,
    Presentation,
    Quiver,
    _complete,
    _loewy_length,
    complete,
    compose,
    corner_basis,
    tensor_with_opposite,
    trivial_path,
    word_key,
)
from qred.linalg import Matrix, SubspaceReducer, kernel_vectors, stored_row
from qred.modules import (
    IsoResult,
    Rep,
    RepMap,
    Restriction,
    TensorFunctor,
    TensorResult,
    TensorSpace,
    _ISO_TRIES,
    _balanced_relations,
    _invariant_battery,
    _invertible,
    _map_columns,
    action_rep,
    arrow_paths,
    dual,
    hom_basis,
    identity_map,
    injective,
    is_isomorphic,
    kernel_subrep,
    minimal_resolution,
    pd_bounded,
    projective,
    projective_cover,
    quotient_rep,
    radical_layer_dims,
    radical_reducers,
    regular_rep,
    simple,
    split_projective_summands,
    sub_rep,
    top_dims,
    validate_rep,
)
from qred.parser import written_arrow_names


def brute_tensor_dim(X: Rep, middle, Y: Rep) -> int:
    """dim of X (x)_C Y for a plain right module X over C^op and left Y over C."""
    f = middle.field
    nC = middle.quiver.n_vertices
    # ambient coordinates (w, i, j)
    coords = []
    for w in range(nC):
        for i in range(X.dims[w]):
            for j in range(Y.dims[w]):
                coords.append((w, i, j))
    index = {c: k for k, c in enumerate(coords)}
    red = SubspaceReducer(f, len(coords))
    for a in range(middle.quiver.n_arrows):
        s, t = middle.quiver.a_src[a], middle.quiver.a_tgt[a]
        # right action of the arrow on X is the matrix of the opposite arrow
        Rc = X.mats[a].data  # X_t -> X_s
        Lc = Y.mats[a].data  # Y_s -> Y_t
        for i in range(X.dims[t]):
            for j in range(Y.dims[s]):
                vec = [f.zero()] * len(coords)
                for k in range(len(Rc)):
                    c = Rc[k][i]
                    if c != 0:
                        vec[index[(s, k, j)]] = f.add(vec[index[(s, k, j)]], c)
                for l in range(len(Lc)):
                    c = Lc[l][j]
                    if c != 0:
                        vec[index[(t, i, l)]] = f.sub(vec[index[(t, i, l)]], c)
                red.insert(vec)
    return len(coords) - red.rank


def socle_reducers(M: Rep) -> list[SubspaceReducer]:
    """Per-vertex bases of soc M = joint kernel of all arrow actions."""
    A = M.algebra
    q = A.quiver
    f = A.field
    out = []
    for u in range(q.n_vertices):
        rows = []
        for a in q.arrows_from[u]:
            rows.extend(M.mats[a].data)
        if rows:
            ker = matrix_kernel_basis(Matrix.from_rows(f, rows))
            vecs = ker.transpose().data
        else:
            vecs = [
                [f.one() if k == i else f.zero() for k in range(M.dims[u])]
                for i in range(M.dims[u])
            ]
        out.append(SubspaceReducer(f, M.dims[u], vecs))
    return out


def injective_envelope(M: Rep):
    """(E, embedding) with E the direct sum of indecomposable injectives
    matching the socle of M."""
    A = M.algebra
    op = A.opposite()
    f = A.field
    q = A.quiver
    soc = socle_reducers(M)
    summands = []  # (vertex v, functional row on M_v)
    for v in range(q.n_vertices):
        soc_vecs = soc[v].basis_rows()
        if not soc_vecs:
            continue
        # complete the socle basis to a basis of M_v and dualize the socle part
        others = SubspaceReducer(f, M.dims[v], soc_vecs)
        comp = others.complement_indices()
        cols = [list(vec) for vec in soc_vecs]
        for idx in comp:
            e = [f.one() if k == idx else f.zero() for k in range(M.dims[v])]
            cols.append(e)
        B = matrix_from_columns(f, cols, nrows=M.dims[v])
        Binv = B.solve(Matrix.identity(f, M.dims[v])).data
        for i in range(len(soc_vecs)):
            summands.append((v, Binv[i]))
    if not summands:
        # zero module: envelope is zero
        from qred.modules import zero_rep, identity_map

        Z = zero_rep(A)
        return Z, RepMap(M, Z, [Matrix.zero(f, 0, M.dims[u]) for u in range(q.n_vertices)])
    injectives = [injective(A, v) for v, _ in summands]
    from qred.modules import rep_direct_sum

    E, incls = rep_direct_sum(injectives)
    mats = [Matrix.zero(f, E.dims[u], M.dims[u]) for u in range(q.n_vertices)]
    for k, (v, xi) in enumerate(summands):
        # phi(m)(p) = xi(rho(p) m) for paths p: u -> v, indexed as in I_v
        Iv = injectives[k]
        for u in range(q.n_vertices):
            rows = []
            for qpath in op.paths_from(v):
                if qpath.target != u:
                    continue
                apath = Path(u, v, tuple(reversed(qpath.arrows)))
                act = path_action(M, apath)  # M_u -> M_v
                rows.append([sum_entries(f, xi, col) for col in act.transpose().data])
            block = (
                Matrix.from_rows(f, rows) if rows else Matrix.zero(f, 0, M.dims[u])
            )
            emb = incls[k].mats[u] @ block
            mats[u] = matrix_add(mats[u], emb)
    phi = RepMap(M, E, mats)
    return E, phi


def sum_entries(f, xi, col):
    s = f.zero()
    for a, b in zip(xi, col):
        if a != 0 and b != 0:
            s = f.add(s, f.mul(a, b))
    return s


def injective_dimension_direct(M: Rep, bound: int):
    """id(M) by iterated cosyzygies, or None when unresolved within bound."""
    current = M
    for d in range(bound + 1):
        if current.is_zero():
            return d - 1 if d > 0 else 0
        E, phi = injective_envelope(current)
        assert not validate_rep(E)
        # embedding must be injective
        for u in range(len(current.dims)):
            assert phi.mats[u].rank() == current.dims[u], "envelope map not injective"
        vecs = [phi.mats[u].transpose().data for u in range(len(current.dims))]
        coker, _ = quotient_rep(E, vecs)
        current = coker
    if current.is_zero():
        return bound
    return None


def enumerate_basis_by_suffix_scan(quiver, rules, degree_bound: int, count_cap: int = 200000):
    """Normal paths by listing each level and rejecting a path whose suffix is
    a rule lead; raises DimensionNotResolved exactly as ``complete`` does."""
    by_last: dict[int, list[tuple[int, ...]]] = {}
    for lead, _ in rules:
        by_last.setdefault(lead.arrows[-1], []).append(lead.arrows)
    levels = [[trivial_path(v) for v in range(quiver.n_vertices)]]
    total = quiver.n_vertices
    for ell in range(1, max(degree_bound, 1) + 1):
        nxt = []
        for w in levels[-1]:
            for a in quiver.arrows_from[w.target]:
                cand = w.arrows + (a,)
                ok = True
                for la in by_last.get(a, ()):
                    t = len(la)
                    if t <= len(cand) and cand[len(cand) - t :] == la:
                        ok = False
                        break
                if ok:
                    nxt.append(Path(w.source, quiver.a_tgt[a], cand))
        if not nxt:
            basis = [p for level in levels for p in sorted(level, key=word_key)]
            return basis
        nxt.sort(key=word_key)
        total += len(nxt)
        if total > count_cap:
            raise DimensionNotResolved(
                f"dimension not resolved within bound: {total} irreducible paths and growing"
            )
        levels.append(nxt)
    raise DimensionNotResolved(
        f"dimension not resolved within bound {degree_bound}: irreducible paths persist"
    )


def rref_by_fractions(rows: list[list]) -> tuple[list[list], int, list[int]]:
    """Gauss-Jordan over Q on Fraction rows: (reduced rows, rank, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        row = m[r]
        piv = row[c]
        if piv != 1:
            inv = Fraction(1) / piv
            m[r] = row = [x * inv for x in row]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, r, pivots


def rref_mod_p(m: list[list], p: int) -> tuple[int, list[int]]:
    """Gauss-Jordan over GF(p), column by column on the whole matrix: reduces
    ``m`` in place and returns (rank, pivot columns)."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        row = m[r]
        piv = row[c]
        if piv != 1:
            inv = pow(piv, p - 2, p)
            m[r] = row = [x * inv % p for x in row]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if f != 0:
                mi = m[i]
                m[i] = [(a - f * b) % p for a, b in zip(mi, row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


class FieldSubspaceReducer:
    """Incremental reduced-echelon basis of a subspace of k^n, kept as dense
    rows of field elements (Fractions over Q) normalized to pivot 1.  Vectors
    are dense lists or {column: value} dicts, which are filled in densely."""

    def __init__(self, field, dim: int, vectors=None):
        self.field = field
        self.dim = dim
        self.rows: dict[int, list] = {}  # pivot index -> reduced row
        if vectors is not None:
            for v in vectors:
                self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _dense(self, vec) -> list:
        if not isinstance(vec, dict):
            return list(vec)
        v = [self.field.zero()] * self.dim
        for k, x in vec.items():
            v[k] = x
        return v

    def reduce(self, vec) -> list:
        f = self.field
        p = f.p
        v = self._dense(vec)
        for j in sorted(self.rows):
            c = v[j]
            if c:
                row = self.rows[j]
                if p is None:
                    v = [a - c * b if b else a for a, b in zip(v, row)]
                else:
                    v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def insert(self, vec) -> bool:
        """Add vec to the span; True if the rank grew."""
        f = self.field
        p = f.p
        v = self.reduce(vec)
        piv = None
        for j, c in enumerate(v):
            if c:
                piv = j
                break
        if piv is None:
            return False
        c = v[piv]
        if c != f.one():
            inv = f.inv(c)
            if p is None:
                v = [x * inv if x else x for x in v]
            else:
                v = [x * inv % p for x in v]
        # keep existing rows reduced against the new one
        for j, row in self.rows.items():
            c = row[piv]
            if c:
                if p is None:
                    self.rows[j] = [a - c * b if b else a for a, b in zip(row, v)]
                else:
                    self.rows[j] = [(a - c * b) % p for a, b in zip(row, v)]
        self.rows[piv] = v
        return True

    def complement_indices(self) -> list[int]:
        pivs = self.rows
        return [j for j in range(self.dim) if j not in pivs]

    def coords_in_complement(self, vec: list) -> list:
        """Coordinates of vec + span in the complement basis."""
        v = self.reduce(vec)
        return [v[j] for j in self.complement_indices()]

    def basis_rows(self) -> list[list]:
        return [self.rows[j] for j in sorted(self.rows)]


def dense_primitive_row(row: list) -> list[int]:
    """The integer row with coprime entries on the same line as a rational row."""
    nz = [(k, x.numerator, x.denominator) for k, x in enumerate(row) if x]
    den = lcm(*(d for _, _, d in nz))
    vals = [n * (den // d) for _, n, d in nz]
    g = gcd(*vals)
    ints = [0] * len(row)
    for (k, _, _), x in zip(nz, vals):
        ints[k] = x // g
    return ints


def dense_combine(u: list, row: list, j: int, p: int | None) -> list:
    """u minus the multiple of the reduced row ``row`` (pivot at j) that clears u[j]."""
    c = u[j]
    if p is not None:
        return [(a - c * b) % p for a, b in zip(u, row)]
    g = gcd(row[j], c)
    a, b = row[j] // g, c // g
    new = [a * x - b * y for x, y in zip(u, row)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


def dense_insert_row(rows: dict[int, list], v: list, p: int | None) -> bool:
    """The Gauss-Jordan step on dense rows: primitive integer rows over Q,
    rows with pivot 1 over GF(p)."""
    for j, row in rows.items():
        if v[j]:
            v = dense_combine(v, row, j, p)
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
            rows[j] = dense_combine(row, v, piv, p)
    rows[piv] = v
    return True


def _dense_read_rows(rows: dict[int, list], p: int | None) -> list[list]:
    ordered = sorted(rows.items())
    if p is not None:
        return [r for _, r in ordered]
    return [[Fraction(x, r[j]) if x else Fraction(0) for x in r] for j, r in ordered]


def _dense_fresh(row: list, p: int | None) -> list:
    return list(row) if p is not None else dense_primitive_row(row)


def dense_rref(field, data: list[list], ncols: int) -> tuple[list[list], int, list[int]]:
    """(reduced rows padded with zero rows, rank, pivots) by the dense step."""
    rows: dict[int, list] = {}
    for row in data:
        dense_insert_row(rows, _dense_fresh(row, field.p), field.p)
    out = _dense_read_rows(rows, field.p)
    out += [[field.zero()] * ncols for _ in range(len(data) - len(out))]
    return out, len(rows), sorted(rows)


def dense_kernel_basis(field, data: list[list], ncols: int) -> list[list]:
    """Kernel columns read off the dense rref: 1 at the free column j and the
    negated reduced entries of column j at the pivots."""
    red, rank, pivots = dense_rref(field, data, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    cols = []
    for j in free:
        col = [field.zero()] * ncols
        col[j] = field.one()
        for row, pc in zip(red, pivots):
            if row[j]:
                col[pc] = field.neg(row[j])
        cols.append(col)
    return cols


def dense_solve(field, data: list[list], ncols: int, rhs: list[list], width: int) -> list[list] | None:
    """Some x with data @ x = rhs (free variables zero), or None, by the dense
    step; rhs has ``width`` columns."""
    red, _, pivots = dense_rref(field, [r + s for r, s in zip(data, rhs)], ncols + width)
    if pivots and pivots[-1] >= ncols:
        return None
    x = [[field.zero()] * width for _ in range(ncols)]
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols:]
    return x


class DenseStepReducer:
    """The subspace reducer on dense rows, by the dense Gauss-Jordan step."""

    def __init__(self, field, dim: int):
        self.field = field
        self.dim = dim
        self.rows: dict[int, list] = {}

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
        return dense_insert_row(self.rows, _dense_fresh(vec, self.field.p), self.field.p)

    def complement_indices(self) -> list[int]:
        return [j for j in range(self.dim) if j not in self.rows]

    def coords_in_complement(self, vec: list) -> list:
        v = self.reduce(vec)
        return [v[j] for j in self.complement_indices()]

    def basis_rows(self) -> list[list]:
        return _dense_read_rows(self.rows, self.field.p)


class DenseMatrix:
    """The dense matrix that sparse rows replaced: row-major lists of field
    elements, each operation visiting every entry.  Rank, kernel and solve
    come from the dense Gauss-Jordan step above."""

    def __init__(self, field, rows: int, cols: int, data: list[list]):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    def __eq__(self, other):
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        f = self.field
        data = [[f.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        return DenseMatrix(f, self.rows, self.cols, data)

    def scale(self, c) -> "DenseMatrix":
        f = self.field
        return DenseMatrix(f, self.rows, self.cols, [[f.mul(c, x) for x in row] for row in self.data])

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        p = self.field.p
        zero = self.field.zero()
        data = []
        for srow in self.data:
            acc = [zero] * other.cols
            for k, a in enumerate(srow):
                if a:
                    for j, b in enumerate(other.data[k]):
                        acc[j] += a * b
            data.append(acc if p is None else [x % p for x in acc])
        return DenseMatrix(self.field, self.rows, other.cols, data)

    def apply(self, vec: list) -> list:
        f = self.field
        out = []
        for row in self.data:
            s = f.zero()
            for a, b in zip(row, vec):
                s = f.add(s, f.mul(a, b))
            out.append(s)
        return out

    def transpose(self) -> "DenseMatrix":
        data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return DenseMatrix(self.field, self.cols, self.rows, data)

    def rank(self) -> int:
        return dense_rref(self.field, self.data, self.cols)[1]

    def kernel_with_free(self) -> tuple["DenseMatrix", list[int]]:
        pivots = dense_rref(self.field, self.data, self.cols)[2]
        free = [j for j in range(self.cols) if j not in pivots]
        ker = dense_kernel_basis(self.field, self.data, self.cols)
        data = [[col[i] for col in ker] for i in range(self.cols)]
        return DenseMatrix(self.field, self.cols, len(free), data), free

    def solve(self, rhs: "DenseMatrix") -> "DenseMatrix | None":
        x = dense_solve(self.field, self.data, self.cols, rhs.data, rhs.cols)
        return None if x is None else DenseMatrix(self.field, self.cols, rhs.cols, x)


def matrix_from_columns(field, cols: list[list], nrows: int | None = None) -> Matrix:
    """The matrix with the given dense columns; nrows is needed when there
    are none."""
    if not cols:
        if nrows is None:
            raise ValueError("need nrows for an empty column list")
        return Matrix(field, nrows, 0)
    return Matrix(field, len(cols[0]), len(cols), list(zip(*cols)))


def matrix_add(a: Matrix, b: Matrix) -> Matrix:
    """a + b, row by row: the sum that `Matrix` no longer has."""
    out = []
    for ra, rb in zip(a.entries, b.entries):
        acc = dict(ra)
        for k, y in rb.items():
            acc[k] = acc.get(k, 0) + y
        out.append(stored_row(acc.items(), a.field.p))
    return Matrix.from_entries(a.field, a.rows, a.cols, out)


def matrix_scale(m: Matrix, c) -> Matrix:
    """c m: the scaling that `Matrix` no longer has."""
    p = m.field.p
    out = [stored_row(((k, c * x) for k, x in row.items()), p) for row in m.entries]
    return Matrix.from_entries(m.field, m.rows, m.cols, out)


def matrix_kernel_with_free(m: Matrix) -> tuple[Matrix, list[int]]:
    """The columns spanning the right null space of m, and their free
    column indices, from one elimination.

    The column for free variable j has a 1 in position j and the negated
    reduced coefficients in the pivot positions; columns are ordered by free
    column index, so the rows at the free positions form the identity.
    """
    vecs, free = kernel_vectors(m.field, m.entries, m.cols)
    out: list[dict] = [{} for _ in range(m.cols)]
    for k, vec in enumerate(vecs):
        for i, x in vec.items():
            out[i][k] = x
    return Matrix.from_entries(m.field, m.cols, len(free), out), free


def matrix_kernel_basis(m: Matrix) -> Matrix:
    """The kernel columns of `matrix_kernel_with_free`."""
    return matrix_kernel_with_free(m)[0]


def path_action(M: Rep, p: Path) -> Matrix:
    """The matrix M_p: M_source -> M_target, a product of arrow matrices."""
    out = Matrix.identity(M.algebra.field, M.dims[p.source])
    for a in p.arrows:
        out = M.mats[a] @ out
    return out


def validate_rep_by_path_action(M: Rep) -> list[str]:
    """The problems of `validate_rep`, each relation sum c p summed as the
    matrices c M_p, with one `matrix_scale` and one `matrix_add` per term."""
    problems = []
    A = M.algebra
    q = A.quiver
    for a in range(q.n_arrows):
        m = M.mats[a]
        if (m.rows, m.cols) != (M.dims[q.a_tgt[a]], M.dims[q.a_src[a]]):
            problems.append(f"arrow {q.arrow_name(a)}: matrix shape mismatch")
    if problems:
        return problems
    for ri, rel in enumerate(A.presentation.relations):
        src, tgt = rel[0][0].source, rel[0][0].target
        acc = Matrix.zero(A.field, M.dims[tgt], M.dims[src])
        for p, c in rel:
            acc = matrix_add(acc, matrix_scale(path_action(M, p), c))
        if not acc.is_zero():
            problems.append(f"relation {ri} does not vanish on the representation")
    return problems


def _columns_by_path_action(M: Rep, basis, images) -> list[Matrix]:
    """Per vertex, the matrix whose column for the basis path (j, p) is
    path_action(M, p) applied to images[j]."""
    f = M.algebra.field
    mats = []
    for u, paths in enumerate(basis):
        data = [[f.zero()] * len(paths) for _ in range(M.dims[u])]
        for col, (j, p) in enumerate(paths):
            act = path_action(M, p).data
            for i in range(M.dims[u]):
                data[i][col] = sum_entries(f, act[i], images[j])
        mats.append(Matrix(f, M.dims[u], len(paths), data))
    return mats


def projective_cover_by_path_action(M: Rep):
    """(summand vertices, basis, matrices of pi) of the minimal projective cover.

    One summand per basis vector of M_u outside the echelon pivots of rad M;
    the basis of the sum lists, per vertex, (summand, path) by summand and then
    in paths_from order.
    """
    A = M.algebra
    f = A.field
    n = A.quiver.n_vertices
    red = radical_reducers(M)
    gens = [(u, idx) for u in range(n) for idx in red[u].complement_indices()]
    basis = [
        [(j, p) for j, (v, _) in enumerate(gens) for p in A.paths_from(v) if p.target == u]
        for u in range(n)
    ]
    images = [[f.one() if k == idx else f.zero() for k in range(M.dims[v])] for v, idx in gens]
    return [v for v, _ in gens], basis, _columns_by_path_action(M, basis, images)


def projective_sum_by_products(A, vertices: list[int]) -> list[Matrix]:
    """The arrow matrices of the sum of the P_v, v in vertices, in the basis
    of projective_cover_by_path_action: the column of a basis path p of
    summand j under an arrow a is the normal form of p a, multiplied out in
    the algebra."""
    q = A.quiver
    basis = [
        [(j, p) for j, v in enumerate(vertices) for p in A.paths_from(v) if p.target == u]
        for u in range(q.n_vertices)
    ]
    index = [{key: i for i, key in enumerate(b)} for b in basis]
    mats = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        data = [[A.field.zero()] * len(basis[src]) for _ in basis[tgt]]
        for col, (j, p) in enumerate(basis[src]):
            for w, c in A.mul_paths(p, Path(src, tgt, (a,))).items():
                data[index[tgt][(j, w)]][col] = c
        mats.append(Matrix(A.field, len(basis[tgt]), len(basis[src]), data))
    return mats


def linear_combination_by_scale_and_add(maps: list[RepMap], coeffs) -> RepMap:
    """The map sum c g as one `matrix_scale` and one `matrix_add` per
    nonzero term, each copying the accumulator."""
    base = maps[0]
    f = base.source.algebra.field
    out = []
    for u, m in enumerate(base.mats):
        acc = Matrix.zero(f, m.rows, m.cols)
        for g, c in zip(maps, coeffs):
            if c:
                acc = matrix_add(acc, matrix_scale(g.mats[u], c))
        out.append(acc)
    return RepMap(base.source, base.target, out)


def is_isomorphic_ends_first(M: Rep, N: Rep, rng=None) -> IsoResult:
    """`is_isomorphic` as it was when it computed End(M) and End(N) before
    Hom(M, N), whatever the answer."""
    rng = rng or random.Random(0)
    invM = _invariant_battery(M)
    invN = invM if N is M else _invariant_battery(N)
    for (name, a), (_, b) in zip(invM, invN):
        if a != b:
            return IsoResult("no", invariant=name)
    endM = hom_basis(M, M)
    endN = endM if N is M else hom_basis(N, N)
    if len(endM) != len(endN):
        return IsoResult("no", invariant="dim End")
    if M.total_dim == 0:
        return IsoResult("yes", witness=identity_map(M))
    homs = endM if N is M else hom_basis(M, N)
    d = len(homs)
    if d == 0:
        return IsoResult("no", invariant="Hom space is zero")
    if d == 1:
        if _invertible(homs[0]):
            return IsoResult("yes", witness=homs[0])
        return IsoResult("no", invariant="one-dimensional Hom space has no invertible element")
    f = M.algebra.field
    p = f.p
    if p is not None and p**d <= 2**20:
        for combo in itertools.product(range(p), repeat=d):
            if all(c == 0 for c in combo):
                continue
            cand = linear_combination_by_scale_and_add(homs, [f.from_int(c) for c in combo])
            if _invertible(cand):
                return IsoResult("yes", witness=cand)
        return IsoResult("no", invariant="exhausted Hom space")
    for attempt in range(_ISO_TRIES):
        if p is None:
            B = 1 + attempt // 4
            coeffs = [f.from_int(rng.randint(-B, B)) for _ in range(d)]
        else:
            coeffs = [f.from_int(rng.randrange(p)) for _ in range(d)]
        if all(c == 0 for c in coeffs):
            continue
        cand = linear_combination_by_scale_and_add(homs, coeffs)
        if _invertible(cand):
            return IsoResult("yes", witness=cand)
    return IsoResult("inconclusive")


def compose_after(g: RepMap, f: RepMap) -> RepMap:
    """g o f (apply f first)."""
    return RepMap(f.source, g.target, [a @ b for a, b in zip(g.mats, f.mats)])


def hom_from_projective(A, v: int, M: Rep) -> list[RepMap]:
    """Basis of Hom(P_v, M) via Hom(Ae_v, M) = e_v M; no linear solve."""
    P = projective(A, v)[0]
    maps = [_map_columns(M, [(v, {t: A.field.one()})])[2] for t in range(M.dims[v])]
    return [RepMap(P, M, [m.transpose() for m in transposes]) for transposes in maps]


def stable_isomorphic(M: Rep, N: Rep, rng=None) -> IsoResult:
    """Isomorphism in the projectively stable category."""
    coreM, _ = split_projective_summands(M)
    coreN, _ = split_projective_summands(N)
    return is_isomorphic(coreM, coreN, rng)


def hom_from_projective_by_path_action(A, v: int, M: Rep) -> list[list[Matrix]]:
    """The matrices of the basis of Hom(P_v, M) dual to the standard basis of M_v."""
    f = A.field
    _, basis = projective(A, v)
    return [
        _columns_by_path_action(
            M, basis, [[f.one() if k == t else f.zero() for k in range(M.dims[v])]]
        )
        for t in range(M.dims[v])
    ]


def sub_rep_by_solve(M: Rep, vectors_per_vertex):
    """(dims, arrow matrices, inclusion matrices) of the span of the vectors,
    each arrow matrix solved from basis @ X = arrow @ basis; raises
    ValueError when the span is not stable."""
    f = M.algebra.field
    q = M.algebra.quiver
    bases = [
        matrix_from_columns(
            f, SubspaceReducer(f, M.dims[u], vectors_per_vertex[u]).basis_rows(), nrows=M.dims[u]
        )
        for u in range(q.n_vertices)
    ]
    mats = []
    for a in range(q.n_arrows):
        coords = bases[q.a_tgt[a]].solve(M.mats[a] @ bases[q.a_src[a]])
        if coords is None:
            raise ValueError("span is not stable under the arrow actions")
        mats.append(coords)
    return [b.cols for b in bases], mats, bases


def kernel_subrep_by_products(f_map: RepMap):
    """(rep, inclusion) of the kernel of f_map in the basis of matrix_kernel_basis,
    each arrow read off the free rows of the product M_a K_u of matrices;
    raises ValueError when f_w M_a K_u is not zero."""
    M = f_map.source
    q = M.algebra.quiver
    bases, free = zip(*(matrix_kernel_with_free(m) for m in f_map.mats))
    mats = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        image = M.mats[a] @ bases[src]
        if not (f_map.mats[tgt] @ image).is_zero():
            raise ValueError("span is not stable under the arrow actions")
        rows = [image.entries[j] for j in free[tgt]]
        mats.append(Matrix.from_entries(M.algebra.field, bases[tgt].cols, bases[src].cols, rows))
    S = Rep(M.algebra, [K.cols for K in bases], mats)
    return S, RepMap(S, M, list(bases))


def kernel_subrep_by_reducer(f_map: RepMap):
    """(rep, inclusion) of the kernel of f_map as the span of its matrix_kernel_basis
    columns, in the reduced echelon basis of sub_rep; raises ValueError when
    the kernel is not stable."""
    return sub_rep(f_map.source, [matrix_kernel_basis(m).transpose().data for m in f_map.mats])


def split_projective_summands_by_inverse(M: Rep):
    """(core, stripped vertex names): P_v splits off along the idempotent
    f h^-1 g for the first pair f: P_v -> M, g: M -> P_v whose composite h
    has a nonzero coefficient at e_v, inverting h vertex by vertex."""
    A = M.algebra
    q = A.quiver
    f = A.field
    stripped = []
    current = M
    while True:
        for v in range(q.n_vertices):
            if current.dims[v] == 0:
                continue
            P = projective(A, v)[0]
            homs_mp = hom_basis(current, P)
            pair = next(
                (
                    (fm, gm)
                    for fm in hom_from_projective(A, v, current)
                    for gm in homs_mp
                    if compose_after(gm, fm).mats[v].data[0][0] != 0
                ),
                None,
            )
            if pair is not None:
                break
        else:
            return current, stripped
        fm, gm = pair
        h = compose_after(gm, fm)
        hinv = RepMap(P, P, [m.solve(Matrix.identity(f, m.rows)) for m in h.mats])
        current, _ = kernel_subrep(compose_after(fm, compose_after(hinv, gm)))
        stripped.append(q.vertices[v])


def socle_layer_dims_by_dual(M: Rep) -> list[tuple[int, ...]]:
    """Socle layers of M as the radical layers of its dual DM, a Rep over the
    completed opposite algebra."""
    return radical_layer_dims(dual(M))


def is_projective_by_rank(M: Rep) -> bool:
    """M is projective when its minimal cover has dim M and full rank."""
    if M.is_zero():
        return True
    P, pi, _ = projective_cover(M)
    return P.total_dim == M.total_dim and all(m.rank() == m.rows for m in pi.mats)


def ext2_dims(A) -> dict:
    """dim Ext^2(S_u, S_v) for every pair (u, v) where it is nonzero.

    It is the number of P_v summands in P_2 of the minimal resolution of S_u,
    read off the top of that projective.
    """
    out = {}
    for u in range(A.quiver.n_vertices):
        res = minimal_resolution(simple(A, u), 3)
        if len(res.projectives) > 2:
            for v, d in enumerate(top_dims(res.projectives[2])):
                if d:
                    out[(u, v)] = d
    return out


def hom_basis_by_intertwining(M: Rep, N: Rep) -> list[RepMap]:
    """Basis of Hom(M, N), from the intertwining linear system."""
    A = M.algebra
    if N.algebra is not A:
        raise ValueError("Hom requires modules over the same algebra handle")
    f = A.field
    q = A.quiver
    offsets = []
    total = 0
    for u in range(q.n_vertices):
        offsets.append(total)
        total += N.dims[u] * M.dims[u]
    rows = []
    for a in range(q.n_arrows):
        u, w = q.a_src[a], q.a_tgt[a]
        Na, Ma = N.mats[a].data, M.mats[a].data
        for i in range(N.dims[w]):
            for j in range(M.dims[u]):
                row = [f.zero()] * total
                written = False
                for r in range(N.dims[u]):
                    c = Na[i][r]
                    if c:
                        idx = offsets[u] + r * M.dims[u] + j
                        row[idx] = f.add(row[idx], c)
                        written = True
                for s in range(M.dims[w]):
                    c = Ma[s][j]
                    if c:
                        idx = offsets[w] + i * M.dims[w] + s
                        row[idx] = f.sub(row[idx], c)
                        written = True
                if written:
                    rows.append(row)
    if total == 0:
        return []
    if not rows:
        sol = Matrix.identity(f, total)
    else:
        sol = matrix_kernel_basis(Matrix.from_rows(f, rows))
    out = []
    sol_data = sol.data
    for jcol in range(sol.cols):
        mats = []
        for u in range(q.n_vertices):
            data = [
                [sol_data[offsets[u] + i * M.dims[u] + j][jcol] for j in range(M.dims[u])]
                for i in range(N.dims[u])
            ]
            mats.append(Matrix(f, N.dims[u], M.dims[u], data))
        out.append(RepMap(M, N, mats))
    return out


def pd_bounded_by_full_resolution(M: Rep, bound: int, side: str = "projective", dim_cap: int | None = None):
    """pd_bounded read off a minimal resolution of bound + 1 steps, with no
    early stop: exact when it terminates, else AtLeast(bound + 1)."""
    if side == "injective":
        M = dual(M)
    return minimal_resolution(M, bound + 1, dim_cap=dim_cap).dimension(bound)


def simple_summands_by_hom(K: Rep) -> list[int]:
    """The vertices u at which S_u is a direct summand of K: some basis pair
    f of Hom(S_u, K) and g of Hom(K, S_u) has g f nonzero, hence invertible."""
    A = K.algebra
    out = []
    for u in range(A.quiver.n_vertices):
        S = simple(A, u)
        into, onto = hom_basis_by_intertwining(S, K), hom_basis_by_intertwining(K, S)
        if any(not (g.mats[u] @ f.mats[u]).is_zero() for f in into for g in onto):
            out.append(u)
    return out


def minimal_relations_by_completion(A) -> list[dict]:
    """The rules of A independent modulo K = rad*I + I*rad, read in the
    completion of kQ/K, for monomial and non-monomial algebras alike."""
    f = A.field
    q = A.quiver
    gens = [{lead: f.one()} | {w: f.neg(c) for w, c in rest.items()} for lead, rest in A.rules]
    arrows = [Path(q.a_src[a], q.a_tgt[a], (a,)) for a in range(q.n_arrows)]
    products = []
    for g, (lead, _) in zip(gens, A.rules):
        for a in arrows:
            if a.target == lead.source:
                products.append(tuple((compose(a, p), c) for p, c in g.items()))
            if lead.target == a.source:
                products.append(tuple((compose(p, a), c) for p, c in g.items()))
    pres = Presentation(f, q, products, A.presentation.convention, A.name + "/K")
    K = _complete(pres, A.dim + 1)
    reducer = FieldSubspaceReducer(f, K.dim)
    kept = []
    for g in gens:
        vec = [f.zero()] * K.dim
        for p, c in K.normal_form(g).items():
            vec[K.basis_index[p]] = c
        if not reducer.contains(vec):
            kept.append(g)
            reducer.insert(vec)
    return kept


def tensor_with_opposite_by_completion(A, B):
    """A (x) B^op completed from a presentation on the product quiver: the
    rules of A on each right-hand vertex w, the rules of B with reversed
    words on each left-hand vertex v, and for each pair of arrows (a, b) the
    relation that a on the left commutes with b on the right.  The overlap
    completion finds the rules, and `complete` certifies the Loewy length by
    radical powers."""
    f = A.field
    T = tensor_with_opposite(A, B)
    pair, left, right = T.product.pair_index, T.product.left_arrow, T.product.right_arrow
    qa, qb = A.quiver, B.quiver

    def relations_of(H):
        return [[(lead, f.one())] + [(p, f.neg(c)) for p, c in rest.items()] for lead, rest in H.rules]

    relations = [
        tuple(
            (Path(pair[(p.source, w)], pair[(p.target, w)], tuple(left[(a, w)] for a in p.arrows)), c)
            for p, c in rel
        )
        for rel in relations_of(A)
        for w in range(qb.n_vertices)
    ]
    relations += [
        tuple(
            (Path(pair[(v, p.target)], pair[(v, p.source)], tuple(right[(v, b)] for b in reversed(p.arrows))), c)
            for p, c in rel
        )
        for rel in relations_of(B)
        for v in range(qa.n_vertices)
    ]
    for a in range(qa.n_arrows):
        u, u2 = qa.a_src[a], qa.a_tgt[a]
        for b in range(qb.n_arrows):
            w, w2 = qb.a_src[b], qb.a_tgt[b]
            src, tgt = pair[(u, w2)], pair[(u2, w)]
            p1 = Path(src, tgt, (left[(a, w2)], right[(u2, b)]))
            p2 = Path(src, tgt, (right[(u, b)], left[(a, w)]))
            relations.append(((p1, f.one()), (p2, f.neg(f.one()))))
    pres = Presentation(f, T.quiver, relations, A.presentation.convention, T.name)
    return complete(pres, A.loewy_length + B.loewy_length)


def gorenstein_bounded_whole(A, n: int):
    """(id of A as a left module, id of A as a right module), each the pd of
    the whole dual of a regular module."""
    left = pd_bounded(dual(regular_rep(A)), n)
    right = pd_bounded(dual(regular_rep(A.opposite())), n)
    return left, right


# -- action-matrix builders by hand -------------------------------------------
#
# The builders below fill their arrow matrices with their own loops and read
# the product coordinates of a bimodule in place, instead of going through
# `action_rep` and the one product-coordinate reader of qred.modules.


def restrict_by_loops(M: Rep, side: str) -> Restriction:
    """Forget one action of a bimodule, filling each arrow matrix by hand."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    prod = M.algebra.product
    if prod is None:
        return Restriction._wrap(M, None, [[(v, i) for i in range(d)] for v, d in enumerate(M.dims)])
    if side == "left":
        target, outer, own = prod.left, prod.right, 0
    else:
        target, outer, own = prod.right.opposite(), prod.left, 1
    entries = [[] for _ in range(target.quiver.n_vertices)]
    for pi, pair in enumerate(prod.vertex_pairs):
        entries[pair[own]].extend((pi, i) for i in range(M.dims[pi]))
    pos = [{e: i for i, e in enumerate(es)} for es in entries]
    dims = [len(es) for es in entries]
    mats = []
    for a in range(target.quiver.n_arrows):
        src, tgt = target.quiver.a_src[a], target.quiver.a_tgt[a]
        data = [[M.algebra.field.zero()] * dims[src] for _ in range(dims[tgt])]
        for col, (pi, i) in enumerate(entries[src]):
            u, w = prod.vertex_pairs[pi]
            if side == "left":
                pa = prod.left_arrow[(a, w)]
                tgt_pair = prod.pair_index[(tgt, w)]
            else:
                # arrow a of R^op is arrow a of R reversed, acting on the right
                pa = prod.right_arrow[(u, a)]
                tgt_pair = prod.pair_index[(u, tgt)]
            block = M.mats[pa].data
            for r in range(len(block)):
                c = block[r][i]
                if c:
                    data[pos[tgt][(tgt_pair, r)]][col] = c
        mats.append(Matrix(M.algebra.field, dims[tgt], dims[src], data))
    return Restriction._wrap(Rep(target, dims, mats), outer, entries)


def _tensor_space_by_loops(x: Restriction, middle, Y: Rep) -> TensorSpace:
    y = restrict_by_loops(Y, "left")
    if y.algebra is not middle:
        raise ValueError("middle algebras do not match")
    f = middle.field
    xcols, ycols = ([m.transpose().entries for m in r.mats] for r in (x, y))
    coords, index, rows = _balanced_relations(middle.quiver, f, xcols, x.dims, ycols, y.dims)
    reducer = FieldSubspaceReducer(f, len(coords), rows)
    comp = reducer.complement_indices()
    return TensorSpace(coords, index, reducer, comp, len(comp), y)


def _left_image(X, x, space, b_arrow, w, ix, jy, vec):
    # left outer action on the X part, inside group w
    prod = X.algebra.product
    xv, xi = x.entries[w][ix]
    wmid = prod.vertex_pairs[xv][1]
    amat = X.mats[prod.left_arrow[(b_arrow, wmid)]].data
    tgt_pair = prod.pair_index[(prod.left.quiver.a_tgt[b_arrow], wmid)]
    for r in range(len(amat)):
        c = amat[r][xi]
        if c:
            vec[space.index[(w, x.pos[w][(tgt_pair, r)], jy)]] = c


def _right_image(space, Y, a_arrow, w, ix, jy, vec):
    # right outer action on the Y part, inside group w
    y = space.y
    prod = Y.algebra.product
    yv, yi = y.entries[w][jy]
    wmid = prod.vertex_pairs[yv][0]
    amat = Y.mats[prod.right_arrow[(wmid, a_arrow)]].data
    tgt_pair = prod.pair_index[(wmid, prod.right.quiver.a_src[a_arrow])]
    for r in range(len(amat)):
        c = amat[r][yi]
        if c:
            vec[space.index[(w, ix, y.pos[w][(tgt_pair, r)])]] = c


def tensor_over_by_loops(X: Rep, Y: Rep, env=None) -> TensorResult:
    """X (x)_C Y with its residual outer structure, each env arrow matrix
    filled column by column from the ambient action reduced to the
    complement, the columns grouped by outer vertex with a sort."""
    x = restrict_by_loops(X, "right")
    space = _tensor_space_by_loops(x, x.algebra.opposite(), Y)
    y = space.y
    f = X.algebra.field
    if x.outer is None and y.outer is None:
        return TensorResult(space.dim, None)
    if x.outer is None:
        raise NotImplementedError("right-only outer structure is not needed here")
    x_pairs = X.algebra.product.vertex_pairs
    if y.outer is not None:
        if env is None or env.product is None:
            raise ValueError("a completed product algebra is required for a bimodule result")
        if env.product.left is not x.outer or env.product.right is not y.outer:
            raise ValueError("env does not match the outer algebras")
        y_pairs = Y.algebra.product.vertex_pairs

        def out_tag(w, ix, jy):
            return env.product.pair_index[
                (x_pairs[x.entries[w][ix][0]][0], y_pairs[y.entries[w][jy][0]][1])
            ]

    else:
        env = x.outer

        def out_tag(w, ix, jy):
            return x_pairs[x.entries[w][ix][0]][0]

    comp_of = [out_tag(*space.coords[amb]) for amb in space.complement]
    order = sorted(range(len(space.complement)), key=lambda i: (comp_of[i], i))
    dims = [0] * env.quiver.n_vertices
    local = {}
    for i in order:
        v = comp_of[i]
        local[i] = (v, dims[v])
        dims[v] += 1
    namb = len(space.coords)
    mats = []
    for pa in range(env.quiver.n_arrows):
        src_v = env.quiver.a_src[pa]
        tgt_v = env.quiver.a_tgt[pa]
        kind, a1, a2 = env.product.arrow_kind[pa] if y.outer is not None else ("L", pa, None)
        data = [[f.zero()] * dims[src_v] for _ in range(dims[tgt_v])]
        for i in order:
            if comp_of[i] != src_v:
                continue
            amb = space.complement[i]
            w, ix, jy = space.coords[amb]
            vec = [f.zero()] * namb
            if kind == "L":
                _left_image(X, x, space, a1, w, ix, jy, vec)
            else:
                _right_image(space, Y, a2, w, ix, jy, vec)
            red = space.reducer.reduce(vec)
            colv = [f.zero()] * dims[tgt_v]
            for k, amb2 in enumerate(space.complement):
                c = red[amb2]
                if c:
                    v2, loc2 = local[k]
                    if v2 != tgt_v:
                        raise ConsistencyError("tensor grading violated")
                    colv[loc2] = c
            _, src_loc = local[i]
            for r in range(dims[tgt_v]):
                data[r][src_loc] = colv[r]
        mats.append(Matrix(f, dims[tgt_v], dims[src_v], data))
    rep = Rep(env, dims, mats)
    return TensorResult(sum(dims), rep)


def quotient_rep_by_loops(M: Rep, vectors_per_vertex):
    """Quotient by the subrepresentation spanned by the vectors, with the
    projection and every arrow matrix filled entry by entry."""
    A = M.algebra
    f = A.field
    q = A.quiver
    reducers = [
        FieldSubspaceReducer(f, M.dims[u], vectors_per_vertex[u])
        for u in range(q.n_vertices)
    ]
    comps = [r.complement_indices() for r in reducers]
    dims = [len(c) for c in comps]
    projs = []
    for u in range(q.n_vertices):
        data = [[f.zero()] * M.dims[u] for _ in range(dims[u])]
        for j in range(M.dims[u]):
            vec = [f.one() if k == j else f.zero() for k in range(M.dims[u])]
            col = reducers[u].coords_in_complement(vec)
            for i in range(dims[u]):
                data[i][j] = col[i]
        projs.append(Matrix(f, dims[u], M.dims[u], data))
    mats = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        data = [[f.zero()] * dims[src] for _ in range(dims[tgt])]
        cols = M.mats[a].transpose().data
        for jloc, jamb in enumerate(comps[src]):
            red = reducers[tgt].coords_in_complement(cols[jamb])
            for i in range(dims[tgt]):
                data[i][jloc] = red[i]
        mats.append(Matrix(f, dims[tgt], dims[src], data))
    Q = Rep(A, dims, mats)
    return Q, RepMap(M, Q, projs)


def regular_bimodule_by_hand(A) -> Rep:
    """A over A (x) A^op with its own action closure."""
    env = A.enveloping()
    prod = env.product
    arrows = arrow_paths(A)

    def image(pa, p):
        kind, x, y = prod.arrow_kind[pa]
        return A.mul_paths(p, arrows[x]) if kind == "L" else A.mul_paths(arrows[y], p)

    return action_rep(env, [A.paths_between(w, u) for (u, w) in prod.vertex_pairs], image)


def idempotent_candidate_by_hand(A, corner):
    """(Ae, eA) against a presented corner, each with its own action closure."""
    cs = corner.corner
    if cs is None or cs.parent is not A:
        raise ValueError("corner does not present an idempotent of this algebra")
    kept = cs.kept
    realization = cs.realizations
    arrows = arrow_paths(A)

    # Ae: the left factor acts by p.a, the corner arrow b by r_b.p
    E1 = tensor_with_opposite(A, corner)

    def image1(pa, p):
        kind, x, y = E1.product.arrow_kind[pa]
        return A.mul_paths(p, arrows[x]) if kind == "L" else A.mul_paths(realization[y], p)

    basis1 = [A.paths_between(kept[w], u) for (u, w) in E1.product.vertex_pairs]
    M = action_rep(E1, basis1, image1)

    # eA: the corner arrow b acts by p.r_b, the right factor by a.p
    E2 = tensor_with_opposite(corner, A)

    def image2(pa, p):
        kind, x, y = E2.product.arrow_kind[pa]
        return A.mul_paths(p, realization[x]) if kind == "L" else A.mul_paths(arrows[y], p)

    basis2 = [A.paths_between(u, kept[w]) for (w, u) in E2.product.vertex_pairs]
    N = action_rep(E2, basis2, image2)
    for rep, label in ((M, "Ae"), (N, "eA")):
        problems = validate_rep(rep)
        if problems:
            raise ConsistencyError(f"{label} candidate is not a representation: {problems[0]}")
    return M, N


def _induced_map(space_src: TensorSpace, space_tgt: TensorSpace, g: RepMap) -> Matrix:
    """The matrix of id (x) g between two quotient spaces of one X."""
    f = g.source.algebra.field
    out_cols = []
    y_src, y_tgt = space_src.y, space_tgt.y
    for amb in space_src.complement:
        w, ix, jy = space_src.coords[amb]
        yv, yi = y_src.entries[w][jy]
        vec = {}
        gm = g.mats[yv].data
        # g preserves the vertex of Y, hence the middle group
        for r in range(len(gm)):
            c = gm[r][yi]
            if c:
                vec[space_tgt.index[(w, ix, y_tgt.pos[w][(yv, r)])]] = c
        red = space_tgt.reducer.reduce(vec)
        out_cols.append([red.get(amb2, f.zero()) for amb2 in space_tgt.complement])
    return matrix_from_columns(f, out_cols, nrows=space_tgt.dim)


def tor_by_tensoring(X: Rep, Y: Rep, n: int) -> tuple[list[int], bool]:
    """(dims of Tor_0..Tor_n, terminated) as the homology of X (x) P_*.

    P_* is the minimal resolution of Y over n + 2 steps; its differential
    P_i -> P_{i-1} is the cover P_i -> Omega^i composed with the inclusion
    of Omega^i in P_{i-1}.  Tor_i is the kernel of id (x) d_i modulo the
    image of id (x) d_{i+1}, read off the ranks of the induced matrices.
    """
    projs, diffs = [], []
    current, incl_prev = Y, None
    for _ in range(n + 2):
        if current.is_zero():
            break
        P, pi, _ = projective_cover(current)
        diffs.append(pi if incl_prev is None else compose_after(incl_prev, pi))
        projs.append(P)
        current, incl_prev = kernel_subrep(pi)
    tf = TensorFunctor(X)
    spaces = [tf.space(P) for P in projs]
    ranks = [
        _induced_map(spaces[i], spaces[i - 1], diffs[i]).rank() for i in range(1, len(spaces))
    ] + [0]
    dims = []
    for i in range(n + 1):
        if i >= len(spaces):
            dims.append(0)
        else:
            dims.append(spaces[i].dim - (ranks[i - 1] if i else 0) - ranks[i])
    return dims, current.is_zero()


def corner_presentation_by_degree(A, vertex_names, name: str = ""):
    """`reduction.corner_presentation` as it was computed degree by degree:
    the Loewy length from `algebra._loewy_length` on the corner basis, and
    for each degree d and vertex pair the kernel of the evaluation of the
    words of length 2 to d, eliminated anew at every degree."""
    q = A.quiver
    S = sorted(q.v_index[v] for v in vertex_names)
    if not S:
        raise ValueError("vertex set must be nonempty")
    f = A.field
    C = corner_basis(A, [q.vertices[v] for v in S])
    C_index = {p: i for i, p in enumerate(C)}
    C_pos = [p for p in C if len(p.arrows) >= 1]

    # (e rad e)^2
    square = SubspaceReducer(f, len(C))
    for a in C_pos:
        for b in C_pos:
            prod = A.mul_paths(a, b)
            if prod:
                square.insert({C_index[p]: c for p, c in prod.items()})
    realizations = []
    for c in sorted(C_pos, key=word_key):
        if square.insert({C_index[c]: f.one()}):
            realizations.append(c)

    loewy = _loewy_length(A, C, C_pos)

    # quiver of the corner
    s_pos = {v: i for i, v in enumerate(S)}
    arrow_names = []
    used = {}
    for c in realizations:
        base = "t_" + "_".join(written_arrow_names(A, c))
        k = used.get(base, 0)
        used[base] = k + 1
        arrow_names.append(base if k == 0 else f"{base}_{k + 1}")
    new_vertices = [q.vertices[v] for v in S]
    new_arrows = [
        (arrow_names[i], q.vertices[c.source], q.vertices[c.target])
        for i, c in enumerate(realizations)
    ]
    new_quiver = Quiver(new_vertices, new_arrows)

    # enumerate corner-quiver paths up to the Loewy length, with evaluations
    arr_src = [s_pos[c.source] for c in realizations]
    arr_tgt = [s_pos[c.target] for c in realizations]
    paths_by_deg = [[(v, v, ()) for v in range(len(S))]]
    ev: dict[tuple, dict] = {}
    for i, c in enumerate(realizations):
        ev[(i,)] = {c: f.one()}
    for d in range(1, loewy + 1):
        level = []
        for (src, tgt, word) in paths_by_deg[d - 1]:
            for i in range(len(realizations)):
                if arr_src[i] != tgt:
                    continue
                nw = word + (i,)
                level.append((src, arr_tgt[i], nw))
                if d >= 2:
                    # every term of ev[word] ends where realizations[i] starts
                    r = realizations[i]
                    ev[nw] = A.normal_form({compose(p, r): cp for p, cp in ev[word].items()})
        paths_by_deg.append(level)

    formal = [
        (src, tgt, word)
        for d in range(2, loewy + 1)
        for (src, tgt, word) in paths_by_deg[d]
    ]
    formal_index = {word: i for i, (_, _, word) in enumerate(formal)}
    by_src = {}
    by_tgt = {}
    for d in range(0, loewy + 1):
        for (src, tgt, word) in paths_by_deg[d]:
            by_src.setdefault(src, []).append((tgt, word))
            by_tgt.setdefault(tgt, []).append((src, word))

    cons = SubspaceReducer(f, len(formal))
    relations = []

    def add_consequences(rel_terms, r_src, r_tgt):
        # formal products u * r * v inside the degree window
        maxdeg = max(len(w) for w, _ in rel_terms)
        for (usrc, uword) in by_tgt.get(r_src, ()):
            for (vtgt, vword) in by_src.get(r_tgt, ()):
                extra = len(uword) + len(vword)
                if extra == 0 or extra + maxdeg > loewy:
                    continue
                # the words of r are distinct, so each word u * w * v occurs once
                cons.insert({formal_index[uword + w + vword]: c for w, c in rel_terms})

    for d in range(2, loewy + 1):
        for su in range(len(S)):
            for tu in range(len(S)):
                cols = [
                    (src, tgt, word)
                    for (src, tgt, word) in formal
                    if src == su and tgt == tu and len(word) <= d
                ]
                if not cols:
                    continue
                # the evaluation: one row per corner basis path, one column per word
                rows: dict[int, dict] = {}
                for i, (_, _, word) in enumerate(cols):
                    for p, c in ev[word].items():
                        rows.setdefault(C_index[p], {})[i] = c
                for vec in kernel_vectors(f, rows.values(), len(cols))[0]:
                    terms = [(cols[i][2], c) for i, c in sorted(vec.items())]
                    if not cons.insert({formal_index[word]: c for word, c in terms}):
                        continue
                    add_consequences(terms, su, tu)
                    relations.append(tuple((Path(su, tu, word), c) for word, c in terms))

    pres = Presentation(
        f,
        new_quiver,
        relations,
        A.presentation.convention,
        name or f"{A.name}.corner[{','.join(q.vertices[v] for v in S)}]",
    )
    handle = _complete(pres, max(loewy + 1, 2))
    if handle.dim != len(C):
        raise ConsistencyError(
            f"corner presented dimension {handle.dim} != corner basis size {len(C)}"
        )
    handle.loewy_length = loewy
    handle.corner = CornerStructure(A, S, realizations)
    return handle
