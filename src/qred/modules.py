"""Finite-dimensional modules over completed quiver algebras.

A module is a quiver representation: a dimension vector plus one exact matrix
per arrow.  On top of that sit Hom spaces, minimal projective covers and
resolutions, bounded projective/injective dimension, standard duality,
balanced tensor products over a middle algebra, and isomorphism testing
(invariant battery plus a seeded search for an invertible homomorphism).

Hom and the tensor product share one linear system, the balanced relations
x.c (x) y - x (x) c.y: X (x) Y is the quotient of the coordinate space by
them, and Hom(M, N) = D(DN (x) M) is read as the null space of the relations
of DN (x) M.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebra import AlgebraHandle, ConsistencyError, Path
from .linalg import Matrix, SubspaceReducer

__all__ = [
    "BoundedDim",
    "Rep",
    "RepMap",
    "Resolution",
    "zero_rep",
    "simple",
    "projective",
    "injective",
    "standard_module",
    "regular_rep",
    "action_rep",
    "path_bimodule",
    "rep_direct_sum",
    "path_action",
    "validate_rep",
    "hom_basis",
    "hom_from_projective",
    "projective_cover",
    "minimal_resolution",
    "pd_bounded",
    "dual",
    "restrict_along",
    "radical_reducers",
    "top_dims",
    "radical_layer_dims",
    "socle_layer_dims",
    "is_isomorphic",
    "IsoResult",
    "split_projective_summands",
    "stable_isomorphic",
    "tensor_over",
    "restrict",
    "Restriction",
    "TensorFunctor",
    "TensorResult",
]


@dataclass(frozen=True)
class BoundedDim:
    """A homological dimension decided up to a search bound."""

    exact: bool
    value: int
    bound: int

    @classmethod
    def Exact(cls, d: int, bound: int) -> "BoundedDim":
        return cls(True, d, bound)

    @classmethod
    def AtLeast(cls, n: int, bound: int) -> "BoundedDim":
        return cls(False, n, bound)

    def __str__(self):
        return f"Exact({self.value})" if self.exact else f"AtLeast({self.value})"


class ResolutionCapExceeded(RuntimeError):
    pass


class Rep:
    """A left module over a completed algebra, as a quiver representation."""

    __slots__ = ("algebra", "dims", "mats")

    def __init__(self, algebra: AlgebraHandle, dims, mats):
        self.algebra = algebra
        self.dims = list(dims)
        self.mats = list(mats)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        return f"Rep({self.algebra.name!r}, dims={self.dims})"


class RepMap:
    """A homomorphism of representations: one matrix per vertex."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Rep, target: Rep, mats):
        self.source = source
        self.target = target
        self.mats = list(mats)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)

    def compose_after(self, other: "RepMap") -> "RepMap":
        """self o other (apply other first)."""
        return RepMap(
            other.source, self.target, [a @ b for a, b in zip(self.mats, other.mats)]
        )


def zero_rep(A: AlgebraHandle) -> Rep:
    f = A.field
    q = A.quiver
    dims = [0] * q.n_vertices
    mats = [Matrix.zero(f, 0, 0) for _ in range(q.n_arrows)]
    return Rep(A, dims, mats)


def _linear_combination(maps: list[RepMap], coeffs) -> RepMap:
    """The map sum c g, accumulated in place over the nonzero entries."""
    base = maps[0]
    f = base.source.algebra.field
    p = f.p
    out = []
    for u, m in enumerate(base.mats):
        acc = Matrix.zero(f, m.rows, m.cols)
        for g, c in zip(maps, coeffs):
            if not c:
                continue
            for row, grow in zip(acc.data, g.mats[u].data):
                for j, x in enumerate(grow):
                    if x:
                        row[j] = row[j] + c * x if p is None else (row[j] + c * x) % p
        out.append(acc)
    return RepMap(base.source, base.target, out)


def identity_map(M: Rep) -> RepMap:
    f = M.algebra.field
    return RepMap(M, M, [Matrix.identity(f, d) for d in M.dims])


def _block_diagonal(A: AlgebraHandle, reps: list[Rep]):
    """(dims, arrow matrices, per-summand offsets) of the direct sum of reps.

    Every row is a new list: the entries of the summands are copied, never
    their rows.
    """
    q = A.quiver
    zero = A.field.zero()
    offsets = []
    dims = [0] * q.n_vertices
    for r in reps:
        offsets.append(dims)
        dims = [x + d for x, d in zip(dims, r.dims)]
    mats = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        data = []
        for r, off in zip(reps, offsets):
            lo, hi = off[src], off[src] + r.dims[src]
            for row in r.mats[a].data:
                new = [zero] * dims[src]
                new[lo:hi] = row
                data.append(new)
        mats.append(Matrix(A.field, dims[tgt], dims[src], data))
    return dims, mats, offsets


def rep_direct_sum(reps: list[Rep]):
    """Block-diagonal sum; returns (sum, inclusion maps)."""
    A = reps[0].algebra
    f = A.field
    dims, mats, offsets = _block_diagonal(A, reps)
    total = Rep(A, dims, mats)
    incls = []
    for k, r in enumerate(reps):
        ms = []
        for u in range(A.quiver.n_vertices):
            m = Matrix.zero(f, dims[u], r.dims[u])
            for i in range(r.dims[u]):
                m.data[offsets[k][u] + i][i] = f.one()
            ms.append(m)
        incls.append(RepMap(r, total, ms))
    return total, incls


# -- standard modules -------------------------------------------------------


@dataclass
class ProjectiveInfo:
    summands: list[int]  # vertex index of each indecomposable summand
    basis: list[list[tuple[int, Path]]]  # per vertex: ordered (summand, path)
    gen_pos: list[tuple[int, int]]  # per summand: (vertex, row within that vertex)


def action_rep(A: AlgebraHandle, basis, image) -> Rep:
    """The Rep over A with an ordered basis of keys at each vertex.

    basis[u] lists the keys spanning the component at vertex u, in order;
    arrow a sends the key k at its source to image(a, k), a dict from keys at
    its target to coefficients.  Every module with a keyed basis gets its
    arrow matrices here, each caller stating only its basis and its action:
    the projectives and A (normal paths), the path bimodules (the regular
    bimodule and the idempotent candidates), the corner modules eA and Ae,
    restrictions (product coordinates), quotients (complement coordinates of
    the span) and tensor products (complement coordinates of the balanced
    relations).
    """
    q = A.quiver
    index = [{key: i for i, key in enumerate(b)} for b in basis]
    dims = [len(b) for b in basis]
    mats = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        m = Matrix.zero(A.field, dims[tgt], dims[src])
        for col, key in enumerate(basis[src]):
            for w, c in image(a, key).items():
                m.data[index[tgt][w]][col] = c
        mats.append(m)
    return Rep(A, dims, mats)


def arrow_paths(A: AlgebraHandle) -> list[Path]:
    """The arrows of A as paths of length one."""
    q = A.quiver
    return [Path(q.a_src[a], q.a_tgt[a], (a,)) for a in range(q.n_arrows)]


def _projective_sum(A: AlgebraHandle, vertices: list[int]):
    """P_{v_0} (+) P_{v_1} (+) ..., assembled block-diagonally from the
    cached indecomposable projectives.

    Its basis at u lists (j, p) for the normal paths p to u of summand j, in
    summand order.
    """
    parts = [projective(A, v) for v in vertices]
    dims, mats, offsets = _block_diagonal(A, [P for P, _ in parts])
    basis = [[] for _ in range(A.quiver.n_vertices)]
    gen_pos = []
    for j, (v, (_, info)) in enumerate(zip(vertices, parts)):
        for u, keys in enumerate(info.basis):
            basis[u].extend((j, p) for _, p in keys)
        gen_pos.append((v, offsets[j][v] + info.gen_pos[0][1]))
    return Rep(A, dims, mats), ProjectiveInfo(list(vertices), basis, gen_pos)


def projective(A: AlgebraHandle, v: int):
    """The indecomposable projective Ae_v with its basis of normal paths from
    v, cached on A; callers must not mutate it."""
    key = ("projective", v)
    if key not in A._extra:
        basis = [[] for _ in range(A.quiver.n_vertices)]
        for p in A.paths_from(v):
            if not p.arrows:
                gen_pos = [(v, len(basis[v]))]
            basis[p.target].append((0, p))
        arrows = arrow_paths(A)

        def image(a, key):
            product = A.mul_paths(key[1], arrows[a])  # most often zero: no dict to build
            return {(0, w): c for w, c in product.items()} if product else product

        A._extra[key] = (action_rep(A, basis, image), ProjectiveInfo([v], basis, gen_pos))
    return A._extra[key]


def simple(A: AlgebraHandle, v: int) -> Rep:
    f = A.field
    q = A.quiver
    dims = [1 if u == v else 0 for u in range(q.n_vertices)]
    mats = [
        Matrix.zero(f, dims[q.a_tgt[a]], dims[q.a_src[a]]) for a in range(q.n_arrows)
    ]
    return Rep(A, dims, mats)


def injective(A: AlgebraHandle, v: int) -> Rep:
    """The indecomposable injective at v: dual of the opposite projective."""
    op = A.opposite()
    P, _ = projective(op, v)
    return dual(P)


def standard_module(A: AlgebraHandle, kind: str, vertex_name: str) -> Rep:
    if vertex_name not in A.quiver.v_index:
        raise KeyError(f"unknown vertex {vertex_name!r}")
    v = A.quiver.v_index[vertex_name]
    if kind == "simple":
        return simple(A, v)
    if kind == "projective":
        return projective(A, v)[0]
    if kind == "injective":
        return injective(A, v)
    raise ValueError(f"unknown standard module kind {kind!r}")


def regular_rep(A: AlgebraHandle) -> Rep:
    """A as a left module over itself (basis: normal paths, graded by target)."""
    arrows = arrow_paths(A)
    basis = [A.paths_to(u) for u in range(A.quiver.n_vertices)]
    return action_rep(A, basis, lambda a, p: A.mul_paths(p, arrows[a]))


def path_action(M: Rep, p: Path) -> Matrix:
    f = M.algebra.field
    out = Matrix.identity(f, M.dims[p.source])
    for a in p.arrows:
        out = M.mats[a] @ out
    return out


def validate_rep(M: Rep) -> list[str]:
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
        src = rel[0][0].source
        tgt = rel[0][0].target
        acc = Matrix.zero(A.field, M.dims[tgt], M.dims[src])
        for p, c in rel:
            acc = acc + path_action(M, p).scale(c)
        if not acc.is_zero():
            problems.append(f"relation {ri} does not vanish on the representation")
    return problems


# -- Hom spaces -------------------------------------------------------------


def _balanced_relations(quiver, field, xmats, xdims, ymats, ydims):
    """The relations x.c (x) y - x (x) c.y of X (x) Y over the path algebra of quiver.

    X is a right and Y a left module: an arrow c: s -> t acts X_t -> X_s by
    xmats[c] and Y_s -> Y_t by ymats[c].  The coordinates (w, ix, jy) of
    the space sum_w X_w (x) Y_w are ordered by w, then ix, then jy; there is
    one row per (c, ix in X_t, jy in Y_s), skipped when it has no entry.
    Returns (coords, index of each coordinate, rows).
    """
    f = field
    coords = [
        (w, ix, jy) for w in range(quiver.n_vertices) for ix in range(xdims[w]) for jy in range(ydims[w])
    ]
    index = {c: i for i, c in enumerate(coords)}
    n = len(coords)
    rows = []
    for a in range(quiver.n_arrows):
        s, t = quiver.a_src[a], quiver.a_tgt[a]
        Rc, Lc = xmats[a], ymats[a]
        for ix in range(xdims[t]):
            for jy in range(ydims[s]):
                vec = [f.zero()] * n
                any_entry = False
                for k in range(Rc.rows):
                    c = Rc.data[k][ix]
                    if c:
                        vec[index[(s, k, jy)]] = f.add(vec[index[(s, k, jy)]], c)
                        any_entry = True
                for l in range(Lc.rows):
                    c = Lc.data[l][jy]
                    if c:
                        vec[index[(t, ix, l)]] = f.sub(vec[index[(t, ix, l)]], c)
                        any_entry = True
                if any_entry:
                    rows.append(vec)
    return coords, index, rows


def hom_basis(M: Rep, N: Rep) -> list[RepMap]:
    """Basis of Hom(M, N), read as the null space of the relations of DN (x) M.

    Maps f_u: M_u -> N_u form a homomorphism when N_a f_u = f_w M_a for every
    arrow a: u -> w.  These are the balanced relations of the right module
    DN, whose arrows act by the transposed matrices of N, against M: the
    entry (i, j) of f_u is the coordinate (u, i, j).
    """
    A = M.algebra
    if N.algebra is not A:
        raise ValueError("Hom requires modules over the same algebra handle")
    f = A.field
    coords, _, rows = _balanced_relations(
        A.quiver, f, [m.transpose() for m in N.mats], N.dims, M.mats, M.dims
    )
    if not coords:
        return []
    sol = Matrix.from_rows(f, rows).kernel_basis() if rows else Matrix.identity(f, len(coords))
    out = []
    for jcol in range(sol.cols):
        mats = [Matrix.zero(f, n, m) for n, m in zip(N.dims, M.dims)]
        for (u, i, j), row in zip(coords, sol.data):
            mats[u].data[i][j] = row[jcol]
        out.append(RepMap(M, N, mats))
    return out


def _map_from_projective(P: Rep, info: ProjectiveInfo, M: Rep, images) -> RepMap:
    """The map P -> M sending the generator of summand j to images[j].

    The column of a basis path p of summand j is p acting on images[j]; it is
    propagated along the arrows, column(p.a) = M_a column(p), and memoized by
    (summand, arrows) for this call only.
    """
    columns = {}

    def column(j, arrows):
        key = (j, arrows)
        col = columns.get(key)
        if col is None:
            col = images[j] if not arrows else M.mats[arrows[-1]].apply(column(j, arrows[:-1]))
            columns[key] = col
        return col

    f = M.algebra.field
    mats = [
        Matrix.from_columns(f, [column(j, p.arrows) for j, p in info.basis[u]], nrows=M.dims[u])
        for u in range(len(M.dims))
    ]
    return RepMap(P, M, mats)


def _unit_vector(f, n: int, i: int) -> list:
    vec = [f.zero()] * n
    vec[i] = f.one()
    return vec


def hom_from_projective(A: AlgebraHandle, v: int, M: Rep) -> list[RepMap]:
    """Basis of Hom(P_v, M) via Hom(Ae_v, M) = e_v M; no linear solve."""
    P, info = projective(A, v)
    return [
        _map_from_projective(P, info, M, [_unit_vector(A.field, M.dims[v], t)])
        for t in range(M.dims[v])
    ]


# -- radical, socle, covers -------------------------------------------------


def radical_reducers(M: Rep) -> list[SubspaceReducer]:
    """Per-vertex reduced bases of rad M = (rad A) M."""
    A = M.algebra
    q = A.quiver
    red = [SubspaceReducer(A.field, M.dims[u]) for u in range(q.n_vertices)]
    for a in range(q.n_arrows):
        tgt = q.a_tgt[a]
        for col in range(M.mats[a].cols):
            red[tgt].insert(M.mats[a].column(col))
    return red


def top_dims(M: Rep) -> list[int]:
    red = radical_reducers(M)
    return [M.dims[u] - red[u].rank for u in range(len(M.dims))]


def radical_layer_dims(M: Rep) -> list[tuple[int, ...]]:
    """Dimension vectors of rad^i M / rad^{i+1} M, i = 0, 1, ..."""
    A = M.algebra
    q = A.quiver
    f = A.field
    layers = []
    # current spanning vectors of rad^i M per vertex
    current = [
        [
            [f.one() if k == i else f.zero() for k in range(M.dims[u])]
            for i in range(M.dims[u])
        ]
        for u in range(q.n_vertices)
    ]
    prev_ranks = list(M.dims)
    while True:
        nxt = [SubspaceReducer(f, M.dims[u]) for u in range(q.n_vertices)]
        for a in range(q.n_arrows):
            src, tgt = q.a_src[a], q.a_tgt[a]
            for vec in current[src]:
                nxt[tgt].insert(M.mats[a].apply(vec))
        ranks = [nxt[u].rank for u in range(q.n_vertices)]
        layers.append(tuple(p - r for p, r in zip(prev_ranks, ranks)))
        if all(r == 0 for r in ranks):
            break
        current = [nxt[u].basis_rows() for u in range(q.n_vertices)]
        prev_ranks = ranks
    while layers and all(x == 0 for x in layers[-1]):
        layers.pop()
    return layers


def socle_layer_dims(M: Rep) -> list[tuple[int, ...]]:
    """Dimension vectors of soc^{i+1} M / soc^i M via the dual radical series."""
    return radical_layer_dims(dual(M))


def sub_rep(M: Rep, vectors_per_vertex):
    """Subrepresentation spanned by the given vectors; (rep, inclusion).

    The basis at each vertex is the reduced echelon basis of the span, so the
    coordinates of a vector of the span are its entries at the pivots.
    Raises ValueError when the span is not stable under the arrow actions.
    This is the route for arbitrary spanning sets, such as those of
    `stable_span`; a kernel is read off its echelon form by `kernel_subrep`.
    """
    A = M.algebra
    f = A.field
    q = A.quiver
    reducers = [SubspaceReducer(f, M.dims[u], vectors_per_vertex[u]) for u in range(q.n_vertices)]
    basis_rows = [red.basis_rows() for red in reducers]
    dims = [len(rows) for rows in basis_rows]
    mats = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        image = [M.mats[a].apply(row) for row in basis_rows[src]]
        red = reducers[tgt]
        if not all(red.contains(col) for col in image):
            raise ValueError("span is not stable under the arrow actions")
        pivots = sorted(red.rows)
        mats.append(Matrix(f, dims[tgt], dims[src], [[col[j] for col in image] for j in pivots]))
    bases = [Matrix.from_columns(f, rows, nrows=M.dims[u]) for u, rows in enumerate(basis_rows)]
    S = Rep(A, dims, mats)
    incl = RepMap(S, M, bases)
    return S, incl


def quotient_rep(M: Rep, vectors_per_vertex):
    """Quotient by the subrepresentation spanned by the vectors; (rep, projection)."""
    A = M.algebra
    f = A.field
    q = A.quiver
    reducers = [
        SubspaceReducer(f, M.dims[u], vectors_per_vertex[u])
        for u in range(q.n_vertices)
    ]
    # the quotient at u has the basis of the complement coordinates comps[u]
    comps = [r.complement_indices() for r in reducers]

    def image(a, j):
        red = reducers[q.a_tgt[a]].reduce(M.mats[a].column(j))
        return {k: red[k] for k in comps[q.a_tgt[a]] if red[k]}

    Q = action_rep(A, comps, image)
    projs = [
        Matrix.from_columns(
            f,
            [red.coords_in_complement(_unit_vector(f, n, j)) for j in range(n)],
            nrows=Q.dims[u],
        )
        for u, (red, n) in enumerate(zip(reducers, M.dims))
    ]
    return Q, RepMap(M, Q, projs)


def kernel_subrep(f_map: RepMap):
    """Kernel of a map as a subrepresentation of its source; (rep, inclusion).

    The basis at each vertex u is the columns K_u of
    ``f_map.mats[u].kernel_basis()``.  They are the identity at the free
    rows, so the coordinates of a vector of the kernel are its entries there,
    and the arrow a: u -> w acts by the free rows of M_a K_u.  Raises
    ValueError when f_w M_a K_u is not zero, that is when the kernel is not
    stable under the arrow actions (never for a homomorphism).
    """
    M = f_map.source
    A = M.algebra
    q = A.quiver
    bases, free = [], []
    for m in f_map.mats:
        bases.append(m.kernel_basis())
        pivots = set(m.rref()[2])  # cached by kernel_basis
        free.append([j for j in range(m.cols) if j not in pivots])
    dims = [K.cols for K in bases]
    mats = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        image = M.mats[a] @ bases[src]
        if not (f_map.mats[tgt] @ image).is_zero():
            raise ValueError("span is not stable under the arrow actions")
        mats.append(Matrix(A.field, dims[tgt], dims[src], [image.data[j] for j in free[tgt]]))
    S = Rep(A, dims, mats)
    return S, RepMap(S, M, bases)


def projective_cover(M: Rep):
    """Minimal projective cover (P, pi, info); kernel of pi lies in rad P.

    P has one summand P_u per basis vector e_i of M_u outside the echelon
    pivots of rad M, and pi sends its generator to e_i.
    """
    A = M.algebra
    red = radical_reducers(M)
    gens = [(u, idx) for u in range(A.quiver.n_vertices) for idx in red[u].complement_indices()]
    P, info = _projective_sum(A, [u for u, _ in gens])
    images = [_unit_vector(A.field, M.dims[u], idx) for u, idx in gens]
    return P, _map_from_projective(P, info, M, images), info


def is_projective(M: Rep) -> bool:
    """Whether M is projective, decided by dimension alone.

    The minimal cover pi: P0 -> M is onto: it sends its generators to lifts
    of a basis of the top of M, and by Nakayama's lemma they generate M.  A
    projective M splits pi, and a summand of P0 inside rad P0 is zero, so M
    is projective exactly when pi is an isomorphism: when dim P0 = dim M.
    """
    return M.is_zero() or projective_cover(M)[0].total_dim == M.total_dim


@dataclass
class Resolution:
    module: Rep
    projectives: list[Rep]
    maps: list[RepMap]  # maps[0]: P0 -> M; maps[i]: P_i -> P_{i-1}
    syzygies: list[Rep]  # syzygies[i] = Omega^{i+1}(M)
    terminated: bool

    def dimension(self, bound: int) -> BoundedDim:
        """The projective dimension of the module, read off a resolution of
        bound + 1 steps: exact when it terminated, else more than bound."""
        if self.terminated:
            return BoundedDim.Exact(max(0, len(self.projectives) - 1), bound)
        return BoundedDim.AtLeast(bound + 1, bound)


def minimal_resolution(M: Rep, steps: int, dim_cap: int | None = None) -> Resolution:
    """Iterated minimal covers; stops early when a syzygy vanishes."""
    projs, maps, syz = [], [], []
    current = M
    incl_prev = None
    terminated = M.is_zero()
    for _ in range(steps):
        if current.is_zero():
            terminated = True
            break
        if dim_cap is not None and current.total_dim > dim_cap:
            raise ResolutionCapExceeded(
                f"syzygy dimension {current.total_dim} exceeds cap {dim_cap}"
            )
        P, pi, _ = projective_cover(current)
        d = pi if incl_prev is None else incl_prev.compose_after(pi)
        K, incl = kernel_subrep(pi)
        projs.append(P)
        maps.append(d)
        syz.append(K)
        incl_prev = incl
        current = K
    if current.is_zero():
        terminated = True
    return Resolution(M, projs, maps, syz, terminated)


def pd_bounded(M: Rep, bound: int, side: str = "projective", dim_cap: int | None = None) -> BoundedDim:
    """Projective (or, via duality, injective) dimension decided up to bound."""
    if side == "injective":
        M = dual(M)
    return minimal_resolution(M, bound + 1, dim_cap=dim_cap).dimension(bound)


def dual(M: Rep) -> Rep:
    """Standard duality: transposed matrices over the opposite algebra."""
    op = M.algebra.opposite()
    return Rep(op, list(M.dims), [m.transpose() for m in M.mats])


def restrict_along(Mq: Rep, vertex_map, arrow_map, A: AlgebraHandle) -> Rep:
    """Restrict a module over a quotient algebra back along A -> A/J."""
    f = A.field
    q = A.quiver
    dims = [Mq.dims[vertex_map[u]] if vertex_map[u] is not None else 0 for u in range(q.n_vertices)]
    mats = []
    for a in range(q.n_arrows):
        qa = arrow_map[a]
        if qa is None:
            mats.append(Matrix.zero(f, dims[q.a_tgt[a]], dims[q.a_src[a]]))
        else:
            mats.append(Mq.mats[qa].copy())
    return Rep(A, dims, mats)


# -- isomorphism testing ----------------------------------------------------


@dataclass
class IsoResult:
    kind: str  # 'yes' | 'no' | 'inconclusive'
    witness: RepMap | None = None
    invariant: str | None = None

    def __bool__(self):
        return self.kind == "yes"


def _invariant_battery(M: Rep):
    # dim Hom(-, S_v) and dim Hom(S_v, -) are the first radical and socle
    # layers, so they are not listed apart
    return [
        ("dimension vector", tuple(M.dims)),
        ("radical layer dimensions", tuple(radical_layer_dims(M))),
        ("socle layer dimensions", tuple(socle_layer_dims(M))),
    ]


def _invertible(fmap: RepMap) -> bool:
    # every map tested is square: the battery has matched the dimension vectors
    return all(not m.rows or m.rank() == m.rows for m in fmap.mats)


_ISO_TRIES = 20  # random combinations tried when the Hom space is too large to exhaust


def is_isomorphic(M: Rep, N: Rep, rng: random.Random | None = None) -> IsoResult:
    """Exact-witness isomorphism test.

    Positive answers carry an exactly verified invertible homomorphism; a
    negative answer names the separating invariant; otherwise the randomized
    search gives up (Inconclusive) and says nothing.
    """
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebra handles")
    rng = rng or random.Random(0)
    invM, invN = _invariant_battery(M), _invariant_battery(N)
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
        # equal dimensions but no homomorphisms at all: rigorous rejection
        return IsoResult("no", invariant="Hom space is zero")
    if d == 1:
        # every candidate is a scalar multiple of the single basis map
        if _invertible(homs[0]):
            return IsoResult("yes", witness=homs[0])
        return IsoResult("no", invariant="one-dimensional Hom space has no invertible element")
    f = M.algebra.field
    p = f.p
    if p is not None and p**d <= 2**20:
        for combo in itertools.product(range(p), repeat=d):
            if all(c == 0 for c in combo):
                continue
            cand = _linear_combination(homs, [f.from_int(c) for c in combo])
            if _invertible(cand):
                return IsoResult("yes", witness=cand)
        # the search space was exhausted: no combination is invertible
        return IsoResult("no", invariant="exhausted Hom space")
    for attempt in range(_ISO_TRIES):
        if p is None:
            B = 1 + attempt // 4
            coeffs = [f.from_int(rng.randint(-B, B)) for _ in range(d)]
        else:
            coeffs = [f.from_int(rng.randrange(p)) for _ in range(d)]
        if all(c == 0 for c in coeffs):
            continue
        cand = _linear_combination(homs, coeffs)
        if _invertible(cand):
            return IsoResult("yes", witness=cand)
    return IsoResult("inconclusive")


def split_projective_summands(M: Rep):
    """Strip projective direct summands; returns (core, stripped vertex names).

    Lemma: let g: M -> P_v and m in e_v M be such that g(m) has a nonzero
    coefficient at the trivial path e_v.  For f: P_v -> M sending e_v to m,
    g o f is then a unit of the local ring End(P_v), so M = Am (+) ker g with
    Am isomorphic to P_v.  Such a pair exists exactly when P_v is a summand
    of M, and by bilinearity then among the standard basis vectors m of M_v
    and the basis maps g of Hom(M, P_v); the first pair found, m outermost,
    is split off.
    """
    A = M.algebra
    q = A.quiver
    stripped: list[str] = []
    current = M
    while True:
        g = None
        for v in range(q.n_vertices):
            if current.dims[v] == 0:
                continue
            homs = hom_basis(current, projective(A, v)[0])
            # row 0 of a map into P_v at v is the coordinate of e_v
            g = next(
                (h for t in range(current.dims[v]) for h in homs if h.mats[v].data[0][t]),
                None,
            )
            if g is not None:
                break
        if g is None:
            return current, stripped
        current, _ = kernel_subrep(g)
        stripped.append(q.vertices[v])


def stable_isomorphic(M: Rep, N: Rep, rng: random.Random | None = None) -> IsoResult:
    """Isomorphism in the projectively stable category."""
    coreM, _ = split_projective_summands(M)
    coreN, _ = split_projective_summands(N)
    return is_isomorphic(coreM, coreN, rng)


# -- one-sided restrictions and balanced tensor products --------------------


class Restriction(Rep):
    """A module over a product L (x) R^op seen over one of its factors.

    entries[v] names the coordinate of the original Rep behind each basis
    vector at vertex v, as (vertex, index); pos[v] inverts entries[v].  outer
    is the factor whose action was forgotten, None for a one-sided Rep.
    """

    __slots__ = ("outer", "entries", "pos")

    def __init__(self, algebra, dims, mats, outer, entries, pos):
        super().__init__(algebra, dims, mats)
        self.outer = outer
        self.entries = entries
        self.pos = pos


def _factor_image(M: Rep, side: str, a: int, key) -> dict:
    """The image of the coordinate key = (product vertex, index) of M over
    L (x) R^op under arrow a of L (side 'left') or of R^op (side 'right'),
    keyed by product coordinates.

    This is the one place that reads the product coordinates of a bimodule:
    arrow a of L acts on the strand of the product vertex (u, w) by the
    product arrow (a, w), arrow a of R^op by the product arrow (u, a).
    """
    prod = M.algebra.product
    pi, i = key
    u, w = prod.vertex_pairs[pi]
    if side == "left":
        pa, tgt_pair = prod.left_arrow[(a, w)], prod.pair_index[(prod.left.quiver.a_tgt[a], w)]
    else:
        # arrow a of R^op is arrow a of R reversed, acting on the right
        pa, tgt_pair = prod.right_arrow[(u, a)], prod.pair_index[(u, prod.right.quiver.a_src[a])]
    return {(tgt_pair, r): row[i] for r, row in enumerate(M.mats[pa].data) if row[i]}


def restrict(M: Rep, side: str) -> Restriction:
    """Forget one action of a bimodule; dimension is preserved.

    For M over L (x) R^op, side 'left' gives a module over L and side 'right'
    a module over R^op.  The coordinates at a vertex are those of M at the
    product vertices over it, in product-vertex order.  A one-sided Rep is
    its own restriction; as a right module it must be a Rep over an opposite
    handle.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    prod = M.algebra.product
    if prod is None:
        if side == "right" and M.algebra._opposite is None:
            raise ValueError(
                "a right module must be a Rep over an opposite handle or a product"
            )
        entries = [[(v, i) for i in range(d)] for v, d in enumerate(M.dims)]
        pos = [{e: i for i, e in enumerate(es)} for es in entries]
        return Restriction(M.algebra, M.dims, M.mats, None, entries, pos)
    if side == "left":
        target, outer, own = prod.left, prod.right, 0
    else:
        target, outer, own = prod.right.opposite(), prod.left, 1
    entries = [[] for _ in range(target.quiver.n_vertices)]
    for pi, pair in enumerate(prod.vertex_pairs):
        entries[pair[own]].extend((pi, i) for i in range(M.dims[pi]))
    pos = [{e: i for i, e in enumerate(es)} for es in entries]
    rep = action_rep(target, entries, lambda a, key: _factor_image(M, side, a, key))
    return Restriction(target, rep.dims, rep.mats, outer, entries, pos)


@dataclass
class TensorSpace:
    coords: list[tuple[int, int, int]]  # (middle vertex, x entry, y entry)
    index: dict
    reducer: SubspaceReducer
    complement: list[int]
    dim: int
    y: Restriction


@dataclass
class TensorResult:
    dim: int
    rep: Rep | None


class TensorFunctor:
    """X (x)_C - for a fixed right C-module X (plain or with a left structure).

    The middle actions are those of the restrictions of X to C^op and of Y to
    C: an arrow c of C acts X^{(t(c))} -> X^{(s(c))} and Y^{(s(c))} -> Y^{(t(c))}.
    """

    def __init__(self, X: Rep):
        self.X = X
        self.x = restrict(X, "right")
        self.middle = self.x.algebra._opposite
        self.f = X.algebra.field

    def space(self, Y: Rep) -> TensorSpace:
        y = restrict(Y, "left")
        if y.algebra is not self.middle:
            raise ValueError("middle algebras do not match")
        coords, index, rows = _balanced_relations(
            self.middle.quiver, self.f, self.x.mats, self.x.dims, y.mats, y.dims
        )
        reducer = SubspaceReducer(self.f, len(coords), rows)
        comp = reducer.complement_indices()
        return TensorSpace(coords, index, reducer, comp, len(comp), y)

    def map(self, space_src: TensorSpace, space_tgt: TensorSpace, g: RepMap) -> Matrix:
        """Induced matrix of id (x) g between the two quotient spaces."""
        f = self.f
        out_cols = []
        y_src, y_tgt = space_src.y, space_tgt.y
        for amb in space_src.complement:
            w, ix, jy = space_src.coords[amb]
            yv, yi = y_src.entries[w][jy]
            vec = [f.zero()] * len(space_tgt.coords)
            gm = g.mats[yv]
            # g preserves the vertex of Y, hence the middle group
            for r in range(gm.rows):
                c = gm.data[r][yi]
                if c:
                    vec[space_tgt.index[(w, ix, y_tgt.pos[w][(yv, r)])]] = c
            out_cols.append(space_tgt.reducer.coords_in_complement(vec))
        return Matrix.from_columns(f, out_cols, nrows=space_tgt.dim)

    def quotient_rep(self, Y: Rep, env: AlgebraHandle | None) -> TensorResult:
        """The tensor product with its residual outer structure.

        With outer structures on both sides the result is a Rep over env
        (which must be left (x) right^op); with only a left outer structure
        it is a Rep over that algebra; otherwise only the dimension remains.
        """
        space = self.space(Y)
        x, y = self.x, space.y
        f = self.f
        if x.outer is None and y.outer is None:
            return TensorResult(space.dim, None)
        if x.outer is None:
            raise NotImplementedError("right-only outer structure is not needed here")
        # the outer vertex of a coordinate is the left factor of its product
        # vertex in X, the right factor in Y
        x_pairs = self.X.algebra.product.vertex_pairs
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

        # the basis at an env vertex lists its complement coordinates in
        # ascending order
        tag = {amb: out_tag(*space.coords[amb]) for amb in space.complement}
        basis = [[] for _ in range(env.quiver.n_vertices)]
        for amb, v in tag.items():
            basis[v].append(amb)

        def image(pa, amb):
            # the ambient action of env arrow pa on the X or the Y factor,
            # reduced to complement coordinates
            kind, a1, a2 = env.product.arrow_kind[pa] if y.outer is not None else ("L", pa, None)
            w, ix, jy = space.coords[amb]
            vec = [f.zero()] * len(space.coords)
            if kind == "L":
                for key, c in _factor_image(self.X, "left", a1, x.entries[w][ix]).items():
                    vec[space.index[(w, x.pos[w][key], jy)]] = c
            else:
                for key, c in _factor_image(Y, "right", a2, y.entries[w][jy]).items():
                    vec[space.index[(w, ix, y.pos[w][key])]] = c
            red = space.reducer.reduce(vec)
            out = {}
            for amb2, v in tag.items():
                if red[amb2]:
                    if v != env.quiver.a_tgt[pa]:
                        raise ConsistencyError("tensor grading violated")
                    out[amb2] = red[amb2]
            return out

        rep = action_rep(env, basis, image)
        return TensorResult(rep.total_dim, rep)


def tensor_over(X: Rep, Y: Rep, env: AlgebraHandle | None = None) -> TensorResult:
    """Balanced tensor product X (x)_C Y over the shared middle algebra."""
    return TensorFunctor(X).quotient_rep(Y, env)


# -- bimodule carriers ------------------------------------------------------


def path_bimodule(A: AlgebraHandle, E: AlgebraHandle, left, right) -> Rep:
    """The L-R-bimodule of normal paths of A, as a module over E = L (x) R^op.

    left = (vertex map, arrow paths) places L in A, and right places R.  The
    component at the product vertex (l, r) is spanned by the normal paths
    from right[0][r] to left[0][l]; an arrow x of L acts by postcomposition
    with left[1][x], an arrow y of R by precomposition with right[1][y].
    """
    (lv, lpaths), (rv, rpaths) = left, right
    prod = E.product

    def image(pa, p):
        kind, x, y = prod.arrow_kind[pa]
        return A.mul_paths(p, lpaths[x]) if kind == "L" else A.mul_paths(rpaths[y], p)

    return action_rep(E, [A.paths_between(rv[r], lv[l]) for l, r in prod.vertex_pairs], image)


def regular_bimodule(A: AlgebraHandle) -> Rep:
    """A as a module over its enveloping algebra A (x) A^op: the normal paths
    w -> u at the product vertex (u, w)."""
    own = (range(A.quiver.n_vertices), arrow_paths(A))
    return path_bimodule(A, A.enveloping(), own, own)


def regular_bimodule_coords(A: AlgebraHandle, elem) -> list[list]:
    """Coordinates of an algebra element inside the regular bimodule."""
    env = A.enveloping()
    prod = env.product
    basis = [A.paths_between(w, u) for (u, w) in prod.vertex_pairs]
    vecs = [[A.field.zero()] * len(b) for b in basis]
    for p, c in elem.items():
        pi = prod.pair_index[(p.target, p.source)]
        vecs[pi][basis[pi].index(p)] = c
    return vecs


def stable_span(M: Rep, vectors_per_vertex):
    """Close the given per-vertex vectors under all arrow actions."""
    A = M.algebra
    q = A.quiver
    f = A.field
    reducers = [
        SubspaceReducer(f, M.dims[u], vectors_per_vertex[u]) for u in range(q.n_vertices)
    ]
    queue = []
    for u in range(q.n_vertices):
        queue.extend((u, row) for row in reducers[u].basis_rows())
    while queue:
        u, vec = queue.pop()
        for a in q.arrows_from[u]:
            img = M.mats[a].apply(vec)
            if reducers[q.a_tgt[a]].insert(img):
                queue.append((q.a_tgt[a], list(img)))
    return [r.basis_rows() for r in reducers]
