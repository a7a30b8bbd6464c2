"""Finite-dimensional modules over completed quiver algebras.

A module is a quiver representation: a dimension vector plus one exact matrix
per arrow.  On top of that sit Hom spaces, minimal projective covers and
resolutions, bounded projective/injective dimension, standard duality,
balanced tensor products over a middle algebra, and isomorphism testing
(invariant battery plus a seeded search for an invertible homomorphism).
`projective_cover` returns (P, pi, basis), the basis of P listing per vertex
its (summand, normal path) keys; a resolution step keeps only the summand
vertices of P and takes the kernel of pi without assembling P or pi.
`minimal_resolution` and `pd_bounded` walk one step loop; `pd_bounded` also
stops at a syzygy with a simple summand S_u that is a summand of one of its
own syzygies, which makes pd infinite, and still reports AtLeast(bound + 1).

Hom and the tensor product share one linear system, the balanced relations
x.c (x) y - x (x) c.y: X (x) Y is the quotient of the coordinate space by
them, and Hom(M, N) = D(DN (x) M) is read as the null space of the relations
of DN (x) M, as kernel vectors: `hom_basis` makes each a map, the searches
only the vectors they use.  The derived tensor goes through Hom alone:
Tor_i(X, Y) is dual to Ext^i(Y, DX), whose dimensions `homology.tor_bounded`
counts as kernel vectors along a minimal resolution of Y.

Invariants are read off a module's own matrices: socle layers as the radical
layers of the transposed matrices on the reversed arrows, projectivity off the top.

A Rep is never changed once built.  It keeps each arrow matrix twice: by
rows in `mats`, and as its transpose in `transposes`, whose rows are the
images of the basis vectors, so an arrow acts on a stored row by
`Matrix.row_times` of its transpose.  Whatever builds a module builds both,
once, and they always agree.  `validate_rep` checks the relations that way
too, pushing basis vectors along each path, and a sum of projectives, where
one is assembled, is the `rep_direct_sum` of the cached indecomposables.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebra import AlgebraHandle, ConsistencyError, Path
from .linalg import Matrix, SubspaceReducer, kernel_vectors, stored_row

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
    "validate_rep",
    "hom_basis",
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
    """A left module over a completed algebra, as a quiver representation.

    mats[a] is the matrix of arrow a and transposes[a] its transpose, whose
    row i is the image of basis vector i at the source.  A Rep is never
    changed once built, so the two always agree: `Rep` transposes the given
    matrices, and the engine's builders hand over both through `Rep._of`.
    """

    __slots__ = ("algebra", "dims", "mats", "transposes")

    def __init__(self, algebra: AlgebraHandle, dims, mats):
        self.algebra = algebra
        self.dims = list(dims)
        self.mats = list(mats)
        self.transposes = [m.transpose() for m in self.mats]

    @classmethod
    def _of(cls, algebra: AlgebraHandle, dims, transposes, mats=None):
        """The Rep whose arrow matrices have the given transposes, taken as
        they are.  mats, when given, must be those arrow matrices; otherwise
        they are built from the transposes."""
        rep = cls.__new__(cls)
        rep.algebra, rep.dims, rep.transposes = algebra, list(dims), list(transposes)
        rep.mats = [t.transpose() for t in rep.transposes] if mats is None else list(mats)
        return rep

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


def zero_rep(A: AlgebraHandle) -> Rep:
    return Rep(A, [0] * A.quiver.n_vertices, [Matrix.zero(A.field, 0, 0) for _ in range(A.quiver.n_arrows)])


def identity_map(M: Rep) -> RepMap:
    return RepMap(M, M, [Matrix.identity(M.algebra.field, d) for d in M.dims])


def _block_diagonal(A: AlgebraHandle, reps: list[Rep]):
    """(dims, arrow matrices, per-summand offsets) of the direct sum of reps.

    Every stored row is a new dict: the entries of the summands are copied,
    never their rows.
    """
    q = A.quiver
    offsets = []
    dims = [0] * q.n_vertices
    for r in reps:
        offsets.append(dims)
        dims = [x + d for x, d in zip(dims, r.dims)]
    mats = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        rows = []
        for r, off in zip(reps, offsets):
            lo = off[src]
            rows.extend({lo + j: x for j, x in row.items()} for row in r.mats[a].entries)
        mats.append(Matrix.from_entries(A.field, dims[tgt], dims[src], rows))
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
            rows: list[dict] = [{} for _ in range(dims[u])]
            for i in range(r.dims[u]):
                rows[offsets[k][u] + i] = {i: f.one()}
            ms.append(Matrix.from_entries(f, dims[u], r.dims[u], rows))
        incls.append(RepMap(r, total, ms))
    return total, incls


# -- standard modules -------------------------------------------------------


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
    transposes = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        cols = [{index[tgt][w]: c for w, c in image(a, key).items()} for key in basis[src]]
        transposes.append(Matrix.from_entries(A.field, dims[src], dims[tgt], cols))
    return Rep._of(A, dims, transposes)


def arrow_paths(A: AlgebraHandle) -> list[Path]:
    """The arrows of A as paths of length one."""
    q = A.quiver
    return [Path(q.a_src[a], q.a_tgt[a], (a,)) for a in range(q.n_arrows)]


def projective(A: AlgebraHandle, v: int):
    """The indecomposable projective Ae_v and its basis, listing (0, p) at u
    for the normal paths p from v to u; cached on A, callers must not mutate
    either."""
    key = ("projective", v)
    if key not in A._extra:
        basis = [[] for _ in range(A.quiver.n_vertices)]
        for p in A.paths_from(v):
            basis[p.target].append((0, p))
        arrows = arrow_paths(A)

        def image(a, key):
            product = A.mul_paths(key[1], arrows[a])  # most often zero: no dict to build
            return {(0, w): c for w, c in product.items()} if product else product

        A._extra[key] = (action_rep(A, basis, image), basis)
    return A._extra[key]


def simple(A: AlgebraHandle, v: int) -> Rep:
    q = A.quiver
    dims = [1 if u == v else 0 for u in range(q.n_vertices)]
    return Rep(A, dims, [Matrix.zero(A.field, dims[q.a_tgt[a]], dims[q.a_src[a]]) for a in range(q.n_arrows)])


def injective(A: AlgebraHandle, v: int) -> Rep:
    """The indecomposable injective at v: dual of the opposite projective."""
    return dual(projective(A.opposite(), v)[0])


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


def validate_rep(M: Rep) -> list[str]:
    """The problems of M as a module over its algebra: each arrow matrix of
    the wrong shape, else each relation that does not vanish on M.

    A relation sum c p vanishes when it sends every basis vector e_i at its
    source to zero: e_i is pushed along each path p through the transposes
    of its arrows, and the raw values c x are summed and canonicalized once.
    """
    problems = []
    A = M.algebra
    q = A.quiver
    one = A.field.one()
    for a in range(q.n_arrows):
        m = M.mats[a]
        if (m.rows, m.cols) != (M.dims[q.a_tgt[a]], M.dims[q.a_src[a]]):
            problems.append(f"arrow {q.arrow_name(a)}: matrix shape mismatch")
    if problems:
        return problems
    for ri, rel in enumerate(A.presentation.relations):
        for i in range(M.dims[rel[0][0].source]):
            acc: dict = {}
            for p, c in rel:
                row = {i: one}
                for a in p.arrows:
                    row = M.transposes[a].row_times(row)
                for k, x in row.items():
                    acc[k] = acc.get(k, 0) + c * x
            if stored_row(acc.items(), A.field.p):
                problems.append(f"relation {ri} does not vanish on the representation")
                break
    return problems


# -- Hom spaces -------------------------------------------------------------


def _balanced_relations(quiver, field, xcols, xdims, ycols, ydims):
    """The relations x.c (x) y - x (x) c.y of X (x) Y over the path algebra of quiver.

    X is a right and Y a left module: an arrow c: s -> t acts X_t -> X_s and
    Y_s -> Y_t by matrices given by their columns xcols[c] and ycols[c], each
    a {row: value} dict that stores no zero (a stored row of the transpose).
    The coordinates (w, ix, jy) of the space sum_w X_w (x) Y_w are ordered
    by w, then ix, then jy; there is one row per (c, ix in X_t, jy in Y_s),
    skipped when it has no entry.
    Returns (coords, index of each coordinate, rows), each row a
    {coordinate index: value} dict that stores no zero.
    """
    f = field
    coords = [(w, ix, jy) for w in range(quiver.n_vertices) for ix in range(xdims[w]) for jy in range(ydims[w])]
    index = {c: i for i, c in enumerate(coords)}
    offset = [0] * quiver.n_vertices
    for w in range(1, quiver.n_vertices):
        offset[w] = offset[w - 1] + xdims[w - 1] * ydims[w - 1]
    zero = f.zero()
    rows = []
    for a in range(quiver.n_arrows):
        s, t = quiver.a_src[a], quiver.a_tgt[a]
        for ix, xcol in enumerate(xcols[a]):
            for jy, ycol in enumerate(ycols[a]):
                # the two halves share a coordinate only when the arrow is a loop
                row = {offset[s] + k * ydims[s] + jy: c for k, c in xcol.items()}
                for l, c in ycol.items():
                    key = offset[t] + ix * ydims[t] + l
                    x = f.sub(row.get(key, zero), c)
                    if x:
                        row[key] = x
                    else:
                        row.pop(key, None)
                if row:
                    rows.append(row)
    return coords, index, rows


def _hom_vectors(M: Rep, N: Rep):
    """Hom(M, N) as the null space of the relations of DN (x) M: (coords,
    index) of `_balanced_relations` and the `kernel_vectors`.

    Maps f_u: M_u -> N_u form a homomorphism when N_a f_u = f_w M_a for every
    arrow a: u -> w.  These are the balanced relations of the right module
    DN, whose arrows act by the transposed matrices of N, against M: the
    entry (i, j) of f_u is the coordinate (u, i, j).  The columns of a
    transposed matrix of N are the stored rows of N's.
    """
    A = M.algebra
    if N.algebra is not A:
        raise ValueError("Hom requires modules over the same algebra handle")
    f = A.field
    coords, index, rows = _balanced_relations(
        A.quiver, f, [m.entries for m in N.mats], N.dims, [m.entries for m in M.transposes], M.dims
    )
    return coords, index, kernel_vectors(f, rows, len(coords))[0]


def _hom_map(M: Rep, N: Rep, coords, vec: dict) -> RepMap:
    """The map M -> N whose entries are the stored entries of vec, a vector
    in the coordinates of `_hom_vectors`."""
    rows: list[list[dict]] = [[{} for _ in range(n)] for n in N.dims]
    for idx, x in vec.items():
        u, i, j = coords[idx]
        rows[u][i][j] = x
    return RepMap(M, N, [Matrix.from_entries(M.algebra.field, n, m, r) for n, m, r in zip(N.dims, M.dims, rows)])


def _combination(vecs: list[dict], coeffs, p: int | None) -> dict:
    """The stored row sum c v, in one pass over the vectors of nonzero c."""
    acc: dict = {}
    for c, vec in zip(coeffs, vecs):
        if c:
            for k, x in vec.items():
                acc[k] = acc.get(k, 0) + c * x
    return stored_row(acc.items(), p)


def hom_basis(M: Rep, N: Rep) -> list[RepMap]:
    """Basis of Hom(M, N): the vectors of `_hom_vectors`, each made a map."""
    coords, _, vecs = _hom_vectors(M, N)
    return [_hom_map(M, N, coords, vec) for vec in vecs]


def _map_columns(M: Rep, gens):
    """(vertices, basis, transposes) of the map P_{v_0} (+) P_{v_1} (+) ... ->
    M that sends the generator of summand j to c_j, where gens[j] = (v_j, c_j)
    and a column is {row: value}.  The basis at u lists (j, p) for the normal
    paths p to u of summand j, in summand order; row k of transposes[u] is
    the column of basis key k, p acting on c_j, propagated along the arrows:
    column(p.a) = M_a column(p), the row column(p) times the transpose of
    M_a, memoized by (summand, arrows) for this call only.
    """
    A = M.algebra
    columns = {}

    def column(j, arrows):
        if (j, arrows) not in columns:
            col = gens[j][1] if not arrows else M.transposes[arrows[-1]].row_times(column(j, arrows[:-1]))
            columns[j, arrows] = col
        return columns[j, arrows]

    basis = [[] for _ in M.dims]
    for j, (v, _) in enumerate(gens):
        for u, keys in enumerate(projective(A, v)[1]):
            basis[u].extend((j, p) for _, p in keys)
    cols = [[column(j, p.arrows) for j, p in keys] for keys in basis]
    return [v for v, _ in gens], basis, [Matrix.from_entries(A.field, len(c), d, c) for c, d in zip(cols, M.dims)]


# -- radical, socle, covers -------------------------------------------------


def radical_reducers(M: Rep) -> list[SubspaceReducer]:
    """Per-vertex reduced bases of rad M = (rad A) M."""
    A = M.algebra
    q = A.quiver
    red = [SubspaceReducer(A.field, M.dims[u]) for u in range(q.n_vertices)]
    for a in range(q.n_arrows):
        for col in M.transposes[a].entries:
            red[q.a_tgt[a]].insert(col)
    return red


def top_dims(M: Rep) -> list[int]:
    red = radical_reducers(M)
    return [M.dims[u] - red[u].rank for u in range(len(M.dims))]


def _layer_dims(f, dims: list[int], arrows) -> list[tuple[int, ...]]:
    """Dimension vectors of the radical layers of the representation with
    dimension vector dims and the (source, target, matrix) arrows, in order.

    Each matrix is the transpose of its arrow's action, so that the image of
    a vector of stored entries is `Matrix.row_times` of it."""
    n = len(dims)
    layers = []
    one = f.one()
    # stored rows spanning rad^i per vertex
    current = [[{i: one} for i in range(d)] for d in dims]
    prev_ranks = list(dims)
    while True:
        nxt = [SubspaceReducer(f, d) for d in dims]
        for src, tgt, m in arrows:
            for row in current[src]:
                nxt[tgt].insert(m.row_times(row))
        ranks = [nxt[u].rank for u in range(n)]
        layers.append(tuple(p - r for p, r in zip(prev_ranks, ranks)))
        if all(r == 0 for r in ranks):
            break
        current = [list(nxt[u].rows.values()) for u in range(n)]
        prev_ranks = ranks
    while layers and all(x == 0 for x in layers[-1]):
        layers.pop()
    return layers


def radical_layer_dims(M: Rep) -> list[tuple[int, ...]]:
    """Dimension vectors of rad^i M / rad^{i+1} M, i = 0, 1, ..."""
    q = M.algebra.quiver
    arrows = [(q.a_src[a], q.a_tgt[a], m) for a, m in enumerate(M.transposes)]
    return _layer_dims(M.algebra.field, M.dims, arrows)


def socle_layer_dims(M: Rep) -> list[tuple[int, ...]]:
    """Dimension vectors of soc^{i+1} M / soc^i M, the radical layers of DM.

    DM is read as the transposed matrices on the reversed arrows, so the
    opposite algebra it lives over is never completed."""
    q = M.algebra.quiver
    arrows = [(q.a_tgt[a], q.a_src[a], m) for a, m in enumerate(M.mats)]
    return _layer_dims(M.algebra.field, M.dims, arrows)


def _span_images(M: Rep, reducers, rows) -> list[list[dict]]:
    """Per arrow a, the images under M_a of the span's basis rows at its source.

    rows[u] is the basis of the span reducers[u] as stored rows, so an image
    is `Matrix.row_times` of a row by the transpose of M_a.  Raises
    ValueError when an image leaves the span at the target, that is when the
    span is not stable under the arrow actions.
    """
    q = M.algebra.quiver
    images = []
    for a in range(q.n_arrows):
        image = [M.transposes[a].row_times(row) for row in rows[q.a_src[a]]]
        if not all(reducers[q.a_tgt[a]].contains(col) for col in image):
            raise ValueError("span is not stable under the arrow actions")
        images.append(image)
    return images


def sub_rep(M: Rep, vectors_per_vertex):
    """Subrepresentation spanned by the given vectors; (rep, inclusion).

    vectors_per_vertex[u] lists vectors of M_u, stored rows or dense lists.
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
    echelon = [red.echelon_rows() for red in reducers]
    dims = [len(rows) for rows in echelon]
    pos = [{j: i for i, j in enumerate(sorted(red.rows))} for red in reducers]
    transposes = []
    for a, image in enumerate(_span_images(M, reducers, echelon)):
        at = pos[q.a_tgt[a]]
        cols = [{at[j]: x for j, x in col.items() if j in at} for col in image]
        transposes.append(Matrix.from_entries(f, dims[q.a_src[a]], dims[q.a_tgt[a]], cols))
    bases = [Matrix.from_entries(f, dims[u], M.dims[u], rows).transpose() for u, rows in enumerate(echelon)]
    S = Rep._of(A, dims, transposes)
    return S, RepMap(S, M, bases)


def quotient_rep(M: Rep, vectors_per_vertex):
    """Quotient by the subrepresentation spanned by the vectors; (rep, projection).

    vectors_per_vertex[u] lists vectors of M_u, stored rows or dense lists.
    The basis of the quotient at each vertex is the complement of the pivots
    of the span, and a vector's coordinates there are its `reduce`.  Raises
    ValueError, as `sub_rep` does, when the span is not stable under the
    arrow actions; `stable_span` closes a spanning set first.
    """
    A = M.algebra
    f = A.field
    q = A.quiver
    reducers = [SubspaceReducer(f, M.dims[u], vectors_per_vertex[u]) for u in range(q.n_vertices)]
    _span_images(M, reducers, [red.echelon_rows() for red in reducers])
    # the quotient at u has the basis of the complement coordinates comps[u]
    comps = [r.complement_indices() for r in reducers]

    def image(a, j):
        # column j of M_a is row j of its transpose
        return reducers[q.a_tgt[a]].reduce(M.transposes[a].entries[j])

    Q = action_rep(A, comps, image)
    one = f.one()
    projs = []
    for u, (red, n) in enumerate(zip(reducers, M.dims)):
        pos = {k: i for i, k in enumerate(comps[u])}
        cols = [{pos[k]: x for k, x in red.reduce({j: one}).items()} for j in range(n)]
        projs.append(Matrix.from_entries(f, n, Q.dims[u], cols).transpose())
    return Q, RepMap(M, Q, projs)


def _kernel_rep(A: AlgebraHandle, transposes: list[Matrix], act):
    """The kernel of a map F as a Rep, and its `kernel_vectors` per vertex.

    transposes[u] is the transpose of F_u, act(a, vec) the image of a source
    vector under arrow a.  A kernel vector is the identity at the free
    columns, so its coordinates are its entries there, and arrow a acts by
    the free entries of the images.  Raises ValueError when F does not kill
    them: the kernel is not stable under the arrows (never for a homomorphism).
    """
    q, f = A.quiver, A.field
    kernels = [kernel_vectors(f, m.transpose().entries, m.rows) for m in transposes]
    dims = [len(free) for _, free in kernels]
    arrows = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        images = [act(a, vec) for vec in kernels[src][0]]
        if not (Matrix.from_entries(f, dims[src], transposes[tgt].rows, images) @ transposes[tgt]).is_zero():
            raise ValueError("span is not stable under the arrow actions")
        pos = {k: r for r, k in enumerate(kernels[tgt][1])}
        cols = [{pos[k]: x for k, x in image.items() if k in pos} for image in images]
        arrows.append(Matrix.from_entries(f, dims[src], dims[tgt], cols))
    return Rep._of(A, dims, arrows), [vecs for vecs, _ in kernels]


def kernel_subrep(f_map: RepMap):
    """Kernel of a map as a subrepresentation of its source; (rep, inclusion).

    The basis at u is the `kernel_vectors` of ``f_map.mats[u]``; see
    `_kernel_rep`, which raises ValueError when the kernel is not stable.
    """
    M, f = f_map.source, f_map.source.algebra.field
    actions = [m.row_times for m in M.transposes]
    S, kernels = _kernel_rep(M.algebra, [m.transpose() for m in f_map.mats], lambda a, vec: actions[a](vec))
    return S, RepMap(S, M, [Matrix.from_entries(f, len(vs), d, vs).transpose() for vs, d in zip(kernels, M.dims)])


def _cover(M: Rep, reducers: list[SubspaceReducer]):
    """`_map_columns` of the minimal cover pi: P -> M, given the
    `radical_reducers` of M: one summand P_u per basis vector e_i of M_u
    outside the echelon pivots of rad M, its generator sent to e_i."""
    one = M.algebra.field.one()
    return _map_columns(M, [(u, {i: one}) for u, red in enumerate(reducers) for i in red.complement_indices()])


def projective_cover(M: Rep):
    """Minimal projective cover (P, pi, basis) of `_cover`; kernel of pi lies in rad P."""
    vertices, basis, transposes = _cover(M, radical_reducers(M))
    A = M.algebra
    P = rep_direct_sum([projective(A, v)[0] for v in vertices])[0] if vertices else zero_rep(A)
    return P, RepMap(P, M, [m.transpose() for m in transposes]), basis


def _syzygy(M: Rep, reducers: list[SubspaceReducer]):
    """One resolution step: the summand vertices of the minimal cover pi: P
    -> M of `_cover`, and the kernel of pi as `kernel_subrep` gives it.  P is
    never assembled: an arrow acts on a vector of P through the transposed
    matrices of each summand's cached projective, at its offset."""
    A = M.algebra
    vertices, basis, transposes = _cover(M, reducers)
    parts = {v: projective(A, v)[0].transposes for v in set(vertices)}
    offsets, dims = [], [0] * len(M.dims)
    for v in vertices:
        offsets.append(dims)
        dims = [x + d for x, d in zip(dims, projective(A, v)[0].dims)]

    def act(a, vec):
        src, tgt = A.quiver.a_src[a], A.quiver.a_tgt[a]
        acc: dict = {}
        for k, x in vec.items():
            j = basis[src][k][0]
            lo = offsets[j][tgt]
            for r, y in parts[vertices[j]][a].entries[k - offsets[j][src]].items():
                acc[lo + r] = acc.get(lo + r, 0) + x * y
        return stored_row(acc.items(), A.field.p)

    return vertices, _kernel_rep(A, transposes, act)[0]


def is_projective(M: Rep) -> bool:
    """Whether M is projective, decided by dimension alone.

    The minimal cover pi: P0 -> M is onto: it sends its generators to lifts
    of a basis of the top of M, and by Nakayama's lemma they generate M.  A
    projective M splits pi, and a summand of P0 inside rad P0 is zero, so M
    is projective exactly when pi is an isomorphism: when dim P0 = dim M.
    P0 is the sum of top_v M copies of P_v, so pi itself is never built.
    """
    A = M.algebra
    cover_dim = sum(t * projective(A, v)[0].total_dim for v, t in enumerate(top_dims(M)) if t)
    return cover_dim == M.total_dim


@dataclass
class Resolution:
    """A minimal projective resolution, kept as its covers and syzygies.

    covers[i] lists the summand vertices of P_i, the minimal cover of Omega^i
    with kernel Omega^{i+1}: all that pd and Tor (`homology.tor_bounded`)
    need.  `projectives` assembles the P_i anew on each read.
    """

    covers: list[list[int]]
    syzygies: list[Rep]  # syzygies[i] = Omega^{i+1}(M)
    terminated: bool

    @property
    def projectives(self) -> list[Rep]:
        sums = ([projective(K.algebra, v)[0] for v in vs] for vs, K in zip(self.covers, self.syzygies))
        return [rep_direct_sum(reps)[0] for reps in sums]

    def dimension(self, bound: int) -> BoundedDim:
        """The projective dimension of the module, read off a resolution of
        bound + 1 steps: exact when it terminated, else more than bound."""
        if self.terminated:
            return BoundedDim.Exact(max(0, len(self.covers) - 1), bound)
        return BoundedDim.AtLeast(bound + 1, bound)


def _resolution_steps(M: Rep, steps: int, dim_cap: int | None):
    """The first `steps` steps of the minimal resolution of M, up to the
    first zero syzygy: yields (cover vertices, K, reducers) for K = Omega^1,
    Omega^2, ..., where the cover is that of the module before K and reducers
    are the `radical_reducers` of K, built once for the next cover and for
    the summand test of `pd_bounded`.  They are None when no step follows.

    A module is checked against dim_cap before its reducers are built, and
    a step is taken only when the caller asks for its syzygy.
    """

    def reducers(K: Rep):
        if dim_cap is not None and K.total_dim > dim_cap:
            raise ResolutionCapExceeded(f"syzygy dimension {K.total_dim} exceeds cap {dim_cap}")
        return radical_reducers(K)

    if steps < 1 or M.is_zero():
        return
    K, red = M, reducers(M)
    for i in range(1, steps + 1):
        vertices, K = _syzygy(K, red)
        red = reducers(K) if i < steps and not K.is_zero() else None
        yield vertices, K, red
        if red is None:
            return


def minimal_resolution(M: Rep, steps: int, dim_cap: int | None = None) -> Resolution:
    """Iterated minimal covers (`_syzygy`); stops early when a syzygy vanishes."""
    covers, syz = [], []
    for vertices, K, _ in _resolution_steps(M, steps, dim_cap):
        covers.append(vertices)
        syz.append(K)
    return Resolution(covers, syz, (syz[-1] if syz else M).is_zero())


def _simple_summands(K: Rep, reducers: list[SubspaceReducer]):
    """The vertices u, in order, at which the simple S_u is a direct summand
    of K, whose `radical_reducers` are given.

    A map f: S_u -> K picks a vector x of the socle of K at u, killed by every
    arrow out of u, and a map g: K -> S_u is a functional on K_u that vanishes
    on (rad K)_u.  S_u splits off when some g f is nonzero (End S_u is the
    field), that is when some socle vector at u lies outside (rad K)_u.
    """
    q, f = K.algebra.quiver, K.algebra.field
    for u, red in enumerate(reducers):
        if red.rank == K.dims[u]:
            continue
        socle, _ = kernel_vectors(f, [row for a in q.arrows_from[u] for row in K.mats[a].entries], K.dims[u])
        if not all(red.contains(x) for x in socle):
            yield u


def _simple_returns(A: AlgebraHandle, u: int, steps: int, dim_cap: int | None) -> bool:
    """Whether S_u is a summand of Omega^k(S_u) for some 1 <= k <= steps,
    which makes pd S_u infinite (see `pd_bounded`).

    (steps searched, found) is cached on A beside the projectives.  A is
    never mutated after completion, so the answer cannot go stale; a deeper
    question searches again from the start.  Raises ResolutionCapExceeded as
    the resolution of S_u does, and then caches nothing.
    """
    key = ("simple_returns", u)
    searched, found = A._extra.get(key, (0, False))
    if found or searched >= steps:
        return found
    S = simple(A, u)
    for _, K, red in itertools.islice(_resolution_steps(S, steps + 1, dim_cap), steps):
        if K.is_zero():
            break
        if u in _simple_summands(K, red):
            found = True
            break
    A._extra[key] = (steps, found)
    return found


def pd_bounded(M: Rep, bound: int, side: str = "projective", dim_cap: int | None = None) -> BoundedDim:
    """Projective (or, via duality, injective) dimension decided up to bound.

    The minimal resolution runs one step at a time, for at most bound + 1
    steps.  It stops at the first zero syzygy, or at the first Omega^i with
    1 <= i <= bound that has a simple summand S_u of infinite pd, since then
    pd M >= i + pd S_u is infinite too.

    - S_u is a summand of K when a socle vector of K at u lies outside
      (rad K)_u (`_simple_summands`).
    - Lemma: if X is a summand of Omega^k(X) for some k >= 1, then pd X is
      infinite.  Such an X is not projective, and were pd X = n, then
      n <= max(n - k, 0), so n = 0.
    - When M is S_u, its own syzygies are the test.  For any other u,
      `_simple_returns` resolves S_u for the bound - i steps that remain.
      Omega^j(S_u) is a summand of Omega^(i+j)(M), so a search that finds
      S_u again costs no more than the steps of M that it replaces.

    An early stop returns AtLeast(bound + 1), the value that the full
    resolution gives, until an `Infinite` verdict can be reported.  side is
    "projective" or "injective"; any other value raises ValueError.
    """
    if side not in ("projective", "injective"):
        raise ValueError("side must be 'projective' or 'injective'")
    if side == "injective":
        M = dual(M)
    if M.is_zero():
        return BoundedDim.Exact(0, bound)
    A = M.algebra
    own = M.dims.index(1) if M.total_dim == 1 else None  # M is the simple S_own
    for i, (_, K, red) in enumerate(_resolution_steps(M, bound + 1, dim_cap), 1):
        if K.is_zero():
            return BoundedDim.Exact(i - 1, bound)
        if red is not None and any(
            u == own or _simple_returns(A, u, bound - i, dim_cap) for u in _simple_summands(K, red)
        ):
            break
    return BoundedDim.AtLeast(bound + 1, bound)


def dual(M: Rep) -> Rep:
    """Standard duality: transposed matrices over the opposite algebra, so
    the arrow matrices and their transposes trade places."""
    return Rep._of(M.algebra.opposite(), M.dims, M.mats, M.transposes)


def restrict_along(Mq: Rep, vertex_map, arrow_map, A: AlgebraHandle) -> Rep:
    """Restrict a module over a quotient algebra back along A -> A/J."""
    f = A.field
    q = A.quiver
    dims = [Mq.dims[vertex_map[u]] if vertex_map[u] is not None else 0 for u in range(q.n_vertices)]
    mats, transposes = [], []
    for a in range(q.n_arrows):
        qa, shape = arrow_map[a], (dims[q.a_tgt[a]], dims[q.a_src[a]])
        mats.append(Matrix.zero(f, *shape) if qa is None else Mq.mats[qa])
        transposes.append(Matrix.zero(f, *shape[::-1]) if qa is None else Mq.transposes[qa])
    return Rep._of(A, dims, transposes, mats)


# -- isomorphism testing ----------------------------------------------------


@dataclass
class IsoResult:
    kind: str  # 'yes' | 'no' | 'inconclusive'
    witness: RepMap | None = None
    invariant: str | None = None


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
    search gives up (Inconclusive) and says nothing.  Hom(M, N) is kept as
    kernel vectors: each candidate is one combination of them made a map,
    and End(M) and End(N) are only counted.
    """
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebra handles")
    rng = rng or random.Random(0)
    invM = _invariant_battery(M)
    invN = invM if N is M else _invariant_battery(N)
    for (name, a), (_, b) in zip(invM, invN):
        if a != b:
            return IsoResult("no", invariant=name)
    if M.total_dim == 0:
        return IsoResult("yes", witness=identity_map(M))
    coords, _, homs = _hom_vectors(M, N)
    d = len(homs)
    if d == 1 and _invertible(cand := _hom_map(M, N, coords, homs[0])):
        return IsoResult("yes", witness=cand)
    # isomorphic modules have End spaces of equal dimension: they are compared
    # only while no isomorphism is found, and before any search
    if N is not M and len(_hom_vectors(M, M)[2]) != len(_hom_vectors(N, N)[2]):
        return IsoResult("no", invariant="dim End")
    if d == 0:
        # equal dimensions but no homomorphisms at all: rigorous rejection
        return IsoResult("no", invariant="Hom space is zero")
    if d == 1:
        # every candidate is a scalar multiple of the single basis map
        return IsoResult("no", invariant="one-dimensional Hom space has no invertible element")
    f = M.algebra.field
    p = f.p
    if p is not None and p**d <= 2**20:
        for combo in itertools.product(range(p), repeat=d):
            if all(c == 0 for c in combo):
                continue
            cand = _hom_map(M, N, coords, _combination(homs, [f.from_int(c) for c in combo], p))
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
        cand = _hom_map(M, N, coords, _combination(homs, coeffs, p))
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
    and the basis of Hom(M, P_v); the first pair found, m outermost, is split
    off, and only that g, a kernel vector of `_hom_vectors`, is made a map.

    P_v has simple top S_v, so each summand P_v adds one to the top of M at
    v: only vertices in the top are tried, each at most top_v M times, and
    only while dim P_v is at most the dimension vector of what is left.
    """
    A = M.algebra
    q = A.quiver
    stripped: list[str] = []
    current = M
    # ker g is a summand of the module it is split from, so it has no P_u
    # summand that module lacks: a vertex left behind needs no second look
    for v, top in enumerate(top_dims(M)):
        P = projective(A, v)[0]
        while top and all(a <= b for a, b in zip(P.dims, current.dims)):
            coords, index, homs = _hom_vectors(current, P)
            # row 0 of a map into P_v at v is the coordinate of e_v
            g = next((h for t in range(current.dims[v]) for h in homs if index[(v, 0, t)] in h), None)
            if g is None:
                break
            current, _ = kernel_subrep(_hom_map(current, P, coords, g))
            stripped.append(q.vertices[v])
            top -= 1
    return current, stripped


# -- one-sided restrictions and balanced tensor products --------------------


class Restriction(Rep):
    """A module over a product L (x) R^op seen over one of its factors.

    entries[v] names the coordinate of the original Rep behind each basis
    vector at vertex v, as (vertex, index); pos[v] inverts entries[v].  outer
    is the factor whose action was forgotten, None for a one-sided Rep.
    `Restriction._wrap` is its one constructor.
    """

    __slots__ = ("outer", "entries", "pos")

    @classmethod
    def _wrap(cls, rep: Rep, outer, entries) -> "Restriction":
        """The Restriction with the arrow matrices and transposes of rep."""
        r = cls._of(rep.algebra, rep.dims, rep.transposes, rep.mats)
        r.outer, r.entries = outer, entries
        r.pos = [{e: i for i, e in enumerate(es)} for es in entries]
        return r


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
    # column i of the product arrow's matrix is row i of its transpose
    return {(tgt_pair, r): x for r, x in M.transposes[pa].entries[i].items()}


def restrict(M: Rep, side: str) -> Restriction:
    """Forget one action of a bimodule; dimension is preserved.

    For M over L (x) R^op, side 'left' gives a module over L and side 'right'
    a module over R^op.  The coordinates at a vertex are those of M at the
    product vertices over it, in product-vertex order.  A one-sided Rep over
    H is its own restriction, on either side: a left module over H is a
    right module over H.opposite().
    """
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
    return Restriction._wrap(action_rep(target, entries, lambda a, key: _factor_image(M, side, a, key)), outer, entries)


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
        self.middle = self.x.algebra.opposite()
        self.f = X.algebra.field

    def space(self, Y: Rep) -> TensorSpace:
        y = restrict(Y, "left")
        if y.algebra is not self.middle:
            raise ValueError("middle algebras do not match")
        coords, index, rows = _balanced_relations(
            self.middle.quiver,
            self.f,
            [m.entries for m in self.x.transposes],
            self.x.dims,
            [m.entries for m in y.transposes],
            y.dims,
        )
        reducer = SubspaceReducer(self.f, len(coords), rows)
        comp = reducer.complement_indices()
        return TensorSpace(coords, index, reducer, comp, len(comp), y)

    def quotient_rep(self, Y: Rep, env: AlgebraHandle | None) -> TensorResult:
        """The tensor product with its residual outer structure.

        With outer structures on both sides the result is a Rep over env
        (which must be left (x) right^op); with only a left outer structure
        it is a Rep over that algebra; otherwise only the dimension remains.
        """
        space = self.space(Y)
        x, y = self.x, space.y
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
            vec = {}
            if kind == "L":
                for key, c in _factor_image(self.X, "left", a1, x.entries[w][ix]).items():
                    vec[space.index[(w, x.pos[w][key], jy)]] = c
            else:
                for key, c in _factor_image(Y, "right", a2, y.entries[w][jy]).items():
                    vec[space.index[(w, ix, y.pos[w][key])]] = c
            red = space.reducer.reduce(vec)
            tgt = env.quiver.a_tgt[pa]
            if any(tag[amb2] != tgt for amb2 in red):
                raise ConsistencyError("tensor grading violated")
            return red

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


def regular_bimodule_coords(A: AlgebraHandle, elem) -> list[dict]:
    """Coordinates of an algebra element inside the regular bimodule: one
    stored row per product vertex."""
    env = A.enveloping()
    prod = env.product
    basis = [A.paths_between(w, u) for (u, w) in prod.vertex_pairs]
    vecs = [{} for _ in basis]
    for p, c in elem.items():
        pi = prod.pair_index[(p.target, p.source)]
        vecs[pi][basis[pi].index(p)] = c
    return vecs


def stable_span(M: Rep, vectors_per_vertex) -> list[list[dict]]:
    """Close the given per-vertex vectors under all arrow actions.

    vectors_per_vertex[u] lists vectors of M_u, stored rows or dense lists.
    Returns per vertex the reduced echelon basis of the closed span, as
    stored rows (`SubspaceReducer.echelon_rows`).
    """
    A = M.algebra
    q = A.quiver
    f = A.field
    reducers = [SubspaceReducer(f, M.dims[u], vectors_per_vertex[u]) for u in range(q.n_vertices)]
    queue = []
    for u in range(q.n_vertices):
        queue.extend((u, row) for row in reducers[u].echelon_rows())
    while queue:
        u, vec = queue.pop()
        for a in q.arrows_from[u]:
            img = M.transposes[a].row_times(vec)
            if reducers[q.a_tgt[a]].insert(img):
                queue.append((q.a_tgt[a], img))
    return [r.echelon_rows() for r in reducers]
