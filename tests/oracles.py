"""Independent oracles used to freeze expected values.

These deliberately avoid the production code paths they certify: the tensor
oracle builds the relator quotient with raw loops, the cosyzygy oracle
computes injective dimension from explicit socles and injective envelopes
instead of the duality route, the normal-path oracle lists every path level
by level with a suffix scan instead of counting on the lead automaton, the
rref oracle eliminates on Fraction rows instead of primitive integer rows,
the GF(p) rref oracle eliminates column by column on the whole matrix
instead of inserting one row at a time, the subspace-reducer oracle keeps
rows of field elements with pivot 1 instead of primitive integer rows over Q,
the cover oracles take one product of arrow matrices per basis path instead
of propagating columns along arrows, the projective-sum oracle multiplies
every basis path by every arrow instead of copying cached blocks, the
subrepresentation oracle solves for coordinates instead of reading them at
the echelon pivots, the kernel oracle re-echelonizes the kernel basis
through a subspace reducer instead of reading coordinates at its free rows,
the summand oracle splits along an explicit idempotent f h^-1 g instead of
taking ker g, the projectivity oracle tests the rank of the cover map
instead of comparing dimensions only, the Ext^2 oracle counts summands of
minimal resolutions instead of reducing rules modulo rad*I + I*rad, the
Hom oracle writes the intertwining system N_a f_u = f_w M_a with its own row
loops instead of the balanced relations shared with the tensor product, the
minimal-relations oracle completes kQ/K for monomial algebras too instead of
keeping every monomial rule, the Gorenstein oracle resolves D(A) whole
instead of its indecomposable summands one by one, and the restriction,
tensor, quotient and bimodule oracles fill their arrow matrices with their
own loops and closures instead of through one action builder and one reader
of product coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from qred.algebra import (
    ConsistencyError,
    DimensionNotResolved,
    Path,
    Presentation,
    _complete,
    compose,
    tensor_with_opposite,
    trivial_path,
    word_key,
)
from qred.linalg import Matrix, SubspaceReducer
from qred.modules import (
    Rep,
    RepMap,
    Restriction,
    TensorResult,
    TensorSpace,
    _balanced_relations,
    action_rep,
    arrow_paths,
    dual,
    hom_basis,
    hom_from_projective,
    injective,
    kernel_subrep,
    minimal_resolution,
    path_action,
    pd_bounded,
    projective,
    projective_cover,
    quotient_rep,
    radical_reducers,
    regular_rep,
    simple,
    sub_rep,
    top_dims,
    validate_rep,
)


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
        Rc = X.mats[a]  # X_t -> X_s
        Lc = Y.mats[a]  # Y_s -> Y_t
        for i in range(X.dims[t]):
            for j in range(Y.dims[s]):
                vec = [f.zero()] * len(coords)
                for k in range(Rc.rows):
                    c = Rc.data[k][i]
                    if c != 0:
                        vec[index[(s, k, j)]] = f.add(vec[index[(s, k, j)]], c)
                for l in range(Lc.rows):
                    c = Lc.data[l][j]
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
            ker = Matrix.from_rows(f, rows).kernel_basis()
            vecs = [ker.column(j) for j in range(ker.cols)]
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
        B = Matrix.from_columns(f, cols, nrows=M.dims[v])
        Binv = B.solve(Matrix.identity(f, M.dims[v]))
        for i in range(len(soc_vecs)):
            summands.append((v, Binv.data[i]))
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
                row = [
                    sum_entries(f, xi, act.column(m)) for m in range(M.dims[u])
                ]
                rows.append(row)
            block = (
                Matrix.from_rows(f, rows) if rows else Matrix.zero(f, 0, M.dims[u])
            )
            emb = incls[k].mats[u] @ block
            mats[u] = mats[u] + emb
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
        vecs = [
            [phi.mats[u].column(j) for j in range(current.dims[u])]
            for u in range(len(current.dims))
        ]
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
    """Incremental reduced-echelon basis of a subspace of k^n, kept as rows of
    field elements (Fractions over Q) normalized to pivot 1."""

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

    def reduce(self, vec: list) -> list:
        f = self.field
        p = f.p
        v = list(vec)
        for j in sorted(self.rows):
            c = v[j]
            if c:
                row = self.rows[j]
                if p is None:
                    v = [a - c * b if b else a for a, b in zip(v, row)]
                else:
                    v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def contains(self, vec: list) -> bool:
        return not any(self.reduce(vec))

    def insert(self, vec: list) -> bool:
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


def _columns_by_path_action(M: Rep, basis, images) -> list[Matrix]:
    """Per vertex, the matrix whose column for the basis path (j, p) is
    path_action(M, p) applied to images[j]."""
    f = M.algebra.field
    mats = []
    for u, paths in enumerate(basis):
        m = Matrix.zero(f, M.dims[u], len(paths))
        for col, (j, p) in enumerate(paths):
            act = path_action(M, p)
            for i in range(M.dims[u]):
                m.data[i][col] = sum_entries(f, act.data[i], images[j])
        mats.append(m)
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


def projective_sum_by_products(A, vertices: list[int]):
    """(arrow matrices, generator positions) of the sum of the P_v, v in
    vertices, in the basis of projective_cover_by_path_action: the column of
    a basis path p of summand j under an arrow a is the normal form of p a,
    multiplied out in the algebra."""
    q = A.quiver
    basis = [
        [(j, p) for j, v in enumerate(vertices) for p in A.paths_from(v) if p.target == u]
        for u in range(q.n_vertices)
    ]
    index = [{key: i for i, key in enumerate(b)} for b in basis]
    mats = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        m = Matrix.zero(A.field, len(basis[tgt]), len(basis[src]))
        for col, (j, p) in enumerate(basis[src]):
            for w, c in A.mul_paths(p, Path(src, tgt, (a,))).items():
                m.data[index[tgt][(j, w)]][col] = c
        mats.append(m)
    gen_pos = [(v, index[v][(j, trivial_path(v))]) for j, v in enumerate(vertices)]
    return mats, gen_pos


def hom_from_projective_by_path_action(A, v: int, M: Rep) -> list[list[Matrix]]:
    """The matrices of the basis of Hom(P_v, M) dual to the standard basis of M_v."""
    f = A.field
    _, info = projective(A, v)
    return [
        _columns_by_path_action(
            M, info.basis, [[f.one() if k == t else f.zero() for k in range(M.dims[v])]]
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
        Matrix.from_columns(
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


def kernel_subrep_by_reducer(f_map: RepMap):
    """(rep, inclusion) of the kernel of f_map as the span of its kernel_basis
    columns, in the reduced echelon basis of sub_rep; raises ValueError when
    the kernel is not stable."""
    return sub_rep(f_map.source, [m.kernel_basis().columns() for m in f_map.mats])


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
                    if gm.compose_after(fm).mats[v].data[0][0] != 0
                ),
                None,
            )
            if pair is not None:
                break
        else:
            return current, stripped
        fm, gm = pair
        h = gm.compose_after(fm)
        hinv = RepMap(P, P, [m.solve(Matrix.identity(f, m.rows)) for m in h.mats])
        current, _ = kernel_subrep(fm.compose_after(hinv.compose_after(gm)))
        stripped.append(q.vertices[v])


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
        Na, Ma = N.mats[a], M.mats[a]
        for i in range(N.dims[w]):
            for j in range(M.dims[u]):
                row = [f.zero()] * total
                written = False
                for r in range(N.dims[u]):
                    c = Na.data[i][r]
                    if c:
                        idx = offsets[u] + r * M.dims[u] + j
                        row[idx] = f.add(row[idx], c)
                        written = True
                for s in range(M.dims[w]):
                    c = Ma.data[s][j]
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
        sol = Matrix.from_rows(f, rows).kernel_basis()
    out = []
    for jcol in range(sol.cols):
        mats = []
        for u in range(q.n_vertices):
            m = Matrix.zero(f, N.dims[u], M.dims[u])
            for i in range(N.dims[u]):
                for j in range(M.dims[u]):
                    m.data[i][j] = sol.data[offsets[u] + i * M.dims[u] + j][jcol]
            mats.append(m)
        out.append(RepMap(M, N, mats))
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
    reducer = SubspaceReducer(f, K.dim)
    kept = []
    for g in gens:
        vec = [f.zero()] * K.dim
        for p, c in K.normal_form(g).items():
            vec[K.basis_index[p]] = c
        if not reducer.contains(vec):
            kept.append(g)
            reducer.insert(vec)
    return kept


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
    dims = [len(es) for es in entries]
    mats = []
    for a in range(target.quiver.n_arrows):
        src, tgt = target.quiver.a_src[a], target.quiver.a_tgt[a]
        m = Matrix.zero(M.algebra.field, dims[tgt], dims[src])
        for col, (pi, i) in enumerate(entries[src]):
            u, w = prod.vertex_pairs[pi]
            if side == "left":
                pa = prod.left_arrow[(a, w)]
                tgt_pair = prod.pair_index[(tgt, w)]
            else:
                # arrow a of R^op is arrow a of R reversed, acting on the right
                pa = prod.right_arrow[(u, a)]
                tgt_pair = prod.pair_index[(u, tgt)]
            block = M.mats[pa]
            for r in range(block.rows):
                c = block.data[r][i]
                if c:
                    m.data[pos[tgt][(tgt_pair, r)]][col] = c
        mats.append(m)
    return Restriction(target, dims, mats, outer, entries, pos)


def _tensor_space_by_loops(x: Restriction, middle, Y: Rep) -> TensorSpace:
    y = restrict_by_loops(Y, "left")
    if y.algebra is not middle:
        raise ValueError("middle algebras do not match")
    f = middle.field
    coords, index, rows = _balanced_relations(middle.quiver, f, x.mats, x.dims, y.mats, y.dims)
    reducer = SubspaceReducer(f, len(coords), rows)
    comp = reducer.complement_indices()
    return TensorSpace(coords, index, reducer, comp, len(comp), y)


def _left_image(X, x, space, b_arrow, w, ix, jy, vec):
    # left outer action on the X part, inside group w
    prod = X.algebra.product
    xv, xi = x.entries[w][ix]
    wmid = prod.vertex_pairs[xv][1]
    amat = X.mats[prod.left_arrow[(b_arrow, wmid)]]
    tgt_pair = prod.pair_index[(prod.left.quiver.a_tgt[b_arrow], wmid)]
    for r in range(amat.rows):
        c = amat.data[r][xi]
        if c:
            vec[space.index[(w, x.pos[w][(tgt_pair, r)], jy)]] = c


def _right_image(space, Y, a_arrow, w, ix, jy, vec):
    # right outer action on the Y part, inside group w
    y = space.y
    prod = Y.algebra.product
    yv, yi = y.entries[w][jy]
    wmid = prod.vertex_pairs[yv][0]
    amat = Y.mats[prod.right_arrow[(wmid, a_arrow)]]
    tgt_pair = prod.pair_index[(wmid, prod.right.quiver.a_src[a_arrow])]
    for r in range(amat.rows):
        c = amat.data[r][yi]
        if c:
            vec[space.index[(w, ix, y.pos[w][(tgt_pair, r)])]] = c


def tensor_over_by_loops(X: Rep, Y: Rep, env=None) -> TensorResult:
    """X (x)_C Y with its residual outer structure, each env arrow matrix
    filled column by column from the ambient action reduced to the
    complement, the columns grouped by outer vertex with a sort."""
    x = restrict_by_loops(X, "right")
    space = _tensor_space_by_loops(x, x.algebra._opposite, Y)
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
        m = Matrix.zero(f, dims[tgt_v], dims[src_v])
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
                m.data[r][src_loc] = colv[r]
        mats.append(m)
    rep = Rep(env, dims, mats)
    return TensorResult(sum(dims), rep)


def quotient_rep_by_loops(M: Rep, vectors_per_vertex):
    """Quotient by the subrepresentation spanned by the vectors, with the
    projection and every arrow matrix filled entry by entry."""
    A = M.algebra
    f = A.field
    q = A.quiver
    reducers = [
        SubspaceReducer(f, M.dims[u], vectors_per_vertex[u])
        for u in range(q.n_vertices)
    ]
    comps = [r.complement_indices() for r in reducers]
    dims = [len(c) for c in comps]
    projs = []
    for u in range(q.n_vertices):
        m = Matrix.zero(f, dims[u], M.dims[u])
        for j in range(M.dims[u]):
            vec = [f.one() if k == j else f.zero() for k in range(M.dims[u])]
            col = reducers[u].coords_in_complement(vec)
            for i in range(dims[u]):
                m.data[i][j] = col[i]
        projs.append(m)
    mats = []
    for a in range(q.n_arrows):
        src, tgt = q.a_src[a], q.a_tgt[a]
        m = Matrix.zero(f, dims[tgt], dims[src])
        for jloc, jamb in enumerate(comps[src]):
            col = M.mats[a].column(jamb)
            red = reducers[tgt].coords_in_complement(col)
            for i in range(dims[tgt]):
                m.data[i][jloc] = red[i]
        mats.append(m)
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
