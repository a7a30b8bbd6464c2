import random

import pytest

from qred.algebra import Path
from qred.linalg import FieldSpec, Matrix, QQ, SubspaceReducer
from qred.modules import (
    BoundedDim,
    Rep,
    RepMap,
    dual,
    hom_basis,
    hom_from_projective,
    injective,
    is_isomorphic,
    is_projective,
    kernel_subrep,
    minimal_resolution,
    path_action,
    pd_bounded,
    projective,
    projective_cover,
    quotient_rep,
    radical_layer_dims,
    radical_reducers,
    regular_bimodule,
    regular_rep,
    rep_direct_sum,
    restrict,
    restrict_along,
    simple,
    socle_layer_dims,
    split_projective_summands,
    stable_isomorphic,
    stable_span,
    standard_module,
    sub_rep,
    tensor_over,
    top_dims,
    validate_rep,
    zero_rep,
)
from qred.reduction import corner_module_Ae, corner_module_eA, corner_presentation
from qred.witness import bimodule_syzygy, idempotent_candidate, tensor_bimodules

from conftest import load
from corpus import completed_corpus
from oracles import (
    brute_tensor_dim,
    hom_basis_by_intertwining,
    hom_from_projective_by_path_action,
    idempotent_candidate_by_hand,
    injective_dimension_direct,
    is_projective_by_rank,
    kernel_subrep_by_reducer,
    projective_cover_by_path_action,
    projective_sum_by_products,
    quotient_rep_by_loops,
    regular_bimodule_by_hand,
    restrict_by_loops,
    socle_reducers,
    split_projective_summands_by_inverse,
    sub_rep_by_solve,
    tensor_over_by_loops,
)


def test_standard_modules_line2(line2):
    P1 = standard_module(line2, "projective", "1")
    assert P1.dims == [1, 1]
    P2 = standard_module(line2, "projective", "2")
    S2 = standard_module(line2, "simple", "2")
    assert P2.dims == S2.dims == [0, 1]


def test_projective_tri(tri_dual):
    P2 = standard_module(tri_dual, "projective", "2")
    assert P2.dims == [1, 2]
    assert validate_rep(P2) == []


def test_unknown_vertex_raises(line2):
    with pytest.raises(KeyError):
        standard_module(line2, "simple", "9")


def test_regular_reps_are_representations(line2, tri_dual, bowtie):
    for A in (line2, tri_dual, bowtie):
        assert validate_rep(regular_rep(A)) == []


def test_hom_dimensions(line2):
    S1, S2 = simple(line2, 0), simple(line2, 1)
    P1 = projective(line2, 0)[0]
    assert len(hom_basis(S1, S1)) == 1
    assert len(hom_basis(S1, S2)) == 0
    assert len(hom_basis(P1, S1)) == 1
    assert len(hom_basis(P1, S2)) == 0


def test_hom_from_projective_agrees(tri_dual):
    M = regular_rep(tri_dual)
    for v in range(2):
        fast = hom_from_projective(tri_dual, v, M)
        slow = hom_basis(projective(tri_dual, v)[0], M)
        assert len(fast) == len(slow) == M.dims[v]


def test_cover_of_projective_is_iso(tri_dual):
    P2 = projective(tri_dual, 1)[0]
    P, pi, _ = projective_cover(P2)
    assert P.dims == P2.dims
    assert all(m.rank() == m.rows == m.cols for m in pi.mats)


def test_cover_of_simples(line2, tri_dual):
    P, _, _ = projective_cover(simple(line2, 0))
    assert P.dims == [1, 1]
    P, _, _ = projective_cover(simple(tri_dual, 1))
    assert P.dims == [1, 2]


def test_cover_kernel_in_radical(tri_dual, bowtie):
    for A, v in ((tri_dual, 1), (bowtie, 1)):
        M = simple(A, v)
        P, pi, _ = projective_cover(M)
        red = radical_reducers(P)
        for u in range(len(P.dims)):
            ker = pi.mats[u].kernel_basis()
            for j in range(ker.cols):
                assert red[u].contains(ker.column(j))


def _random_gens(rng, M):
    """At each vertex of M, one sparse random vector or none."""
    f = M.algebra.field
    return [
        [[f.from_int(rng.randint(-3, 3)) if rng.random() < 0.6 else f.zero() for _ in range(d)]]
        if d and rng.random() < 0.6
        else []
        for d in M.dims
    ]


def _radical_gens(rng, M):
    """At each vertex of M, one random combination of a basis of rad M, or
    none: its span leaves a quotient with the top of M."""
    f = M.algebra.field
    gens = []
    for red in radical_reducers(M):
        rows = red.basis_rows()
        vec = [f.zero()] * red.dim
        for row in rows:
            c = f.from_int(rng.randint(-2, 2))
            vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, row)]
        gens.append([vec] if rows else [])
    return gens


def _sample_modules(A, rng):
    """Regular, simple, projective and injective modules, a random quotient of
    the sum of the indecomposable projectives, and the first syzygies of the
    simples."""
    n = A.quiver.n_vertices
    mods = [regular_rep(A)]
    for v in range(n):
        mods += [simple(A, v), projective(A, v)[0], injective(A, v)]
    P, _ = rep_direct_sum([projective(A, v)[0] for v in range(n)])
    mods.append(quotient_rep(P, stable_span(P, _random_gens(rng, P)))[0])
    for v in range(n):
        res = minimal_resolution(simple(A, v), 1)
        mods += res.syzygies
    return [M for M in mods if not M.is_zero()]


def test_cover_columns_and_sub_rep_match_oracles(dual_numbers, line2, tri_dual, bowtie, corner_mono):
    """Arrow-by-arrow cover columns against one path_action product per basis
    path, block-diagonal covers against multiplying out every basis path,
    and pivot-read sub_rep coordinates against solving for them, on the
    fixtures over Q and seeded corpora over GF(2), GF(3) and GF(5)."""
    algebras = [dual_numbers, line2, tri_dual, bowtie, corner_mono]
    for seed, p in ((31, 2), (32, 3), (33, 5)):
        algebras += completed_corpus(seed, 6, FieldSpec(p), bound=8, dim_cap=10, max_vertices=3, max_arrows=4)
    rng = random.Random(4242)
    outcomes = set()
    for A in algebras:
        n = A.quiver.n_vertices
        for M in _sample_modules(A, rng):
            P, pi, info = projective_cover(M)
            summands, basis, mats = projective_cover_by_path_action(M)
            assert (info.summands, info.basis, pi.mats) == (summands, basis, mats)
            assert (P.mats, info.gen_pos) == projective_sum_by_products(A, summands)
            # the blocks are copied from the cached projectives, not shared
            cached = {id(row) for v in set(summands) for m in projective(A, v)[0].mats for row in m.data}
            assert not any(id(row) in cached for m in P.mats for row in m.data)
            for v in range(n):
                got = [h.mats for h in hom_from_projective(A, v, M)]
                assert got == hom_from_projective_by_path_action(A, v, M)

            kernel = [pi.mats[u].kernel_basis().columns() for u in range(n)]
            spans = [(P, kernel), (M, stable_span(M, _random_gens(rng, M))), (M, _random_gens(rng, M))]
            for target, vecs in spans:
                try:
                    expected = sub_rep_by_solve(target, vecs)
                except ValueError:
                    with pytest.raises(ValueError, match="not stable"):
                        sub_rep(target, vecs)
                    outcomes.add("unstable")
                    continue
                S, incl = sub_rep(target, vecs)
                assert (S.dims, S.mats, incl.mats) == expected
                outcomes.add("stable")
    assert outcomes == {"stable", "unstable"}


def test_hom_basis_matches_intertwining_oracle(dual_numbers, line2, tri_dual, bowtie, corner_mono):
    """Hom read off the balanced relations of DN (x) M against the
    intertwining system with its own row loops: the same basis, map for map,
    for pairs of sample modules, maps into the indecomposable projectives and
    bimodules over the enveloping algebra, on the fixtures and seeded corpora
    over Q, GF(2) and GF(5); bimodule pairs with more than 300 products of
    basis vectors are left out, as their elimination over Q takes seconds.
    For one-sided modules also dim Hom(M, N) = dim DN (x) M, the duality the
    shared relations rest on."""
    algebras = [dual_numbers, line2, tri_dual, bowtie, corner_mono]
    for seed, f in ((51, QQ), (52, FieldSpec(2)), (53, FieldSpec(5))):
        algebras += completed_corpus(seed, 4, f, bound=8, dim_cap=10, max_vertices=3, max_arrows=4)
    rng = random.Random(4545)
    dims = set()
    for A in algebras:
        mods = _sample_modules(A, rng)
        projectives = [projective(A, v)[0] for v in range(A.quiver.n_vertices)]
        bimods = [regular_bimodule(A), bimodule_syzygy(A, 1)]
        one_sided = [(M, N) for M in mods for N in mods + projectives]
        bimod_pairs = [(M, N) for M in bimods for N in bimods if M.total_dim * N.total_dim <= 300]
        for M, N in one_sided + bimod_pairs:
            homs = hom_basis(M, N)
            assert all(h.source is M and h.target is N for h in homs)
            assert [h.mats for h in homs] == [h.mats for h in hom_basis_by_intertwining(M, N)]
            dims.add(min(len(homs), 2))
            if M.algebra is A:
                assert len(homs) == tensor_over(dual(N), M).dim
    assert dims == {0, 1, 2}
    with pytest.raises(ValueError, match="same algebra handle"):
        hom_basis(simple(line2, 0), simple(tri_dual, 0))


def test_sub_rep_rejects_unstable_span(line2):
    P1 = projective(line2, 0)[0]  # dims [1, 1]; the arrow maps the top onto the socle
    one = line2.field.one()
    with pytest.raises(ValueError, match="not stable under the arrow actions"):
        sub_rep(P1, [[[one]], []])
    P, _ = rep_direct_sum([P1, P1])  # the arrow acts as the identity of k^2
    zero = line2.field.zero()
    with pytest.raises(ValueError, match="not stable under the arrow actions"):
        sub_rep(P, [[[one, zero]], [[zero, one]]])
    S, _ = sub_rep(P, [[[one, zero]], [[one, zero]]])
    assert S.dims == [1, 1] and S.mats[0].data == [[one]]


def _kernel_cases(A, M, rng):
    """The cover of M, the first two basis maps M -> P_v for each v (the maps
    split_projective_summands takes kernels of), and a sparse random
    non-homomorphism M -> M."""
    f = A.field
    cases = [("cover", projective_cover(M)[1])]
    for v in range(A.quiver.n_vertices):
        cases += [("into projective", g) for g in hom_basis(M, projective(A, v)[0])[:2]]
    entry = lambda: f.from_int(rng.choice((1, -1, 2))) if rng.random() < 0.3 else f.zero()
    mats = [Matrix(f, d, d, [[entry() for _ in range(d)] for _ in range(d)]) for d in M.dims]
    return cases + [("random", RepMap(M, M, mats))]


def test_kernel_subrep_matches_reducer_oracle(dual_numbers, line2, tri_dual, bowtie, corner_mono):
    """Kernels read off the echelon form against re-echelonizing them through
    sub_rep: same dimensions, same subspaces, intertwining inclusions, and
    the same ValueError for unstable kernels, on the fixtures and seeded
    corpora over Q, GF(2) and GF(5)."""
    algebras = [dual_numbers, line2, tri_dual, bowtie, corner_mono]
    for seed, f in ((41, QQ), (42, FieldSpec(2)), (43, FieldSpec(5))):
        algebras += completed_corpus(seed, 6, f, bound=8, dim_cap=10, max_vertices=3, max_arrows=4)
    rng = random.Random(4343)
    outcomes = set()
    for A in algebras:
        f = A.field
        q = A.quiver
        for M in _sample_modules(A, rng):
            for kind, g in _kernel_cases(A, M, rng):
                try:
                    S, sincl = kernel_subrep_by_reducer(g)
                except ValueError:
                    with pytest.raises(ValueError, match="not stable"):
                        kernel_subrep(g)
                    outcomes.add((kind, "unstable"))
                    continue
                K, incl = kernel_subrep(g)
                assert K.dims == S.dims
                for u, (m, s) in enumerate(zip(incl.mats, sincl.mats)):
                    span = SubspaceReducer(f, m.rows, m.columns())
                    assert span.rank == K.dims[u]
                    assert span.basis_rows() == s.columns()
                for a, m in enumerate(g.source.mats):
                    assert m @ incl.mats[q.a_src[a]] == incl.mats[q.a_tgt[a]] @ K.mats[a]
                outcomes.add((kind, "stable"))
    assert outcomes == {
        ("cover", "stable"),
        ("into projective", "stable"),
        ("random", "stable"),
        ("random", "unstable"),
    }


def test_kernel_subrep_rejects_unstable_kernel(line2):
    P1 = projective(line2, 0)[0]  # dims [1, 1]; the arrow maps the top onto the socle
    f = line2.field
    g = RepMap(P1, P1, [Matrix.zero(f, 1, 1), Matrix.identity(f, 1)])
    with pytest.raises(ValueError, match="not stable under the arrow actions"):
        kernel_subrep(g)


def test_resolution_line2(line2):
    res = minimal_resolution(simple(line2, 0), 5)
    assert res.terminated and len(res.projectives) == 2
    assert res.syzygies[0].dims == [0, 1]  # S_2 = P_2
    assert res.syzygies[1].dims == [0, 0]


def test_resolution_periodic(dual_numbers):
    res = minimal_resolution(simple(dual_numbers, 0), 5)
    assert not res.terminated
    assert all(s.total_dim == 1 for s in res.syzygies)


def test_resolution_tri(tri_dual):
    res = minimal_resolution(simple(tri_dual, 1), 3)
    om1 = res.syzygies[0]
    target, _ = rep_direct_sum([simple(tri_dual, 0), simple(tri_dual, 1)])
    assert is_isomorphic(om1, target, random.Random(3)).kind == "yes"


def test_pd_values(line2, dual_numbers, tri_dual):
    assert pd_bounded(simple(tri_dual, 0), 10) == BoundedDim.Exact(0, 10)
    assert pd_bounded(simple(line2, 0), 10) == BoundedDim.Exact(1, 10)
    assert pd_bounded(simple(dual_numbers, 0), 10) == BoundedDim.AtLeast(11, 10)


def test_syzygy_of_projective_vanishes(tri_dual, bowtie):
    for A in (tri_dual, bowtie):
        for v in range(A.quiver.n_vertices):
            P = projective(A, v)[0]
            res = minimal_resolution(P, 2)
            assert res.terminated and res.syzygies[0].is_zero()


def test_iterated_syzygy_composition(tri_dual, bowtie):
    # Omega^{a+b} = Omega^a(Omega^b) stably, on the fixtures
    rng = random.Random(11)
    for A in (tri_dual, bowtie):
        M = simple(A, A.quiver.n_vertices - 1)
        res = minimal_resolution(M, 4)
        if len(res.syzygies) < 3:
            continue
        om3 = res.syzygies[2]
        again = minimal_resolution(res.syzygies[0], 2).syzygies[1]
        assert stable_isomorphic(om3, again, rng).kind == "yes"


def test_dual_involution(tri_dual):
    M = projective(tri_dual, 1)[0]
    DD = dual(dual(M))
    assert DD.dims == M.dims
    assert is_isomorphic(M, DD, random.Random(5)).kind == "yes"


def test_dual_of_simple(line2):
    D = dual(simple(line2, 0))
    assert D.algebra is line2.opposite()
    assert D.dims == [1, 0]


def test_dual_projective_is_injective(line2, tri_dual):
    for A in (line2, tri_dual):
        op = A.opposite()
        for v in range(A.quiver.n_vertices):
            DP = dual(projective(A, v)[0])
            Iv = injective(op, v)
            assert DP.dims == Iv.dims
            assert is_isomorphic(DP, Iv, random.Random(9)).kind == "yes"


def test_injective_dims_preserved(bowtie):
    for v in range(3):
        assert sum(injective(bowtie, v).dims) == sum(
            p.target == v for p in bowtie.normal_basis
        )


def test_top_dims(tri_dual):
    P2 = projective(tri_dual, 1)[0]
    assert top_dims(P2) == [0, 1]
    assert radical_layer_dims(P2) == [(0, 1), (1, 1)]


def test_pd_injective_side_matches_direct_cosyzygies(line2, tri_dual):
    for A in (line2, tri_dual):
        for v in range(A.quiver.n_vertices):
            M = simple(A, v)
            bd = pd_bounded(M, 8, "injective")
            direct = injective_dimension_direct(M, 8)
            if bd.exact:
                assert direct == bd.value
            else:
                assert direct is None


# -- tensor products ---------------------------------------------------------


def test_tensor_unit_law(tri_dual):
    # A (x)_A Y = Y for the regular bimodule
    Y = projective(tri_dual, 1)[0]
    res = tensor_over(regular_bimodule(tri_dual), Y)
    assert res.rep is not None
    assert res.rep.algebra is tri_dual
    assert res.dim == Y.total_dim
    assert is_isomorphic(res.rep, Y, random.Random(2)).kind == "yes"


def test_tensor_disjoint_supports(line2):
    X = simple(line2.opposite(), 1)
    res = tensor_over(X, simple(line2, 0))
    assert res.dim == 0


def test_corner_tensor_dims(tri_dual):
    # (Ae) (x)_{eAe} (eA) over the corner at vertex 2.  The corner is the
    # dual numbers; Ae is free of rank one plus a one-dimensional strand and
    # eA is free of rank one, so the tensor has dimension 3.  Frozen from the
    # brute-force relator-quotient oracle.
    corner = corner_presentation(tri_dual, ["2"])
    Ae = corner_module_Ae(corner)  # right module: Rep over the opposite
    eA = corner_module_eA(corner)
    assert Ae.total_dim == 3 and eA.total_dim == 2
    oracle = brute_tensor_dim(Ae, corner, eA)
    assert oracle == 3
    assert tensor_over(Ae, eA).dim == oracle


def test_tensor_two_route_agreement(tri_dual):
    # quotient construction vs tensoring a projective presentation
    corner = corner_presentation(tri_dual, ["2"])
    Ae = corner_module_Ae(corner)
    eA = corner_module_eA(corner)
    res = minimal_resolution(eA, 2)
    d1 = res.maps[1] if len(res.maps) > 1 else None
    from qred.modules import TensorFunctor

    tf = TensorFunctor(Ae)
    s0 = tf.space(res.projectives[0])
    if d1 is not None:
        s1 = tf.space(res.projectives[1])
        rank = tf.map(s1, s0, d1).rank()
    else:
        rank = 0
    assert s0.dim - rank == tensor_over(Ae, eA).dim


def test_tensor_random_two_routes():
    rng = random.Random(123)
    for A in completed_corpus(77, 4, QQ, bound=8, dim_cap=8, max_vertices=3, max_arrows=4):
        X = regular_rep(A.opposite())
        # random quotient of a projective as Y
        v = rng.randrange(A.quiver.n_vertices)
        P = projective(A, v)[0]
        red = radical_reducers(P)
        vecs = [[] for _ in range(A.quiver.n_vertices)]
        for u in range(A.quiver.n_vertices):
            rows = red[u].basis_rows()
            if rows and rng.random() < 0.7:
                vecs[u].append(rows[0])
        from qred.modules import quotient_rep, TensorFunctor

        Y, _ = quotient_rep(P, vecs)
        got = tensor_over(X, Y).dim
        res = minimal_resolution(Y, 2)
        tf = TensorFunctor(X)
        s0 = tf.space(res.projectives[0])
        rank = 0
        if len(res.projectives) > 1:
            rank = tf.map(tf.space(res.projectives[1]), s0, res.maps[1]).rank()
        assert got == s0.dim - rank
        assert got == brute_tensor_dim(X, A, Y)


def _typed(m):
    """Every entry of the matrix m, with its type."""
    return [[(type(c), c) for c in row] for row in m.data]


def _entries(rep):
    return rep.dims, [_typed(m) for m in rep.mats]


@pytest.mark.parametrize(
    "seed, field", [(61, QQ), (62, FieldSpec(2)), (63, FieldSpec(3)), (64, FieldSpec(5))],
    ids=["QQ", "GF2", "GF3", "GF5"],
)
def test_action_builders_match_hand_filled_oracles(seed, field):
    """Restrictions, tensor products, quotients and path bimodules built
    through `action_rep` equal, entry for entry and type for type, the same
    modules built by the hand-filled loops of `tests/oracles.py`: both
    restrictions of the regular bimodule, of its first syzygy and of both
    idempotent candidates; the bimodule tensor products among them; the
    regular bimodule over A tensored with A and with the quotients below; and
    the quotient of each projective and of A by a random stable span, with
    its projection.  Tensor pairs with more than 300 products of basis
    vectors are left out, as their elimination over Q takes seconds."""
    rng = random.Random(seed)
    seen = {"restrictions": 0, "tensors": 0, "quotients": 0, "proper quotients": 0}
    for A in completed_corpus(seed, 6, field, bound=8, dim_cap=8, max_vertices=3, max_arrows=4):
        reg = regular_bimodule(A)
        assert _entries(reg) == _entries(regular_bimodule_by_hand(A))
        names = A.quiver.vertices
        corner = corner_presentation(A, rng.sample(names, rng.randint(1, len(names))))
        Ae, eA = idempotent_candidate(A, corner)
        for got, want in zip((Ae, eA), idempotent_candidate_by_hand(A, corner)):
            assert _entries(got) == _entries(want)
        syz = bimodule_syzygy(A, 1)
        for M in (reg, syz, Ae, eA):
            for side in ("left", "right"):
                got, want = restrict(M, side), restrict_by_loops(M, side)
                assert got.algebra is want.algebra and got.outer is want.outer
                assert (got.entries, got.pos) == (want.entries, want.pos)
                assert _entries(got) == _entries(want)
                seen["restrictions"] += 1
        pairs = [(reg, reg), (syz, reg), (reg, syz), (Ae, eA), (eA, Ae), (reg, Ae), (eA, reg)]
        for M, N in pairs:
            if M.total_dim * N.total_dim > 300:
                continue
            got = tensor_bimodules(M, N)
            assert _entries(got) == _entries(tensor_over_by_loops(M, N, got.algebra).rep)
            seen["tensors"] += 1
        Ys = [regular_rep(A)]
        for P in [projective(A, v)[0] for v in range(A.quiver.n_vertices)] + [regular_rep(A)]:
            gens = _radical_gens(rng, P) if rng.random() < 0.7 else _random_gens(rng, P)
            vecs = stable_span(P, gens)
            got, want = quotient_rep(P, vecs), quotient_rep_by_loops(P, vecs)
            assert _entries(got[0]) == _entries(want[0])
            assert got[1].source is P and got[1].target is got[0]
            assert [_typed(m) for m in got[1].mats] == [_typed(m) for m in want[1].mats]
            Ys.append(got[0])
            seen["quotients"] += 1
            seen["proper quotients"] += 0 < got[0].total_dim < P.total_dim
        for Y in Ys:
            got, want = tensor_over(reg, Y), tensor_over_by_loops(reg, Y)
            assert got.rep.algebra is A and want.rep.algebra is A
            assert _entries(got.rep) == _entries(want.rep)
            seen["tensors"] += 1
    assert min(seen.values()) >= 4, seen


# -- isomorphism machinery ---------------------------------------------------


def test_iso_reflexive(tri_dual):
    M = projective(tri_dual, 1)[0]
    res = is_isomorphic(M, M, random.Random(0))
    assert res.kind == "yes"
    assert all(m.rank() == m.rows for m in res.witness.mats)


def test_iso_distinguishes_simples(line2):
    res = is_isomorphic(simple(line2, 0), simple(line2, 1), random.Random(0))
    assert res.kind == "no" and res.invariant == "dimension vector"


def test_split_projective_summands(dual_numbers, tri_dual):
    S = simple(dual_numbers, 0)
    P = projective(dual_numbers, 0)[0]
    M, _ = rep_direct_sum([S, P])
    core, stripped = split_projective_summands(M)
    assert stripped == ["1"]
    assert core.total_dim == 1

    # a projective splits completely
    core, stripped = split_projective_summands(projective(tri_dual, 1)[0])
    assert core.total_dim == 0 and stripped == ["2"]

    # no projective summand: unchanged
    core, stripped = split_projective_summands(simple(tri_dual, 1))
    assert stripped == [] and core.dims == [0, 1]


def test_stable_iso_kills_projectives(dual_numbers):
    S = simple(dual_numbers, 0)
    P = projective(dual_numbers, 0)[0]
    M, _ = rep_direct_sum([S, P])
    assert stable_isomorphic(S, M, random.Random(1)).kind == "yes"
    om = minimal_resolution(S, 2).syzygies[0]
    assert stable_isomorphic(om, S, random.Random(1)).kind == "yes"


def test_stable_iso_negative(line2):
    assert stable_isomorphic(simple(line2, 0), simple(line2, 1), random.Random(1)).kind == "no"


def _mixed_sum(A, rng):
    """P_v (+) S_w (+) Omega(S_u) for seeded vertices v, w, u, in a seeded
    basis, so that no summand is spanned by standard basis vectors."""
    n = A.quiver.n_vertices
    v, w, u = (rng.randrange(n) for _ in range(3))
    omega = minimal_resolution(simple(A, u), 1).syzygies[0]
    M = rep_direct_sum([projective(A, v)[0], simple(A, w), omega])[0]
    f = A.field
    T = []
    for d in M.dims:
        lower, upper = Matrix.identity(f, d), Matrix.identity(f, d)
        for i in range(d):
            for j in range(i):
                lower.data[i][j] = f.from_int(rng.randint(-2, 2))
                upper.data[j][i] = f.from_int(rng.randint(-2, 2))
        T.append(lower @ upper)
    q = A.quiver
    mats = [
        T[q.a_tgt[a]] @ m @ T[q.a_src[a]].solve(Matrix.identity(f, m.cols))
        for a, m in enumerate(M.mats)
    ]
    return Rep(A, M.dims, mats)


def _assert_split_matches_oracle(M):
    core, stripped = split_projective_summands(M)
    ocore, ostripped = split_projective_summands_by_inverse(M)
    assert stripped == ostripped
    assert core.dims == ocore.dims
    assert [m.data for m in core.mats] == [m.data for m in ocore.mats]
    for R in (M, core):
        assert is_projective(R) == is_projective_by_rank(R)
    if not M.is_zero():
        # the two invariants dropped from the isomorphism battery
        assert tuple(top_dims(M)) == radical_layer_dims(M)[0]
        assert tuple(r.rank for r in socle_reducers(M)) == socle_layer_dims(M)[0]
    return stripped


def test_split_and_projectivity_match_inverse_oracle():
    rng = random.Random(5)
    stripped = []
    for name in ("dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie"):
        A = load(name)
        n = A.quiver.n_vertices
        mods = [simple(A, v) for v in range(n)] + [projective(A, v)[0] for v in range(n)]
        mods += [regular_rep(A), _mixed_sum(A, rng), _mixed_sum(A, rng)]
        if A.dim <= 4:
            # the tensors a level-1 witness pair is checked on
            syz, reg = bimodule_syzygy(A, 1), bimodule_syzygy(A, 0)
            mods += [tensor_bimodules(syz, reg), tensor_bimodules(syz, syz)]
        stripped += [_assert_split_matches_oracle(M) for M in mods]
    n_fixture = len(stripped)
    for seed, f in ((7301, QQ), (7302, FieldSpec(2)), (7303, FieldSpec(3)), (7304, FieldSpec(5))):
        for A in completed_corpus(seed, 13, f, bound=8, dim_cap=9):
            stripped += [_assert_split_matches_oracle(_mixed_sum(A, rng)) for _ in range(4)]
    assert len(stripped) - n_fixture >= 200
    assert sum(map(bool, stripped)) > len(stripped) // 2


def test_is_projective(line2, dual_numbers):
    assert is_projective(projective(line2, 0)[0])
    assert is_projective(zero_rep(line2))
    assert not is_projective(simple(dual_numbers, 0))


def test_restrict_along_identity(tri_dual):
    M = regular_rep(tri_dual)
    R = restrict_along(M, [0, 1], [0, 1], tri_dual)
    assert R.dims == M.dims


def test_gf5_exhaustive_iso():
    from qred.linalg import FieldSpec

    for A in completed_corpus(5150, 2, FieldSpec(5), bound=8, dim_cap=8, max_vertices=2, max_arrows=3):
        v = 0
        S = simple(A, v)
        res = is_isomorphic(S, S, random.Random(0))
        assert res.kind == "yes"
