import itertools
import random

import pytest

from qred import modules
from qred.algebra import Path, Presentation, Quiver, complete
from qred.homology import IdealSpec, quotient_algebra, tor_bounded
from qred.linalg import FieldSpec, Matrix, QQ, SubspaceReducer
from qred.parser import parse_algebra, parse_module, rep_to_text
from qred.modules import (
    BoundedDim,
    Rep,
    RepMap,
    dual,
    hom_basis,
    injective,
    is_isomorphic,
    is_projective,
    kernel_subrep,
    minimal_resolution,
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
    stable_span,
    standard_module,
    sub_rep,
    tensor_over,
    top_dims,
    validate_rep,
    zero_rep,
)
from qred.reduction import corner_module_Ae, corner_module_eA, corner_presentation
from qred.witness import bimodule_syzygy, idempotent_candidate, identity_pair, syzygy_pair, tensor_bimodules

import oracles

from conftest import FIXTURES, is_field_element, load
from corpus import binomial_presentation, completed_corpus
from oracles import (
    DenseMatrix,
    brute_tensor_dim,
    hom_basis_by_intertwining,
    hom_from_projective,
    hom_from_projective_by_path_action,
    idempotent_candidate_by_hand,
    injective_dimension_direct,
    is_isomorphic_ends_first,
    is_projective_by_rank,
    kernel_subrep_by_products,
    kernel_subrep_by_reducer,
    linear_combination_by_scale_and_add,
    matrix_kernel_basis,
    projective_cover_by_path_action,
    projective_sum_by_products,
    quotient_rep_by_loops,
    regular_bimodule_by_hand,
    restrict_by_loops,
    socle_layer_dims_by_dual,
    socle_reducers,
    split_projective_summands_by_inverse,
    stable_isomorphic,
    sub_rep_by_solve,
    tensor_over_by_loops,
    validate_rep_by_path_action,
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


def _validation_modules(A):
    """The projectives, simples, first two syzygies of the simples, duals
    of the projectives and the regular bimodule of A, and the corner
    modules eA and Ae of every nonempty vertex subset."""
    n = A.quiver.n_vertices
    mods = [regular_bimodule(A)]
    for v in range(n):
        P = projective(A, v)[0]
        mods += [P, simple(A, v), dual(P)] + minimal_resolution(simple(A, v), 2).syzygies
    for k in range(1, n + 1):
        for subset in itertools.combinations(A.quiver.vertices, k):
            B = corner_presentation(A, subset)
            mods += [corner_module_eA(B), corner_module_Ae(B)]
    return [M for M in mods if not M.is_zero()]


def _changed_copy(M, rng):
    """A copy of M, built with Rep, with one entry of one arrow matrix
    raised by 1, or None when every arrow matrix is empty."""
    f = M.algebra.field
    arrows = [a for a, m in enumerate(M.mats) if m.rows and m.cols]
    if not arrows:
        return None
    a = rng.choice(arrows)
    m = M.mats[a]
    data = m.data
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    data[i][j] += 1  # Matrix brings the entry to the field's form
    mats = list(M.mats)
    mats[a] = Matrix(f, m.rows, m.cols, data)
    return Rep(M.algebra, M.dims, mats)


def test_validate_rep_matches_the_path_action_oracle():
    """validate_rep, which pushes basis vectors through the arrow
    transposes, gives the problems of the matrix-product oracle, in the
    same order: on the modules of `_validation_modules` over the fixtures
    and seeded corpora over Q, GF(3) and GF(5), on a copy of each with one
    arrow entry changed, and on a copy with one arrow matrix of the wrong
    shape.  The modules all pass.  A changed entry breaks a relation only
    when some relation reads it, so a floor is stated on the changed
    copies flagged, and on those that break two relations or more."""
    algebras = [load(name) for name in _FIXTURE_NAMES]
    for seed, field in ((31, QQ), (32, FieldSpec(3)), (33, FieldSpec(5))):
        algebras += completed_corpus(seed, 20, field, bound=10, dim_cap=12)
    rng = random.Random(3030)
    checked = changed = flagged = several = shapes = 0
    for A in algebras:
        for M in _validation_modules(A):
            assert validate_rep(M) == validate_rep_by_path_action(M) == []
            checked += 1
            N = _changed_copy(M, rng)
            if N is not None:
                problems = validate_rep(N)
                assert problems == validate_rep_by_path_action(N)
                assert all(p.endswith("does not vanish on the representation") for p in problems)
                changed += 1
                flagged += bool(problems)
                several += len(problems) > 1
            if M.mats:
                a = rng.randrange(len(M.mats))
                m = M.mats[a]
                mats = list(M.mats)
                mats[a] = Matrix.zero(M.algebra.field, m.rows + 1, m.cols)
                R = Rep(M.algebra, M.dims, mats)
                problems = validate_rep(R)
                assert problems == validate_rep_by_path_action(R)
                assert problems == [f"arrow {M.algebra.quiver.arrow_name(a)}: matrix shape mismatch"]
                shapes += 1
    assert (checked, changed, shapes) == (1784, 1095, 1408)
    assert flagged >= 500 and several >= 150  # 553 and 166 when written


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
            ker = matrix_kernel_basis(pi.mats[u])
            for col in ker.transpose().entries:
                assert red[u].contains(col)


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
            P, pi, basis = projective_cover(M)
            summands, obasis, mats = projective_cover_by_path_action(M)
            assert (basis, pi.mats) == (obasis, mats)
            assert P.mats == projective_sum_by_products(A, summands)
            # the blocks are copied from the cached projectives, not shared
            cached = {id(row) for v in set(summands) for m in projective(A, v)[0].mats for row in m.entries}
            assert not any(id(row) in cached for m in P.mats for row in m.entries)
            for v in range(n):
                got = [h.mats for h in hom_from_projective(A, v, M)]
                assert got == hom_from_projective_by_path_action(A, v, M)

            kernel = [matrix_kernel_basis(pi.mats[u]).transpose().data for u in range(n)]
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
    over Q, GF(2) and GF(5), bimodules of dimension 56 included.  For
    one-sided modules also dim Hom(M, N) = dim DN (x) M, the duality the
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
        bimod_pairs = [(M, N) for M in bimods for N in bimods]
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


def test_hom_basis_loop_with_diagonal_entries(dual_numbers):
    """A loop acting with nonzero diagonal entries: both halves of a balanced
    relation then meet in one coordinate, where their entries are summed."""
    f = dual_numbers.field
    M, N = (
        Rep(dual_numbers, [2], [Matrix.from_rows(f, [[f.from_int(x) for x in r] for r in rows])])
        for rows in ([[1, -1], [1, -1]], [[2, 4], [-1, -2]])
    )
    assert validate_rep(M) == validate_rep(N) == []
    for X, Y in ((M, N), (N, M), (M, M), (N, N)):
        homs = hom_basis(X, Y)
        assert [h.mats for h in homs] == [h.mats for h in hom_basis_by_intertwining(X, Y)]
        assert len(homs) == tensor_over(dual(Y), X).dim == 2  # both are the projective


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


def test_quotient_rep_rejects_unstable_span(line2):
    P1 = projective(line2, 0)[0]  # dims [1, 1]; the arrow maps the top onto the socle
    one = line2.field.one()
    with pytest.raises(ValueError, match="not stable under the arrow actions"):
        quotient_rep(P1, [[[one]], []])
    P, _ = rep_direct_sum([P1, P1])  # the arrow acts as the identity of k^2
    zero = line2.field.zero()
    with pytest.raises(ValueError, match="not stable under the arrow actions"):
        quotient_rep(P, [[[one, zero]], [[zero, one]]])
    Q, proj = quotient_rep(P, stable_span(P, [[[one, zero]], []]))
    assert Q.dims == [1, 1] and Q.mats[0].data == [[one]]
    assert proj.mats[0].data == [[zero, one]]


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
                    span = SubspaceReducer(f, m.rows, m.transpose().data)
                    assert span.rank == K.dims[u]
                    assert span.basis_rows() == s.transpose().data
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


_FIXTURE_NAMES = ("dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie")


def _bowtie_quotients(A, rng, count):
    """Modules shaped like those of the syzygy_q benchmark: the quotient of
    a sum of one or two indecomposable projectives by the submodule that
    random radical elements generate."""
    n = A.quiver.n_vertices
    mods = []
    for _ in range(count):
        P, _ = rep_direct_sum([projective(A, rng.randrange(n))[0] for _ in range(rng.randint(1, 2))])
        mods.append(quotient_rep(P, stable_span(P, _radical_gens(rng, P)))[0])
    return mods


def _steps_match_oracles(M, steps) -> int:
    """Resolve M and check every step against projective_cover followed by
    kernel_subrep and by the kernel-product oracle; the number of steps."""
    res = minimal_resolution(M, steps)
    covers, current = [], M
    for K in res.syzygies:
        P, pi, _ = projective_cover(current)
        want, _ = kernel_subrep(pi)
        old, _ = kernel_subrep_by_products(pi)
        assert (K.dims, K.mats) == (want.dims, want.mats) == (old.dims, old.mats)
        covers.append(P)
        current = K
    assert [(P.dims, P.mats) for P in res.projectives] == [(P.dims, P.mats) for P in covers]
    assert res.terminated == current.is_zero() and len(res.covers) == len(covers)
    return len(covers)


def test_resolution_step_matches_cover_and_kernel_oracles():
    """A resolution step assembles neither its cover nor the cover map, and
    gives the syzygy that projective_cover followed by kernel_subrep gives,
    and the kernel-product oracle, matrix for matrix; Resolution.projectives
    are the P of projective_cover.  The inputs are the simples of the six
    fixtures on both sides, Omega^0..Omega^3 of their regular bimodules,
    bowtie quotients shaped like the syzygy_q modules, and modules over
    seeded corpora over GF(3) and GF(5)."""
    rng = random.Random(2501)
    steps = 0
    for name in _FIXTURE_NAMES:
        A = load(name)
        for B in (A, A.opposite()):
            steps += sum(_steps_match_oracles(simple(B, v), 4) for v in range(B.quiver.n_vertices))
        steps += _steps_match_oracles(regular_bimodule(A), 4)
    for M in _bowtie_quotients(load("bowtie"), rng, 8):
        steps += _steps_match_oracles(M, 5)
    for seed, p in ((2502, 3), (2503, 5)):
        for A in completed_corpus(seed, 25, FieldSpec(p), bound=8, dim_cap=10, max_vertices=3, max_arrows=4):
            for M in _sample_modules(A, rng) + _bowtie_quotients(A, rng, 2):
                steps += _steps_match_oracles(M, 3)
    assert steps >= 1100


def test_resolution_step_raises_where_the_kernel_oracles_raise():
    """On random representations of bowtie over Q and GF(3) that break a
    relation, a resolution step raises ValueError on the same inputs as
    projective_cover followed by kernel_subrep or by the kernel-product
    oracle, and otherwise gives the same syzygy."""
    text = (FIXTURES / "bowtie.alg").read_text(encoding="utf-8")
    rng = random.Random(2504)
    raised = []
    for field in ("rational", "gf 3"):
        A = complete(parse_algebra(text.replace("field rational", f"field {field}")), 12)
        f, q = A.field, A.quiver
        for _ in range(2500):
            dims = [rng.randint(0, 2) for _ in range(q.n_vertices)]
            entry = lambda: f.from_int(rng.choice((0, 0, 1, -1, 2)))
            shapes = [(dims[q.a_tgt[a]], dims[q.a_src[a]]) for a in range(q.n_arrows)]
            M = Rep(A, dims, [Matrix(f, r, c, [[entry() for _ in range(c)] for _ in range(r)]) for r, c in shapes])
            if not validate_rep(M):
                continue
            outcomes = []
            for kernel in (None, kernel_subrep, kernel_subrep_by_products):
                try:
                    step = minimal_resolution(M, 1).syzygies if kernel is None else kernel(projective_cover(M)[1])
                    K = step[0]
                except ValueError as e:
                    assert "not stable" in str(e)
                    outcomes.append(None)
                else:
                    outcomes.append((K.dims, K.mats))
            assert outcomes[0] == outcomes[1] == outcomes[2]
            raised.append(outcomes[0] is None)
    assert raised.count(True) >= 10 and raised.count(False) >= 1000


def test_pd_bounded_assembles_no_cover(monkeypatch):
    """pd_bounded, on either side, never assembles a block-diagonal cover on
    the bowtie simples and on bowtie quotients shaped like the syzygy_q
    modules; reading Resolution.projectives does."""
    bowtie = load("bowtie")
    mods = [simple(bowtie, v) for v in range(bowtie.quiver.n_vertices)]
    mods += _bowtie_quotients(bowtie, random.Random(2505), 6)
    want = [str(pd_bounded(M, 5, side)) for M in mods for side in ("projective", "injective")]
    calls = []
    block_diagonal = modules._block_diagonal
    monkeypatch.setattr(modules, "_block_diagonal", lambda A, reps: calls.append(A) or block_diagonal(A, reps))
    assert [str(pd_bounded(M, 5, side)) for M in mods for side in ("projective", "injective")] == want
    assert calls == []
    assert minimal_resolution(mods[0], 2).projectives and calls


def test_resolution_tri(tri_dual):
    res = minimal_resolution(simple(tri_dual, 1), 3)
    om1 = res.syzygies[0]
    target, _ = rep_direct_sum([simple(tri_dual, 0), simple(tri_dual, 1)])
    assert is_isomorphic(om1, target, random.Random(3)).kind == "yes"


def test_pd_values(line2, dual_numbers, tri_dual):
    assert pd_bounded(simple(tri_dual, 0), 10) == BoundedDim.Exact(0, 10)
    assert pd_bounded(simple(line2, 0), 10) == BoundedDim.Exact(1, 10)
    assert pd_bounded(simple(dual_numbers, 0), 10) == BoundedDim.AtLeast(11, 10)


def test_pd_bounded_rejects_an_unknown_side(line2):
    """Only "projective" and "injective" name a side: a misspelt side, such
    as "Injective" for the simple S_1 of line2 (pd 0, id 1), raises instead
    of giving the projective dimension."""
    S = simple(line2, 1)
    assert (pd_bounded(S, 5), pd_bounded(S, 5, "injective")) == (BoundedDim.Exact(0, 5), BoundedDim.Exact(1, 5))
    for side in ("Injective", "left", ""):
        with pytest.raises(ValueError, match="side must be 'projective' or 'injective'"):
            pd_bounded(S, 5, side)


def _pd_oracle_modules():
    """Per fresh handle, the modules the bounded-pd oracles run on: the
    simples and the duals of the indecomposable projectives of the fixtures
    and of seeded corpora over Q, GF(3) and GF(5), then bowtie quotients
    shaped like the syzygy_q modules."""
    algebras = [load(name) for name in _FIXTURE_NAMES]
    for seed, field in ((31, QQ), (32, FieldSpec(3)), (33, FieldSpec(5))):
        algebras += completed_corpus(seed, 10, field, bound=10, dim_cap=14)
    for A in algebras:
        n = A.quiver.n_vertices
        yield [simple(A, v) for v in range(n)] + [dual(projective(A, v)[0]) for v in range(n)]
    yield _bowtie_quotients(load("bowtie"), random.Random(2706), 6)
    yield _recurring_syzygy_simples()


# simples whose syzygies recur up to isomorphism, with no simple summand of
# infinite pd that the first test of pd_bounded sees: (corpus seed, field,
# algebra, vertex)
_RECURRING_SYZYGY_SIMPLES = (
    (31, QQ, "rand31_47", "2"),
    (31, QQ, "rand31_58", "3"),
    (32, FieldSpec(3), "rand32_88", "1"),
    (33, FieldSpec(5), "rand33_24", "1"),
)


def _recurring_syzygy_simples():
    """The simples of _RECURRING_SYZYGY_SIMPLES, each over a fresh handle."""
    mods = []
    for seed, field, name, vertex in _RECURRING_SYZYGY_SIMPLES:
        A = next(A for A in completed_corpus(seed, 40, field, bound=10, dim_cap=14) if A.name == name)
        mods.append(simple(A, A.quiver.v_index[vertex]))
    return mods


def _is_isomorphism(fmap: RepMap) -> bool:
    """Whether fmap intertwines every arrow and has a square component of
    full rank at every vertex, checked on dense rows by the elimination
    oracles."""
    M, N = fmap.source, fmap.target
    q, p = M.algebra.quiver, M.algebra.field.p
    for a in range(q.n_arrows):
        if N.mats[a] @ fmap.mats[q.a_src[a]] != fmap.mats[q.a_tgt[a]] @ M.mats[a]:
            return False
    for m in fmap.mats:
        rank = oracles.rref_by_fractions(m.data)[1] if p is None else oracles.rref_mod_p(m.data, p)[0]
        if not m.rows == m.cols == rank:
            return False
    return True


@pytest.mark.parametrize("dim_cap", [None, 12])
def test_pd_bounded_matches_full_resolution(dim_cap):
    """pd_bounded, which stops at a simple summand of infinite pd or at a
    syzygy isomorphic to an earlier module of its walk, reads as the full
    resolution of bound + 1 steps on both sides at bounds 0, 1, 3 and 8.
    Where the full resolution exceeds the cap, pd_bounded may raise too or
    stop earlier with AtLeast(bound + 1); at cap 12 both happen."""
    outcomes = set()
    for mods in _pd_oracle_modules():
        for M in mods:
            for side in ("projective", "injective"):
                for bound in (0, 1, 3, 8):
                    try:
                        want = str(oracles.pd_bounded_by_full_resolution(M, bound, side, dim_cap))
                    except modules.ResolutionCapExceeded:
                        want = None
                    try:
                        got = str(pd_bounded(M, bound, side, dim_cap))
                    except modules.ResolutionCapExceeded:
                        got = None
                    if want is None:
                        assert got in (None, f"AtLeast({bound + 1})"), (M, side, bound, got)
                    else:
                        assert got == want, (M, side, bound, got, want)
                    outcomes.add((want is None, got is None))
    want_outcomes = {(False, False)} if dim_cap is None else {(False, False), (True, True), (True, False)}
    assert outcomes == want_outcomes


def test_simple_summands_match_hom_pairs():
    """The simple summands that a socle vector outside the radical finds are
    those that a basis pair f: S_u -> K, g: K -> S_u with g f nonzero finds,
    on every syzygy of the bounded-pd oracle modules up to Omega^9."""
    found = 0
    for mods in _pd_oracle_modules():
        for M in mods:
            for N in (M, dual(M)):
                for K in minimal_resolution(N, 9, dim_cap=200).syzygies:
                    got = list(modules._simple_summands(K, radical_reducers(K)))
                    assert got == oracles.simple_summands_by_hom(K), (N, K)
                    found += len(got)
    assert found


def test_simple_returns_is_cached_per_depth(monkeypatch):
    """S_s of bowtie and the dual-numbers simple are summands of their first
    syzygies; the simples of line2 have finite pd.  A search answers from the
    handle's cache unless it must look deeper than before."""
    bowtie = load("bowtie")
    s = bowtie.quiver.v_index["s"]
    assert modules._simple_returns(bowtie, s, 1, None)
    assert bowtie._extra[("simple_returns", s)] == (1, True)
    assert modules._simple_returns(load("dual_numbers"), 0, 3, None)
    A = load("line2")
    assert not any(modules._simple_returns(A, v, 4, None) for v in range(2))
    assert A._extra[("simple_returns", 0)] == (4, False)
    steps = []
    step = modules._syzygy
    monkeypatch.setattr(modules, "_syzygy", lambda M, red: steps.append(M) or step(M, red))
    assert not modules._simple_returns(A, 0, 2, None) and steps == []
    assert not modules._simple_returns(A, 0, 6, None) and steps
    assert A._extra[("simple_returns", 0)] == (6, False)


def test_pd_bounded_stops_at_a_recurring_syzygy(monkeypatch):
    """Each simple of _RECURRING_SYZYGY_SIMPLES reads AtLeast(21) at bound 20
    after at most 5 resolution steps, its own and those of `_simple_returns`
    together: the walk stops at a syzygy isomorphic to an earlier one."""
    steps, found = [], []
    step, search = modules._syzygy, modules._bounded_iso
    monkeypatch.setattr(modules, "_syzygy", lambda M, red: steps.append(M) or step(M, red))
    monkeypatch.setattr(modules, "_bounded_iso", lambda M, N: found.append(search(M, N)) or found[-1])
    for S in _recurring_syzygy_simples():
        steps.clear()
        found.clear()
        assert pd_bounded(S, 20) == BoundedDim.AtLeast(21, 20)
        assert len(steps) <= 5, (S.algebra.name, len(steps))
        assert found[-1] is not None


def test_recurrence_search_has_a_fixed_cost(monkeypatch):
    """`_bounded_iso` builds at most d + _ISO_TRIES maps, d = dim Hom(M, N),
    and never searches a GF(p) Hom space in full: on GF(5) pairs that share
    the invariant battery and that is_isomorphic separates by "dim End" or
    "exhausted Hom space" (which builds 624 maps), it finds no isomorphism.
    The pairs are sums of the Kronecker modules k --1--> k and k --lam--> k.
    Every isomorphism it finds inside pd_bounded, on the bounded-pd oracle
    modules on both sides at bound 8, is one."""
    f = FieldSpec(5)
    K = complete(Presentation(f, Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [], name="kronecker"), 4)
    b0, b1, b2 = (Rep(K, [1, 1], [Matrix(f, 1, 1, [[1]]), Matrix(f, 1, 1, [[lam]])]) for lam in (0, 1, 2))
    sums = [((b0, b1), (b0, b0)), ((b0, b0, b1), (b0, b0, b2)), ((b1, b1, b0), (b1, b1, b2))]
    pairs = [(rep_direct_sum(list(x))[0], rep_direct_sum(list(y))[0]) for x, y in sums]
    built = []
    hom_map = modules._hom_map
    monkeypatch.setattr(modules, "_hom_map", lambda M, N, coords, vec: built.append(vec) or hom_map(M, N, coords, vec))
    separated = []
    for M, N in pairs:
        separated.append(is_isomorphic(M, N, random.Random(0)).invariant)
        d = len(modules._hom_vectors(M, N)[2])
        built.clear()
        assert modules._bounded_iso(M, N) is None
        assert len(built) <= d + modules._ISO_TRIES
    assert separated == ["dim End", "exhausted Hom space", "exhausted Hom space"]
    monkeypatch.setattr(modules, "_hom_map", hom_map)
    found = []
    search = modules._bounded_iso
    monkeypatch.setattr(modules, "_bounded_iso", lambda M, N: found.append(search(M, N)) or found[-1])
    for mods in _pd_oracle_modules():
        for M in mods:
            for side in ("projective", "injective"):
                pd_bounded(M, 8, side)
    witnesses = [w for w in found if w is not None]
    assert len(witnesses) >= 10 and all(_is_isomorphism(w) for w in witnesses)


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
    # quotient construction vs Tor_0 = dim Hom(eA, D(Ae))
    corner = corner_presentation(tri_dual, ["2"])
    Ae = corner_module_Ae(corner)
    eA = corner_module_eA(corner)
    assert tor_bounded(Ae, eA, 0).dims[0] == tensor_over(Ae, eA).dim


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
        Y, _ = quotient_rep(P, stable_span(P, vecs))
        got = tensor_over(X, Y).dim
        assert got == tor_bounded(X, Y, 0).dims[0]
        assert got == brute_tensor_dim(X, A, Y)


def _typed(m):
    """The dense rows of the matrix m, after checking that every entry is a
    field element in its one stored form, so that equal entries are of
    equal type."""
    data = m.data
    assert all(is_field_element(m.field, c) for row in data for c in row)
    return data


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
        lower, upper = Matrix.identity(f, d).data, Matrix.identity(f, d).data
        for i in range(d):
            for j in range(i):
                lower[i][j] = f.from_int(rng.randint(-2, 2))
                upper[j][i] = f.from_int(rng.randint(-2, 2))
        T.append(Matrix(f, d, d, lower) @ Matrix(f, d, d, upper))
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


@pytest.mark.parametrize("name, calls", [("bowtie", 15), ("corner_mono", 5)])
def test_split_computes_hom_only_at_top_vertices(monkeypatch, name, calls):
    """Splitting Omega^0, Omega^1 and Omega^2 of the regular bimodule computes
    Hom(M, P_v) only at vertices v in the top of the module M being split,
    and only where dim P_v is at most dim M at every vertex: 15 times on
    bowtie and 5 on corner_mono, where the top alone allowed 17 and 6 and
    trying every vertex took 25 and 12.  Each Hom space is counted where
    its kernel vectors are computed.  Core and stripped list still match
    the inverse oracle."""
    A = load(name)
    env = A.enveloping()
    mods = [bimodule_syzygy(A, k) for k in range(3)]
    vertex_of = {id(projective(env, v)[0]): v for v in range(env.quiver.n_vertices)}
    tops = []
    hom = modules._hom_vectors

    def counted(M, N):
        assert all(a <= b for a, b in zip(N.dims, M.dims))
        tops.append(top_dims(M)[vertex_of[id(N)]])
        return hom(M, N)

    monkeypatch.setattr(modules, "_hom_vectors", counted)
    for M in mods:
        split_projective_summands(M)
    monkeypatch.undo()
    assert len(tops) == calls and all(tops)
    for M in mods:
        _assert_split_matches_oracle(M)


def test_socle_layers_match_dual_route():
    """socle_layer_dims reads the transposed matrices on the reversed arrows;
    the oracle takes the radical layers of the dual over the completed
    opposite algebra.  They agree on modules over the fixtures, on bimodule
    syzygies over enveloping algebras and on seeded corpora over Q, GF(2)
    and GF(5)."""
    rng = random.Random(17)
    mods = []
    for name in ("dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie"):
        A = load(name)
        n = A.quiver.n_vertices
        mods += [simple(A, v) for v in range(n)] + [projective(A, v)[0] for v in range(n)]
        mods += [injective(A, v) for v in range(n)] + [regular_rep(A), _mixed_sum(A, rng)]
        if A.dim <= 4:
            mods += [bimodule_syzygy(A, k) for k in range(3)]
    n_fixture = len(mods)
    for seed, f in ((7311, QQ), (7312, FieldSpec(2)), (7313, FieldSpec(5))):
        for A in completed_corpus(seed, 12, f, bound=8, dim_cap=9):
            mods += [regular_rep(A), _mixed_sum(A, rng), _mixed_sum(A, rng)]
    mismatches = [M for M in mods if socle_layer_dims(M) != socle_layer_dims_by_dual(M)]
    assert mismatches == []
    assert len(mods) - n_fixture >= 108
    assert sum(len(socle_layer_dims(M)) >= 3 for M in mods) >= 20  # deep socle series occur


def test_invariants_complete_no_opposite_and_build_no_cover(monkeypatch):
    """On freshly completed handles, neither the socle layers nor the
    isomorphism test completes an opposite algebra, and projectivity is read
    without building a projective cover.  The one-sided modules live on a
    handle whose opposite is never built; the bimodules on a second handle,
    whose opposite the enveloping algebra reads its rules from."""
    A = load("tri_dual")
    A2 = load("tri_dual")
    env = A2.enveloping()
    op2 = A2._opposite
    mods = [projective(A, 1)[0], _mixed_sum(A, random.Random(3))]
    mods += [regular_bimodule(A2), bimodule_syzygy(A2, 1)]
    want = [is_projective_by_rank(M) for M in mods]
    assert True in want and False in want
    assert A._opposite is None and env._opposite is None and A2._opposite is op2
    for M in mods:
        socle_layer_dims(M)
    assert A._opposite is None and env._opposite is None and A2._opposite is op2
    for M in mods:
        assert is_isomorphic(M, M, random.Random(0)).kind == "yes"
    assert A._opposite is None and env._opposite is None and A2._opposite is op2

    def no_cover(M):
        raise AssertionError("is_projective built a projective cover")

    monkeypatch.setattr("qred.modules.projective_cover", no_cover)
    assert [is_projective(M) for M in mods] == want


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


def test_right_restriction_of_a_one_sided_rep_ignores_the_opposite_cache():
    """A left module over H is a right module over H.opposite(), whether or
    not H.opposite() has run before: restricting regular_rep(A) to the right
    and tensoring it over A^op with the simples and the regular module of
    A^op gives the same answers on a fresh tri_dual handle as after
    A.opposite() has been called."""
    answers = []
    for warm in (False, True):
        A = load("tri_dual")
        if warm:
            A.opposite()
        X = regular_rep(A)
        x = restrict(X, "right")
        assert x.algebra is A and x.outer is None
        op = A.opposite()
        Ys = [regular_rep(op)] + [simple(op, v) for v in range(op.quiver.n_vertices)]
        dims = [tensor_over(X, Y).dim for Y in Ys]
        assert dims[0] == A.dim  # X (x)_C C = X
        assert dims[1:] == top_dims(X)  # X (x)_C S_v is the top of X at v
        answers.append((_entries(x), dims))
    assert answers[0] == answers[1]


def _dense_combination(maps, coeffs) -> list[list[list]]:
    """Per vertex, the dense rows of sum c g, one dense matrix per term."""
    f = maps[0].source.algebra.field
    out = []
    for u, m in enumerate(maps[0].mats):
        acc = DenseMatrix(f, m.rows, m.cols, Matrix.zero(f, m.rows, m.cols).data)
        for g, c in zip(maps, coeffs):
            acc = acc + DenseMatrix(f, m.rows, m.cols, g.mats[u].data).scale(c)
        out.append(acc.data)
    return out


def _combination_matches_oracles(M, picks, coeffs) -> RepMap:
    """The candidate is_isomorphic builds from the End(M) vectors at the
    indices picks, checked against the same combination of hom_basis maps."""
    coords, _, vecs = modules._hom_vectors(M, M)
    maps = [hom_basis(M, M)[i] for i in picks]
    vec = modules._combination([vecs[i] for i in picks], coeffs, M.algebra.field.p)
    comb = modules._hom_map(M, M, coords, vec)
    assert [m.data for m in comb.mats] == _dense_combination(maps, coeffs)
    assert comb.mats == linear_combination_by_scale_and_add(maps, coeffs).mats
    return comb


def test_engine_matrices_store_only_nonzero_field_entries():
    """The matrices the engine assembles from stored rows (covers, kernels,
    direct sums, Hom bases and their combinations, restrictions, tensor
    products, duals) hold no zero and only entries of the field's type.
    Each combination of a Hom basis equals the dense sum of its terms and
    the sum of scaled copies, also where its terms cancel, and over Q also
    where halves add up to integral entries."""
    algebras = [load(name) for name in ("dual_numbers", "tri_dual", "bowtie")]
    for seed, p in ((41, 2), (42, 5), (43, 3)):
        algebras += completed_corpus(seed, 3, FieldSpec(p), bound=8, dim_cap=10, max_vertices=3, max_arrows=4)
    rng = random.Random(4343)
    checked = 0
    fields = set()
    for A in algebras:
        f = A.field
        mods = _sample_modules(A, rng)[:6]
        maps = []
        for M in list(mods):
            P, pi, _ = projective_cover(M)
            K, incl = kernel_subrep(pi)
            homs = hom_basis(M, M)
            maps += [pi, incl] + homs
            if len(homs) > 1:
                coeffs = [f.from_int(rng.randint(-2, 2)) for _ in homs]
                maps.append(_combination_matches_oracles(M, range(len(homs)), coeffs))
                if f.p is None:
                    # h0/2 + h0/2: sums of halves that come out integral
                    half = f.from_fraction(1, 2)
                    halves = _combination_matches_oracles(M, [0, 0], [half, half])
                    assert halves.mats == homs[0].mats
                    maps.append(halves)
                # -h0 + h1 + h0: every entry of h0 cancels, in GF(2) too
                one = f.one()
                cancel = _combination_matches_oracles(M, [0, 1, 0], [f.neg(one), one, one])
                assert cancel.mats == homs[1].mats
                maps.append(cancel)
                fields.add(f.p)
            mods += [P, K, dual(M), split_projective_summands(M)[0]]
        mods.append(rep_direct_sum(mods[:3])[0])
        if A.dim <= 6:
            reg = regular_bimodule(A)
            mods += [reg, restrict(reg, "left"), restrict(reg, "right"), tensor_bimodules(reg, reg)]
        for m in [m for M in mods for m in M.mats] + [m for g in maps for m in g.mats]:
            assert all(x and is_field_element(f, x) for row in m.entries for x in row.values())
            checked += 1
    assert checked > 500
    assert fields == {None, 2, 3, 5}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exhaustive_iso_witness_matches_scale_and_add_oracle(monkeypatch, p):
    """Over GF(p), with p^dim Hom small, is_isomorphic tries the combinations
    of the Hom basis in a fixed order: the one-pass combination of kernel
    vectors finds the same witness, or the same separating answer, as the
    sum of scaled copies of the hom_basis maps, read back as a vector."""
    rng = random.Random(2300 + p)
    pairs = []
    for A in completed_corpus(60 + p, 3, FieldSpec(p), bound=8, dim_cap=10, max_vertices=3, max_arrows=4):
        mods = _sample_modules(A, rng)
        pairs += [(M, N) for M in mods for N in mods if M.dims == N.dims and M.total_dim <= 8]
    got = [is_isomorphic(M, N, random.Random(0)) for M, N in pairs]
    oracle_calls = []
    basis = {}

    def oracle(vecs, coeffs, q):
        maps, index = basis["maps"], basis["index"]
        assert len(vecs) == len(maps) and q == p
        oracle_calls.append(len(maps))
        comb = linear_combination_by_scale_and_add(maps, coeffs)
        entries = ((u, i, row) for u, m in enumerate(comb.mats) for i, row in enumerate(m.entries))
        return {index[(u, i, j)]: x for u, i, row in entries for j, x in row.items()}

    monkeypatch.setattr(modules, "_combination", oracle)
    want = []
    searched = 0  # pairs answered by trying combinations
    for M, N in pairs:
        before = len(oracle_calls)
        basis.update(maps=hom_basis(M, N), index=modules._hom_vectors(M, N)[1])
        want.append(is_isomorphic(M, N, random.Random(0)))
        searched += len(oracle_calls) > before
    for g, w in zip(got, want):
        assert (g.kind, g.invariant) == (w.kind, w.invariant)
        assert (g.witness is None) == (w.witness is None)
        if g.witness is not None:
            assert g.witness.mats == w.witness.mats
    assert searched >= 5


def test_self_isomorphism_computes_one_invariant_battery(monkeypatch, bowtie):
    """is_isomorphic(K, K) computes the radical and socle layers of K once,
    and answers as it does for K and a copy of K, which computes them for
    both; K runs over the first three syzygies of the bowtie simples."""
    syz = [K for v in range(bowtie.quiver.n_vertices) for K in minimal_resolution(simple(bowtie, v), 3).syzygies]
    calls = []
    for name in ("radical_layer_dims", "socle_layer_dims"):

        def counted(M, _f=getattr(modules, name), _name=name):
            calls.append(_name)
            return _f(M)

        monkeypatch.setattr(modules, name, counted)
    for K in syz:
        calls.clear()
        got = is_isomorphic(K, K, random.Random(3))
        assert sorted(calls) == ["radical_layer_dims", "socle_layer_dims"]
        want = is_isomorphic(K, Rep(K.algebra, K.dims, K.mats), random.Random(3))
        assert len(calls) == 6
        assert (got.kind, got.invariant) == (want.kind, want.invariant) == ("yes", None)
        assert got.witness.mats == want.witness.mats
    assert len(syz) == 9


def test_self_isomorphism_builds_one_map_per_candidate(monkeypatch, bowtie):
    """is_isomorphic(K, K) keeps Hom(K, K) as kernel vectors and builds at
    most one map per candidate it tests, where hom_basis would build one per
    basis vector; K runs over the first three syzygies of the bowtie
    simples."""
    syz = [K for v in range(bowtie.quiver.n_vertices) for K in minimal_resolution(simple(bowtie, v), 3).syzygies]
    ends = [len(hom_basis(K, K)) for K in syz]
    built, tested = [], []

    class Counted(RepMap):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    invertible = modules._invertible
    monkeypatch.setattr(modules, "RepMap", Counted)
    monkeypatch.setattr(modules, "_invertible", lambda g: tested.append(g) or invertible(g))
    for K in syz:
        built.clear()
        tested.clear()
        assert is_isomorphic(K, K, random.Random(3)).kind == "yes"
        assert 1 <= len(built) <= len(tested)
    assert len(syz) == 9 and max(ends) > 10


def test_split_builds_one_map_per_summand(monkeypatch):
    """split_projective_summands makes a map only of the Hom vector it
    splits along: one per stripped summand, on Omega^0..Omega^2 of the
    regular bimodules and on sums with a projective over the fixtures."""
    rng = random.Random(2506)
    mods = []
    for name in ("dual_numbers", "line2", "tri_dual", "corner_mono", "bowtie"):
        A = load(name)
        mods += [bimodule_syzygy(A, k) for k in range(3)] + [_mixed_sum(A, rng) for _ in range(2)]
    built = []
    hom_map = modules._hom_map
    monkeypatch.setattr(modules, "_hom_map", lambda *args: built.append(args) or hom_map(*args))
    stripped = 0
    for M in mods:
        built.clear()
        _, names = split_projective_summands(M)
        assert len(built) == len(names)
        stripped += len(names)
    assert stripped >= 15


def test_is_isomorphic_matches_ends_first_oracle(monkeypatch):
    """is_isomorphic computes End(M) and End(N) only once Hom(M, N) has shown
    no isomorphism, and answers as the oracle that computes them on every
    call: the same kind, invariant and witness, with the rng left in the
    same state.  The pairs are modules of equal dimension vector over seeded
    corpora over Q, GF(2), GF(3) and GF(5), and the cores a level check
    compares on the fixtures; on them it computes fewer Hom spaces."""
    rng = random.Random(2401)
    pairs = []
    for seed, f in ((7321, QQ), (7322, FieldSpec(2)), (7323, FieldSpec(3)), (7324, FieldSpec(5))):
        for A in completed_corpus(seed, 6, f, bound=8, dim_cap=9, max_vertices=3, max_arrows=4):
            mods = _sample_modules(A, rng)
            pairs += [(M, N) for M in mods for N in mods if M.dims == N.dims]
    # over the Kronecker quiver the modules k --1--> k and k --lam--> k share
    # every invariant of the battery, and Hom between two of them is zero
    for f in (QQ, FieldSpec(3)):
        arrows = [("a", "1", "2"), ("b", "1", "2")]
        K = complete(Presentation(f, Quiver(["1", "2"], arrows), [], name="kronecker"), 4)
        band = [Rep(K, [1, 1], [Matrix(f, 1, 1, [[1]]), Matrix(f, 1, 1, [[lam]])]) for lam in (0, 1, 2)]
        b0, b1, b2 = band
        sums = [((b0, b1), (b0, b0)), ((b0, b0, b1), (b0, b0, b2))]
        pairs += [(b0, b1)] + [(rep_direct_sum(list(x))[0], rep_direct_sum(list(y))[0]) for x, y in sums]
    for name in ("dual_numbers", "line2", "tri_dual", "corner_mono"):
        A = load(name)
        cores = [split_projective_summands(bimodule_syzygy(A, n))[0] for n in range(3)]
        for pair in (identity_pair(A), syzygy_pair(A)):
            core, _ = split_projective_summands(tensor_bimodules(pair.M, pair.N, A.enveloping()))
            pairs += [(core, C) for C in cores]
    calls = {"got": 0, "want": 0}

    def counted(key, hom):
        def count(M, N):
            calls[key] += 1
            return hom(M, N)

        return count

    monkeypatch.setattr(modules, "hom_basis", counted("got", hom_basis))
    monkeypatch.setattr(oracles, "hom_basis", counted("want", hom_basis))
    answers = set()
    for i, (M, N) in enumerate(pairs):
        rng_got, rng_want = random.Random(i), random.Random(i)
        got, want = is_isomorphic(M, N, rng_got), is_isomorphic_ends_first(M, N, rng_want)
        assert (got.kind, got.invariant) == (want.kind, want.invariant)
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness.mats == want.witness.mats
        assert rng_got.getstate() == rng_want.getstate()
        answers.add((got.kind, got.invariant))
    assert answers >= {
        ("yes", None), ("inconclusive", None), ("no", "dim End"), ("no", "Hom space is zero"),
        ("no", "one-dimensional Hom space has no invertible element"), ("no", "exhausted Hom space"),
    }
    assert calls["got"] < calls["want"]


def _built_reps(A, rng):
    """The Reps the engine builds over A, its opposite and its enveloping
    algebra: projectives, the regular module and simples, their syzygies on
    both sides and their duals, sub_rep, quotient_rep and kernel_subrep
    outputs on a stable_span, restrictions on both sides and along a
    quotient, a tensor_over bimodule, a parsed module, and the regular
    bimodule with its first syzygy."""
    n = A.quiver.n_vertices
    mods = [regular_rep(A)]
    for B in (A, A.opposite()):
        for v in range(n):
            S = simple(B, v)
            mods += [S, projective(B, v)[0], dual(S)]
            mods += minimal_resolution(S, 3).syzygies + minimal_resolution(dual(S), 3).syzygies
    P, _ = rep_direct_sum([projective(A, rng.randrange(n))[0] for _ in range(2)])
    span = stable_span(P, _radical_gens(rng, P))
    Q, pi = quotient_rep(P, span)
    mods += [sub_rep(P, span)[0], Q, kernel_subrep(pi)[0], kernel_subrep(projective_cover(Q)[1])[0]]
    reg = regular_bimodule(A)
    mods += [reg, restrict(reg, "left"), restrict(reg, "right"), restrict(Q, "left"), bimodule_syzygy(A, 1)]
    mods += [tensor_bimodules(reg, reg), parse_module(rep_to_text(reg, "reg"), reg.algebra)[1]]
    mods.append(parse_module(rep_to_text(Q, "Q"), A)[1])
    if n > 1:
        qd = quotient_algebra(A, IdealSpec.from_vertices([A.quiver.vertices[rng.randrange(n)]]))
        mods.append(restrict_along(regular_rep(qd.handle), qd.vertex_map, qd.arrow_map, A))
    return mods


def test_every_built_rep_keeps_its_arrow_transposes():
    """A Rep keeps the transpose of each arrow matrix beside it, and the two
    agree on every Rep the engine builds over the six fixtures, seeded
    corpora over Q, GF(3) and GF(5), and the binomial draw, whose rules have
    tails."""
    rng = random.Random(2801)
    algebras = [load(name) for name in _FIXTURE_NAMES]
    for seed, field in ((2802, QQ), (2803, FieldSpec(3)), (2804, FieldSpec(5))):
        algebras += completed_corpus(seed, 4, field, bound=8, dim_cap=8, max_vertices=3, max_arrows=4)
        algebras += completed_corpus(seed, 4, field, bound=8, dim_cap=10, draw=binomial_presentation)
    kinds, nonzero = set(), 0
    for A in algebras:
        for M in _built_reps(A, rng):
            assert len(M.transposes) == len(M.mats) == M.algebra.quiver.n_arrows
            assert M.transposes == [m.transpose() for m in M.mats]
            kinds.add(type(M).__name__)
            nonzero += not all(m.is_zero() for m in M.mats)
    assert kinds == {"Rep", "Restriction"} and nonzero >= 500
