import random
import time
from collections import Counter

import pytest

from qred.algebra import Path, Presentation, Quiver, complete
from qred.linalg import FieldSpec, QQ
from qred.parser import parse_algebra
from qred.homology import (
    IdealSpec,
    bimodule_pd_bounded,
    bongartz,
    gldim_bounded,
    gorenstein_bounded,
    homological_ideal_check,
    ideal_bimodule,
    minimal_relations,
    quotient_algebra,
    self_injective,
    serial_check,
    tor_bounded,
)
from qred.modules import (
    BoundedDim,
    pd_bounded,
    restrict_along,
    projective,
    regular_bimodule,
    regular_rep,
    simple,
    dual,
)
from qred.reduction import (
    corner_module_Ae,
    corner_module_eA,
    corner_presentation,
    derived_tensor_bounded,
)
from qred.witness import idempotent_candidate

from conftest import load
from corpus import completed_corpus
from oracles import (
    ext2_dims,
    gorenstein_bounded_whole,
    minimal_relations_by_completion,
    tor_by_tensoring,
)

GF5 = FieldSpec(5)


def semisimple(n=2):
    q = Quiver([str(i + 1) for i in range(n)], [])
    return complete(Presentation(QQ, q, [], name="ss"), 4)


def test_tor_regular_is_flat(tri_dual):
    X = regular_rep(tri_dual.opposite())  # right regular module
    for v in range(2):
        Y = simple(tri_dual, v)
        t = tor_bounded(X, Y, 4)
        assert t.dims[0] == Y.total_dim
        assert all(d == 0 for d in t.dims[1:])


def test_tor_periodic(dual_numbers):
    t = tor_bounded(simple(dual_numbers.opposite(), 0), simple(dual_numbers, 0), 6)
    assert t.dims == [1] * 7


def test_tor_line2_explicit(line2):
    # 0 -> P_2 -> P_1 -> S_1 -> 0; tensoring with the right simple at 2 keeps
    # only the P_2 term, so Tor_1 is one-dimensional and the rest vanish
    t = tor_bounded(simple(line2.opposite(), 1), simple(line2, 0), 3)
    assert t.dims == [0, 1, 0, 0]
    assert t.terminated


def test_tor_side_swap(bowtie):
    # Tor(X, Y) over the algebra equals Tor(Y, X) over the opposite, degreewise
    X = simple(bowtie.opposite(), 1)
    Y = simple(bowtie, 2)
    left = tor_bounded(X, Y, 4).dims
    swapped = tor_bounded(Y, X, 4).dims
    assert left == swapped


def test_gldim(line2, dual_numbers):
    assert gldim_bounded(line2, 10).value == 1
    assert not gldim_bounded(dual_numbers, 10).exact
    assert gldim_bounded(semisimple(), 10).value == 0


def test_gorenstein(dual_numbers, line2):
    left, right = gorenstein_bounded(dual_numbers, 10)
    assert (left.value, right.value) == (0, 0) and left.exact and right.exact
    left, right = gorenstein_bounded(line2, 10)
    assert left.exact and right.exact and left.value <= 1 and right.value <= 1
    left, right = gorenstein_bounded(semisimple(), 10)
    assert (left.value, right.value) == (0, 0)


def test_gorenstein_summands_match_whole_dual_oracle():
    # each side is the max of pd over the duals D(Ae_v), and stops at the
    # first one that does not resolve; resolving D(A) whole must agree
    algebras = [
        load(name)
        for name in ("dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie")
    ]
    for seed, f in ((9401, QQ), (9402, FieldSpec(2)), (9405, GF5)):
        algebras += completed_corpus(seed, 15, f, bound=10, dim_cap=12)
    kinds = set()
    early_then_late = 0
    for A in algebras:
        for n in (0, 1, 3, 6):
            sides = gorenstein_bounded(A, n)
            assert sides == gorenstein_bounded_whole(A, n), (A.name, n)
            simples = [pd_bounded(simple(A, v), n) for v in range(A.quiver.n_vertices)]
            if all(bd.exact for bd in simples):
                expected = BoundedDim.Exact(max(bd.value for bd in simples), n)
            else:
                expected = BoundedDim.AtLeast(n + 1, n)
            assert gldim_bounded(A, n) == expected, (A.name, n)
            kinds.update(
                "AtLeast" if not bd.exact else "Exact(0)" if bd.value == 0 else "Exact(k)"
                for bd in sides
            )
            for B in (A, A.opposite()):
                exact = [
                    pd_bounded(dual(projective(B, v)[0]), n).exact
                    for v in range(B.quiver.n_vertices)
                ]
                if False in exact and True in exact[: exact.index(False)]:
                    early_then_late += 1
    assert kinds == {"Exact(0)", "Exact(k)", "AtLeast"}
    assert early_then_late > 0


def test_gorenstein_bowtie_bound_10_fast(bowtie):
    # the first dual projective already fails to resolve on each side
    start = time.perf_counter()
    assert gorenstein_bounded(bowtie, 10) == (
        BoundedDim.AtLeast(11, 10),
        BoundedDim.AtLeast(11, 10),
    )
    assert time.perf_counter() - start < 3.0


def test_minimal_relations_drop_consequences():
    # x^3 lies in I*rad + rad*I once x^2 is present
    q = Quiver(["1"], [("x", "1", "1")])
    rels = [
        ((Path(0, 0, (0, 0)), QQ.one()),),
        ((Path(0, 0, (0, 0, 0)), QQ.one()),),
    ]
    A = complete(Presentation(QQ, q, rels, name="redundant"), 8)
    assert len(minimal_relations(A)) == 1


def _relation_endpoints(A):
    return Counter((next(iter(g)).source, next(iter(g)).target) for g in minimal_relations(A))


@pytest.mark.parametrize(
    "field", [QQ, FieldSpec(2), FieldSpec(3), GF5], ids=["Q", "GF2", "GF3", "GF5"]
)
def test_minimal_relations_count_ext2(field):
    # relations from u to v in a minimal generating set number
    # dim Ext^2(S_u, S_v); one-vertex three-loop draws bring non-homogeneous
    # relations, whose consequences can be longer than the longest rule lead
    seed = 9300 + (field.p or 0)
    three_loops = dict(max_vertices=1, max_arrows=3, max_len=6, max_relations=6)
    algebras = list(completed_corpus(seed, 40, field, bound=10, dim_cap=14))
    algebras += completed_corpus(seed + 50, 40, field, bound=10, dim_cap=14, **three_loops)
    assert any(
        len({len(p.arrows) for p, _ in rel}) > 1
        for A in algebras
        for rel in A.presentation.relations
    )
    for A in algebras:
        assert _relation_endpoints(A) == Counter(ext2_dims(A)), A.name


@pytest.mark.parametrize(
    "field", [QQ, FieldSpec(2), FieldSpec(3), GF5], ids=["Q", "GF2", "GF3", "GF5"]
)
def test_minimal_relations_match_completion_oracle(field):
    # monomial algebras keep every rule without completing kQ/K; the kept
    # rules must equal those the completion keeps, in the same order
    seed = 9500 + (field.p or 0)
    three_loops = dict(max_vertices=1, max_arrows=3, max_len=6, max_relations=6)
    algebras = list(completed_corpus(seed, 30, field, bound=10, dim_cap=14))
    algebras += completed_corpus(seed + 50, 30, field, bound=10, dim_cap=14, **three_loops)
    assert {A.is_monomial for A in algebras} == {True, False}
    for A in algebras:
        assert minimal_relations(A) == minimal_relations_by_completion(A), A.name


def test_minimal_relations_non_homogeneous_pinned():
    # a window of raw paths up to the longest rule lead keeps 4 relations
    # here; Ext^2 totals 3
    A = next(
        A for A in completed_corpus(424242, 150, QQ, bound=10, dim_cap=14)
        if A.name == "rand424242_131"
    )
    assert len(minimal_relations(A)) == 3
    assert _relation_endpoints(A) == Counter(ext2_dims(A))


def test_bongartz_three_loops_fast():
    # xy = yx = xz = zx = yz = zy = y^2 = z^2 = x^7 = 0, of dimension 9: the
    # relations are read modulo rad*I + I*rad, with no list of raw paths
    rels = "  x*y\n  y*x\n  x*z\n  z*x\n  y*z\n  z*y\n  y*y\n  z*z\n  x*x*x*x*x*x*x\n"
    A = complete(
        parse_algebra(
            "algebra loops3\nfield rational\nvertices 1\n"
            "arrow x : 1 -> 1\narrow y : 1 -> 1\narrow z : 1 -> 1\n"
            "relations\n" + rels + "end\n"
        ),
        20,
    )
    assert A.dim == 9
    start = time.perf_counter()
    assert bongartz(A, "1") == (False, False)
    assert time.perf_counter() - start < 2.0


def test_bongartz_endpoints(tri_dual, bowtie, line2):
    assert bongartz(tri_dual, "1") == (True, False)
    assert bongartz(tri_dual, "2") == (False, False)
    assert bongartz(bowtie, "1") == (False, False)
    assert bongartz(bowtie, "s") == (False, False)
    assert bongartz(bowtie, "2") == (False, False)
    assert bongartz(line2, "1") == (True, True)


def test_bongartz_matches_pd_on_fixtures(tri_dual, bowtie, line2, dual_numbers):
    # deciding pd <= 1 only needs a small bound; unresolved means > 1 here
    for A in (tri_dual, bowtie, line2, dual_numbers):
        for v in A.quiver.vertices:
            ns, ne = bongartz(A, v)
            S = simple(A, A.quiver.v_index[v])
            pd = pd_bounded(S, 5)
            idim = pd_bounded(S, 5, "injective")
            assert ns == (pd.exact and pd.value <= 1)
            assert ne == (idim.exact and idim.value <= 1)


def test_bongartz_random_corpus_gf5():
    # the endpoint criterion agrees with pd/id <= 1, exactly
    checked = 0
    for A in completed_corpus(20240, 12, GF5, bound=10, dim_cap=12):
        for v in A.quiver.vertices:
            ns, ne = bongartz(A, v)
            S = simple(A, A.quiver.v_index[v])
            pd = pd_bounded(S, 10, dim_cap=600)
            idim = pd_bounded(S, 10, "injective", dim_cap=600)
            assert ns == (pd.exact and pd.value <= 1), (A.name, v)
            assert ne == (idim.exact and idim.value <= 1), (A.name, v)
            checked += 1
    assert checked >= 12


def test_homological_ideal_zero(tri_dual):
    rep = homological_ideal_check(tri_dual, IdealSpec(), 6)
    assert rep.status == "certified"
    assert rep.tor_dims[0] == tri_dual.dim
    assert all(d == 0 for d in rep.tor_dims[1:])


def test_homological_ideal_sink_vertex(line2):
    # deleting the sink of a relation-free quiver: quotient resolves in one step
    rep = homological_ideal_check(line2, IdealSpec.from_vertices(["2"]), 6)
    assert rep.status == "certified"


def test_homological_ideal_bowtie(bowtie):
    rep = homological_ideal_check(bowtie, IdealSpec.from_vertices(["1"]), 8)
    assert rep.status == "certified"
    assert all(d == 0 for d in rep.tor_dims[1:])
    assert rep.quotient.handle.dim == 5
    assert rep.quotient.handle.is_monomial


def test_homological_ideal_radical_refuted(dual_numbers):
    x = Path(0, 0, (0,))
    J = IdealSpec.from_elements([((x, QQ.one()),)])
    rep = homological_ideal_check(dual_numbers, J, 6)
    assert rep.status == "refuted"
    assert rep.refuted_at == 1
    assert rep.tor_dims[1] == 1  # dim rad/rad^2


def test_ideal_bimodule_dims(bowtie, tri_dual):
    J = ideal_bimodule(bowtie, IdealSpec.from_vertices(["1"]))
    assert J.total_dim == 4  # e_1, both arrows through 1, and the surviving square
    J2 = ideal_bimodule(tri_dual, IdealSpec.from_vertices(["1"]))
    assert J2.total_dim == 2


def test_quotient_dim_consistency(bowtie):
    J = IdealSpec.from_vertices(["1"])
    qd = quotient_algebra(bowtie, J)
    jb = ideal_bimodule(bowtie, J)
    assert qd.handle.dim + jb.total_dim == bowtie.dim


def test_bimodule_pd(bowtie, tri_dual):
    # the vertex ideal of the bowtie is a projective bimodule
    J = ideal_bimodule(bowtie, IdealSpec.from_vertices(["1"]))
    assert bimodule_pd_bounded(bowtie, J, 8).value == 0
    # same for the triangular fixture at vertex 1
    J2 = ideal_bimodule(tri_dual, IdealSpec.from_vertices(["1"]))
    assert bimodule_pd_bounded(tri_dual, J2, 8).value == 0
    # a separable algebra is projective over its enveloping algebra
    ss = semisimple()
    assert bimodule_pd_bounded(ss, regular_bimodule(ss), 4).value == 0


def test_derived_tensor_bounded(tri_dual, line2):
    tor = derived_tensor_bounded(tri_dual, ["2"], 8)
    assert tor.terminated
    assert all(d == 0 for d in tor.dims[1:])
    tor = derived_tensor_bounded(tri_dual, ["1", "2"], 6)
    assert tor.terminated
    tor = derived_tensor_bounded(line2, ["2"], 6)
    assert tor.terminated


def test_serial(dual_numbers, line2, tri_dual):
    assert serial_check(dual_numbers)
    assert serial_check(line2)
    assert not serial_check(tri_dual)


def test_self_injective(dual_numbers, line2):
    assert self_injective(dual_numbers)
    assert not self_injective(line2)


def test_gldim_bounds_simple_pds(line2, tri_dual):
    for A in (line2,):
        gl = gldim_bounded(A, 10)
        assert gl.exact
        for v in range(A.quiver.n_vertices):
            pd = pd_bounded(simple(A, v), 10)
            assert pd.exact and pd.value <= gl.value


def test_tor_side_swap_random():
    for A in completed_corpus(8114, 5, QQ, bound=8, dim_cap=8, max_vertices=3, max_arrows=4):
        op = A.opposite()
        for v in range(A.quiver.n_vertices):
            for w in range(A.quiver.n_vertices):
                X = simple(op, v)
                Y = simple(A, w)
                # X (x)^L Y over A versus Y (x)^L X over A^op, degreewise:
                # simples over A^op restrict to simples over (A^op)^op = A
                left = tor_bounded(X, Y, 3).dims
                right = tor_bounded(Y, X, 3).dims
                assert left == right, (A.name, v, w)


def _tor_cases(bowtie, tri_dual, corner_mono):
    """(label, X, Y, n) cases for the Tor oracle: a seeded corpus per field,
    a product X, and the pairs the reduction steps resolve on the fixtures.
    The corpus runs at every n up to 4, so that resolutions of length n + 1
    and n + 2 tell the n + 2 steps behind `terminated` from n + 1 or n + 3."""
    for seed, field in ((8200, QQ), (8202, FieldSpec(2)), (8203, FieldSpec(3)), (8205, FieldSpec(5))):
        for A in completed_corpus(seed, 4, field, bound=8, dim_cap=10, max_vertices=3, max_arrows=4):
            op = A.opposite()
            rights = [simple(op, v) for v in range(op.quiver.n_vertices)] + [regular_rep(op)]
            for i, X in enumerate(rights):
                for w in range(A.quiver.n_vertices):
                    for n in range(5):
                        yield f"{A.name} X{i} S{w} n={n}", X, simple(A, w), n
    corner = corner_presentation(bowtie, ["s", "2"])
    M, _ = idempotent_candidate(bowtie, corner)  # over bowtie (x) corner^op
    for w in range(corner.quiver.n_vertices):
        yield f"bowtie Ae-bimodule S{w}", M, simple(corner, w), 4
    qd = quotient_algebra(bowtie, IdealSpec.from_vertices(["1"]))
    Y = restrict_along(regular_rep(qd.handle), qd.vertex_map, qd.arrow_map, bowtie)
    X = restrict_along(
        regular_rep(qd.handle.opposite()), qd.vertex_map, qd.arrow_map, bowtie.opposite()
    )
    yield "bowtie/(1)", X, Y, 8
    for A, kept in ((tri_dual, ["2"]), (bowtie, ["s", "2"]), (corner_mono, ["1"])):
        B = corner_presentation(A, kept)
        yield f"{A.name} corner {kept}", corner_module_Ae(B), corner_module_eA(B), 6


def test_tor_matches_tensoring_oracle(bowtie, tri_dual, corner_mono):
    """tor_bounded counts Hom dimensions along the resolution of Y; the
    oracle takes the homology of X tensored with that resolution.  Both the
    dimensions and the termination flag agree on every case."""
    mismatches, cases, nonzero_higher = [], 0, 0
    for label, X, Y, n in _tor_cases(bowtie, tri_dual, corner_mono):
        got = tor_bounded(X, Y, n)
        want = tor_by_tensoring(X, Y, n)
        if (got.dims, got.terminated) != want:
            mismatches.append((label, got.dims, got.terminated, want))
        cases += 1
        nonzero_higher += any(want[0][1:])
    assert mismatches == []
    assert cases >= 500
    assert nonzero_higher >= 50  # the higher Tor groups are exercised, not only Tor_0
