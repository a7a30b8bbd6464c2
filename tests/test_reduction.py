import itertools
import random
import sys

import pytest

from qred.algebra import ConsistencyError, Path, _loewy_length, complete, corner_basis
from qred.linalg import FieldSpec, QQ
from qred.homology import IdealSpec, bimodule_pd_bounded, gldim_bounded, quotient_algebra
from qred.modules import pd_bounded, radical_layer_dims, regular_bimodule, regular_rep, simple, validate_rep
from qred import reduction
from qred.parser import algebra_to_text, parse_algebra
from qred.reduction import (
    PROPERTIES,
    corner_conditions,
    corner_module_Ae,
    corner_module_eA,
    corner_presentation,
    eligible_vertices,
    property_verdict,
    quotient_conditions,
    reduce_fixpoint,
    remove_vertex,
    terminal_certificates,
    triangular_split,
)

from conftest import load
from corpus import binomial_presentation, completed_corpus
from oracles import corner_presentation_by_degree

GF5 = FieldSpec(5)


def test_eligible_vertices(tri_dual, bowtie, line2):
    assert eligible_vertices(tri_dual) == [("1", "starts")]
    assert eligible_vertices(bowtie) == []
    assert eligible_vertices(line2) == [
        ("1", "starts"),
        ("1", "ends"),
        ("2", "starts"),
        ("2", "ends"),
    ]


def test_corner_presentation_tri(tri_dual):
    B = corner_presentation(tri_dual, ["2"])
    assert B.dim == 2
    assert B.quiver.vertices == ["2"]
    assert [a[1:] for a in B.quiver.arrows] == [("2", "2")]
    assert len(B.presentation.relations) == 1
    (rel,) = B.presentation.relations
    assert len(rel) == 1 and len(rel[0][0].arrows) == 2  # the squared loop


def test_corner_presentation_bowtie(bowtie):
    B = corner_presentation(bowtie, ["s", "2"])
    assert B.dim == 6
    arrows = {(name, s, t) for name, s, t in B.quiver.arrows}
    assert arrows == {("t_ga", "2", "s"), ("t_de", "s", "2"), ("t_x", "s", "s")}
    # relations: the squared loop, de*x, x*ga, de*ga (all monomial)
    assert len(B.presentation.relations) == 4
    assert B.is_monomial
    # per-endpoint-pair counts match the corner basis filter
    for u in ("s", "2"):
        for w in ("s", "2"):
            ui, wi = B.quiver.v_index[u], B.quiver.v_index[w]
            pu, pw = bowtie.quiver.v_index[u], bowtie.quiver.v_index[w]
            assert len(B.paths_between(ui, wi)) == len(bowtie.paths_between(pu, pw))


def test_corner_presentation_full_vertex_set(bowtie):
    B = corner_presentation(bowtie, ["1", "s", "2"])
    assert B.dim == bowtie.dim
    assert B.quiver.n_arrows == bowtie.quiver.n_arrows


def test_corner_arrow_through_interior_vertex():
    # 1 -> 2 -> 3 relation-free: the corner at {1, 3} needs an arrow realized
    # by the length-two path through the removed middle vertex
    from qred.algebra import Presentation, Quiver, complete

    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    A = complete(Presentation(QQ, q, [], name="chain3"), 8)
    B = corner_presentation(A, ["1", "3"])
    assert B.dim == 3
    assert B.quiver.n_arrows == 1
    name, s, t = B.quiver.arrows[0]
    assert (s, t) == ("1", "3")
    assert name == "t_b_a"  # written right-to-left: b after a
    assert B.presentation.relations == []
    assert len(B.corner.realizations[0].arrows) == 2


def test_corner_degree_three_relation():
    # k[x]/x^3 presented as the corner of itself: the single relation lives
    # in degree three and no redundant higher consequences are kept
    from qred.algebra import Path, Presentation, Quiver, complete

    q = Quiver(["1"], [("x", "1", "1")])
    A = complete(Presentation(QQ, q, [((Path(0, 0, (0, 0, 0)), QQ.one()),)], name="kx3"), 8)
    B = corner_presentation(A, ["1"])
    assert B.dim == 3
    assert len(B.presentation.relations) == 1
    (rel,) = B.presentation.relations
    assert len(rel) == 1 and len(rel[0][0].arrows) == 3


def test_corner_bowtie_other_half(bowtie):
    # the corner at {1, s}: the binomial collapses one length-two word into
    # the surviving one, and exactly four monomial relations remain
    B = corner_presentation(bowtie, ["1", "s"])
    assert B.dim == 6
    arrows = {(name, s, t) for name, s, t in B.quiver.arrows}
    assert arrows == {("t_al", "1", "s"), ("t_be", "s", "1"), ("t_x", "s", "s")}
    assert len(B.presentation.relations) == 4
    assert B.is_monomial
    assert B.loewy_length == 3


def test_corner_naming_left_to_right():
    # under the left-to-right convention the arrow name lists factors in
    # application order
    from qred.algebra import Presentation, Quiver, complete

    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    A = complete(Presentation(QQ, q, [], "left-to-right", name="chain3lr"), 8)
    B = corner_presentation(A, ["1", "3"])
    assert B.quiver.arrows[0][0] == "t_a_b"
    assert B.presentation.convention == "left-to-right"


def test_corner_dim_matches_basis_random():
    rng = random.Random(31)
    checked = 0
    for A in completed_corpus(3100, 10, GF5, bound=10, dim_cap=12):
        names = list(A.quiver.vertices)
        k = rng.randint(1, len(names))
        S = sorted(rng.sample(names, k))
        B = corner_presentation(A, S)
        assert B.dim == len(corner_basis(A, S)), (A.name, S)
        checked += 1
    assert checked == 10


def test_corner_modules_satisfy_the_corner_relations():
    """eA is a module over the presented corner B = eAe and Ae one over B^op,
    on every nonempty vertex subset of the fixtures and of seeded corpora over
    Q, GF(2) and GF(5).  The dimension check of corner_presentation makes B
    isomorphic to eAe, so the corner modules are built without a run-time
    check; this test is where the relations of B are checked on them."""
    names = ("dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie")
    algebras = [load(name) for name in names]
    for seed, field in ((6101, QQ), (6102, FieldSpec(2)), (6103, GF5)):
        algebras += completed_corpus(seed, 6, field, bound=8, dim_cap=10, max_vertices=3, max_arrows=4)
    checked = with_relations = 0
    for A in algebras:
        vertices = A.quiver.vertices
        for k in range(1, len(vertices) + 1):
            for subset in itertools.combinations(vertices, k):
                B = corner_presentation(A, subset)
                assert validate_rep(corner_module_eA(B)) == [], (A.name, subset)
                assert validate_rep(corner_module_Ae(B)) == [], (A.name, subset)
                checked += 1
                with_relations += bool(B.presentation.relations)
    assert (checked, with_relations) == (96, 52)


def _corner_test_algebras():
    """The six fixtures, completed_corpus seeds 31-33 over Q, GF(3) and
    GF(5), and binomial_presentation draws, seeds 881-883 over the same."""
    names = ("dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie")
    algebras = [load(name) for name in names]
    fields = (QQ, FieldSpec(3), GF5)
    for seed, field in zip((31, 32, 33), fields):
        algebras += completed_corpus(seed, 40, field)
    for seed, field in zip((881, 882, 883), fields):
        algebras += completed_corpus(seed, 20, field, draw=binomial_presentation)
    return algebras


def _vertex_subsets(A):
    vertices = A.quiver.vertices
    for k in range(1, len(vertices) + 1):
        yield from itertools.combinations(vertices, k)


def test_corner_presentation_matches_the_by_degree_oracle():
    """On every nonempty vertex subset, the corner read off one enumeration
    of its words and one kernel per vertex pair prints, by algebra_to_text,
    as the corner computed degree by degree with the Loewy length taken
    apart, and has its Loewy length and realizations."""
    checked = 0
    for A in _corner_test_algebras():
        for subset in _vertex_subsets(A):
            B = corner_presentation(A, subset)
            ref = corner_presentation_by_degree(A, subset)
            assert algebra_to_text(B) == algebra_to_text(ref), (A.name, subset)
            assert B.loewy_length == ref.loewy_length, (A.name, subset)
            assert B.corner.realizations == ref.corner.realizations, (A.name, subset)
            checked += 1
    assert checked == 1776


def _pairs_with_long_words(B):
    """The vertex pairs of B joined by a word of length 2 to its Loewy length."""
    q = B.quiver
    pairs, walks = set(), {(v, v) for v in range(q.n_vertices)}
    for d in range(1, B.loewy_length + 1):
        walks = {(s, q.a_tgt[a]) for s, t in walks for a in q.arrows_from[t]}
        if d >= 2:
            pairs |= walks
    return pairs


def test_corner_presentation_eliminates_once_per_vertex_pair(monkeypatch):
    """corner_presentation calls kernel_vectors once per vertex pair that has
    words of length 2 and more, where a kernel per degree makes L - 1 calls
    for the pairs joined in degree 2, and never calls _loewy_length."""
    calls = []
    kernel_vectors = reduction.kernel_vectors

    def counted(field, rows, ncols):
        calls.append(ncols)
        return kernel_vectors(field, rows, ncols)

    monkeypatch.setattr(reduction, "kernel_vectors", counted)
    loewy_calls = []
    code = _loewy_length.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            loewy_calls.append(code.co_name)

    corners = deep = 0
    for A in _corner_test_algebras():
        for subset in _vertex_subsets(A):
            calls.clear()
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                B = corner_presentation(A, subset)
            finally:
                sys.setprofile(previous)
            assert len(calls) == len(_pairs_with_long_words(B)), (A.name, subset)
            corners += 1
            deep += B.loewy_length >= 3 and bool(calls)
    assert loewy_calls == []
    assert (corners, deep) == (1776, 408)


def _radical_layer_count(X):
    return len(radical_layer_dims(regular_rep(X)))


def _arrow_loewy_length(X):
    return _loewy_length(X, X.normal_basis, [p for p in X.normal_basis if len(p.arrows) == 1])


@pytest.mark.parametrize(
    "field", [QQ, FieldSpec(2), FieldSpec(3), GF5], ids=["Q", "GF2", "GF3", "GF5"]
)
def test_loewy_length_matches_radical_layers(field):
    # A and the algebras derived from it without a nilpotency certificate:
    # A^op, A (x) A^op, a corner eAe, a quotient A/AeA and a quotient by an
    # arrow, each with the Loewy length it took from its construction
    inhomogeneous = 0
    for A in completed_corpus(
        9200 + (field.p or 0), 8, field, bound=8, dim_cap=8, max_vertices=3, max_arrows=4
    ):
        rels = A.presentation.relations
        inhomogeneous += any(len({len(p.arrows) for p, _ in rel}) > 1 for rel in rels)
        half = A.quiver.vertices[: max(1, A.quiver.n_vertices // 2)]
        corner = corner_presentation(A, half)
        derived = [A, A.opposite(), A.enveloping(), corner]
        if A.quiver.n_vertices > 1:
            derived.append(quotient_algebra(A, IdealSpec.from_vertices(half)).handle)
        first_arrow = Path(A.quiver.a_src[0], A.quiver.a_tgt[0], (0,))
        derived.append(
            quotient_algebra(A, IdealSpec.from_elements([((first_arrow, field.one()),)])).handle
        )
        for X in derived:
            assert X.loewy_length == _arrow_loewy_length(X) == _radical_layer_count(X), X.name
        C = corner_basis(A, half)
        assert _loewy_length(A, C, [p for p in C if p.arrows]) == _radical_layer_count(corner)
    assert inhomogeneous


def test_loewy_length_counts_radical_layers_not_path_lengths():
    # length-lex rewriting keeps the shorter side of a non-homogeneous
    # relation: the normal path a1*a0 = 2 * a1*a1*a1 lies in rad^3, and the
    # radical powers outlast the longest normal path (length 3)
    A = complete(
        parse_algebra(
            "algebra nh\nfield rational\nvertices 1\n"
            "arrow a0 : 1 -> 1\narrow a1 : 1 -> 1\n"
            "relations\n  -2 * a0*a0*a1 + a0*a0\n  -2 * a1*a1*a1 + a1*a0\n"
            "  a0*a1*a1*a1 - a0*a0*a1\n  a0*a0*a0*a0\nend\n"
        ),
        8,
    )
    assert max(len(p.arrows) for p in A.normal_basis) == 3
    assert A.loewy_length == _arrow_loewy_length(A) == _radical_layer_count(A) == 5


def test_remove_vertex(tri_dual, line2, bowtie):
    step = remove_vertex(tri_dual, "1")
    out = step.output
    assert out.dim == 2 and out.quiver.n_vertices == 1
    assert step.kind == "vertex_removal" and step.certified
    assert step.params == {"vertex": "1", "side": "starts"}

    out = remove_vertex(line2, "1").output
    assert out.dim == 1

    with pytest.raises(ValueError):
        remove_vertex(bowtie, "1")


def test_reduce_fixpoint_traces(tri_dual, bowtie, line2, dual_numbers):
    term, steps = reduce_fixpoint(tri_dual)
    assert len(steps) == 1 and term.dim == 2
    assert steps[0].input_name == tri_dual.name and steps[-1].output is term

    term, steps = reduce_fixpoint(bowtie)
    assert steps == [] and term is bowtie

    term, steps = reduce_fixpoint(line2)
    assert len(steps) == 1 and term.dim == 1 and term.quiver.n_vertices == 1

    # the last vertex is never removed
    term, steps = reduce_fixpoint(dual_numbers)
    assert steps == [] and term is dual_numbers


def test_reduce_fixpoint_deterministic(tri_dual):
    t1 = reduce_fixpoint(tri_dual)
    t2 = reduce_fixpoint(tri_dual)
    assert [s.params for s in t1[1]] == [s.params for s in t2[1]]
    assert [s.output.name for s in t1[1]] == [s.output.name for s in t2[1]]


def test_stepwise_vs_direct_corner(line2):
    # relation-free: removing two vertices one at a time agrees with the
    # direct corner in dimension and path-count data
    for A in completed_corpus(440, 4, QQ, bound=8, dim_cap=10, max_vertices=4, max_arrows=4):
        elig = [v for v, side in eligible_vertices(A)]
        if A.quiver.n_vertices < 3 or len(set(elig)) < 2:
            continue
        v, w = sorted(set(elig))[:2]
        try:
            out1 = remove_vertex(A, v).output
            if all(name != w for name, _ in eligible_vertices(out1)):
                continue
            out2 = remove_vertex(out1, w).output
        except (ValueError, ConsistencyError):
            continue
        S = [u for u in A.quiver.vertices if u not in (v, w)]
        direct = corner_presentation(A, S)
        assert direct.dim == out2.dim
        # Cartan data: path counts between kept vertices
        for a in S:
            for b in S:
                ai, bi = direct.quiver.v_index[a], direct.quiver.v_index[b]
                a2, b2 = out2.quiver.v_index[a], out2.quiver.v_index[b]
                assert len(direct.paths_between(ai, bi)) == len(out2.paths_between(a2, b2))


def test_corner_conditions_tri(tri_dual):
    sr = corner_conditions(tri_dual, ["2"], 10, "pd")
    assert sr.status == "certified"
    details = {c.name: c.detail for c in sr.conditions}
    assert details["pd(S_1) finite"] == "Exact(0)"
    assert details["pd of eA over the corner finite"] == "Exact(0)"


def test_corner_conditions_bowtie_unresolved(bowtie):
    sr = corner_conditions(bowtie, ["s", "2"], 8, "pd")
    assert sr.status == "conditional"
    assert any("pd(S_1)" in f for f in sr.failures)


def test_corner_conditions_all_vertices(tri_dual):
    sr = corner_conditions(tri_dual, ["1", "2"], 8, "pd")
    assert sr.status == "certified"


def test_corner_conditions_id_variant(tri_dual):
    sr = corner_conditions(tri_dual, ["2"], 8, "id")
    # id(S_1) over the triangular fixture is infinite (the socle pulls in the
    # loop), so the injective-side variant stays conditional here
    assert sr.status in ("certified", "conditional")
    names = [c.name for c in sr.conditions]
    assert any("id(S_1)" in n for n in names)
    assert any("Ae" in n for n in names)


def test_corner_conditions_tor_variant(tri_dual):
    sr = corner_conditions(tri_dual, ["2"], 8, "tor")
    assert sr.status == "certified"
    assert any("derived tensor" in c.name for c in sr.conditions)


def test_quotient_conditions(bowtie, tri_dual, dual_numbers):
    sr = quotient_conditions(bowtie, IdealSpec.from_vertices(["1"]), 8)
    assert sr.status == "certified"
    assert sr.output.dim == 5 and sr.output.is_monomial

    sr = quotient_conditions(tri_dual, IdealSpec(), 8)
    assert sr.status == "certified" and sr.output is not None
    assert sr.output.dim == tri_dual.dim

    J = IdealSpec.from_elements([((Path(0, 0, (0,)), QQ.one()),)])
    sr = quotient_conditions(dual_numbers, J, 6)
    assert sr.status == "refuted"
    assert sr.output is None


def test_triangular_split(tri_dual, dual_numbers, bowtie):
    sr = triangular_split(tri_dual, 8)
    assert sr is not None and sr.status == "certified"
    assert sr.params["discarded"] == ["1"]
    assert sr.output.dim == 2

    assert triangular_split(dual_numbers, 8) is None
    assert triangular_split(bowtie, 8) is None


def _one_directional_blocks(A):
    """The corners of A on the vertex sets T with no path from T to the rest
    or none from the rest to T, as `triangular_split` tries them."""
    n = A.quiver.n_vertices
    reach = {(p.source, p.target) for p in A.normal_basis}
    for size in range(1, n):
        for T in itertools.combinations(range(n), size):
            rest = [v for v in range(n) if v not in T]
            if any((t, r) in reach for t in T for r in rest) and any((r, t) in reach for t in T for r in rest):
                continue
            yield corner_presentation(A, [A.quiver.vertices[v] for v in T])


def test_triangular_split_block_pd_is_gldim():
    """Happel's theorem, as `triangular_split` uses it: the pd of a block as
    a bimodule over itself equals its global dimension, as a BoundedDim,
    on every one-directional block of the fixtures and of seeded corpora."""
    algebras = [load(name) for name in ("dual_numbers", "line2", "line3z", "tri_dual", "bowtie", "corner_mono")]
    for seed, field in ((31, QQ), (32, FieldSpec(3)), (33, GF5)):
        algebras += completed_corpus(seed, 10, field)
    blocks = [B for A in algebras for B in _one_directional_blocks(A)]
    gl = [gldim_bounded(B, 8) for B in blocks]
    assert len(blocks) == 166 and {d.exact for d in gl} == {True, False}
    assert [bimodule_pd_bounded(B, regular_bimodule(B), 8) for B in blocks] == gl


def test_property_verdict_tri(tri_dual):
    v = property_verdict(tri_dual, 10)
    assert v.certificates["syzygy-finite"].verdict == "holds"
    assert v.certificates["syzygy-finite"].rule == "monomial (terminal)"
    assert all(v.certificates[p].verdict == "holds" for p in PROPERTIES)
    assert not v.conditional
    assert len(v.steps) == 1


def test_property_verdict_bowtie_with_quotient(bowtie):
    sr = quotient_conditions(bowtie, IdealSpec.from_vertices(["1"]), 8)
    v = property_verdict(bowtie, 8, extra_steps=[sr])
    assert v.certificates["injectives-generate"].verdict == "holds"
    assert v.certificates["syzygy-finite"].verdict == "holds"
    assert not v.conditional


def test_property_verdict_corner_mono(corner_mono):
    v = property_verdict(corner_mono, 10)
    assert v.certificates["syzygy-finite"].verdict == "holds"
    assert v.certificates["injectives-generate"].verdict == "holds"
    assert "monomial" in v.certificates["syzygy-finite"].rule


def test_verdict_consistency_direct_vs_propagated(tri_dual):
    # the original and the terminal are both monomial: direct certificates
    # agree with the propagated ones
    direct = terminal_certificates(tri_dual, 10)
    v = property_verdict(tri_dual, 10)
    for p in ("syzygy-finite", "injectives-generate"):
        assert (p in direct) == (v.certificates[p].verdict == "holds")


def test_certified_steps_only_certified_conditions(tri_dual):
    _, steps = reduce_fixpoint(tri_dual)
    for s in steps:
        assert s.certified
        for c in s.conditions:
            assert c.verdict == "certified"


def test_property_verdict_bowtie_direct_inconclusive(bowtie):
    v = property_verdict(bowtie, 6)
    assert v.certificates["syzygy-finite"].verdict == "inconclusive"
    assert v.certificates["projectives-cogenerate"].verdict == "inconclusive"
    assert v.steps == []


def test_step_record_derives_status_failures_and_output(tri_dual, line2, bowtie):
    """Every kind of step the fixtures reach: status is 'refuted' exactly
    when output is None, failures are the non-certified condition names, and
    a refuted step cannot be propagated across."""
    line3z = load("line3z")
    steps = [(tri_dual, remove_vertex(tri_dual, "1")), (line2, remove_vertex(line2, "1"))]
    for A, corner in ((tri_dual, ["2"]), (bowtie, ["s", "2"])):
        steps += [(A, corner_conditions(A, corner, 8, v)) for v in ("pd", "id", "tor")]
    steps += [
        (bowtie, quotient_conditions(bowtie, IdealSpec.from_vertices(["1"]), 8)),
        (line3z, quotient_conditions(line3z, IdealSpec.from_vertices(["2"]), 8)),
        (tri_dual, triangular_split(tri_dual, 8)),
    ]
    for A, step in steps:
        assert (step.status == "refuted") == (step.output is None)
        assert step.failures == [c.name for c in step.conditions if c.verdict != "certified"]
        assert step.certified == (step.status == "certified") == (step.failures == [])
        if step.output is None:
            with pytest.raises(ValueError, match="refuted step"):
                property_verdict(A, 8, extra_steps=[step])
        else:
            assert step.output.name == step.output_name
    assert [(s.kind, s.status, s.failures) for _, s in steps] == [
        ("vertex_removal", "certified", []),
        ("vertex_removal", "certified", []),
        ("corner", "certified", []),
        ("corner", "conditional", ["id(S_1) finite", "pd of Ae over the corner finite"]),
        ("corner", "certified", []),
        ("corner", "conditional", ["pd(S_1) finite", "pd of eA over the corner finite"]),
        ("corner", "conditional", ["id(S_1) finite", "pd of Ae over the corner finite"]),
        (
            "corner",
            "conditional",
            ["derived tensor of (Ae, eA) over the corner bounded", "pd or id of S_1 finite"],
        ),
        ("homological_quotient", "certified", []),
        ("homological_quotient", "refuted", ["homological ideal: Tor vanishing"]),
        ("triangular_split", "certified", []),
    ]
