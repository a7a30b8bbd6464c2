import contextlib
import dataclasses
import io
import itertools
import random
from pathlib import Path as FsPath

import pytest

from qred import cli, modules, witness
from qred.algebra import tensor_with_opposite
from qred.linalg import QQ
from qred.parser import parse_algebra
from qred.modules import (
    is_isomorphic,
    is_projective,
    minimal_resolution,
    projective,
    regular_bimodule,
    regular_rep,
    restrict,
    zero_rep,
)
from qred.reduction import corner_presentation
from qred.witness import (
    LevelReport,
    WitnessPair,
    bimodule_syzygy,
    idempotent_candidate,
    identity_pair,
    one_sided_projectivity,
    search_level,
    syzygy_pair,
    tensor_bimodules,
    verify_level,
)

from qred.algebra import Presentation, Quiver, complete

from conftest import load
from oracles import stable_isomorphic


def semisimple():
    return complete(Presentation(QQ, Quiver(["1"], []), [], name="k"), 4)


def test_restrict_regular(tri_dual):
    reg = regular_bimodule(tri_dual)
    left = restrict(reg, "left")
    assert left.algebra is tri_dual
    assert sum(left.dims) == tri_dual.dim
    assert is_isomorphic(left, regular_rep(tri_dual), random.Random(0)).kind == "yes"
    right = restrict(reg, "right")
    assert right.algebra is tri_dual.opposite()
    assert sum(right.dims) == tri_dual.dim


def test_restrict_idempotent_bimodule(tri_dual):
    corner = corner_presentation(tri_dual, ["2"])
    M, N = idempotent_candidate(tri_dual, corner)
    assert M.total_dim == 3  # paths with source 2: e_2, a, x
    assert N.total_dim == 2  # paths with target 2: e_2, x
    left = restrict(M, "left")
    assert left.dims == [1, 2]


def test_restrict_zero(tri_dual):
    Z = zero_rep(tri_dual.enveloping())
    assert restrict(Z, "left").total_dim == 0


def test_one_sided_projectivity_identity(tri_dual, line2):
    for A in (tri_dual, line2):
        assert one_sided_projectivity(identity_pair(A)) == (True, True, True, True)


def test_one_sided_projectivity_candidate(tri_dual):
    corner = corner_presentation(tri_dual, ["2"])
    M, N = idempotent_candidate(tri_dual, corner)
    # the right restriction of Ae carries the one-dimensional strand at
    # vertex 1, which is not projective over the dual numbers
    assert one_sided_projectivity(WitnessPair(M, N, 0)) == (True, False, True, True)


def test_bimodule_syzygy_semisimple():
    k = semisimple()
    assert bimodule_syzygy(k, 1).total_dim == 0


def test_bimodule_syzygy_dual_numbers(dual_numbers):
    om = bimodule_syzygy(dual_numbers, 1)
    assert om.total_dim == 2  # kernel of the 4-dim cover onto the 2-dim regular


def test_bimodule_syzygy_functorial(line2):
    rng = random.Random(4)
    for n in range(3):
        direct = bimodule_syzygy(line2, n + 1)
        from qred.modules import minimal_resolution

        again = minimal_resolution(bimodule_syzygy(line2, n), 1)
        step = again.syzygies[0] if again.syzygies else zero_rep(line2.enveloping())
        assert stable_isomorphic(direct, step, rng).kind == "yes"


@pytest.mark.parametrize("order", [range(4), range(3, -1, -1)], ids=["increasing", "decreasing"])
@pytest.mark.parametrize("name", ["dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie"])
def test_bimodule_syzygy_resolves_once_per_algebra(monkeypatch, name, order):
    """Omega^0..Omega^3 of the regular bimodule, asked for in either order on
    a fresh handle, equal the syzygies of one minimal resolution and take at
    most one resolution step each; line2, whose Omega^2 is zero, takes two."""
    ref = load(name)
    reg = regular_bimodule(ref)
    res = minimal_resolution(reg, 3)
    expected = [reg] + res.syzygies + [zero_rep(ref.enveloping())] * (3 - len(res.syzygies))
    covers = []
    step = modules._syzygy

    def counted(M, reducers):
        covers.append(M)
        return step(M, reducers)

    monkeypatch.setattr(modules, "_syzygy", counted)
    A = load(name)
    got = {n: bimodule_syzygy(A, n) for n in order}
    for n in range(4):
        assert (got[n].dims, got[n].mats) == (expected[n].dims, expected[n].mats)
    assert len(covers) == (2 if name == "line2" else 3)


def test_tensor_unit(dual_numbers):
    reg = regular_bimodule(dual_numbers)
    mn = tensor_bimodules(reg, reg)
    assert mn.total_dim == dual_numbers.dim
    assert stable_isomorphic(mn, reg, random.Random(1)).kind == "yes"


def test_tensor_with_zero(tri_dual):
    reg = regular_bimodule(tri_dual)
    Z = zero_rep(tri_dual.enveloping())
    assert tensor_bimodules(reg, Z).total_dim == 0


def test_tensor_candidate_dim(tri_dual):
    # Ae (x)_{eAe} eA has total dimension 3 (frozen from the brute-force
    # oracle; eA is free of rank one over the corner, so the product is Ae)
    corner = corner_presentation(tri_dual, ["2"])
    M, N = idempotent_candidate(tri_dual, corner)
    mn = tensor_bimodules(M, N, tri_dual.enveloping())
    assert mn.total_dim == 3
    nm = tensor_bimodules(N, M, corner.enveloping())
    assert nm.total_dim == 2  # eA (x)_A Ae = eAe


def test_tensor_associative_in_dimension(tri_dual):
    corner = corner_presentation(tri_dual, ["2"])
    M, N = idempotent_candidate(tri_dual, corner)
    mn = tensor_bimodules(M, N, tri_dual.enveloping())
    nm = tensor_bimodules(N, M, corner.enveloping())
    left = tensor_bimodules(mn, M, tensor_with_opposite(tri_dual, corner))
    right = tensor_bimodules(M, nm, tensor_with_opposite(tri_dual, corner))
    assert left.total_dim == right.total_dim


@pytest.mark.parametrize(
    "name", ["dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie"]
)
def test_tensor_unit_law_is_isomorphism(name):
    # A (x)_A M = M = M (x)_A A as bimodules: a real isomorphism, which needs
    # the outer actions of the tensor product, not only its dimension
    text = (FsPath(__file__).parent / "fixtures" / f"{name}.alg").read_text(encoding="utf-8")
    A = complete(parse_algebra(text), 12)
    reg = regular_bimodule(A)
    for M in (reg, bimodule_syzygy(A, 1)):
        assert is_isomorphic(tensor_bimodules(reg, M), M).kind == "yes"
        assert is_isomorphic(tensor_bimodules(M, reg), M).kind == "yes"


def test_projective_bimodule_restrictions(tri_dual):
    env = tri_dual.enveloping()
    for pv in range(env.quiver.n_vertices):
        P = projective(env, pv)[0]
        assert is_projective(restrict(P, "left"))
        assert is_projective(restrict(P, "right"))


def test_verify_level_identity(dual_numbers, line2, tri_dual):
    for A in (dual_numbers, line2, tri_dual):
        rep = verify_level(identity_pair(A), seed=0)
        assert rep.verdict == "holds"
        assert rep.projectivity == (True, True, True, True)


def test_verify_level_syzygy(dual_numbers, line2, tri_dual):
    for A in (dual_numbers, line2, tri_dual):
        rep = verify_level(syzygy_pair(A), seed=0)
        assert rep.verdict == "holds"


def test_verify_level_syzygy_bowtie(bowtie):
    # the big fixture: enveloping algebra of dimension 81, first bimodule
    # syzygy of dimension 24
    pair = syzygy_pair(bowtie)
    assert pair.M.total_dim == 24
    rep = verify_level(pair, seed=0)
    assert rep.verdict == "holds"


def test_verify_level_wrong_level(dual_numbers):
    pair = WitnessPair(regular_bimodule(dual_numbers), regular_bimodule(dual_numbers), 1)
    rep = verify_level(pair, seed=0)
    assert rep.verdict == "fails"


def test_search_level_identity(line2):
    reg = regular_bimodule(line2)
    n, _ = search_level(reg, reg, 3, seed=0)
    assert n == 0


def test_search_level_syzygy(line2):
    om = bimodule_syzygy(line2, 1)
    reg = regular_bimodule(line2)
    n, _ = search_level(om, reg, 3, seed=0)
    assert n == 1


@pytest.mark.parametrize("name", ["tri_dual", "bowtie"])
def test_search_level_builds_the_pair_products_once(monkeypatch, name):
    """search_level(Omega^1, A) holds at level 1 after checking two levels,
    but builds M (x) N and N (x) M once: 2 tensor products where a
    verify_level per level makes 4, and 4 splits (the two products once,
    the syzygy core per level) where it makes 6."""
    A = load(name)
    om, reg = bimodule_syzygy(A, 1), regular_bimodule(A)
    calls = {"tensor_bimodules": 0, "split_projective_summands": 0}
    for fname in calls:
        wrapped = getattr(witness, fname)

        def counted(*args, _f=wrapped, _name=fname, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(witness, fname, counted)
    n, reports = search_level(om, reg, 4, seed=0)
    assert (n, len(reports)) == (1, 2)
    assert calls == {"tensor_bimodules": 2, "split_projective_summands": 4}


@pytest.mark.parametrize("name", ["tri_dual", "corner_mono", "bowtie"])
def test_identity_pair_runs_one_isomorphism_test_per_level(monkeypatch, name):
    """For a pair (M, M) over one algebra both sides of a level compare the
    same two cores, so verify_level runs one isomorphism test per level,
    levels 0 to 2, and reports what a test on each of the two rng streams
    reports: the stream of side i at level n is seeded seed * 1000003 +
    2n + i."""
    A = load(name)
    reg = identity_pair(A).M
    calls = []

    def counted(M, N, rng=None):
        calls.append((M, N))
        return is_isomorphic(M, N, rng)

    monkeypatch.setattr(witness, "is_isomorphic", counted)
    verdicts = []
    for n in range(3):
        calls.clear()
        rep = verify_level(WitnessPair(reg, reg, n), seed=5)
        assert len(calls) == 1
        ((core, core_a),) = calls
        sides = [is_isomorphic(core, core_a, random.Random(5 * 1000003 + 2 * n + i)).kind for i in (0, 1)]
        assert [rep.iso_left, rep.iso_right] == sides
        verdicts.append(rep.verdict)
    assert verdicts[0] == "holds" and "fails" in verdicts[1:]


@pytest.mark.parametrize("name", ["dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie"])
def test_search_level_reports_equal_verify_level(name):
    """Every report of a search equals verify_level at its level, for the
    identity and the Omega^1 pair up to level 3."""
    A = load(name)
    reg = regular_bimodule(A)
    for M, N in ((reg, reg), (bimodule_syzygy(A, 1), reg)):
        _, reports = search_level(M, N, 3, seed=0)
        assert reports
        for n, rep in reports:
            assert rep == verify_level(WitnessPair(M, N, n), seed=0), (name, n)


def test_search_level_candidate_logs_negative(tri_dual):
    # (Ae, eA) is only a heuristic candidate; here it fails one-sided
    # projectivity at every level, and the search reports that honestly
    corner = corner_presentation(tri_dual, ["2"])
    M, N = idempotent_candidate(tri_dual, corner)
    n, reports = search_level(M, N, 4, seed=0)
    assert n is None
    assert all(rep.verdict == "fails" for _, rep in reports)


def test_idempotent_candidate_full_vertex_set(tri_dual):
    # with every vertex kept the candidate is the pair (A, A) up to the
    # corner's renaming, and it verifies at level zero
    corner = corner_presentation(tri_dual, ["1", "2"])
    M, N = idempotent_candidate(tri_dual, corner)
    assert M.total_dim == tri_dual.dim
    assert N.total_dim == tri_dual.dim
    rep = verify_level(WitnessPair(M, N, 0), seed=0)
    assert rep.verdict == "holds"


def test_idempotent_candidate_bowtie_dims(bowtie):
    corner = corner_presentation(bowtie, ["s", "2"])
    M, N = idempotent_candidate(bowtie, corner)
    assert M.total_dim == 7  # paths with source in {s, 2}
    assert N.total_dim == 7  # paths with target in {s, 2}


def test_wrong_level_characteristic_dependence():
    # the regular bimodule of the dual numbers is its own first syzygy in
    # characteristic two (the sign twist collapses), and not otherwise
    from qred.algebra import Path, Presentation, Quiver, complete
    from qred.linalg import FieldSpec

    verdicts = {}
    for p in (2, 3):
        F = FieldSpec(p)
        q = Quiver(["1"], [("x", "1", "1")])
        A = complete(Presentation(F, q, [((Path(0, 0, (0, 0)), F.one()),)], name=f"dn{p}"), 8)
        reg = regular_bimodule(A)
        verdicts[p] = verify_level(WitnessPair(reg, reg, 1), seed=0).verdict
    assert verdicts == {2: "holds", 3: "fails"}


def test_verify_level_gf_fixtures():
    from qred.algebra import Path, Presentation, Quiver, complete
    from qred.linalg import FieldSpec

    F = FieldSpec(5)
    q = Quiver(["1", "2"], [("a", "2", "1"), ("x", "2", "2")])
    rels = [
        ((Path(1, 1, (1, 1)), F.one()),),
        ((Path(1, 0, (1, 0)), F.one()),),
    ]
    A = complete(Presentation(F, q, rels, name="tri5"), 8)
    assert verify_level(identity_pair(A), seed=0).verdict == "holds"
    assert verify_level(syzygy_pair(A), seed=0).verdict == "holds"


def test_witness_level_validation(tri_dual):
    reg = regular_bimodule(tri_dual)
    with pytest.raises(ValueError):
        WitnessPair(reg, reg, -1)
    with pytest.raises(ValueError):
        WitnessPair(regular_rep(tri_dual), reg, 0)


def test_witness_pair_is_frozen_and_revalidated(tri_dual):
    pair = identity_pair(tri_dual)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.level = 1
    assert dataclasses.replace(pair, level=1).level == 1 and pair.level == 0
    with pytest.raises(ValueError):
        dataclasses.replace(pair, level=-1)


def _verdict_by_cases(proj, iso_left, iso_right):
    """The verdict as verify_level used to decide it before storing it."""
    if all(proj) and iso_left == "yes" and iso_right == "yes":
        return "holds"
    elif (not all(proj)) or iso_left == "no" or iso_right == "no":
        return "fails"
    return "inconclusive"


def test_level_report_verdict_truth_table():
    kinds = ("yes", "no", "inconclusive")
    seen = set()
    for proj in itertools.product((False, True), repeat=4):
        for iso_left, iso_right in itertools.product(kinds, repeat=2):
            rep = LevelReport(proj, iso_left, iso_right)
            assert rep.verdict == _verdict_by_cases(proj, iso_left, iso_right)
            seen.add(rep.verdict)
    assert seen == {"holds", "fails", "inconclusive"}


def test_search_level_rechecked_with_an_independent_seed(dual_numbers, line2, tri_dual):
    """Oracle for the search: every level it reports gets the same verdict
    again under an independent seed.  The seed only steers the search for an
    invertible homomorphism, and a level holds on an exact one, so the found
    level needs no rerun inside search_level."""
    pairs = []
    for A in (dual_numbers, line2, tri_dual):
        reg = regular_bimodule(A)
        pairs += [(reg, reg), (bimodule_syzygy(A, 1), reg)]
    pairs.append(idempotent_candidate(tri_dual, corner_presentation(tri_dual, ["2"])))
    found = []
    for M, N in pairs:
        n, reports = search_level(M, N, 3, seed=0)
        found.append(n)
        assert [k for k, _ in reports] == list(range(len(reports)))
        for k, rep in reports:
            again = verify_level(WitnessPair(M, N, k), seed=7919)
            assert (again.verdict, again.iso_left, again.iso_right) == (
                rep.verdict,
                rep.iso_left,
                rep.iso_right,
            ), (M.algebra.name, k)
    assert found == [0, 1, 0, 1, 0, 1, None]


def test_witness_commands_build_the_regular_bimodule_once(monkeypatch):
    """witness --identity and --syzygy take Omega^0 from bimodule_syzygy,
    so each command builds the regular bimodule once, and restrict M once
    for the identity pair (M, M): over the six fixtures, 12 regular
    bimodules and 36 restrictions, where building A again and restricting
    N as well make 24 and 48.  The reports match the ones built from a
    fresh regular bimodule."""
    calls = {"regular_bimodule": 0, "restrict": 0}
    for fname in calls:
        wrapped = getattr(witness, fname)

        def counted(*args, _f=wrapped, _name=fname, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(witness, fname, counted)
    per_command = []
    for name in ("dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie"):
        path = str(FsPath(__file__).parent / "fixtures" / f"{name}.alg")
        for flag in ("--identity", "--syzygy"):
            before = dict(calls)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["witness", path, flag, "--seed", "1"]) == 0
            per_command.append(tuple(calls[k] - before[k] for k in calls))
    assert per_command == [(1, 2), (1, 4)] * 6
    assert calls == {"regular_bimodule": 12, "restrict": 36}
    for name in ("line2", "bowtie"):
        A, B = load(name), load(name)
        reg = modules.regular_bimodule(B)
        fresh = [WitnessPair(reg, reg, 0), WitnessPair(bimodule_syzygy(B, 1), reg, 1)]
        for got, want in zip((identity_pair(A), syzygy_pair(A)), fresh):
            assert one_sided_projectivity(got) == one_sided_projectivity(want)
            assert (got.M.mats, got.N.mats) == (want.M.mats, want.N.mats)
