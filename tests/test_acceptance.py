"""Acceptance suite.

One test per criterion, each printing a PASS line with its timing; run with
``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json
import random
import time
from pathlib import Path

import pytest

from qred import cli
from qred.algebra import complete, corner_basis
from qred.homology import IdealSpec, bongartz, homological_ideal_check, bimodule_pd_bounded, ideal_bimodule, quotient_algebra
from qred.linalg import FieldSpec, QQ
from qred.modules import ResolutionCapExceeded, pd_bounded, projective, quotient_rep, radical_reducers, simple, regular_rep, dual, stable_span
from qred.homology import tor_bounded
from qred.parser import parse_algebra
from qred.reduction import PROPERTIES, corner_conditions, corner_presentation, eligible_vertices, property_verdict, quotient_conditions, reduce_fixpoint
from qred.witness import identity_pair, syzygy_pair, verify_level

from corpus import completed_corpus, random_presentation
from oracles import injective_dimension_direct

FIXTURES = Path(__file__).parent / "fixtures"
GF5 = FieldSpec(5)


def fixture(name):
    return str(FIXTURES / f"{name}.alg")


def _announce(n, elapsed, limit, detail=""):
    assert elapsed < limit, f"criterion {n} exceeded its time limit: {elapsed:.1f}s >= {limit}s"
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s < {limit}s) {detail}")


def test_criterion_1_triangular_end_to_end(tri_dual, capsys):
    t0 = time.monotonic()
    assert eligible_vertices(tri_dual) == [("1", "starts")]
    terminal, steps = reduce_fixpoint(tri_dual)
    assert len(steps) == 1
    assert terminal.quiver.n_vertices == 1
    assert terminal.quiver.n_arrows == 1
    assert len(terminal.presentation.relations) == 1
    assert terminal.dim == 2
    sr = corner_conditions(tri_dual, ["2"], 10, "pd")
    assert sr.status == "certified"
    details = {c.name: c.detail for c in sr.conditions}
    assert details["pd(S_1) finite"] == "Exact(0)"
    assert details["pd of eA over the corner finite"] == "Exact(0)"
    code = cli.main(["check", fixture("tri_dual"), "--property", "all", "--bound", "12"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert all(v == "holds" for v in report["results"]["verdicts"].values())
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _announce(1, elapsed, 5.0, "triangular fixture reduces to the dual numbers; all four properties hold")


def test_criterion_2_bowtie_end_to_end(bowtie, capsys):
    t0 = time.monotonic()
    assert bowtie.dim == 9
    assert eligible_vertices(bowtie) == []
    J = IdealSpec.from_vertices(["1"])
    hic = homological_ideal_check(bowtie, J, 8)
    assert hic.status == "certified"
    assert all(d == 0 for d in hic.tor_dims[1:])
    bpd = bimodule_pd_bounded(bowtie, ideal_bimodule(bowtie, J), 8)
    assert bpd.exact and bpd.value <= 8
    sr = quotient_conditions(bowtie, J, 8)
    assert sr.status == "certified"
    assert sr.output.dim == 5
    assert sr.output.is_monomial
    verdict = property_verdict(bowtie, 8, extra_steps=[sr])
    assert verdict.certificates["syzygy-finite"].verdict == "holds"
    assert verdict.certificates["injectives-generate"].verdict == "holds"
    assert not verdict.conditional
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _announce(2, elapsed, 60.0, f"quotient is the dim-5 monomial algebra; ideal bimodule pd {bpd}")


def test_criterion_3_corner_monomial(corner_mono, capsys):
    t0 = time.monotonic()
    assert corner_mono.dim == 6  # the five listed basis paths plus one length-2 survivor
    q = corner_mono.quiver
    words = {tuple(q.arrow_name(a) for a in p.arrows) for p in corner_mono.normal_basis}
    assert {(), ("ta",), ("tg",), ("teb",)} <= words
    assert corner_mono.is_monomial
    verdict = property_verdict(corner_mono, 10)
    assert verdict.certificates["syzygy-finite"].verdict == "holds"
    assert verdict.certificates["injectives-generate"].verdict == "holds"
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _announce(3, elapsed, 1.0, "dimension recorded as 6; monomial certificates hold")


def test_criterion_4_bongartz_cross_validation(capsys):
    t0 = time.monotonic()
    checked = 0
    skipped = 0
    gen = completed_corpus(424242, 200, GF5, bound=10, dim_cap=14)
    for A in gen:
        try:
            for v in A.quiver.vertices:
                no_starts, no_ends = bongartz(A, v)
                S = simple(A, A.quiver.v_index[v])
                pd = pd_bounded(S, 10, dim_cap=500)
                idim = pd_bounded(S, 10, "injective", dim_cap=500)
                assert no_starts == (pd.exact and pd.value <= 1), (A.name, v, str(pd))
                assert no_ends == (idim.exact and idim.value <= 1), (A.name, v, str(idim))
        except ResolutionCapExceeded:
            skipped += 1
            continue
        checked += 1
        if checked >= 100:
            break
    assert checked >= 100
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _announce(4, elapsed, 120.0, f"{checked} random gf(5) presentations, {skipped} skipped at the resolution cap, zero mismatches")


def test_criterion_5_witness_self_tests(dual_numbers, line2, tri_dual, bowtie, capsys):
    quotient = quotient_algebra(bowtie, IdealSpec.from_vertices(["1"])).handle
    cases = [
        ("line2", line2),
        ("dual_numbers", dual_numbers),
        ("tri_dual", tri_dual),
        ("bowtie-quotient", quotient),
    ]
    times = []
    for name, A in cases:
        t0 = time.monotonic()
        rep0 = verify_level(identity_pair(A), seed=0)
        assert rep0.verdict == "holds", (name, rep0)
        rep1 = verify_level(syzygy_pair(A), seed=0)
        assert rep1.verdict == "holds", (name, rep1)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, (name, elapsed)
        times.append((name, elapsed))
    with capsys.disabled():
        total = ", ".join(f"{n} {e:.2f}s" for n, e in times)
        print(f"ACCEPTANCE 5: PASS (each < 30s) identity and first-syzygy pairs verify: {total}")


def test_criterion_6_corner_presentation_oracle(bowtie, capsys):
    t0 = time.monotonic()
    B = corner_presentation(bowtie, ["s", "2"])
    assert B.dim == 6
    for u in ("s", "2"):
        for w in ("s", "2"):
            ui, wi = B.quiver.v_index[u], B.quiver.v_index[w]
            pu, pw = bowtie.quiver.v_index[u], bowtie.quiver.v_index[w]
            assert len(B.paths_between(ui, wi)) == len(bowtie.paths_between(pu, pw))
    rng = random.Random(616)
    checked = 0
    for A in completed_corpus(61600, 50, GF5, bound=10, dim_cap=13):
        names = list(A.quiver.vertices)
        S = sorted(rng.sample(names, rng.randint(1, len(names))))
        C = corner_presentation(A, S)
        assert C.dim == len(corner_basis(A, S)), (A.name, S)
        checked += 1
    assert checked == 50
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _announce(6, elapsed, 120.0, "50 random corners match the corner-basis count exactly")


def test_criterion_7_duality_and_tor_identities(capsys):
    t0 = time.monotonic()
    rng = random.Random(99)
    modules_checked = 0
    for A in completed_corpus(7000, 10, GF5, bound=8, dim_cap=10, max_vertices=3, max_arrows=4):
        for _ in range(2):
            v = rng.randrange(A.quiver.n_vertices)
            P = projective(A, v)[0]
            red = radical_reducers(P)
            vecs = [[] for _ in range(A.quiver.n_vertices)]
            for u in range(A.quiver.n_vertices):
                rows = red[u].basis_rows()
                if rows and rng.random() < 0.6:
                    vecs[u].append(rows[rng.randrange(len(rows))])
            M, _ = quotient_rep(P, stable_span(P, vecs))
            if M.is_zero():
                continue
            via_duality = pd_bounded(M, 8, "injective")
            direct = injective_dimension_direct(M, 8)
            if via_duality.exact:
                assert direct == via_duality.value, A.name
            else:
                assert direct is None, A.name
            modules_checked += 1
            if modules_checked >= 20:
                break
        if modules_checked >= 20:
            break
    assert modules_checked >= 20

    pairs_checked = 0
    for A in completed_corpus(7700, 10, GF5, bound=8, dim_cap=10, max_vertices=3, max_arrows=4):
        op = A.opposite()
        for v in range(A.quiver.n_vertices):
            for w in range(A.quiver.n_vertices):
                X = simple(op, v)
                Y = simple(A, w)
                assert tor_bounded(X, Y, 3).dims == tor_bounded(Y, X, 3).dims, A.name
                pairs_checked += 1
                if pairs_checked >= 20:
                    break
            if pairs_checked >= 20:
                break
        if pairs_checked >= 20:
            break
    assert pairs_checked >= 20
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _announce(7, elapsed, 120.0, f"{modules_checked} modules (id two ways), {pairs_checked} Tor side-swaps, exact equality")


def test_criterion_8_determinism(capsys):
    t0 = time.monotonic()
    commands = [
        ["analyze", fixture("dual_numbers"), "--seed", "11"],
        ["analyze", fixture("corner_mono"), "--seed", "11"],
        ["check", fixture("tri_dual"), "--property", "all", "--seed", "11"],
        ["check", fixture("bowtie"), "--property", "injectives-generate", "--quotient", "1", "--bound", "8", "--seed", "11"],
        ["reduce", fixture("line2"), "--seed", "11"],
        ["resolve", fixture("line2"), "--module", "simple:1", "--seed", "11"],
        ["witness", fixture("tri_dual"), "--syzygy", "--seed", "11"],
        ["corner", fixture("bowtie"), "--vertices", "s,2", "--json", "--seed", "11"],
    ]
    first_pass = []
    for argv in commands:
        cli.main(list(argv))
        first_pass.append(capsys.readouterr().out)
    for argv, expected in zip(commands, first_pass):
        cli.main(list(argv))
        again = capsys.readouterr().out
        assert again == expected, f"report not byte-identical for {argv}"
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _announce(8, elapsed, 120.0, f"{len(commands)} commands byte-identical across repeated runs")
