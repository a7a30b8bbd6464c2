import json
import signal
import time
from pathlib import Path

import pytest

from qred import cli
from qred.algebra import ConsistencyError, complete
from qred.modules import TensorFunctor
from qred.parser import ParseError, algebra_to_text, parse_algebra, parse_module

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / f"{name}.alg")


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr()


# -- parsing -----------------------------------------------------------------


def test_parse_counts():
    pres = parse_algebra((FIXTURES / "bowtie.alg").read_text())
    assert len(pres.quiver.vertices) == 3
    assert len(pres.quiver.arrows) == 5
    assert len(pres.relations) == 10
    assert pres.convention == "right-to-left"


def test_parse_dual_numbers():
    pres = parse_algebra((FIXTURES / "dual_numbers.alg").read_text())
    assert len(pres.quiver.vertices) == 1
    assert len(pres.relations) == 1


def test_parse_unknown_vertex_reports_position():
    text = "algebra bad\nfield rational\nvertices 1\narrow a : 1 -> 9\n"
    with pytest.raises(ParseError) as ei:
        parse_algebra(text)
    assert ei.value.line == 4
    assert "unknown vertex" in ei.value.message


def test_parse_unknown_arrow_in_relation():
    text = "algebra bad\nvertices 1\narrow x : 1 -> 1\nrelations\n  x*y\nend\n"
    with pytest.raises(ParseError) as ei:
        parse_algebra(text)
    assert ei.value.line == 5


def test_parse_noncomposable_word():
    text = (
        "algebra bad\nvertices 1 2\narrow a : 1 -> 2\narrow b : 1 -> 2\n"
        "relations\n  a*b\nend\n"
    )
    with pytest.raises(ParseError) as ei:
        parse_algebra(text)
    assert "non-composable" in ei.value.message


def test_parse_coefficients_and_signs():
    text = (
        "algebra c\nfield rational\nvertices 1\narrow x : 1 -> 1\narrow y : 1 -> 1\n"
        "relations\n  2 * x*x - 1/3 * y*y + x*y\nend\n"
    )
    pres = parse_algebra(text)
    (rel,) = pres.relations
    coeffs = sorted(str(c) for _, c in rel)
    assert coeffs == ["-1/3", "1", "2"]


def test_parse_left_to_right_convention():
    text = (
        "algebra lr\nconvention left-to-right\nvertices 1 2\n"
        "arrow a : 1 -> 2\narrow b : 2 -> 1\nrelations\n  a*b\nend\n"
    )
    pres = parse_algebra(text)
    (rel,) = pres.relations
    path = rel[0][0]
    assert path.source == 0 and path.target == 0  # a then b: 1 -> 2 -> 1


_LATE_DIRECTIVES = {
    "arrow": "arrow b : 2 -> 1",  # would close the unbounded cycle a, b
    "vertices": "vertices 3",
    "field": "field gf 3",  # the relation c*c was read over Q
    "convention": "convention left-to-right",
}


@pytest.mark.parametrize("directive", sorted(_LATE_DIRECTIVES))
def test_directive_after_relations_block_is_a_parse_error(directive, capsys, tmp_path):
    text = (
        "algebra late\nvertices 1 2\narrow a : 1 -> 2\narrow c : 2 -> 2\n"
        f"relations\n  c*c\nend\n{_LATE_DIRECTIVES[directive]}\n"
    )
    with pytest.raises(ParseError) as ei:
        parse_algebra(text)
    assert (ei.value.line, ei.value.col) == (8, 1)
    message = f"{directive!r} must come before the relations block"
    assert ei.value.message == message
    alg = tmp_path / "late.alg"
    alg.write_text(text)
    code, out = run(capsys, "analyze", str(alg))
    assert (code, out.out, out.err) == (2, "", f"qred: {alg}:8:1: {message}\n")


def test_round_trip_text(bowtie):
    text = algebra_to_text(bowtie)
    again = complete(parse_algebra(text), 8)
    assert again.dim == bowtie.dim
    assert again.is_monomial == bowtie.is_monomial


def test_module_file_parsing(line2):
    good = "module P1 over line2\ndim 1 = 1\ndim 2 = 1\nmap a = [[1]]\n"
    name, rep = parse_module(good, line2)
    assert name == "P1" and rep.dims == [1, 1]


def test_module_file_relation_violation(dual_numbers):
    bad = "module M over dual_numbers\ndim 1 = 1\nmap x = [[1]]\n"
    with pytest.raises(ParseError) as ei:
        parse_module(bad, dual_numbers)
    assert "relation" in ei.value.message
    assert (ei.value.line, ei.value.col) == (1, 1)


def test_cli_module_relation_violation_names_the_header_line(capsys, tmp_path):
    """A module that breaks a relation is reported at the line of its
    header, column 1, wherever the header sits, and exits 2."""
    bad = "module M over dual_numbers\ndim 1 = 1\nmap x = [[1]]\n"
    message = "relation 0 does not vanish on the representation"
    for lead, line in (("", 1), ("# x*x = 0 fails\n\n", 3)):
        path = tmp_path / "bad.mod"
        path.write_text(lead + bad)
        code, out = run(capsys, "resolve", fixture("dual_numbers"), "--module", str(path))
        assert (code, out.out, out.err) == (2, "", f"qred: {path}:{line}:1: {message}\n")


def test_module_file_shape_mismatch(line2):
    bad = "module M over line2\ndim 1 = 2\ndim 2 = 1\nmap a = [[1]]\n"
    with pytest.raises(ParseError) as ei:
        parse_module(bad, line2)
    assert "shape" in ei.value.message


_P1 = "module P1 over line2\ndim 1 = 1\ndim 2 = 1\nmap a = [[1]]\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        ("module P2 over line2\n", "repeated module header"),
        ("dim 2 = 0\n", "repeated dim line for vertex '2'"),
        ("map a = [[0]]\n", "repeated map line for arrow 'a'"),
    ],
    ids=["header", "dim", "map"],
)
def test_module_file_repeated_line(line2, capsys, tmp_path, extra, message):
    # the last line used to win silently: a second map line made a zero
    with pytest.raises(ParseError) as ei:
        parse_module(_P1 + extra, line2)
    assert (ei.value.line, ei.value.col, ei.value.message) == (5, 1, message)
    path = tmp_path / "p1.mod"
    path.write_text(_P1 + extra)
    code, out = run(capsys, "resolve", fixture("line2"), "--module", str(path))
    assert (code, out.out, out.err) == (2, "", f"qred: {path}:5:1: {message}\n")


# -- CLI ---------------------------------------------------------------------


def test_cli_analyze(capsys):
    code, out = run(capsys, "analyze", fixture("tri_dual"))
    assert code == 0
    report = json.loads(out.out)
    assert report["algebra"]["dimension"] == 4
    assert report["results"]["monomial"] is True
    assert report["results"]["serial"] is False
    assert list(report.keys()) == [
        "algebra", "command", "results", "trace", "certificates",
        "conditional", "seed", "elapsed_ms",
    ]


def test_cli_check_holds(capsys):
    code, out = run(
        capsys, "check", fixture("tri_dual"), "--property", "syzygy-finite", "--bound", "12"
    )
    assert code == 0
    report = json.loads(out.out)
    assert report["results"]["verdicts"]["syzygy-finite"] == "holds"
    assert len(report["trace"]) == 1
    assert report["certificates"][0]["rule"] == "monomial (terminal)"


def test_cli_check_all_properties(capsys):
    code, out = run(capsys, "check", fixture("tri_dual"), "--property", "all")
    assert code == 0
    report = json.loads(out.out)
    assert all(v == "holds" for v in report["results"]["verdicts"].values())


def test_cli_check_inconclusive(capsys):
    code, out = run(capsys, "check", fixture("bowtie"), "--property", "syzygy-finite", "--bound", "6")
    assert code == 3
    report = json.loads(out.out)
    assert report["results"]["verdicts"]["syzygy-finite"] == "inconclusive"


def test_cli_check_with_quotient(capsys):
    code, out = run(
        capsys, "check", fixture("bowtie"), "--property", "injectives-generate",
        "--quotient", "1", "--bound", "8",
    )
    assert code == 0
    report = json.loads(out.out)
    assert report["results"]["verdicts"]["injectives-generate"] == "holds"
    assert report["trace"][0]["kind"] == "homological_quotient"
    assert report["trace"][0]["certified"] is True


def test_cli_reduce(capsys):
    code, out = run(capsys, "reduce", fixture("bowtie"))
    assert code == 0
    report = json.loads(out.out)
    assert report["results"]["trace_length"] == 0
    assert report["results"]["terminal"]["dimension"] == 9


def test_cli_reduce_with_certified_quotient(capsys):
    # deleting the source of the only arrow is a homological quotient here
    code, out = run(capsys, "reduce", fixture("line2"), "--quotient", "1")
    assert code == 0
    report = json.loads(out.out)
    assert report["results"]["terminal"]["dimension"] == 1


def test_cli_reduce_refuted_quotient(capsys):
    # deleting the middle of 1 -> 2 -> 3 (composite zero) is not homological
    for command in (["reduce"], ["check", "--property", "all"]):
        code, out = run(capsys, *command, fixture("line3z"), "--quotient", "2")
        assert code == 1
        report = json.loads(out.out)
        assert report["results"]["refuted"] is True
        cond = report["trace"][0]["conditions"][0]
        assert cond["verdict"] == "refuted"
        assert "Tor_2" in cond["detail"]


def test_cli_corner_round_trip(capsys, tmp_path):
    code, out = run(capsys, "corner", fixture("bowtie"), "--vertices", "s,2")
    assert code == 0
    f = tmp_path / "corner.alg"
    f.write_text(out.out)
    again = complete(parse_algebra(out.out), 8)
    assert again.dim == 6 and again.is_monomial
    code2, out2 = run(capsys, "analyze", str(f))
    assert code2 == 0
    report = json.loads(out2.out)
    assert report["algebra"]["dimension"] == 6
    assert report["results"]["monomial"] is True


def test_cli_resolve(capsys):
    code, out = run(capsys, "resolve", fixture("line2"), "--module", "simple:1", "--steps", "5")
    assert code == 0
    report = json.loads(out.out)
    assert report["results"]["terminated"] is True
    assert report["results"]["pd"] == {"exact": True, "value": 1, "bound": 4}
    assert report["results"]["resolution"][0]["projective"] == [1, 1]


def test_cli_resolve_injective_side_resolves_the_dual(capsys):
    # the table, terminated and id all come from the resolution of D(S_1)
    # over the opposite algebra; S_1 itself is projective over tri_dual
    code, out = run(capsys, "resolve", fixture("tri_dual"), "--module", "simple:1", "--side", "injective")
    assert code == 0
    results = json.loads(out.out)["results"]
    assert results["terminated"] is False
    assert len(results["resolution"]) == 8
    assert results["id"] == {"exact": False, "value": 8, "bound": 7}
    code, out = run(capsys, "resolve", fixture("line3z"), "--module", "simple:3", "--side", "injective")
    results = json.loads(out.out)["results"]
    assert results["terminated"] is True
    assert [row["projective"] for row in results["resolution"]] == [[0, 1, 1], [1, 1, 0], [1, 0, 0]]
    assert results["id"] == {"exact": True, "value": 2, "bound": 7}


def test_cli_witness_identity(capsys):
    code, out = run(
        capsys, "witness", fixture("line2"), fixture("line2"), "--identity", "--level", "0"
    )
    assert code == 0
    report = json.loads(out.out)
    assert report["results"]["verdict"] == "holds"


def test_cli_witness_identity_redundant_long_relation(capsys, tmp_path):
    # k[x]/(x^2, x^5): the redundant x^5 is longer than the enveloping algebra's
    # degree bound, 2 + 2
    alg = tmp_path / "dn5.alg"
    alg.write_text(
        "algebra dn5\nfield rational\nvertices 1\narrow x : 1 -> 1\n"
        "relations\n  x*x\n  x*x*x*x*x\nend\n"
    )
    code, out = run(capsys, "witness", str(alg), "--identity")
    assert code == 0
    assert json.loads(out.out)["results"]["verdict"] == "holds"


def test_cli_witness_syzygy_at_bimodule_scale(capsys, tmp_path):
    # k<x, y>/(x^2, xy, y^4), dimension 8: the enveloping algebra has
    # dimension 64 and the first bimodule syzygy dimension 56, so each Hom
    # solve of the check has thousands of unknowns
    alg = tmp_path / "two_loops.alg"
    alg.write_text(
        "algebra two_loops\nfield rational\nvertices 1\narrow x : 1 -> 1\narrow y : 1 -> 1\n"
        "relations\n  x*x\n  x*y\n  y*y*y*y\nend\n"
    )
    t0 = time.monotonic()
    code, out = run(capsys, "witness", str(alg), "--syzygy")
    elapsed = time.monotonic() - t0
    report = json.loads(out.out)
    assert report["algebra"]["dimension"] == 8
    assert (code, report["results"]["level"], report["results"]["verdict"]) == (0, 1, "holds")
    assert elapsed < 30.0, f"witness --syzygy took {elapsed:.1f}s"


TWO_LOOPS = (
    "algebra two_loops\nfield rational\nvertices 1\narrow x : 1 -> 1\narrow y : 1 -> 1\n"
    "relations\n  x*x\n  x*y\n  y*y*y*y\nend\n"
)


@pytest.mark.parametrize(
    "argv, want",
    [
        (("analyze", "bowtie"), 0),
        (("check", "bowtie", "--property", "all"), 3),
        (("check", "bowtie", "--property", "all", "--corner", "s,2"), 3),
        (("analyze", "two_loops"), 0),
    ],
    ids=["analyze-bowtie", "check-bowtie", "check-bowtie-corner", "analyze-two-loops"],
)
def test_cli_default_bound_stops_at_a_returning_simple(capsys, tmp_path, argv, want):
    """At the default --bound 20 each pd search here meets a simple that is a
    summand of its own first syzygy (S_s of bowtie, the one simple of
    two_loops) and stops, where resolving all 21 steps took seconds to
    minutes and, on the bowtie corner and two_loops, gigabytes.  A watchdog
    fails the test instead of letting a regression run on."""
    path = tmp_path / "two_loops.alg"
    path.write_text(TWO_LOOPS)
    argv = [argv[0], str(path) if argv[1] == "two_loops" else fixture(argv[1]), *argv[2:]]

    def expire(signum, frame):
        raise TimeoutError(f"{argv} did not end within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        t0 = time.monotonic()
        code, out = run(capsys, *argv)
        elapsed = time.monotonic() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == want, out.err
    assert elapsed < 3.0, f"{argv} took {elapsed:.1f}s"
    results = json.loads(out.out)["results"]
    if argv[0] == "analyze":
        assert results["global_dimension"] == {"exact": False, "value": 21, "bound": 20}


def test_cli_bound_zero(capsys, tmp_path):
    point = tmp_path / "pt.alg"
    point.write_text("algebra pt\nfield rational\nvertices 1\n")
    code, out = run(capsys, "analyze", str(point), "--bound", "0")
    assert code == 0
    assert json.loads(out.out)["results"]["dimension"] == 1
    arrow = tmp_path / "ar.alg"
    arrow.write_text("algebra ar\nfield rational\nvertices 1 2\narrow a : 1 -> 2\n")
    code, out = run(capsys, "analyze", str(arrow), "--bound", "0")
    assert code == 2
    assert out.err == f"qred: {arrow}: dimension not resolved within bound 0: irreducible paths persist\n"


def test_cli_analyze_loewy_length_counts_radical_layers(capsys, tmp_path):
    # the normal path a1*a0 = 2 * a1*a1*a1 lies in rad^3: five radical layers,
    # though the longest normal path has length 3
    alg = tmp_path / "nh.alg"
    alg.write_text(
        "algebra nh\nfield rational\nvertices 1\n"
        "arrow a0 : 1 -> 1\narrow a1 : 1 -> 1\n"
        "relations\n  -2 * a0*a0*a1 + a0*a0\n  -2 * a1*a1*a1 + a1*a0\n"
        "  a0*a1*a1*a1 - a0*a0*a1\n  a0*a0*a0*a0\nend\n"
    )
    code, out = run(capsys, "analyze", str(alg), "--bound", "8")
    assert code == 0
    results = json.loads(out.out)["results"]
    assert results["loewy_length"] == 5
    assert max(int(k) for k in results["normal_basis_size_by_length"]) == 3


def test_cli_non_nilpotent_algebra(capsys, tmp_path):
    # x^2 = x^3: finite-dimensional, but x^2 survives every power of x
    alg = tmp_path / "nn.alg"
    alg.write_text(
        "algebra nn\nfield rational\nvertices 1\narrow x : 1 -> 1\n"
        "relations\n  x*x - x*x*x\nend\n"
    )
    code, out = run(capsys, "analyze", str(alg))
    assert code == 2
    assert out.out == ""
    assert out.err == (
        f"qred: {alg}: invalid presentation: arrow ideal is not nilpotent modulo relations\n"
    )


def test_cli_negative_module_dimension(capsys, tmp_path):
    mod = tmp_path / "neg.mod"
    mod.write_text("module M over line2\ndim 1 = -1\ndim 2 = 1\nmap a = [[1]]\n")
    code, out = run(capsys, "resolve", fixture("line2"), "--module", str(mod))
    assert code == 2
    assert out.out == ""
    assert out.err == f"qred: {mod}:2:1: bad dimension '-1'\n"


@pytest.mark.parametrize(
    "dims, literal, bad",
    [
        ((1, 1), "[[1,]]", "1,"),
        ((1, 1), "[[,1]]", ",1"),
        ((1, 2), "[[1],[,2]]", ",2"),
        ((2, 1), "[[1,,2]]", "1,,2"),
        ((0, 2), "[[],[]]", None),
    ],
    ids=["trailing", "leading", "second-row", "inner", "no-columns"],
)
def test_cli_empty_matrix_entry_exits_2(capsys, tmp_path, dims, literal, bad):
    # an empty entry is an error, not a dropped entry; an empty row is the
    # row of a matrix with no columns
    mod = tmp_path / "m.mod"
    mod.write_text(f"module M over line2\ndim 1 = {dims[0]}\ndim 2 = {dims[1]}\nmap a = {literal}\n")
    code, out = run(capsys, "resolve", fixture("line2"), "--module", str(mod))
    if bad is None:
        assert (code, out.err) == (0, "")
    else:
        assert (code, out.out, out.err) == (2, "", f"qred: {mod}:4:1: bad matrix entry in {bad!r}\n")


def test_cli_witness_fails(capsys):
    code, out = run(capsys, "witness", fixture("dual_numbers"), "--identity", "--level", "1")
    assert code == 1
    report = json.loads(out.out)
    assert report["results"]["verdict"] == "fails"


def test_cli_witness_pair_files(capsys, tmp_path, dual_numbers):
    from qred.modules import regular_bimodule
    from qred.parser import rep_to_text

    reg = regular_bimodule(dual_numbers)
    mfile = tmp_path / "m.bim"
    nfile = tmp_path / "n.bim"
    text = rep_to_text(reg, "reg")
    assert text.startswith("bimodule reg over dual_numbers dual_numbers")
    mfile.write_text(text)
    nfile.write_text(rep_to_text(reg, "reg2"))
    code, out = run(
        capsys,
        "witness", fixture("dual_numbers"),
        "--pair", str(mfile), str(nfile),
        "--level", "0",
    )
    assert code == 0
    assert json.loads(out.out)["results"]["verdict"] == "holds"


def test_bimodule_round_trip(dual_numbers):
    from qred.modules import regular_bimodule
    from qred.parser import rep_to_text

    env = dual_numbers.enveloping()
    reg = regular_bimodule(dual_numbers)
    name, again = parse_module(rep_to_text(reg, "reg"), env)
    assert name == "reg"
    assert again.dims == reg.dims
    assert all(a == b for a, b in zip(again.mats, reg.mats))


def test_cli_witness_search(capsys):
    code, out = run(capsys, "witness", fixture("dual_numbers"), "--syzygy", "--search", "--level-max", "3")
    assert code == 0
    report = json.loads(out.out)
    assert report["results"]["search"]["found_level"] == 1


def test_cli_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra b\nvertices 1\narrow a : 1 -> 9\n")
    code, out = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "unknown vertex" in out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("reduce", "bowtie", "--quotient", "zz"), "unknown vertex 'zz'"),
        (("reduce", "bowtie", "--corner", "zz"), "unknown vertex 'zz'"),
        (("check", "bowtie", "--property", "all", "--quotient", "1,zz"), "unknown vertex 'zz'"),
        (("check", "bowtie", "--property", "all", "--corner", "1,zz"), "unknown vertex 'zz'"),
        # vertex 1 is gone from the quotient the corner step applies to
        (("reduce", "bowtie", "--quotient", "1", "--corner", "1,s"), "unknown vertex '1'"),
        (("corner", "bowtie", "--vertices", "zz"), "unknown vertex 'zz'"),
        (("witness", "dual_numbers", "--identity", "--syzygy"), "choose one of --identity, --syzygy, --pair M N"),
        (("witness", "dual_numbers", "--syzygy", "--pair", "m.bim", "n.bim"), "choose one of --identity, --syzygy, --pair M N"),
        (("witness", "dual_numbers", "--syzygy", "--level-max", "3"), "--level-max needs --search"),
        (("witness", "dual_numbers", "--identity", "--level", "0", "--level-max", "0"), "--level-max needs --search"),
        (("reduce", "tri_dual", "--quotient", "1,1"), "vertex '1' listed twice"),
        (("reduce", "tri_dual", "--corner", "1,1"), "vertex '1' listed twice"),
        (("check", "bowtie", "--property", "all", "--corner", "s,2,s"), "vertex 's' listed twice"),
        (("corner", "bowtie", "--vertices", "2,s,2"), "vertex '2' listed twice"),
        (("check", "line2", "--property", "all", "--corner", ""), "empty vertex list"),
        (("check", "line2", "--property", "all", "--quotient", ""), "empty vertex list"),
        (("reduce", "line2", "--corner", ""), "empty vertex list"),
        (("reduce", "line2", "--quotient", ""), "empty vertex list"),
        (("check", "bowtie", "--property", "all", "--corner", "s,,2", "--bound", "8"), "empty vertex name in 's,,2'"),
        (("check", "line2", "--property", "all", "--quotient", "1,"), "empty vertex name in '1,'"),
        (("reduce", "line2", "--corner", ",2"), "empty vertex name in ',2'"),
        (("corner", "bowtie", "--vertices", "s,2,"), "empty vertex name in 's,2,'"),
        (("witness", "tri_dual", "--identity", "--level", "2", "--search"), "--level cannot be used with --search"),
    ],
    ids=[
        "reduce-quotient", "reduce-corner", "check-quotient", "check-corner",
        "corner-after-quotient", "corner-command", "identity-and-syzygy", "syzygy-and-pair",
        "level-max-without-search", "level-max-with-level", "quotient-repeated-vertex",
        "corner-repeated-vertex", "check-corner-repeated-vertex", "corner-command-repeated-vertex",
        "check-empty-corner", "check-empty-quotient", "reduce-empty-corner", "reduce-empty-quotient",
        "check-corner-empty-name", "check-quotient-empty-name", "reduce-corner-empty-name",
        "corner-command-empty-name", "level-with-search",
    ],
)
def test_cli_usage_errors_exit_2(capsys, argv, message):
    command, name, *rest = argv
    code, out = run(capsys, command, fixture(name), *rest)
    assert (code, out.out, out.err) == (2, "", f"qred: {message}\n")


@pytest.mark.parametrize("flag", ["--identity", "--syzygy"])
def test_cli_witness_second_algebra_needs_pair(capsys, flag):
    # the pair is built over the first algebra alone; a verdict would read as
    # one about both algebras
    code, out = run(capsys, "witness", fixture("line2"), fixture("tri_dual"), flag)
    assert (code, out.out, out.err) == (2, "", "qred: a second algebra is used only with --pair\n")


def test_cli_missing_file(capsys):
    code, out = run(capsys, "analyze", "no_such_file.alg")
    assert code == 2


def test_cli_witness_pair_missing_file(capsys, tmp_path):
    code, out = run(
        capsys,
        "witness", fixture("dual_numbers"),
        "--pair", str(tmp_path / "m.bim"), str(tmp_path / "n.bim"),
    )
    assert code == 2
    assert out.err == f"qred: {tmp_path / 'm.bim'}: No such file or directory\n"


def test_cli_internal_error_exits_4(capsys, monkeypatch):
    def broken(args, seed):
        raise ConsistencyError("corner radical is not nilpotent")

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    code, out = run(capsys, "analyze", fixture("line2"))
    assert code == cli.EXIT_INTERNAL == 4
    assert out.out == ""
    assert out.err == "qred: internal error: corner radical is not nilpotent\n"


def test_cli_tensor_grading_violation_exits_4(capsys, monkeypatch):
    # a reduction that leaves every complement coordinate nonzero mixes the
    # outer vertices of the bimodule tensor product
    space = TensorFunctor.space

    class Unreduced:
        def __init__(self, complement):
            self.complement = complement

        def reduce(self, vec):
            return dict.fromkeys(self.complement, 1)

    def broken(self, Y):
        out = space(self, Y)
        out.reducer = Unreduced(out.complement)
        return out

    monkeypatch.setattr(TensorFunctor, "space", broken)
    code, out = run(capsys, "witness", fixture("line2"), "--identity")
    assert code == cli.EXIT_INTERNAL
    assert out.out == ""
    assert out.err == "qred: internal error: tensor grading violated\n"


def test_cli_out_of_memory_exits_4(capsys, monkeypatch):
    def exhausted(A, n):
        raise MemoryError

    monkeypatch.setattr(cli, "gldim_bounded", exhausted)
    code, out = run(capsys, "analyze", fixture("line2"))
    assert code == cli.EXIT_INTERNAL == 4
    assert out.out == ""
    assert out.err == "qred: internal error: out of memory\n"
    assert "Traceback" not in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--bound", "-3"),
        ("resolve", "--module", "simple:1", "--steps", "-2"),
        ("witness", "--identity", "--level", "-1"),
        ("witness", "--syzygy", "--search", "--level-max", "-1"),
    ],
)
def test_cli_rejects_negative_counts(capsys, argv):
    code, out = run(capsys, argv[0], fixture("line2"), *argv[1:])
    assert code == 2
    assert out.out == ""
    assert "must be non-negative" in out.err


def test_cli_reports_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out = run(
            capsys, "check", fixture("tri_dual"), "--property", "all", "--seed", "7"
        )
        assert code == 0
        outputs.append(out.out)
    assert outputs[0] == outputs[1]


def test_cli_witness_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out = run(capsys, "witness", fixture("tri_dual"), "--syzygy", "--seed", "3")
        assert code == 0
        outputs.append(out.out)
    assert outputs[0] == outputs[1]


def test_cli_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("QRED_SEED", "41")
    code, out = run(capsys, "analyze", fixture("line2"))
    assert code == 0
    assert json.loads(out.out)["seed"] == 41


def test_cli_seed_env_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("QRED_SEED", "abc")
    code, out = run(capsys, "analyze", fixture("line2"))
    assert (code, out.out, out.err) == (2, "", "qred: QRED_SEED must be an integer, got 'abc'\n")


def test_cli_text_format(capsys):
    code, out = run(capsys, "analyze", fixture("line2"), "--format", "text")
    assert code == 0
    assert "algebra line2" in out.out


def test_cli_gf_field_end_to_end(capsys, tmp_path):
    f = tmp_path / "dn5.alg"
    f.write_text(
        "algebra dn5\nfield gf 5\nvertices 1\narrow x : 1 -> 1\n"
        "relations\n  x*x\nend\n"
    )
    code, out = run(capsys, "check", str(f), "--property", "all")
    assert code == 0
    report = json.loads(out.out)
    assert report["algebra"]["field"] == "gf 5"
    assert all(v == "holds" for v in report["results"]["verdicts"].values())


def test_cli_reads_stdin(capsys, monkeypatch):
    import io

    text = (FIXTURES / "line2.alg").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out = run(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out.out)["algebra"]["dimension"] == 3
