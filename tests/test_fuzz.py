"""Fuzz of the parser and the exit-code contract on mutated inputs.

Every mutated algebra file must end in a report or a one-line error: no
exception escapes ``cli.main``, and ``analyze`` exits 0, 2 (usage, parse
error or an unresolved dimension) or 3 (inconclusive), never 1 or 4.  So
do mutated module files through ``resolve --module FILE`` and random vertex
lists through ``check --corner / --quotient / --triangular``; ``check`` may
also exit 1 (a refuted step).  The examples are derandomized, so every run
tries the same inputs.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qred import cli
from qred.modules import injective, projective, regular_rep, simple
from qred.parser import rep_to_text
from qred.reduction import PROPERTIES

from conftest import FIXTURES, load

TEXTS = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.alg"))]

# pieces of the file syntax, so that mutations reach past the tokenizer
PIECES = [
    "*", "-", "+", " ", "\n", "\\\n", "#", ":", "->", "x", "a", "1", "2", "0", "-1",
    "1/0", "3/2", "99999999999999999999", "relations", "end", "arrow", "vertices",
    "field gf 4", "field gf 2", "field rational", "convention left-to-right", "algebra",
]


def _mutate(draw, text, pieces, junk):
    """text after one to three random edits: a short span replaced by one of
    pieces or by junk text, or a whole line dropped or duplicated."""
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # replace a short span by a syntax piece or arbitrary text
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 8)))
            piece = draw(st.one_of(st.sampled_from(pieces), junk))
            text = text[:i] + piece + text[j:]
        else:
            # drop or duplicate a whole line
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if draw(st.booleans()) else [lines[k]] * 2
            text = "\n".join(lines)
    return text


@st.composite
def mutated_fixture(draw):
    return _mutate(draw, draw(st.sampled_from(TEXTS)), PIECES, st.text(max_size=4))


ALGEBRAS = {path: load(path.stem) for path in sorted(FIXTURES.glob("*.alg"))}


def _module_texts():
    """(fixture path, module file) pairs: the regular module and, per vertex,
    the simple, projective and injective modules of each fixture."""
    out = []
    for path, A in ALGEBRAS.items():
        mods = [regular_rep(A)]
        for v in range(A.quiver.n_vertices):
            mods += [simple(A, v), projective(A, v)[0], injective(A, v)]
        out += [(path, rep_to_text(M, f"M{i}")) for i, M in enumerate(mods)]
    return out


MODULES = _module_texts()

# pieces of the module syntax; numbers stay small and the junk text has no
# digits, so that no mutation asks for a module of huge dimension
MODULE_PIECES = [
    "[", "]", "[[", "]]", ",", "=", " ", "\n", "#", "0", "1", "2", "-1", "1/2", "1/0", "x",
    "dim", "map", "module", "bimodule", "over", "dim 1 = 1", "map a = [[1]]", "[[0,1]]", "[]",
]


@st.composite
def mutated_module(draw):
    path, text = draw(st.sampled_from(MODULES))
    junk = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=4)
    if draw(st.booleans()):
        # keep the header, so that more mutations reach the dims and the maps
        head, _, body = text.partition("\n")
        return path, head + "\n" + _mutate(draw, body, MODULE_PIECES, junk)
    return path, _mutate(draw, text, MODULE_PIECES, junk)


def _run(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(code, out, err, codes):
    assert code in codes, err
    # an error is one line on stderr, and a report goes to stdout alone
    if code == 2:
        assert err.startswith("qred: ") and err.count("\n") == 1, err
    else:
        assert out and not err, err


@pytest.fixture(scope="module")
def alg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.alg"


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(text=mutated_fixture())
def test_analyze_mutated_fixture_keeps_exit_contract(alg_path, text):
    alg_path.write_text(text, encoding="utf-8")
    _assert_exit_contract(*_run(["analyze", str(alg_path), "--bound", "6"]), (0, 2, 3))


@pytest.fixture(scope="module")
def module_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.mod"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=mutated_module(), side=st.sampled_from(["projective", "injective"]))
def test_resolve_mutated_module_keeps_exit_contract(module_path, case, side):
    path, text = case
    module_path.write_text(text, encoding="utf-8")
    argv = ["resolve", str(path), "--module", str(module_path), "--steps", "3", "--bound", "4", "--side", side]
    _assert_exit_contract(*_run(argv), (0, 2, 3))


@st.composite
def check_argv(draw):
    """`check` on a fixture with a random property, variant and step flags:
    --corner and --quotient each take a comma-separated list of the
    fixture's vertex names (drawn three times as often) and junk: empty
    names, spaces, repeats, unknown names and a leading dash."""
    path = draw(st.sampled_from(list(ALGEBRAS)))
    own = st.sampled_from(ALGEBRAS[path].quiver.vertices)
    names = st.one_of(own, own, own, st.sampled_from(["", " ", "-1", "0", "x", "1 "]), st.text(max_size=2))
    argv = ["check", str(path), "--property", draw(st.sampled_from(PROPERTIES + ("all",))), "--bound", "4"]
    argv += ["--variant", draw(st.sampled_from(["pd", "id", "tor"]))]
    for flag in ("--corner", "--quotient"):
        if draw(st.booleans()):
            # the = form keeps a list that starts with a dash an argument of its flag
            argv.append(f"{flag}={','.join(draw(st.lists(names, min_size=1, max_size=3)))}")
    return argv + ["--triangular"] * draw(st.booleans())


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(argv=check_argv())
def test_check_random_vertex_lists_keep_exit_contract(argv):
    _assert_exit_contract(*_run(argv), (0, 1, 2, 3))
