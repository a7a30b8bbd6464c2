"""Fuzz of the parser and the exit-code contract on mutated fixture texts.

Every mutated file must end in a report or a one-line error: no exception
escapes ``cli.main``, and ``analyze`` exits 0, 2 (usage, parse error or an
unresolved dimension) or 3 (inconclusive), never 1 or 4.  The examples are
derandomized, so every run tries the same inputs.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qred import cli

from conftest import FIXTURES

TEXTS = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.alg"))]

# pieces of the file syntax, so that mutations reach past the tokenizer
PIECES = [
    "*", "-", "+", " ", "\n", "\\\n", "#", ":", "->", "x", "a", "1", "2", "0", "-1",
    "1/0", "3/2", "99999999999999999999", "relations", "end", "arrow", "vertices",
    "field gf 4", "field gf 2", "field rational", "convention left-to-right", "algebra",
]


@st.composite
def mutated_fixture(draw):
    text = draw(st.sampled_from(TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # replace a short span by a syntax piece or arbitrary text
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 8)))
            piece = draw(st.one_of(st.sampled_from(PIECES), st.text(max_size=4)))
            text = text[:i] + piece + text[j:]
        else:
            # drop or duplicate a whole line
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if draw(st.booleans()) else [lines[k]] * 2
            text = "\n".join(lines)
    return text


@pytest.fixture(scope="module")
def alg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.alg"


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(text=mutated_fixture())
def test_analyze_mutated_fixture_keeps_exit_contract(alg_path, text):
    alg_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", str(alg_path), "--bound", "6"])
    assert code in (0, 2, 3), err.getvalue()
    # an error is one line on stderr, and a report goes to stdout alone
    if code == 2:
        assert err.getvalue().startswith("qred: ") and err.getvalue().count("\n") == 1
    else:
        assert out.getvalue() and not err.getvalue()
