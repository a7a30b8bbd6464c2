"""Golden reports: every fixture command's exit code, stdout and stderr,
byte for byte, in both output formats with a fixed seed.

Refactors that promise byte-identical reports are checked against the
sha256 digests stored in ``golden_reports.json``.  Reports echo the algebra
path, so the fixture directory is replaced by ``<fixtures>`` before hashing.
Regenerate the file, only for an intended change of output, with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from qred import cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden_reports.json"
SEED = "7"


def _commands() -> list[list[str]]:
    """Every subcommand on every fixture at default flags (bowtie only where
    it ends quickly), plus the bounded bowtie checks of the acceptance suite."""
    first = {
        "dual_numbers": "1", "line2": "1", "line3z": "1", "tri_dual": "1", "corner_mono": "1", "bowtie": "1",
    }
    corner = {
        "dual_numbers": "1", "line2": "2", "line3z": "1,3", "tri_dual": "2", "corner_mono": "1", "bowtie": "s,2",
    }
    cmds = []
    for name, v in first.items():
        f = str(FIXTURES / f"{name}.alg")
        if name != "bowtie":
            cmds += [["analyze", f], ["check", f, "--property", "all"]]
        cmds += [
            ["reduce", f],
            ["resolve", f, "--module", f"simple:{v}"],
            ["resolve", f, "--module", f"simple:{v}", "--side", "injective"],
            ["witness", f, "--identity"],
            ["witness", f, "--syzygy"],
            ["corner", f, "--vertices", corner[name], "--json"],
        ]
    b = str(FIXTURES / "bowtie.alg")
    cmds += [
        ["check", b, "--property", "injectives-generate", "--quotient", "1", "--bound", "8"],
        ["check", b, "--property", "all", "--triangular", "--bound", "8"],
        ["check", b, "--property", "all", "--corner", "s,2", "--bound", "8"],
    ]
    return [argv + ["--seed", SEED, "--format", fmt] for argv in cmds for fmt in ("json", "text")]


COMMANDS = _commands()


def _key(argv: list[str]) -> str:
    return " ".join(argv).replace(str(FIXTURES), "<fixtures>")


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    fix = str(FIXTURES)
    out, err = out.getvalue().replace(fix, "<fixtures>"), err.getvalue().replace(fix, "<fixtures>")
    blob = f"{code}\0{out}\0{err}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_golden_file_covers_every_command():
    assert len(COMMANDS) == 98
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(map(_key, COMMANDS))


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_report_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _digest(argv) == golden[_key(argv)]


if __name__ == "__main__":
    digests = {_key(a): _digest(a) for a in COMMANDS}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(COMMANDS)} digests to {GOLDEN}\n")
