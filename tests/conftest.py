from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from qred.algebra import complete
from qred.parser import parse_algebra

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str, bound: int = 12):
    text = (FIXTURES / f"{name}.alg").read_text(encoding="utf-8")
    return complete(parse_algebra(text), bound)


def is_field_element(field, x) -> bool:
    """Whether x is an element of field in the one form the engine stores:
    an int in [0, p) over GF(p); over Q an int, or a Fraction whose
    denominator is greater than 1."""
    if field.p is not None:
        return type(x) is int and 0 <= x < field.p
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@pytest.fixture(scope="session")
def dual_numbers():
    return load("dual_numbers")


@pytest.fixture(scope="session")
def line2():
    return load("line2")


@pytest.fixture(scope="session")
def tri_dual():
    return load("tri_dual")


@pytest.fixture(scope="session")
def bowtie():
    return load("bowtie")


@pytest.fixture(scope="session")
def corner_mono():
    return load("corner_mono")
