"""Witness pairs for singular equivalence of Morita type with level.

A witness pair is a pair of bimodules (M, N) together with a level n >= 0;
it verifies when the four one-sided restrictions are projective and the two
products M (x) N and N (x) M are stably isomorphic to the n-th syzygies of
the regular bimodules over the respective enveloping algebras.  Bimodules are
carried as representations of completed product algebras; levels are searched
rather than derived, since no effective level comes with the existence
results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import AlgebraHandle, tensor_with_opposite
from .modules import (
    Rep,
    arrow_paths,
    is_projective,
    minimal_resolution,
    path_bimodule,
    regular_bimodule,
    restrict,
    stable_isomorphic,
    tensor_over,
    validate_rep,
    zero_rep,
)
from .algebra import ConsistencyError

__all__ = [
    "WitnessPair",
    "LevelReport",
    "restrict",
    "one_sided_projectivity",
    "bimodule_syzygy",
    "tensor_bimodules",
    "verify_level",
    "search_level",
    "idempotent_candidate",
    "identity_pair",
    "syzygy_pair",
]


@dataclass
class WitnessPair:
    M: Rep  # over A (x) B^op
    N: Rep  # over B (x) A^op
    level: int

    @property
    def left_algebra(self) -> AlgebraHandle:
        return self.M.algebra.product.left

    @property
    def right_algebra(self) -> AlgebraHandle:
        return self.M.algebra.product.right

    def check_shapes(self):
        pm, pn = self.M.algebra.product, self.N.algebra.product
        if pm is None or pn is None:
            raise ValueError("witness bimodules must live over product algebras")
        if pm.left is not pn.right or pm.right is not pn.left:
            raise ValueError("witness bimodules do not match crosswise")
        if self.level < 0:
            raise ValueError("level must be nonnegative")


def one_sided_projectivity(pair: WitnessPair) -> tuple[bool, bool, bool, bool]:
    """(M left, M right, N left, N right) projectivity of the restrictions."""
    pair.check_shapes()
    return (
        is_projective(restrict(pair.M, "left")),
        is_projective(restrict(pair.M, "right")),
        is_projective(restrict(pair.N, "left")),
        is_projective(restrict(pair.N, "right")),
    )


def bimodule_syzygy(A: AlgebraHandle, n: int) -> Rep:
    """The n-th minimal syzygy of the regular bimodule over A (x) A^op."""
    if n < 0:
        raise ValueError("syzygy index must be nonnegative")
    reg = regular_bimodule(A)
    if n == 0:
        return reg
    res = minimal_resolution(reg, n)
    if len(res.syzygies) >= n:
        return res.syzygies[n - 1]
    return zero_rep(A.enveloping())


def tensor_bimodules(M: Rep, N: Rep, env: AlgebraHandle | None = None) -> Rep:
    """M (x)_B N as a bimodule over the outer pair of algebras."""
    pm, pn = M.algebra.product, N.algebra.product
    if pm is None or pn is None:
        raise ValueError("tensor_bimodules expects product representations")
    if pm.right is not pn.left:
        raise ValueError("middle algebras do not match")
    if env is None:
        env = (
            pm.left.enveloping()
            if pm.left is pn.right
            else tensor_with_opposite(pm.left, pn.right)
        )
    result = tensor_over(M, N, env)
    if result.rep is None:
        raise ConsistencyError("bimodule tensor lost its outer structure")
    return result.rep


@dataclass
class LevelReport:
    projectivity: tuple[bool, bool, bool, bool]
    iso_left: str  # 'yes' | 'no' | 'inconclusive'
    iso_right: str
    verdict: str  # 'holds' | 'fails' | 'inconclusive'


def verify_level(pair: WitnessPair, seed: int = 0) -> LevelReport:
    """Check the witness-pair conditions at the given level."""
    pair.check_shapes()
    A = pair.left_algebra
    B = pair.right_algebra
    proj = one_sided_projectivity(pair)
    mn = tensor_bimodules(pair.M, pair.N, A.enveloping())
    nm = tensor_bimodules(pair.N, pair.M, B.enveloping())
    # derive per-side streams arithmetically (string hashing is not stable
    # across processes and would break report determinism)
    rng_a = random.Random(seed * 1000003 + 2 * pair.level)
    rng_b = random.Random(seed * 1000003 + 2 * pair.level + 1)
    iso_a = stable_isomorphic(mn, bimodule_syzygy(A, pair.level), rng_a)
    iso_b = stable_isomorphic(nm, bimodule_syzygy(B, pair.level), rng_b)
    if all(proj) and iso_a.kind == "yes" and iso_b.kind == "yes":
        verdict = "holds"
    elif (not all(proj)) or iso_a.kind == "no" or iso_b.kind == "no":
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return LevelReport(proj, iso_a.kind, iso_b.kind, verdict)


def search_level(M: Rep, N: Rep, n_max: int, seed: int = 0):
    """Smallest level at which (M, N) verifies, or None up to n_max.

    Positive answers are re-verified with an independent seed before being
    reported.
    """
    reports = []
    for n in range(n_max + 1):
        rep = verify_level(WitnessPair(M, N, n), seed)
        reports.append((n, rep))
        if rep.verdict == "holds":
            recheck = verify_level(WitnessPair(M, N, n), seed + 7919)
            if recheck.verdict == "holds":
                return n, reports
    return None, reports


def identity_pair(A: AlgebraHandle) -> WitnessPair:
    """(A, A) as bimodules over A (x) A^op; verifies at level 0."""
    reg = regular_bimodule(A)
    return WitnessPair(reg, reg, 0)


def syzygy_pair(A: AlgebraHandle) -> WitnessPair:
    """(Omega^1 of the regular bimodule, A), a level-1 witness pair."""
    return WitnessPair(bimodule_syzygy(A, 1), regular_bimodule(A), 1)


def idempotent_candidate(A: AlgebraHandle, corner: AlgebraHandle):
    """(Ae, eA) as bimodules against a presented corner; a heuristic candidate."""
    cs = corner.corner
    if cs is None or cs.parent is not A:
        raise ValueError("corner does not present an idempotent of this algebra")
    # the corner sits in A on its kept vertices, each arrow b as the path r_b
    own = (range(A.quiver.n_vertices), arrow_paths(A))
    placed = (cs.kept, cs.realizations)
    M = path_bimodule(A, tensor_with_opposite(A, corner), own, placed)
    N = path_bimodule(A, tensor_with_opposite(corner, A), placed, own)
    for rep, label in ((M, "Ae"), (N, "eA")):
        problems = validate_rep(rep)
        if problems:
            raise ConsistencyError(f"{label} candidate is not a representation: {problems[0]}")
    return M, N
