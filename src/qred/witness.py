"""Witness pairs for singular equivalence of Morita type with level.

A witness pair is a pair of bimodules (M, N) together with a level n >= 0;
it verifies when the four one-sided restrictions are projective and the two
products M (x) N and N (x) M are stably isomorphic to the n-th syzygies of
the regular bimodules over the respective enveloping algebras.  Bimodules are
carried as representations of completed product algebras; levels are searched
rather than derived, since no effective level comes with the existence
results.  A pair is validated when it is built: both bimodules live over
product algebras that match crosswise, and the level is nonnegative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import AlgebraHandle, tensor_with_opposite
from .modules import (
    Rep,
    arrow_paths,
    is_isomorphic,
    is_projective,
    minimal_resolution,
    path_bimodule,
    regular_bimodule,
    restrict,
    split_projective_summands,
    tensor_over,
    zero_rep,
)

__all__ = [
    "WitnessPair",
    "LevelReport",
    "one_sided_projectivity",
    "bimodule_syzygy",
    "tensor_bimodules",
    "verify_level",
    "search_level",
    "idempotent_candidate",
    "identity_pair",
    "syzygy_pair",
]


@dataclass(frozen=True)
class WitnessPair:
    M: Rep  # over A (x) B^op
    N: Rep  # over B (x) A^op
    level: int

    def __post_init__(self):
        pm, pn = self.M.algebra.product, self.N.algebra.product
        if pm is None or pn is None:
            raise ValueError("witness bimodules must live over product algebras")
        if pm.left is not pn.right or pm.right is not pn.left:
            raise ValueError("witness bimodules do not match crosswise")
        if self.level < 0:
            raise ValueError("level must be nonnegative")


def one_sided_projectivity(pair: WitnessPair) -> tuple[bool, bool, bool, bool]:
    """(M left, M right, N left, N right) projectivity of the restrictions;
    a pair (M, M) restricts M once."""

    def sides(X):
        return is_projective(restrict(X, "left")), is_projective(restrict(X, "right"))

    m = sides(pair.M)
    return m + (m if pair.N is pair.M else sides(pair.N))


def bimodule_syzygy(A: AlgebraHandle, n: int) -> Rep:
    """The n-th minimal syzygy of the regular bimodule over A (x) A^op.

    The syzygies found so far are cached on A, Omega^0 first, and a deeper
    one extends them by one minimal cover each, up to the first zero
    syzygy, so every level resolves the regular bimodule only once; callers
    must not mutate the result, as for `projective`.
    """
    if n < 0:
        raise ValueError("syzygy index must be nonnegative")
    key = ("bimodule_syzygy",)
    if key not in A._extra:
        A._extra[key] = [regular_bimodule(A)]
    syz = A._extra[key]
    while len(syz) <= n and not syz[-1].is_zero():
        syz.append(minimal_resolution(syz[-1], 1).syzygies[0])
    return syz[n] if n < len(syz) else zero_rep(A.enveloping())


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
    return tensor_over(M, N, env).rep


@dataclass
class LevelReport:
    projectivity: tuple[bool, bool, bool, bool]
    iso_left: str  # 'yes' | 'no' | 'inconclusive'
    iso_right: str

    @property
    def verdict(self) -> str:  # 'holds' | 'fails' | 'inconclusive'
        kinds = (self.iso_left, self.iso_right)
        if not all(self.projectivity) or "no" in kinds:
            return "fails"
        return "holds" if kinds == ("yes", "yes") else "inconclusive"


def _level_independent(pair: WitnessPair) -> tuple[tuple[bool, bool, bool, bool], Rep, Rep]:
    """The part of a level check that does not depend on the level: the
    projectivity of the four restrictions and the cores of M (x) N and
    N (x) M left after splitting off their projective summands."""
    A, B = pair.M.algebra.product.left, pair.M.algebra.product.right
    proj = one_sided_projectivity(pair)
    # for a pair (M, M), which the crosswise check puts over one algebra,
    # N (x) M is M (x) N
    core_mn, _ = split_projective_summands(tensor_bimodules(pair.M, pair.N, A.enveloping()))
    if pair.N is pair.M:
        core_nm = core_mn
    else:
        core_nm, _ = split_projective_summands(tensor_bimodules(pair.N, pair.M, B.enveloping()))
    return proj, core_mn, core_nm


def _check_level(pair: WitnessPair, fixed, seed: int) -> LevelReport:
    """The report at pair.level, given the pair's `_level_independent` part."""
    A, B = pair.M.algebra.product.left, pair.M.algebra.product.right
    proj, core_mn, core_nm = fixed
    # derive per-side streams arithmetically (string hashing is not stable
    # across processes and would break report determinism)
    rng_a = random.Random(seed * 1000003 + 2 * pair.level)
    rng_b = random.Random(seed * 1000003 + 2 * pair.level + 1)
    # stable isomorphism compares the cores left after splitting off the
    # projective summands; the syzygy core is split once per algebra
    core_a, _ = split_projective_summands(bimodule_syzygy(A, pair.level))
    core_b = core_a if B is A else split_projective_summands(bimodule_syzygy(B, pair.level))[0]
    iso_a = is_isomorphic(core_mn, core_a, rng_a)
    # for a pair (M, M) over one algebra both sides pose the same question,
    # and a "yes" or "no" answers it exactly: only an inconclusive search is
    # run again on the second stream
    if core_nm is core_mn and core_b is core_a and iso_a.kind != "inconclusive":
        iso_b = iso_a
    else:
        iso_b = is_isomorphic(core_nm, core_b, rng_b)
    return LevelReport(proj, iso_a.kind, iso_b.kind)


def verify_level(pair: WitnessPair, seed: int = 0) -> LevelReport:
    """Check the witness-pair conditions at the given level."""
    return _check_level(pair, _level_independent(pair), seed)


def search_level(M: Rep, N: Rep, n_max: int, seed: int = 0):
    """Smallest level at which (M, N) verifies, or None up to n_max; with
    the (level, report) of every level checked, each equal to what
    `verify_level` reports at that level.

    A level holds only on exact evidence: projective restrictions and, on
    both sides, an invertible homomorphism verified entry by entry.  The
    seed steers only the search for that homomorphism, so another seed
    could not overturn a level that holds.  The restrictions and the cores
    of M (x) N and N (x) M do not depend on the level, so they are checked
    and split once per search; each level splits only the syzygy core and
    runs the two isomorphism tests, one when the pair is (M, M) over one
    algebra and the first test is not inconclusive.
    """
    reports = []
    fixed = None
    for n in range(n_max + 1):
        pair = WitnessPair(M, N, n)
        if fixed is None:
            fixed = _level_independent(pair)
        rep = _check_level(pair, fixed, seed)
        reports.append((n, rep))
        if rep.verdict == "holds":
            return n, reports
    return None, reports


def identity_pair(A: AlgebraHandle) -> WitnessPair:
    """(A, A) as bimodules over A (x) A^op; verifies at level 0.  A is
    Omega^0 of `bimodule_syzygy`, which a level check reads again."""
    reg = bimodule_syzygy(A, 0)
    return WitnessPair(reg, reg, 0)


def syzygy_pair(A: AlgebraHandle) -> WitnessPair:
    """(Omega^1 of the regular bimodule, A), a level-1 witness pair."""
    return WitnessPair(bimodule_syzygy(A, 1), bimodule_syzygy(A, 0), 1)


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
    return M, N
