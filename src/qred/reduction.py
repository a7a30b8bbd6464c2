"""The reduction engine.

Vertex removal at relation-endpoint-free vertices, corner presentations of
eAe, derived-tensor boundedness over a corner, homological-ideal quotients,
triangular splitting, and certificate-based property verdicts propagated
along reduction traces.  Every implemented step is an if-and-only-if
transport of syzygy-finiteness, the Igusa-Todorov property, injectives
generation and projectives cogeneration, provided its side conditions are
certified; otherwise the step taints the verdict with a conditional flag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    AlgebraHandle,
    ConsistencyError,
    CornerStructure,
    Path,
    Presentation,
    Quiver,
    _complete,
    compose,
    corner_basis,
    word_key,
)
from .homology import (
    IdealSpec,
    TorResult,
    bimodule_pd_bounded,
    bongartz,
    gldim_bounded,
    gorenstein_bounded,
    homological_ideal_check,
    ideal_bimodule,
    serial_check,
    tor_bounded,
)
from .linalg import SubspaceReducer, kernel_vectors
from .modules import (
    Rep,
    action_rep,
    pd_bounded,
    simple,
)
from .parser import written_arrow_names

__all__ = [
    "Condition",
    "ReductionStep",
    "PropertyCertificate",
    "Verdict",
    "PROPERTIES",
    "corner_presentation",
    "corner_module_eA",
    "corner_module_Ae",
    "derived_tensor_bounded",
    "eligible_vertices",
    "remove_vertex",
    "reduce_fixpoint",
    "corner_conditions",
    "quotient_conditions",
    "triangular_split",
    "property_verdict",
]

PROPERTIES = (
    "syzygy-finite",
    "igusa-todorov",
    "injectives-generate",
    "projectives-cogenerate",
)


@dataclass
class Condition:
    name: str
    verdict: str  # 'certified' | 'conditional' | 'refuted'
    bound: int | None = None
    detail: str = ""


def _condition(name: str, ok: bool, bound: int | None = None, detail: str = "") -> Condition:
    """A condition that is certified when ok holds, conditional otherwise."""
    return Condition(name, "certified" if ok else "conditional", bound, detail)


@dataclass
class ReductionStep:
    """One reduction step: its side conditions and the algebra it reaches.

    output is None once a condition is refuted; status and failures are read
    off the conditions.
    """

    kind: str  # vertex_removal | corner | homological_quotient | triangular_split
    input_name: str
    output_name: str
    params: dict
    conditions: list
    output: AlgebraHandle | None

    @property
    def failures(self) -> list[str]:
        return [c.name for c in self.conditions if c.verdict != "certified"]

    @property
    def certified(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:  # 'certified' | 'conditional' | 'refuted'
        if any(c.verdict == "refuted" for c in self.conditions):
            return "refuted"
        return "certified" if self.certified else "conditional"


# -- corner presentations ---------------------------------------------------


def corner_presentation(A: AlgebraHandle, vertex_names, name: str = "") -> AlgebraHandle:
    """Present the corner algebra eAe on the given vertex set.

    Arrows are length-lex least normal paths spanning R = e rad A e modulo
    R^2.  They generate R modulo R^2, so R^d is spanned by the evaluations
    of the corner words of length at least d, and the Loewy length is the
    first length at which every word evaluates to zero; the words are
    enumerated one length at a time up to it.

    Relations are the kernel of the evaluation onto eAe, one kernel per
    vertex pair over its words of length 2 and more, taken by degree and
    thinned against consequences of the relations already found.  The
    kernel vector of a free column is supported on the columns up to it,
    and whether a column is free depends only on those, so the words of
    degree at most d have exactly the kernel vectors whose free column has
    degree at most d.

    The presented algebra maps onto eAe, and the dimension check makes that
    map an isomorphism.  Its arrow ideal then lies in the nilpotent ideal
    e rad A e, so its completion skips the nilpotency certificate and takes
    the Loewy length read off the words.
    """
    q = A.quiver
    S = sorted(q.v_index[v] for v in vertex_names)
    f = A.field
    C = corner_basis(A, [q.vertices[v] for v in S])
    C_index = {p: i for i, p in enumerate(C)}
    C_pos = [p for p in C if len(p.arrows) >= 1]

    # (e rad e)^2
    square = SubspaceReducer(f, len(C))
    for a in C_pos:
        for b in C_pos:
            prod = A.mul_paths(a, b)
            if prod:
                square.insert({C_index[p]: c for p, c in prod.items()})
    realizations = []
    for c in sorted(C_pos, key=word_key):
        if square.insert({C_index[c]: f.one()}):
            realizations.append(c)

    # quiver of the corner
    s_pos = {v: i for i, v in enumerate(S)}
    arrow_names = []
    used = {}
    for c in realizations:
        base = "t_" + "_".join(written_arrow_names(A, c))
        k = used.get(base, 0)
        used[base] = k + 1
        arrow_names.append(base if k == 0 else f"{base}_{k + 1}")
    new_vertices = [q.vertices[v] for v in S]
    new_arrows = [
        (arrow_names[i], q.vertices[c.source], q.vertices[c.target])
        for i, c in enumerate(realizations)
    ]
    new_quiver = Quiver(new_vertices, new_arrows)

    # enumerate corner-quiver paths with their evaluations, up to the first
    # length at which every word evaluates to zero: the Loewy length
    arr_src = [s_pos[c.source] for c in realizations]
    arr_tgt = [s_pos[c.target] for c in realizations]
    paths_by_deg = [[(v, v, ()) for v in range(len(S))]]
    ev = {(i,): {c: f.one()} for i, c in enumerate(realizations)}
    while True:
        level = []
        for (src, tgt, word) in paths_by_deg[-1]:
            for i, r in enumerate(realizations):
                if arr_src[i] != tgt:
                    continue
                nw = word + (i,)
                level.append((src, arr_tgt[i], nw))
                if word:
                    # every term of ev[word] ends where r starts
                    ev[nw] = A.normal_form({compose(p, r): cp for p, cp in ev[word].items()})
        paths_by_deg.append(level)
        if not any(ev[word] for _, _, word in level):
            break
    loewy = len(paths_by_deg) - 1

    # the formal words of length >= 2, indexed in order of length and grouped
    # by vertex pair in that order
    formal_index: dict[tuple, int] = {}
    groups: dict[tuple, list] = {}
    for level in paths_by_deg[2:]:
        for (src, tgt, word) in level:
            formal_index[word] = len(formal_index)
            groups.setdefault((src, tgt), []).append(word)
    by_src = {}
    by_tgt = {}
    for level in paths_by_deg:
        for (src, tgt, word) in level:
            by_src.setdefault(src, []).append((tgt, word))
            by_tgt.setdefault(tgt, []).append((src, word))

    cons = SubspaceReducer(f, len(formal_index))
    relations = []

    def add_consequences(rel_terms, r_src, r_tgt):
        # formal products u * r * v inside the degree window
        maxdeg = max(len(w) for w, _ in rel_terms)
        for (usrc, uword) in by_tgt.get(r_src, ()):
            for (vtgt, vword) in by_src.get(r_tgt, ()):
                extra = len(uword) + len(vword)
                if extra == 0 or extra + maxdeg > loewy:
                    continue
                # the words of r are distinct, so each word u * w * v occurs once
                cons.insert({formal_index[uword + w + vword]: c for w, c in rel_terms})

    candidates = []
    for (su, tu), words in sorted(groups.items()):
        # the evaluation: one row per corner basis path, one column per word
        rows: dict[int, dict] = {}
        for i, word in enumerate(words):
            for p, c in ev[word].items():
                rows.setdefault(C_index[p], {})[i] = c
        for vec, j in zip(*kernel_vectors(f, rows.values(), len(words))):
            terms = [(words[i], c) for i, c in sorted(vec.items())]
            candidates.append((len(words[j]), su, tu, terms))
    # offered by degree of the free column, then vertex pair, then free
    # column (the sort is stable): the order in which a kernel per degree
    # window first meets each vector, and a vector met again lies in cons
    candidates.sort(key=lambda cand: cand[:3])
    for _, su, tu, terms in candidates:
        if not cons.insert({formal_index[word]: c for word, c in terms}):
            continue
        add_consequences(terms, su, tu)
        relations.append(tuple((Path(su, tu, word), c) for word, c in terms))

    pres = Presentation(
        f,
        new_quiver,
        relations,
        A.presentation.convention,
        name or f"{A.name}.corner[{','.join(q.vertices[v] for v in S)}]",
    )
    handle = _complete(pres, max(loewy + 1, 2))
    if handle.dim != len(C):
        raise ConsistencyError(
            f"corner presented dimension {handle.dim} != corner basis size {len(C)}"
        )
    handle.loewy_length = loewy
    handle.corner = CornerStructure(A, S, realizations)
    return handle


def corner_module_eA(B: AlgebraHandle) -> Rep:
    """eA as a left module over the presented corner eAe."""
    cs = B.corner
    if cs is None:
        raise ValueError("algebra is not a presented corner")
    A = cs.parent
    basis = [A.paths_to(cs.kept[v]) for v in range(B.quiver.n_vertices)]
    return action_rep(B, basis, lambda i, p: A.mul_paths(p, cs.realizations[i]))


def corner_module_Ae(B: AlgebraHandle) -> Rep:
    """Ae as a right module over the corner, i.e. a Rep over its opposite."""
    cs = B.corner
    if cs is None:
        raise ValueError("algebra is not a presented corner")
    A = cs.parent
    # arrow i of B^op reverses corner arrow i and acts by precomposition
    # with its realization
    basis = [A.paths_from(cs.kept[v]) for v in range(B.quiver.n_vertices)]
    return action_rep(B.opposite(), basis, lambda i, p: A.mul_paths(cs.realizations[i], p))


# -- vertex removal ---------------------------------------------------------


def eligible_vertices(A: AlgebraHandle) -> list[tuple[str, str]]:
    """Vertices where no minimal relation starts or ends, with the side."""
    out = []
    for v in A.quiver.vertices:
        no_starts, no_ends = bongartz(A, v)
        if no_starts:
            out.append((v, "starts"))
        if no_ends:
            out.append((v, "ends"))
    return out


def remove_vertex(A: AlgebraHandle, vertex_name: str) -> ReductionStep:
    """Corner reduction at all vertices except one endpoint-free vertex."""
    no_starts, no_ends = bongartz(A, vertex_name)
    if not (no_starts or no_ends):
        raise ValueError(f"vertex {vertex_name!r} is not eligible for removal")
    if A.quiver.n_vertices <= 1:
        raise ValueError("cannot remove the only vertex")
    side = "starts" if no_starts else "ends"
    S = [v for v in A.quiver.vertices if v != vertex_name]
    out = corner_presentation(A, S, name=f"{A.name}-rm_{vertex_name}")
    dim_cond = (
        f"pd(S_{vertex_name}) <= 1" if side == "starts" else f"id(S_{vertex_name}) <= 1"
    )
    return ReductionStep(
        kind="vertex_removal",
        input_name=A.name,
        output_name=out.name,
        params={"vertex": vertex_name, "side": side},
        conditions=[
            Condition(f"no relation {side} at {vertex_name}", "certified"),
            Condition(dim_cond, "certified", detail="by the relation-endpoint criterion"),
        ],
        output=out,
    )


def reduce_fixpoint(A: AlgebraHandle):
    """Iterated vertex removal; deterministic, never drops the last vertex.

    Returns (terminal, steps); each step's output is the next step's input.
    """
    steps = []
    current = A
    while current.quiver.n_vertices > 1:
        elig = eligible_vertices(current)
        if not elig:
            break
        steps.append(remove_vertex(current, elig[0][0]))
        current = steps[-1].output
    return current, steps


# -- conditioned reduction steps --------------------------------------------


def _bd_condition(name: str, bd, bound: int) -> Condition:
    return _condition(name, bd.exact, bound, str(bd))


def derived_tensor_bounded(
    A: AlgebraHandle, vertex_names, n: int, corner: AlgebraHandle | None = None
) -> TorResult:
    """Boundedness of the derived tensor of Ae and eA over the corner eAe.

    Certified when eA resolves over eAe within the bound, that is when the
    result has terminated (all higher Tor then vanish); otherwise its Tor
    dimensions up to n are evidence only.
    """
    B = corner or corner_presentation(A, vertex_names)
    return tor_bounded(corner_module_Ae(B), corner_module_eA(B), n)


def corner_conditions(
    A: AlgebraHandle, vertex_names, bound: int, variant: str = "pd"
) -> ReductionStep:
    """Check the side conditions for the corner reduction A -> eAe.

    variant 'pd': pd of the removed simples and pd of eA over the corner;
    variant 'id': the injective-side analogues with Ae;
    variant 'tor': derived-tensor boundedness plus pd-or-id of the removed
    simples.
    """
    if variant not in ("pd", "id", "tor"):
        raise ValueError(f"unknown variant {variant!r}")
    S = set(vertex_names)
    removed = [v for v in A.quiver.vertices if v not in S]
    corner = corner_presentation(A, vertex_names)
    conds = []
    if variant == "pd":
        for v in removed:
            bd = pd_bounded(simple(A, A.quiver.v_index[v]), bound)
            conds.append(_bd_condition(f"pd(S_{v}) finite", bd, bound))
        bd = pd_bounded(corner_module_eA(corner), bound)
        conds.append(_bd_condition("pd of eA over the corner finite", bd, bound))
    elif variant == "id":
        for v in removed:
            bd = pd_bounded(simple(A, A.quiver.v_index[v]), bound, "injective")
            conds.append(_bd_condition(f"id(S_{v}) finite", bd, bound))
        bd = pd_bounded(corner_module_Ae(corner), bound)
        conds.append(_bd_condition("pd of Ae over the corner finite", bd, bound))
    else:
        tor = derived_tensor_bounded(A, vertex_names, bound, corner)
        name = "derived tensor of (Ae, eA) over the corner bounded"
        conds.append(_condition(name, tor.terminated, bound, f"Tor dims {tor.dims}"))
        for v in removed:
            pdv = pd_bounded(simple(A, A.quiver.v_index[v]), bound)
            idv = pd_bounded(simple(A, A.quiver.v_index[v]), bound, "injective")
            ok = pdv.exact or idv.exact
            conds.append(_condition(f"pd or id of S_{v} finite", ok, bound, f"pd {pdv}, id {idv}"))
    return ReductionStep(
        kind="corner",
        input_name=A.name,
        output_name=corner.name,
        params={"vertices": sorted(S), "variant": variant},
        conditions=conds,
        output=corner,
    )


def quotient_conditions(A: AlgebraHandle, J: IdealSpec, bound: int) -> ReductionStep:
    """Check that J is homological with finite bimodule pd; step to A/J."""
    hic = homological_ideal_check(A, J, bound)
    name = "homological ideal: Tor vanishing"
    if hic.status == "refuted":
        detail = f"Tor_{hic.refuted_at} has dimension {hic.tor_dims[hic.refuted_at]}"
        conds = [Condition(name, "refuted", bound, detail)]
    else:
        bpd = bimodule_pd_bounded(A, ideal_bimodule(A, J), bound)
        conds = [
            _condition(name, hic.status == "certified", bound, f"Tor dims {hic.tor_dims}"),
            _bd_condition("ideal has finite pd as a bimodule", bpd, bound),
        ]
    out = hic.quotient.handle
    return ReductionStep(
        "homological_quotient",
        A.name,
        out.name,
        {"ideal": J},
        conds,
        None if hic.status == "refuted" else out,
    )


def triangular_split(A: AlgebraHandle, bound: int) -> ReductionStep | None:
    """Find a one-directional vertex bipartition and discard a block.

    The discarded block must have finite projective dimension as a bimodule
    over itself (within the bound); returns None when no split applies.  By
    Happel's theorem the n-th term of the minimal bimodule resolution of a
    bound quiver algebra is nonzero exactly when some simple has an n-th
    term, so that pd is the global dimension, read off one-sided resolutions.
    """
    q = A.quiver
    n = q.n_vertices
    reach = [[False] * n for _ in range(n)]
    for p in A.normal_basis:
        reach[p.source][p.target] = True
    for size in range(1, n):
        for T in itertools.combinations(range(n), size):
            rest = [v for v in range(n) if v not in T]
            t_to_r = any(reach[t][r] for t in T for r in rest)
            r_to_t = any(reach[r][t] for t in T for r in rest)
            if t_to_r and r_to_t:
                continue
            t_names = [q.vertices[v] for v in T]
            r_names = [q.vertices[v] for v in rest]
            block = corner_presentation(A, t_names, name=f"{A.name}.block[{','.join(t_names)}]")
            bd = gldim_bounded(block, bound)
            if not bd.exact:
                continue
            out = corner_presentation(A, r_names, name=f"{A.name}.block[{','.join(r_names)}]")
            direction = "no paths from the block to the rest" if not t_to_r else (
                "no paths from the rest to the block"
            )
            return ReductionStep(
                kind="triangular_split",
                input_name=A.name,
                output_name=out.name,
                params={"discarded": t_names, "kept": r_names},
                conditions=[
                    Condition("one-directional block shape", "certified", detail=direction),
                    Condition(
                        "discarded block has finite bimodule pd", "certified", bound, str(bd)
                    ),
                ],
                output=out,
            )
    return None


# -- property verdicts ------------------------------------------------------


@dataclass
class PropertyCertificate:
    rule: str | None

    @property
    def verdict(self) -> str:  # 'holds' | 'inconclusive'; no failure rule exists
        return "inconclusive" if self.rule is None else "holds"


@dataclass
class Verdict:
    certificates: dict
    steps: list
    terminal: AlgebraHandle

    @property
    def conditional(self) -> bool:
        return any(not s.certified for s in self.steps)


def terminal_certificates(T: AlgebraHandle, budget: int) -> dict:
    """Base-class certificates for a terminal algebra.

    Rule table: finite global dimension grants everything; monomial grants
    syzygy-finite and injectives-generate; serial grants syzygy-finite;
    Gorenstein (both injective dimensions finite) grants injectives-generate;
    self-injective (both injective dimensions zero, see self_injective)
    grants injectives-generate and projectives-cogenerate; syzygy-finite
    implies igusa-todorov.  Nothing certifies a failure.
    """
    rules: dict[str, str] = {}

    def grant(prop, rule):
        rules.setdefault(prop, rule)

    gl = gldim_bounded(T, budget)
    if gl.exact:
        for prop in PROPERTIES:
            grant(prop, "finite global dimension")
        return rules
    if T.is_monomial:
        grant("syzygy-finite", "monomial")
        grant("injectives-generate", "monomial")
    if serial_check(T):
        grant("syzygy-finite", "serial")
    gor_l, gor_r = gorenstein_bounded(T, budget)
    if gor_l.exact and gor_r.exact:
        grant("injectives-generate", "gorenstein")
        if gor_l.value == 0 and gor_r.value == 0:
            grant("injectives-generate", "self-injective")
            grant("projectives-cogenerate", "self-injective")
    if "syzygy-finite" in rules:
        grant("igusa-todorov", "syzygy-finite")
    return rules


def property_verdict(
    A: AlgebraHandle,
    budget: int,
    extra_steps: list[ReductionStep] | None = None,
) -> Verdict:
    """Reduce, certify the terminal algebra, and propagate along the trace.

    The verdict covers every property in PROPERTIES; a caller reports the
    ones it asks about.
    """
    steps = list(extra_steps or [])
    current = A
    for step in steps:
        if step.output is None:
            raise ValueError("cannot propagate across a refuted step")
        current = step.output
    terminal, fsteps = reduce_fixpoint(current)
    steps.extend(fsteps)
    rules = terminal_certificates(terminal, budget)
    certs = {
        p: PropertyCertificate(rules[p] + " (terminal)" if p in rules else None)
        for p in PROPERTIES
    }
    return Verdict(certs, steps, terminal)
