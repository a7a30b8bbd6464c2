"""Homological condition checkers.

Bounded Tor, global and Gorenstein dimension, the relation-endpoint
(Bongartz) criterion for pd/id <= 1 of a vertex simple, homological-ideal
detection via Tor vanishing, bimodule projective dimension over the
enveloping algebra, derived-tensor boundedness over a corner, and serial
detection.  "< infinity" is only ever asserted from a terminating resolution;
everything else stays explicit evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraHandle,
    Path,
    Presentation,
    Quiver,
    _complete,
    word_key,
)
from .linalg import SubspaceReducer
from .modules import (
    BoundedDim,
    Rep,
    TensorFunctor,
    dual,
    minimal_resolution,
    pd_bounded,
    projective,
    radical_layer_dims,
    regular_bimodule,
    regular_bimodule_coords,
    regular_rep,
    restrict_along,
    simple,
    stable_span,
    sub_rep,
)

__all__ = [
    "TorResult",
    "tor_bounded",
    "gldim_bounded",
    "gorenstein_bounded",
    "minimal_relations",
    "bongartz",
    "IdealSpec",
    "QuotientData",
    "quotient_algebra",
    "ideal_bimodule",
    "HomologicalIdealReport",
    "homological_ideal_check",
    "bimodule_pd_bounded",
    "DerivedTensorReport",
    "derived_tensor_bounded",
    "serial_check",
    "self_injective",
]


# -- Tor --------------------------------------------------------------------


@dataclass
class TorResult:
    dims: list[int]  # Tor_0 .. Tor_n
    terminated: bool  # the resolution of the second argument terminated


def tor_bounded(X: Rep, Y: Rep, n: int) -> TorResult:
    """Dimensions of Tor_0..Tor_n over the middle algebra.

    X is a right module (a Rep over the opposite handle or a product with the
    middle on the right), Y a left module; the Tor groups are the homology of
    X tensored with a minimal resolution of Y.
    """
    res = minimal_resolution(Y, n + 2)
    tf = TensorFunctor(X)
    spaces = [tf.space(P) for P in res.projectives]
    mats = [
        tf.map(spaces[i], spaces[i - 1], res.maps[i]) for i in range(1, len(spaces))
    ]
    ranks = [m.rank() for m in mats]
    dims = []
    for i in range(n + 1):
        if i >= len(spaces):
            dims.append(0)
            continue
        if i == 0:
            ker = spaces[0].dim
        else:
            ker = spaces[i].dim - ranks[i - 1]
        im = ranks[i] if i < len(ranks) else 0
        dims.append(ker - im)
    return TorResult(dims, res.terminated)


def gldim_bounded(A: AlgebraHandle, n: int) -> BoundedDim:
    """Max of pd over the vertex simples, exact iff every simple resolves."""
    best = 0
    for v in range(A.quiver.n_vertices):
        bd = pd_bounded(simple(A, v), n)
        if not bd.exact:
            return BoundedDim.AtLeast(n + 1, n)
        best = max(best, bd.value)
    return BoundedDim.Exact(best, n)


def gorenstein_bounded(A: AlgebraHandle, n: int) -> tuple[BoundedDim, BoundedDim]:
    """Injective dimension of the regular module on both sides, via duality."""
    left = pd_bounded(dual(regular_rep(A)), n)
    right = pd_bounded(dual(regular_rep(A.opposite())), n)
    return left, right


# -- minimal relations and the endpoint criterion ---------------------------


def _paths_up_to(q: Quiver, max_len: int) -> list[Path]:
    out = [Path(v, v, ()) for v in range(q.n_vertices)]
    level = list(out)
    for _ in range(max_len):
        nxt = []
        for p in level:
            for a in q.arrows_from[p.target]:
                nxt.append(Path(p.source, q.a_tgt[a], p.arrows + (a,)))
        out.extend(nxt)
        level = nxt
        if not level:
            break
    return out


def minimal_relations(A: AlgebraHandle) -> list[dict]:
    """A minimal generating set of the relation ideal.

    Extracted from the completed system by discarding, degreewise, every
    element lying in I*rad + rad*I; the survivors represent a basis of
    I/(I*rad + rad*I), which is what the endpoint criterion scans.
    """
    key = "minimal_relations"
    if key in A._extra:
        return A._extra[key]
    f = A.field
    q = A.quiver
    gens = []
    for lead, rest in A.rules:
        g = {lead: f.one()}
        for w, c in rest.items():
            g[w] = f.neg(c)
        gens.append(g)
    if not gens:
        A._extra[key] = []
        return []
    D = max(len(lead.arrows) for lead, _ in A.rules)
    paths = _paths_up_to(q, D)
    candidates = [p for p in paths if 2 <= len(p.arrows) <= D]
    index = {p: i for i, p in enumerate(candidates)}
    by_target = {}
    by_source = {}
    for p in paths:
        by_target.setdefault(p.target, []).append(p)
        by_source.setdefault(p.source, []).append(p)

    def to_vec(elem):
        vec = [f.zero()] * len(candidates)
        for p, c in elem.items():
            vec[index[p]] = c
        return vec

    reducer = SubspaceReducer(f, len(candidates))
    for g in gens:
        lead = max(g, key=word_key)
        src, tgt = lead.source, lead.target
        budget = D - len(lead.arrows)
        for u in by_target.get(src, ()):  # u then g
            if len(u.arrows) > budget:
                continue
            for v in by_source.get(tgt, ()):
                lp = len(u.arrows) + len(v.arrows)
                if lp == 0 or lp > budget:
                    continue
                prod = {}
                for p, c in g.items():
                    w = Path(u.source, v.target, u.arrows + p.arrows + v.arrows)
                    prod[w] = f.add(prod.get(w, f.zero()), c)
                reducer.insert(to_vec(prod))
    kept = []
    for g in sorted(gens, key=lambda e: word_key(max(e, key=word_key))):
        vec = to_vec(g)
        if not reducer.contains(vec):
            kept.append(g)
            reducer.insert(vec)
    A._extra[key] = kept
    return kept


def bongartz(A: AlgebraHandle, vertex_name: str) -> tuple[bool, bool]:
    """(no relation starts at v, no relation ends at v) over minimal relations.

    Equivalent to pd_A S_v <= 1 (resp. id_A S_v <= 1) for admissible
    presentations.
    """
    v = A.quiver.v_index[vertex_name]
    starts = ends = False
    for g in minimal_relations(A):
        p = next(iter(g))
        if p.source == v:
            starts = True
        if p.target == v:
            ends = True
    return (not starts, not ends)


# -- ideals and quotients ---------------------------------------------------


@dataclass(frozen=True)
class IdealSpec:
    """A two-sided ideal: either A*e*A for a vertex set, or explicit generators."""

    vertices: tuple[str, ...] = ()
    elements: tuple = ()  # tuple of relation-style elements

    @classmethod
    def from_vertices(cls, names) -> "IdealSpec":
        return cls(vertices=tuple(names))

    @classmethod
    def from_elements(cls, elems) -> "IdealSpec":
        return cls(elements=tuple(tuple(e) for e in elems))

    @property
    def is_zero(self) -> bool:
        return not self.vertices and not self.elements


@dataclass
class QuotientData:
    handle: AlgebraHandle
    vertex_map: list  # A-vertex -> quotient vertex or None
    arrow_map: list  # A-arrow -> quotient arrow or None


def _monic(rel, field):
    lead, coeff = max(rel, key=lambda kv: word_key(kv[0]))
    if coeff == field.one():
        return tuple(rel)
    inv = field.inv(coeff)
    return tuple((p, field.mul(inv, c)) for p, c in rel)


def quotient_algebra(A: AlgebraHandle, J: IdealSpec, bound: int | None = None) -> QuotientData:
    """Present A/J and complete it.

    For a vertex-set ideal A*e*A this is vertex deletion; generator elements
    are appended to the relation list (they must be admissible combinations).
    A/J is a quotient of A, so its radical, the image of rad A, is nilpotent
    and its completion skips the nilpotency certificate.
    """
    bound = bound or A.degree_bound
    q = A.quiver
    if J.is_zero:
        qd = QuotientData(A, list(range(q.n_vertices)), list(range(q.n_arrows)))
        return qd
    if J.vertices and J.elements:
        raise ValueError("mixed ideal specifications are not supported")
    if J.elements:
        # single-arrow generators delete the arrow; everything else must be an
        # admissible combination (parallel paths of length >= 2)
        deleted_arrows = set()
        appended = []
        for e in J.elements:
            terms = list(e)
            if len(terms) == 1 and len(terms[0][0].arrows) == 1:
                deleted_arrows.add(terms[0][0].arrows[0])
                continue
            if any(len(p.arrows) < 2 for p, _ in terms):
                raise ValueError(
                    "unsupported ideal generator: mix of arrow and longer terms"
                )
            appended.append(tuple(terms))
        amap = [None] * q.n_arrows
        new_arrows = []
        for a in range(q.n_arrows):
            if a in deleted_arrows:
                continue
            amap[a] = len(new_arrows)
            new_arrows.append(q.arrows[a])
        new_quiver = Quiver(list(q.vertices), new_arrows) if deleted_arrows else q
        rels = []
        for rel in list(A.presentation.relations) + appended:
            terms = []
            for p, c in rel:
                if any(a in deleted_arrows for a in p.arrows):
                    continue
                terms.append((Path(p.source, p.target, tuple(amap[a] for a in p.arrows)), c))
            if terms:
                rels.append(_monic(terms, A.field))
        pres = Presentation(A.field, new_quiver, rels, A.presentation.convention, A.name + "/J")
        handle = _complete(pres, bound)
        qd = QuotientData(handle, list(range(q.n_vertices)), amap)
        if not deleted_arrows:
            qd.arrow_map = list(range(q.n_arrows))
        handle.quotient_of = (A, qd.vertex_map, qd.arrow_map)
        return qd
    deleted = {q.v_index[name] for name in J.vertices}
    kept = [v for v in range(q.n_vertices) if v not in deleted]
    if not kept:
        raise ValueError("quotient by the whole algebra: keep at least one vertex")
    vmap = [None] * q.n_vertices
    for i, v in enumerate(kept):
        vmap[v] = i
    amap = [None] * q.n_arrows
    new_arrows = []
    for a in range(q.n_arrows):
        if q.a_src[a] in deleted or q.a_tgt[a] in deleted:
            continue
        amap[a] = len(new_arrows)
        name, s, t = q.arrows[a]
        new_arrows.append((name, s, t))
    new_quiver = Quiver([q.vertices[v] for v in kept], new_arrows)

    def passes_deleted(p: Path) -> bool:
        if p.source in deleted or p.target in deleted:
            return True
        v = p.source
        for a in p.arrows:
            v = q.a_tgt[a]
            if v in deleted:
                return True
        return False

    rels = []
    for rel in A.presentation.relations:
        terms = []
        for p, c in rel:
            if passes_deleted(p):
                continue
            terms.append(
                (Path(vmap[p.source], vmap[p.target], tuple(amap[a] for a in p.arrows)), c)
            )
        if terms:
            rels.append(_monic(terms, A.field))
    name = A.name + "/(" + ",".join(J.vertices) + ")"
    pres = Presentation(A.field, new_quiver, rels, A.presentation.convention, name)
    handle = _complete(pres, bound)
    handle.quotient_of = (A, vmap, amap)
    return QuotientData(handle, vmap, amap)


def ideal_bimodule(A: AlgebraHandle, J: IdealSpec) -> Rep:
    """J as a sub-bimodule of the regular bimodule over A (x) A^op."""
    env = A.enveloping()
    reg = regular_bimodule(A)
    f = A.field
    seeds = [[] for _ in range(env.quiver.n_vertices)]
    elems = []
    if J.vertices:
        for name in J.vertices:
            v = A.quiver.v_index[name]
            elems.append({Path(v, v, ()): f.one()})
    for e in J.elements:
        elems.append(A.normal_form(dict(e)))
    for elem in elems:
        if not elem:
            continue
        vecs = regular_bimodule_coords(A, elem)
        for pi, vec in enumerate(vecs):
            if any(c != 0 for c in vec):
                seeds[pi].append(vec)
    spans = stable_span(reg, seeds)
    sub, _ = sub_rep(reg, spans)
    return sub


@dataclass
class HomologicalIdealReport:
    status: str  # 'certified' | 'evidence' | 'refuted'
    refuted_at: int | None
    tor_dims: list[int]
    quotient: QuotientData


def homological_ideal_check(A: AlgebraHandle, J: IdealSpec, n: int) -> HomologicalIdealReport:
    """Detect whether A -> A/J is a homological epimorphism.

    Operationally: Tor_i^A(A/J, A/J) = 0 for all i >= 1; certified when the
    resolution of A/J terminates within the bound, refuted on the first
    nonzero Tor_i, otherwise evidence up to n.
    """
    qd = quotient_algebra(A, J)
    Y = restrict_along(regular_rep(qd.handle), qd.vertex_map, qd.arrow_map, A)
    Xop = restrict_along(
        regular_rep(qd.handle.opposite()), qd.vertex_map, qd.arrow_map, A.opposite()
    )
    tor = tor_bounded(Xop, Y, n)
    for i in range(1, len(tor.dims)):
        if tor.dims[i] != 0:
            return HomologicalIdealReport("refuted", i, tor.dims, qd)
    status = "certified" if tor.terminated else "evidence"
    return HomologicalIdealReport(status, None, tor.dims, qd)


def bimodule_pd_bounded(A: AlgebraHandle, M: Rep, n: int) -> BoundedDim:
    """pd of an A-A-bimodule, as a module over the enveloping algebra."""
    if M.algebra is not A.enveloping():
        raise ValueError("bimodule must be a Rep over the enveloping algebra")
    return pd_bounded(M, n)


@dataclass
class DerivedTensorReport:
    status: str  # 'certified' | 'evidence'
    tor_dims: list[int]


def derived_tensor_bounded(
    A: AlgebraHandle, vertex_names, n: int, corner: AlgebraHandle | None = None
) -> DerivedTensorReport:
    """Boundedness of the derived tensor of Ae and eA over the corner eAe.

    Certified when eA resolves over eAe within the bound (all higher Tor then
    vanish); otherwise the Tor dimensions up to n are reported as evidence.
    """
    from .reduction import corner_module_Ae, corner_module_eA, corner_presentation

    B = corner or corner_presentation(A, vertex_names)
    eA = corner_module_eA(B)
    Ae = corner_module_Ae(B)
    tor = tor_bounded(Ae, eA, n)
    status = "certified" if tor.terminated else "evidence"
    return DerivedTensorReport(status, tor.dims)


# -- algebra class tests ----------------------------------------------------


def serial_check(A: AlgebraHandle) -> bool:
    """True iff every indecomposable projective of A and A^op is uniserial."""
    for alg in (A, A.opposite()):
        for v in range(alg.quiver.n_vertices):
            P, _ = projective(alg, v)
            for layer in radical_layer_dims(P):
                if sum(layer) > 1:
                    return False
    return True


def self_injective(A: AlgebraHandle) -> bool:
    """The regular module is injective on both sides.

    A bound quiver algebra is basic, and a basic self-injective algebra is
    Frobenius, so A = D(A) as left modules needs no separate check: both
    Gorenstein dimensions being Exact(0) is the whole condition.
    """
    left, right = gorenstein_bounded(A, 0)
    return left.exact and left.value == 0 and right.exact and right.value == 0
