"""Homological condition checkers.

Bounded Tor, global and Gorenstein dimension, the relation-endpoint
(Bongartz) criterion for pd/id <= 1 of a vertex simple over minimal
relations, read modulo rad*I + I*rad, homological-ideal detection via Tor
vanishing, bimodule projective dimension over the enveloping algebra, and
serial detection.
"< infinity" is only ever asserted from a terminating resolution; everything
else stays explicit evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraHandle,
    Path,
    Presentation,
    Quiver,
    _complete,
    complete,
    compose,
    rule_relations,
    word_key,
)
from .linalg import SubspaceReducer
from .modules import (
    BoundedDim,
    Rep,
    _hom_vectors,
    dual,
    minimal_resolution,
    pd_bounded,
    projective,
    radical_layer_dims,
    regular_bimodule,
    regular_bimodule_coords,
    regular_rep,
    restrict,
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
    middle on the right), Y a left module.  Tor_i(X, Y) is dual to
    Ext^i(Y, N) for the left module N = DX, so it is counted with Hom
    dimensions along the minimal resolution of Y: Tor_0 = dim Hom(Y, N), and
    for i >= 1 the sequence 0 -> Omega^i -> P_{i-1} -> Omega^{i-1} -> 0 gives

        Tor_i = dim Hom(Omega^i, N) - dim Hom(P_{i-1}, N) + dim Hom(Omega^{i-1}, N),

    where Hom(P_v, N) = e_v N counts the middle term off the summand
    vertices of P_{i-1} in `Resolution.covers`: a minimal cover has one P_v
    per basis vector at v of the top of Omega^{i-1}.
    A Hom dimension is the count of the kernel vectors of
    `modules._hom_vectors`; no map is built.  The resolution runs n + 2
    steps, so `terminated` certifies that every Tor_i with i > n vanishes too.
    """
    res = minimal_resolution(Y, n + 2)
    N = dual(restrict(X, "right"))
    syzygies = [Y] + res.syzygies  # Omega^0 .. Omega^k; Omega^k = 0 once terminated
    hom = [len(_hom_vectors(M, N)[2]) for M in syzygies[: n + 1]]
    dims = hom[:1]
    for i in range(1, n + 1):
        if i >= len(hom):
            dims.append(0)
            continue
        free = sum(N.dims[v] for v in res.covers[i - 1])
        dims.append(hom[i] - free + hom[i - 1])
    return TorResult(dims, res.terminated)


def _max_pd(modules, n: int) -> BoundedDim:
    """Max of pd over the modules, exact iff every one resolves within n.

    The first module that does not resolve decides AtLeast(n + 1); the
    modules after it are never built.
    """
    best = 0
    for M in modules:
        bd = pd_bounded(M, n)
        if not bd.exact:
            return BoundedDim.AtLeast(n + 1, n)
        best = max(best, bd.value)
    return BoundedDim.Exact(best, n)


def gldim_bounded(A: AlgebraHandle, n: int) -> BoundedDim:
    """Max of pd over the vertex simples, exact iff every simple resolves."""
    return _max_pd((simple(A, v) for v in range(A.quiver.n_vertices)), n)


def gorenstein_bounded(A: AlgebraHandle, n: int) -> tuple[BoundedDim, BoundedDim]:
    """Injective dimension of the regular module on both sides, via duality.

    D(A) is the sum of the duals D(Ae_v) of the indecomposable projectives,
    and a minimal resolution of a sum is the sum of the summands'
    resolutions, so each side is the max of pd over those duals, taken in
    vertex order; the first summand that does not resolve within n decides.
    """

    def side(B: AlgebraHandle) -> BoundedDim:
        return _max_pd((dual(projective(B, v)[0]) for v in range(B.quiver.n_vertices)), n)

    return side(A), side(A.opposite())


# -- minimal relations and the endpoint criterion ---------------------------


def minimal_relations(A: AlgebraHandle) -> list[dict]:
    """A minimal generating set of the relation ideal I, as rules lead - rest.

    The rules g of A generate I, so K = rad*I + I*rad is generated by the
    products a*g and g*a with the arrows a, and the rules span I/K.  K
    contains J^(L+1), where J is the arrow ideal and L <= dim A the Loewy
    length, so kQ/K is finite-dimensional and its completion gives each rule
    exact coordinates.  The rules whose normal forms there are independent of
    those kept before, in lead order, represent a basis of I/K: from u to v
    they number dim Ext^2(S_u, S_v), which the endpoint criterion scans.

    For a monomial algebra every rule is kept: completion retires each rule
    whose lead contains another lead, so the leads form an antichain under
    subwords, which is a minimal set of monomial generators of I.
    """
    key = "minimal_relations"
    if key in A._extra:
        return A._extra[key]
    f = A.field
    q = A.quiver
    gens = rule_relations(A)
    if A.is_monomial:
        A._extra[key] = gens
        return gens
    arrows = [Path(q.a_src[a], q.a_tgt[a], (a,)) for a in range(q.n_arrows)]
    products = []
    for g, (lead, _) in zip(gens, A.rules):
        for a in arrows:
            if a.target == lead.source:
                products.append(tuple((compose(a, p), c) for p, c in g.items()))
            if lead.target == a.source:
                products.append(tuple((compose(p, a), c) for p, c in g.items()))
    pres = Presentation(f, q, products, A.presentation.convention, A.name + "/K")
    K = _complete(pres, A.dim + 1)
    reducer = SubspaceReducer(f, K.dim)
    kept = []
    for g in gens:
        vec = {K.basis_index[p]: c for p, c in K.normal_form(g).items()}
        if reducer.insert(vec):
            kept.append(g)
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


def quotient_algebra(A: AlgebraHandle, J: IdealSpec) -> QuotientData:
    """Present A/J and complete it.

    For a vertex-set ideal A*e*A this is vertex deletion; generator elements
    are appended to the relation list (they must be admissible combinations).
    A/J is a quotient of A, so its radical, the image of rad A, is nilpotent;
    its completion counts the radical powers only for its Loewy length.
    It is completed at the degree bound of A.
    """
    q = A.quiver
    if J.is_zero:
        return QuotientData(A, list(range(q.n_vertices)), list(range(q.n_arrows)))
    if J.vertices and J.elements:
        raise ValueError("mixed ideal specifications are not supported")
    deleted = {q.v_index[name] for name in J.vertices}
    kept = [v for v in range(q.n_vertices) if v not in deleted]
    if not kept:
        raise ValueError("quotient by the whole algebra: keep at least one vertex")
    # the arrows at a deleted vertex go, and so does every single-arrow
    # generator; everything else must be an admissible combination (parallel
    # paths of length >= 2)
    deleted_arrows = {a for a in range(q.n_arrows) if {q.a_src[a], q.a_tgt[a]} & deleted}
    appended = []
    for e in J.elements:
        terms = list(e)
        if len(terms) == 1 and len(terms[0][0].arrows) == 1:
            deleted_arrows.add(terms[0][0].arrows[0])
            continue
        if any(len(p.arrows) < 2 for p, _ in terms):
            raise ValueError("unsupported ideal generator: mix of arrow and longer terms")
        appended.append(tuple(terms))
    vmap = [None] * q.n_vertices
    for i, v in enumerate(kept):
        vmap[v] = i
    amap = [None] * q.n_arrows
    new_arrows = []
    for a in range(q.n_arrows):
        if a not in deleted_arrows:
            amap[a] = len(new_arrows)
            new_arrows.append(q.arrows[a])
    new_quiver = q
    if deleted or deleted_arrows:
        new_quiver = Quiver([q.vertices[v] for v in kept], new_arrows)
    rels = []
    for rel in list(A.presentation.relations) + appended:
        # a term of length >= 1 through a deleted vertex uses one of its
        # arrows, and every term has length >= 2
        terms = [
            (Path(vmap[p.source], vmap[p.target], tuple(amap[a] for a in p.arrows)), c)
            for p, c in rel
            if not any(a in deleted_arrows for a in p.arrows)
        ]
        if terms:
            rels.append(_monic(terms, A.field))
    name = A.name + ("/(" + ",".join(J.vertices) + ")" if J.vertices else "/J")
    pres = Presentation(A.field, new_quiver, rels, A.presentation.convention, name)
    return QuotientData(complete(pres, A.degree_bound), vmap, amap)


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
            if vec:
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
