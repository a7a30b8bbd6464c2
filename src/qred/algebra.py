"""Presented quiver algebras A = kQ/I and their completions.

A presentation is completed into a confluent rewriting system on paths
(a reduced noncommutative Groebner basis for the length-lex order on arrow
words), which yields the normal-path basis, exact multiplication, and the
derived constructions: opposite algebra, tensor with an opposite (enveloping
algebras and bimodule carriers), corner bases and Loewy length.

Paths are stored in application order: ``Path(arrows=(a, b))`` applies ``a``
first.  The written concatenation convention (right-to-left by default) is a
front-end concern handled by the parser and printers only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .linalg import FieldSpec, SubspaceReducer, stored_row

__all__ = [
    "Quiver",
    "Path",
    "Presentation",
    "Diagnostic",
    "InvalidPresentation",
    "DimensionNotResolved",
    "AlgebraHandle",
    "ProductStructure",
    "CornerStructure",
    "validate",
    "complete",
    "opposite_presentation",
    "tensor_with_opposite",
    "corner_basis",
]


class Path(NamedTuple):
    source: int
    target: int
    arrows: tuple[int, ...]


def trivial_path(v: int) -> Path:
    return Path(v, v, ())


def word_key(p: Path):
    # length-lex on application-order arrow indices; source disambiguates
    # parallel trivial paths in global sorts
    return (len(p.arrows), p.arrows, p.source)


def compose(p: Path, q: Path) -> Optional[Path]:
    """The path 'p then q', or None when the endpoints do not match."""
    if p.target != q.source:
        return None
    return Path(p.source, q.target, p.arrows + q.arrows)


class Quiver:
    """A finite directed graph with named vertices and arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = [tuple(a) for a in arrows]  # (name, source, target)
        self.v_index = {v: i for i, v in enumerate(self.vertices)}
        self.a_index = {a[0]: i for i, a in enumerate(self.arrows)}
        self.a_src = [self.v_index.get(a[1], -1) for a in self.arrows]
        self.a_tgt = [self.v_index.get(a[2], -1) for a in self.arrows]
        self.arrows_from = [[] for _ in self.vertices]
        self.arrows_to = [[] for _ in self.vertices]
        for i, (s, t) in enumerate(zip(self.a_src, self.a_tgt)):
            if s >= 0:
                self.arrows_from[s].append(i)
            if t >= 0:
                self.arrows_to[t].append(i)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def arrow_name(self, i: int) -> str:
        return self.arrows[i][0]

    def problems(self) -> list[str]:
        out = []
        seen = set()
        for v in self.vertices:
            if v in seen:
                out.append(f"duplicate vertex name {v!r}")
            seen.add(v)
        seen = set()
        for name, s, t in self.arrows:
            if name in seen:
                out.append(f"duplicate arrow name {name!r}")
            seen.add(name)
            if s not in self.v_index:
                out.append(f"arrow {name!r} has undeclared source {s!r}")
            if t not in self.v_index:
                out.append(f"arrow {name!r} has undeclared target {t!r}")
        return out


# An element of kQ is a dict Path -> nonzero scalar.  Relations are stored as
# canonically sorted tuples of (Path, scalar).
Element = dict


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    relation_index: int | None = None


class InvalidPresentation(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))


class DimensionNotResolved(RuntimeError):
    """Irreducible paths persist at the degree bound; raise the bound."""


class ConsistencyError(RuntimeError):
    pass


@dataclass
class Presentation:
    field: FieldSpec
    quiver: Quiver
    relations: list  # list of tuple[(Path, scalar), ...]
    convention: str = "right-to-left"
    name: str = ""


def validate(p: Presentation) -> list[Diagnostic]:
    """Structural admissibility: relations are combinations of parallel paths
    of length >= 2 over a well-formed quiver."""
    diags = [Diagnostic("quiver", m) for m in p.quiver.problems()]
    if diags:
        return diags
    q = p.quiver
    for ri, rel in enumerate(p.relations):
        if not rel:
            diags.append(Diagnostic("empty", "empty relation", ri))
            continue
        endpoints = set()
        for path, coeff in rel:
            if coeff == 0:
                diags.append(Diagnostic("zero-coeff", "zero scalar in relation", ri))
            if len(path.arrows) < 2:
                diags.append(
                    Diagnostic("non-admissible", "non-admissible generator: term of length < 2", ri)
                )
            src, tgt = path.source, path.target
            for a in path.arrows:
                if not (0 <= a < q.n_arrows):
                    diags.append(Diagnostic("bad-arrow", "unknown arrow index", ri))
                    break
                if q.a_src[a] != src:
                    diags.append(Diagnostic("non-composable", "non-composable word", ri))
                    break
                src = q.a_tgt[a]
            else:
                if src != tgt:
                    diags.append(Diagnostic("non-composable", "non-composable word", ri))
            endpoints.add((path.source, path.target))
        if len(endpoints) > 1:
            diags.append(Diagnostic("non-parallel", "non-parallel relation terms", ri))
    return diags


@dataclass
class ProductStructure:
    """Marks an algebra as A (x) B^op on the product quiver."""

    left: "AlgebraHandle"
    right: "AlgebraHandle"
    vertex_pairs: list[tuple[int, int]]
    pair_index: dict
    # arrow i of the product is ('L', a, w) acting as left multiplication by
    # arrow a of A on the w strand, or ('R', v, b) as right multiplication by
    # arrow b of B on the v strand
    arrow_kind: list[tuple]
    left_arrow: dict  # (a, w) -> product arrow index
    right_arrow: dict  # (v, b) -> product arrow index


@dataclass
class CornerStructure:
    """Marks an algebra as the corner eAe presented on chosen generators."""

    parent: "AlgebraHandle"
    kept: list[int]  # parent vertex indices, in declaration order
    realizations: list[Path]  # parent normal path realizing each corner arrow


class AlgebraHandle:
    """A completed presentation: confluent rules + normal-path basis."""

    def __init__(self, presentation, rules, basis, degree_bound, name=""):
        self.presentation = presentation
        self.field = presentation.field
        self.quiver = presentation.quiver
        self.rules = rules  # list of (lead: Path, rest: dict), sorted by lead
        self.normal_basis = basis
        self.degree_bound = degree_bound
        self.dim = len(basis)
        self.name = name or presentation.name
        self.basis_index = {p: i for i, p in enumerate(basis)}
        # the least L with rad^L = 0, set by whichever construction completed
        # the handle
        self.loewy_length: int | None = None
        self.is_monomial = all(not rest for _, rest in rules)
        self.product: ProductStructure | None = None
        self.corner: CornerStructure | None = None
        self._by_first = _index_by_first(rules)
        self._nf_cache: dict[Path, Element] = {}
        self._mul_cache: dict[tuple[Path, Path], Element] = {}
        self._opposite: AlgebraHandle | None = None
        self._enveloping: AlgebraHandle | None = None
        self._extra = {}

    # -- normal forms -------------------------------------------------

    def nf_path(self, p: Path) -> Element:
        cached = self._nf_cache.get(p)
        if cached is None:
            cached = _reduce_element({p: self.field.one()}, self._by_first, self.field)
            self._nf_cache[p] = cached
        return cached

    def normal_form(self, elem: Element) -> Element:
        """The unique irreducible representative of elem modulo the ideal."""
        acc: Element = {}
        for p, c in elem.items():
            for w, d in self.nf_path(p).items():
                acc[w] = acc.get(w, 0) + c * d
        return stored_row(acc.items(), self.field.p)

    def mul_paths(self, p: Path, q: Path) -> Element:
        """Normal form of 'p then q'; zero element on endpoint mismatch."""
        key = (p, q)
        cached = self._mul_cache.get(key)
        if cached is None:
            pq = compose(p, q)
            cached = {} if pq is None else self.nf_path(pq)
            self._mul_cache[key] = cached
        return cached

    def paths_from(self, v: int) -> list[Path]:
        return [p for p in self.normal_basis if p.source == v]

    def paths_to(self, v: int) -> list[Path]:
        return [p for p in self.normal_basis if p.target == v]

    def paths_between(self, v: int, w: int) -> list[Path]:
        return [p for p in self.normal_basis if p.source == v and p.target == w]

    # -- derived algebras ----------------------------------------------

    def opposite(self) -> "AlgebraHandle":
        """A^op on reversed words, completed without a nilpotency certificate.

        Reversal is an anti-isomorphism carrying rad A onto the arrow ideal
        of A^op, which is therefore nilpotent with the Loewy length of A.
        """
        if self._opposite is None:
            op = _complete(opposite_presentation(self.presentation), self.degree_bound)
            op.name = self.name + "^op"
            op.loewy_length = self.loewy_length
            op._opposite = self
            self._opposite = op
        return self._opposite

    def enveloping(self) -> "AlgebraHandle":
        if self._enveloping is None:
            self._enveloping = tensor_with_opposite(self, self)
        return self._enveloping

    def __repr__(self):
        return f"AlgebraHandle({self.name!r}, dim={self.dim})"


def rule_relations(A: AlgebraHandle) -> list[dict]:
    """The rules of A read as the relations lead - rest, each with its lead first."""
    f = A.field
    return [{lead: f.one()} | {w: f.neg(c) for w, c in rest.items()} for lead, rest in A.rules]


def _index_by_first(rules) -> dict:
    """Rules grouped by the first arrow of their lead, each group sorted by lead."""
    out = {}
    for lead, rest in rules:
        out.setdefault(lead.arrows[0], []).append((lead, rest))
    for lst in out.values():
        lst.sort(key=lambda lr: word_key(lr[0]))
    return out


def _reduce_element(elem: Element, by_first, field: FieldSpec) -> Element:
    """Fully reduce an element, given by field elements in canonical form, by
    the rule index; deterministic.

    The word taken from ``work`` is the largest left in it, and a rule
    rewrites it to smaller words only, so no word is added to ``work`` once
    it has been taken: the value an irreducible word gets in ``out`` is final.
    """
    work = dict(elem)
    out: Element = {}
    while work:
        w = max(work, key=word_key)
        c = work.pop(w)
        if c == 0:
            continue
        hit = None
        word = w.arrows
        n = len(word)
        for pos in range(n):
            cands = by_first.get(word[pos])
            if not cands:
                continue
            rest_len = n - pos
            for lead, rest in cands:
                la = lead.arrows
                if len(la) <= rest_len and word[pos : pos + len(la)] == la:
                    hit = (pos, lead, rest)
                    break
            if hit:
                break
        if hit is None:
            out[w] = c
            continue
        pos, lead, rest = hit
        pre = word[:pos]
        suf = word[pos + len(lead.arrows) :]
        for rw, rc in rest.items():
            nw = Path(w.source, w.target, pre + rw.arrows + suf)
            work[nw] = field.add(work.get(nw, 0), c * rc)
    return out


class _Completion:
    """Knuth-Bendix style overlap completion for path-algebra presentations."""

    MAX_RULES = 50000
    MAX_PASSES = 200000

    def __init__(self, pres: Presentation, degree_bound: int):
        self.pres = pres
        self.field = pres.field
        self.bound = degree_bound
        self.rules = {}  # rid -> (lead, rest)
        self.active: list[int] = []
        self.by_first = {}
        self.next_rid = 0
        self.pending_pairs = deque()
        self.pending_elements = []

    def run(self):
        for rel in self.pres.relations:
            self.pending_elements.append(stored_row(rel, self.field.p))
        passes = 0
        while self.pending_elements or self.pending_pairs:
            passes += 1
            if passes > self.MAX_PASSES:
                raise DimensionNotResolved("completion did not stabilize; raise the bound")
            if self.pending_elements:
                self._add_element(self.pending_elements.pop())
                continue
            ra, rb = self.pending_pairs.popleft()
            if ra not in self.rules or rb not in self.rules:
                continue
            self._process_overlaps(ra, rb)
        # final tail reduction to the unique reduced system; a tail never
        # contains its own lead, as its words are smaller in length-lex order
        final = []
        for rid in sorted(self.rules):
            lead, rest = self.rules[rid]
            final.append((lead, _reduce_element(rest, self.by_first, self.field)))
        final.sort(key=lambda lr: word_key(lr[0]))
        return final

    def _rebuild_index(self):
        self.by_first = _index_by_first(self.rules[rid] for rid in self.active)

    def _add_element(self, elem: Element):
        e = _reduce_element(elem, self.by_first, self.field)
        if not e:
            return
        lead = max(e, key=word_key)
        if len(lead.arrows) > self.bound:
            raise DimensionNotResolved(
                f"rewriting rule of degree {len(lead.arrows)} exceeds bound {self.bound}"
            )
        inv = self.field.inv(e[lead])
        rest = stored_row(((w, -inv * d) for w, d in e.items() if w != lead), self.field.p)
        rid = self.next_rid
        self.next_rid += 1
        if rid > self.MAX_RULES:
            raise DimensionNotResolved("rule count exploded; presentation likely not admissible")
        # retire rules whose lead is now reducible by the new lead
        la = lead.arrows
        retired = []
        for other in self.active:
            ol, orest = self.rules[other]
            oa = ol.arrows
            if len(oa) >= len(la) and any(
                oa[i : i + len(la)] == la for i in range(len(oa) - len(la) + 1)
            ):
                retired.append(other)
        for other in retired:
            ol, orest = self.rules.pop(other)
            self.active.remove(other)
            # re-add as lead - rest = 0, i.e. -(lead) + rest
            self.pending_elements.append(stored_row([*orest.items(), (ol, -1)], self.field.p))
        self.rules[rid] = (lead, rest)
        self.active.append(rid)
        self._rebuild_index()
        for other in list(self.active):
            self.pending_pairs.append((rid, other))
            if other != rid:
                self.pending_pairs.append((other, rid))

    def _process_overlaps(self, ra: int, rb: int):
        lead_a, rest_a = self.rules[ra]
        lead_b, rest_b = self.rules[rb]
        ua, ub = lead_a.arrows, lead_b.arrows
        max_t = min(len(ua), len(ub)) - 1
        for t in range(1, max_t + 1):
            if ua[len(ua) - t :] != ub[:t]:
                continue
            word = ua + ub[t:]
            src = lead_a.source
            tgt = lead_b.target
            # route 1 rewrites the lead_a occurrence at position 0, route 2
            # the lead_b occurrence at the end; diff is route 1 - route 2
            acc: Element = {}
            suf = word[len(ua) :]
            for rw, rc in rest_a.items():
                nw = Path(src, tgt, rw.arrows + suf)
                acc[nw] = acc.get(nw, 0) + rc
            pre = word[: len(ua) - t]
            for rw, rc in rest_b.items():
                nw = Path(src, tgt, pre + rw.arrows)
                acc[nw] = acc.get(nw, 0) - rc
            diff = stored_row(acc.items(), self.field.p)
            if diff:
                self._add_element(diff)


def _lead_automaton(quiver: Quiver, rules) -> list[list[tuple[int, int]]]:
    """The automaton reading exactly the paths that contain no rule lead.

    A state is (vertex, s), where s is the longest suffix read so far that is
    a proper prefix of some lead; an arrow that would complete a lead has no
    transition.  States 0..n_vertices-1 are the vertices with nothing read,
    and only states reachable from them are built.  Returns, per state, the
    (arrow, next state) transitions in arrow order.
    """
    leads = {lead.arrows for lead, _ in rules}
    prefixes = {la[:k] for la in leads for k in range(1, len(la))}
    states = [(v, ()) for v in range(quiver.n_vertices)]
    index = {s: i for i, s in enumerate(states)}
    delta = []
    while len(delta) < len(states):
        v, s = states[len(delta)]
        out = []
        for a in quiver.arrows_from[v]:
            t = s + (a,)
            # every lead ending here, and the next state's suffix, is a suffix
            # of t: s already holds the longest candidate before this arrow
            if any(t[k:] in leads for k in range(len(t))):
                continue
            nxt = next((t[k:] for k in range(len(t)) if t[k:] in prefixes), ())
            key = (quiver.a_tgt[a], nxt)
            if key not in index:
                index[key] = len(states)
                states.append(key)
            out.append((a, index[key]))
        delta.append(out)
    return delta


def _enumerate_basis(quiver: Quiver, rules, degree_bound: int, count_cap: int = 200000):
    """The normal paths, sorted by word_key.

    The paths of each length are counted on the lead automaton before any is
    listed, so an unresolved dimension costs no path lists.
    """
    delta = _lead_automaton(quiver, rules)
    n = quiver.n_vertices
    counts = [1] * n + [0] * (len(delta) - n)
    total = n
    # length 1 is checked even at bound 0: a quiver without arrows has no path
    for ell in range(1, max(degree_bound, 1) + 1):
        nxt = [0] * len(delta)
        for i, c in enumerate(counts):
            if c:
                for _, j in delta[i]:
                    nxt[j] += c
        level_count = sum(nxt)
        if not level_count:
            break
        total += level_count
        if total > count_cap:
            raise DimensionNotResolved(
                f"dimension not resolved within bound: {total} irreducible paths and growing"
            )
        counts = nxt
    else:
        raise DimensionNotResolved(
            f"dimension not resolved within bound {degree_bound}: irreducible paths persist"
        )
    level = [(trivial_path(v), v) for v in range(n)]
    basis = [p for p, _ in level]
    for _ in range(1, ell):
        level = [
            (Path(p.source, quiver.a_tgt[a], p.arrows + (a,)), j)
            for p, i in level
            for a, j in delta[i]
        ]
        basis.extend(sorted((p for p, _ in level), key=word_key))
    return basis


def _loewy_length(A: AlgebraHandle, basis, gens) -> int:
    """The least L with R^L = 0, where R spans the positive-length paths of basis.

    basis lists normal paths of A whose span is closed under multiplication,
    and gens spans R, so that R^(k+1) = R^k . gens.  Raises InvalidPresentation
    when the powers stop shrinking: the arrow ideal is then not nilpotent
    modulo the relations, and its span is not the Jacobson radical.
    """
    f = A.field
    index = {p: i for i, p in enumerate(basis)}

    def coords(elem) -> dict:
        return {index[p]: c for p, c in elem.items()}

    # (j, p_j.x) for the basis paths p_j that compose with x; p -> p.x is
    # injective on paths, so the terms of each product are distinct
    products = []
    for x in gens:
        images = enumerate(compose(p, x) for p in basis)
        products.append([(j, px) for j, px in images if px is not None])
    current = SubspaceReducer(f, len(basis))
    for p in basis:
        if p.arrows:
            current.insert(coords({p: f.one()}))
    loewy = 1
    while current.rank:
        loewy += 1
        nxt = SubspaceReducer(f, len(basis))
        for row in current.echelon_rows():
            for terms in products:
                acc = A.normal_form({px: row[j] for j, px in terms if j in row})
                if acc:
                    nxt.insert(coords(acc))
        if nxt.rank >= current.rank:
            raise InvalidPresentation(
                [Diagnostic("not-admissible", "arrow ideal is not nilpotent modulo relations")]
            )
        current = nxt
    return loewy


def _complete(pres: Presentation, degree_bound: int) -> AlgebraHandle:
    """complete without the nilpotency certificate, for derived algebras.

    The caller sets the Loewy length, which this does not compute.
    """
    diags = [d for d in validate(pres) if d.code != "zero-coeff"]
    if diags:
        raise InvalidPresentation(diags)
    rules = _Completion(pres, degree_bound).run()
    basis = _enumerate_basis(pres.quiver, rules, degree_bound)
    return AlgebraHandle(pres, rules, basis, degree_bound)


def complete(pres: Presentation, degree_bound: int = 20) -> AlgebraHandle:
    """Complete a presentation into a confluent system and certify finiteness.

    degree_bound caps the degree of rewriting rules and the length of normal
    paths.  The normal paths of each length are counted on the automaton of
    paths that avoid every rule lead, and are listed only once the count of
    some length from 1 to max(degree_bound, 1) is zero and the basis holds at
    most 200000 paths.  The arrow ideal is then certified nilpotent modulo the
    relations, so that the positive-length normal paths span the Jacobson
    radical, and the count of radical powers is the Loewy length.  Only
    presentations read from input need this certificate: the opposites,
    products A (x) B^op and corners eAe derived from a completed algebra
    inherit it and take their Loewy lengths from their inputs.  A quotient
    A/J inherits it too, but is completed here for its Loewy length.

    Raises InvalidPresentation on inadmissible input and DimensionNotResolved
    when a rule exceeds the bound, when normal paths of length
    max(degree_bound, 1) exist, or when more than 200000 normal paths are
    found.
    """
    handle = _complete(pres, degree_bound)
    arrows = [p for p in handle.normal_basis if len(p.arrows) == 1]
    handle.loewy_length = _loewy_length(handle, handle.normal_basis, arrows)
    return handle


def opposite_presentation(pres: Presentation) -> Presentation:
    """Reverse all arrows and all words."""
    q = pres.quiver
    qop = Quiver(list(q.vertices), [(name, t, s) for name, s, t in q.arrows])
    rels = []
    for rel in pres.relations:
        rels.append(
            tuple(
                (Path(p.target, p.source, tuple(reversed(p.arrows))), c) for p, c in rel
            )
        )
    return Presentation(pres.field, qop, rels, pres.convention, pres.name + "^op")


def tensor_with_opposite(A: AlgebraHandle, B: AlgebraHandle) -> AlgebraHandle:
    """The algebra A (x) B^op on the product quiver, built from the rules of
    its factors without a completion.

    Left A-B-bimodules are representations of this algebra; with B = A it is
    the enveloping algebra carrying A-A-bimodules.  The presentation holds
    the rules of A on each strand, the rules of B with reversed words on
    each strand, and one commutation relation per pair of arrows.

    Its reduced rules are written down instead of completed:

    - each rule of A, lifted onto each strand w through the left arrows;
    - each rule of B^op, lifted onto each strand v through the right arrows
      in the word order of B^op;
    - for each pair of arrows (a, b), the word right arrow then left arrow,
      rewritten to the other term of its commutation relation.

    Every left arrow index is smaller than every right arrow index, and the
    lifts are monotone in the arrow index of each factor, so each lifted rule
    keeps its lead and its normal tail in the length-lex order.  The words
    avoiding these leads are an A-normal left word followed by a B^op-normal
    right word, so they number dim A . dim B, and the rules are the reduced
    Groebner basis of the ideal (Bergman's diamond lemma), which is unique:
    the completion of the presentation returns exactly these rules.

    The rules of B^op come from B.opposite(), not from B's rules with their
    words reversed.  Reversal keeps the order of two words of different
    lengths, but of two words of one length it can make the old lead the
    smaller, and the reversed rule then rewrites a word to a larger one.

    The arrow ideal is R = rad A (x) B^op + A (x) rad B^op, which is
    nilpotent, so the product needs no nilpotency certificate.  R^n is the
    sum of the rad^i A (x) rad^j B^op with i + j = n, which gives Loewy
    length L_A + L_B - 1.
    """
    if A.field != B.field:
        raise ValueError("tensor factors must share the ground field")
    qa, qb = A.quiver, B.quiver
    vertex_pairs = [(u, w) for u in range(qa.n_vertices) for w in range(qb.n_vertices)]
    pair_index = {p: i for i, p in enumerate(vertex_pairs)}
    vnames = [f"{qa.vertices[u]}.{qb.vertices[w]}" for u, w in vertex_pairs]
    arrows = []
    arrow_kind = []
    left_arrow = {}
    right_arrow = {}
    for a in range(qa.n_arrows):
        for w in range(qb.n_vertices):
            name = f"{qa.arrow_name(a)}.{qb.vertices[w]}"
            src = vnames[pair_index[(qa.a_src[a], w)]]
            tgt = vnames[pair_index[(qa.a_tgt[a], w)]]
            left_arrow[(a, w)] = len(arrows)
            arrow_kind.append(("L", a, w))
            arrows.append((name, src, tgt))
    for v in range(qa.n_vertices):
        for b in range(qb.n_arrows):
            name = f"{qa.vertices[v]}.{qb.arrow_name(b)}'"
            src = vnames[pair_index[(v, qb.a_tgt[b])]]
            tgt = vnames[pair_index[(v, qb.a_src[b])]]
            right_arrow[(v, b)] = len(arrows)
            arrow_kind.append(("R", v, b))
            arrows.append((name, src, tgt))
    quiver = Quiver(vnames, arrows)

    def lpath(p: Path, w: int) -> Path:
        return Path(
            pair_index[(p.source, w)],
            pair_index[(p.target, w)],
            tuple(left_arrow[(a, w)] for a in p.arrows),
        )

    def rpath(p: Path, v: int) -> Path:
        # p is a path of B^op: its word, in application order, acts on the
        # right strand at v
        return Path(
            pair_index[(v, p.source)],
            pair_index[(v, p.target)],
            tuple(right_arrow[(v, b)] for b in p.arrows),
        )

    def reversed_path(p: Path) -> Path:
        return Path(p.target, p.source, p.arrows[::-1])

    one = A.field.one()
    neg_one = A.field.neg(one)
    rules = [
        (lpath(lead, w), {lpath(p, w): c for p, c in rest.items()})
        for lead, rest in A.rules
        for w in range(qb.n_vertices)
    ]
    rules += [
        (rpath(lead, v), {rpath(p, v): c for p, c in rest.items()})
        for lead, rest in B.opposite().rules
        for v in range(qa.n_vertices)
    ]
    # the reduced rules of each factor generate its ideal, and every proper
    # subword of a lead is normal, so no lead is longer than the Loewy
    # length; a redundant input relation may be longer than the bound
    relations = [
        tuple((lpath(p, w), c) for p, c in rel.items())
        for rel in rule_relations(A)
        for w in range(qb.n_vertices)
    ]
    relations += [
        tuple((rpath(reversed_path(p), v), c) for p, c in rel.items())
        for rel in rule_relations(B)
        for v in range(qa.n_vertices)
    ]
    for a in range(qa.n_arrows):
        u, u2 = qa.a_src[a], qa.a_tgt[a]
        for b in range(qb.n_arrows):
            w, w2 = qb.a_src[b], qb.a_tgt[b]
            src, tgt = pair_index[(u, w2)], pair_index[(u2, w)]
            left_first = Path(src, tgt, (left_arrow[(a, w2)], right_arrow[(u2, b)]))
            right_first = Path(src, tgt, (right_arrow[(u, b)], left_arrow[(a, w)]))
            relations.append(((left_first, one), (right_first, neg_one)))
            rules.append((right_first, {left_first: one}))
    rules.sort(key=lambda lr: word_key(lr[0]))
    pres = Presentation(
        A.field,
        quiver,
        relations,
        A.presentation.convention,
        f"{A.name}(x){B.name}^op",
    )
    bound = A.loewy_length + B.loewy_length
    handle = AlgebraHandle(pres, rules, _enumerate_basis(quiver, rules, bound), bound)
    handle.loewy_length = A.loewy_length + B.loewy_length - 1
    handle.product = ProductStructure(
        A, B, vertex_pairs, pair_index, arrow_kind, left_arrow, right_arrow
    )
    return handle


def corner_basis(A: AlgebraHandle, vertex_names) -> list[Path]:
    """Normal paths whose source and target both lie in the vertex set."""
    S = {A.quiver.v_index[v] for v in vertex_names}
    if not S:
        raise ValueError("vertex set must be nonempty")
    return [p for p in A.normal_basis if p.source in S and p.target in S]
