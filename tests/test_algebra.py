import random

import pytest

from qred.algebra import (
    DimensionNotResolved,
    InvalidPresentation,
    Path,
    Presentation,
    Quiver,
    _Completion,
    _enumerate_basis,
    complete,
    corner_basis,
    opposite_presentation,
    tensor_with_opposite,
    validate,
)
from qred.linalg import QQ, FieldSpec
from qred.parser import parse_algebra
from qred.reduction import corner_presentation

from conftest import FIXTURES, is_field_element, load
from corpus import binomial_presentation, completed_corpus, random_presentation
from oracles import enumerate_basis_by_suffix_scan, tensor_with_opposite_by_completion


def mk(vertices, arrows, relations, name="A", field=QQ):
    q = Quiver(vertices, arrows)
    rels = []
    for combo in relations:
        terms = []
        for names, coeff in combo:
            idxs = tuple(q.a_index[n] for n in names)
            terms.append((Path(q.a_src[idxs[0]], q.a_tgt[idxs[-1]], idxs), field.from_int(coeff)))
        rels.append(tuple(terms))
    return Presentation(field, q, rels, name=name)


def word(A, *names):
    # application order
    q = A.quiver
    idxs = tuple(q.a_index[n] for n in names)
    return Path(q.a_src[idxs[0]], q.a_tgt[idxs[-1]], idxs)


def test_validate_accepts_dual_numbers(dual_numbers):
    assert validate(dual_numbers.presentation) == []


def test_validate_rejects_short_generator():
    q = Quiver(["1"], [("x", "1", "1")])
    p = Presentation(QQ, q, [((Path(0, 0, (0,)), QQ.one()),)])
    diags = validate(p)
    assert any(d.code == "non-admissible" for d in diags)
    with pytest.raises(InvalidPresentation):
        complete(p, 5)


def test_validate_rejects_noncomposable():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    bad = Path(0, 1, (q.a_index["a"], q.a_index["b"]))  # a then b: 2 != 1
    p = Presentation(QQ, q, [((bad, QQ.one()),)])
    assert any(d.code == "non-composable" for d in validate(p))


def test_validate_rejects_dangling_endpoints():
    q = Quiver(["1"], [("a", "1", "9")])
    p = Presentation(QQ, q, [])
    diags = validate(p)
    assert any("undeclared target" in d.message for d in diags)


def test_validate_rejects_nonparallel():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("x", "1", "1")])
    t1 = Path(0, 0, (1, 1))
    t2 = Path(0, 1, (1, 0))  # x then a
    p = Presentation(QQ, q, [((t1, QQ.one()), (t2, QQ.one()))])
    assert any(d.code == "non-parallel" for d in validate(p))


def test_completion_dimensions(dual_numbers, line2, tri_dual, bowtie, corner_mono):
    assert dual_numbers.dim == 2
    assert line2.dim == 3
    assert tri_dual.dim == 4
    assert bowtie.dim == 9
    assert corner_mono.dim == 6


def test_bowtie_basis_words(bowtie):
    q = bowtie.quiver
    words = {
        tuple(q.arrow_name(a) for a in p.arrows) for p in bowtie.normal_basis
    }
    # trivial paths plus the five arrows plus the single length-two survivor,
    # whose written form (right-to-left) is al*be
    assert words == {(), ("al",), ("be",), ("ga",), ("de",), ("x",), ("be", "al")}


def test_monomial_flags(dual_numbers, bowtie, corner_mono):
    assert dual_numbers.is_monomial
    assert not bowtie.is_monomial  # one binomial relation
    assert corner_mono.is_monomial


def test_loewy_lengths(dual_numbers, line2, bowtie):
    assert dual_numbers.loewy_length == 2
    assert line2.loewy_length == 2
    assert bowtie.loewy_length == 3


def test_normal_form_kills_relations(bowtie):
    for rel in bowtie.presentation.relations:
        assert bowtie.normal_form(dict(rel)) == {}


def test_normal_form_rewrites_binomial(bowtie):
    # ga*de (written) applies de first; it rewrites to the parallel word al*be
    gade = word(bowtie, "de", "ga")
    albe = word(bowtie, "be", "al")
    nf = bowtie.normal_form({gade: QQ.one()})
    assert nf == {albe: QQ.one()}


def test_normal_form_fixes_trivial_paths(bowtie):
    e = Path(1, 1, ())
    assert bowtie.normal_form({e: QQ.one()}) == {e: QQ.one()}


def test_dimension_not_resolved():
    p = mk(["1"], [("x", "1", "1")], [])  # free loop: infinite dimensional
    p.relations = []
    with pytest.raises(DimensionNotResolved):
        complete(p, 6)


def _basis_outcome(enumerate_basis, quiver, rules, bound, count_cap):
    try:
        return enumerate_basis(quiver, rules, bound, count_cap)
    except DimensionNotResolved as e:
        return str(e)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_enumerate_basis_matches_suffix_scan_oracle(p):
    # the same basis, or the same DimensionNotResolved message, on every draw
    field = FieldSpec(p)
    outcomes = set()
    for bound in (6, 10):
        rng = random.Random(7100 + 10 * p + bound)
        for _ in range(100):
            pres = random_presentation(rng, field)
            if validate(pres):
                continue
            try:
                rules = _Completion(pres, bound).run()
            except DimensionNotResolved:
                continue
            got = _basis_outcome(_enumerate_basis, pres.quiver, rules, bound, 2000)
            want = _basis_outcome(enumerate_basis_by_suffix_scan, pres.quiver, rules, bound, 2000)
            assert got == want
            outcomes.add("finite" if isinstance(got, list) else got.split(": ")[1].split()[-1])
    assert outcomes == {"finite", "growing", "persist"}


def test_enumerate_basis_finite(line2):
    basis = _enumerate_basis(line2.quiver, line2.rules, 12)
    assert basis == [Path(0, 0, ()), Path(1, 1, ()), Path(0, 1, (0,))]
    assert line2.normal_basis == basis


def test_enumerate_basis_cap_message_total():
    # only x*x is a lead, so the normal words of length 0, 1, 2, 3 number
    # 1, 2, 3, 5: the running total passes 10 at 11, after length 3
    p = mk(["1"], [("x", "1", "1"), ("y", "1", "1")], [[(("x", "x"), 1)]])
    rules = _Completion(p, 6).run()
    msg = r"^dimension not resolved within bound: 11 irreducible paths and growing$"
    with pytest.raises(DimensionNotResolved, match=msg):
        _enumerate_basis(p.quiver, rules, 6, count_cap=10)
    # lengths 0..24 hold F(28) - 2 = 317809 words, the first total past 200000
    with pytest.raises(DimensionNotResolved, match=r": 317809 irreducible paths and growing$"):
        complete(p, 30)


def test_enumerate_basis_persists_past_bound_on_finite_algebra():
    # A_5 is finite dimensional, but its longest path has length 4 > 3
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, 5)]
    p = mk([str(i) for i in range(1, 6)], arrows, [])
    msg = r"^dimension not resolved within bound 3: irreducible paths persist$"
    with pytest.raises(DimensionNotResolved, match=msg):
        complete(p, 3)
    assert complete(p, 5).dim == 15


def test_non_nilpotent_rejected():
    # x^2 = x^3 makes x^2 a nonzero idempotent-like survivor: not admissible
    p = mk(["1"], [("x", "1", "1")], [[(("x", "x"), 1), (("x", "x", "x"), -1)]])
    with pytest.raises(InvalidPresentation):
        complete(p, 8)


def test_opposite_involution(line2, dual_numbers, bowtie):
    for A in (line2, dual_numbers, bowtie):
        once = complete(opposite_presentation(A.presentation), A.degree_bound)
        twice = complete(opposite_presentation(once.presentation), A.degree_bound)
        prof = lambda H: sorted(len(p.arrows) for p in H.normal_basis)
        assert prof(once) == prof(twice) == prof(A)


def test_opposite_line2(line2):
    op = line2.opposite()
    assert op.dim == 3
    name, s, t = op.quiver.arrows[0]
    assert (s, t) == ("2", "1")


def test_opposite_dual_numbers_selfdual(dual_numbers):
    op = dual_numbers.opposite()
    assert op.dim == 2 and op.is_monomial


def test_tensor_one_vertex():
    k = complete(mk(["1"], [], []), 4)
    kk = tensor_with_opposite(k, k)
    assert kk.dim == 1


def test_tensor_dimensions(dual_numbers, bowtie):
    env = dual_numbers.enveloping()
    assert env.dim == 4
    env9 = bowtie.enveloping()
    assert env9.dim == 81


def test_tensor_dim_product_random():
    gen = completed_corpus(913, 6, QQ, bound=8, dim_cap=6, max_vertices=2, max_arrows=3)
    algs = list(gen)
    for A in algs[:3]:
        for B in algs[3:]:
            T = tensor_with_opposite(A, B)
            assert T.dim == A.dim * B.dim


FIXTURE_NAMES = ["dual_numbers", "line2", "line3z", "tri_dual", "corner_mono", "bowtie"]


def _oracle_mismatch(A, B):
    """The fields in which tensor_with_opposite(A, B) differs from the completion oracle."""
    got, want = tensor_with_opposite(A, B), tensor_with_opposite_by_completion(A, B)
    fields = {
        # the tails compared term by term, in their stored order
        "rules": lambda H: [(lead, list(rest.items())) for lead, rest in H.rules],
        "normal_basis": lambda H: H.normal_basis,
        "dim": lambda H: H.dim,
        "loewy_length": lambda H: H.loewy_length,
        "relations": lambda H: H.presentation.relations,
    }
    out = [name for name, read in fields.items() if read(got) != read(want)]
    if got.dim != A.dim * B.dim:
        out.append("dim A . dim B")
    return out


def test_tensor_with_opposite_matches_completion_oracle():
    """The rules assembled from the factors are the reduced rules the
    completion finds: on every fixture with itself, on the corner witness of
    tri_dual in both orders, and on 160 seeded pairs A != B over Q, GF(2),
    GF(3) and GF(5).  Every rule tail of a completed factor stores no zero
    and only field elements in canonical form.  rand9303_149 has the one
    rule a3.a2 -> a1.a4 of two words of one length, whose reversal is not a
    rule of its opposite."""
    pairs = [(A, A) for A in map(load, FIXTURE_NAMES)]
    tri_dual = load("tri_dual")
    corner = corner_presentation(tri_dual, ["2"])
    pairs += [(tri_dual, corner), (corner, tri_dual)]
    names = {}
    for p in (0, 2, 3, 5):
        algs = list(completed_corpus(9300 + p, 40, FieldSpec(p) if p else QQ))
        pairs += [(algs[i], algs[i - 1]) for i in range(len(algs))]
        names |= {A.name: A for A in algs}
    (lead, rest), = names["rand9303_149"].rules
    assert [len(p.arrows) for p in (lead, *rest)] == [2, 2]
    assert all(c != 0 and is_field_element(A.field, c) for A, _ in pairs for _, rest in A.rules for c in rest.values())
    mismatches = [(A.name, B.name, bad) for A, B in pairs if (bad := _oracle_mismatch(A, B))]
    assert mismatches == []
    assert len(pairs) == 168


def test_tensor_with_opposite_completes_no_product(monkeypatch):
    """The product is assembled, not completed: the only presentation the
    completion sees is that of B^op, the first time B.opposite() runs."""
    seen = []
    run = _Completion.run

    def record(self):
        seen.append(self.pres.name)
        return run(self)

    monkeypatch.setattr(_Completion, "run", record)
    bowtie = load("bowtie")
    corpus = list(completed_corpus(9303, 40, FieldSpec(3)))
    for A, B in ((bowtie, bowtie), (corpus[29], corpus[30])):  # rand9303_148, rand9303_149
        seen.clear()
        tensor_with_opposite(A, B)
        assert seen == [B.name + "^op"]
        tensor_with_opposite(A, B)
        assert seen == [B.name + "^op"]


def test_corner_basis_tri(tri_dual):
    c = corner_basis(tri_dual, ["2"])
    assert len(c) == 2
    assert {p.arrows for p in c} == {(), (tri_dual.quiver.a_index["x"],)}


def test_corner_basis_bowtie(bowtie):
    c = corner_basis(bowtie, ["s", "2"])
    assert len(c) == 6
    q = bowtie.quiver
    words = {tuple(q.arrow_name(a) for a in p.arrows) for p in c}
    assert words == {(), ("ga",), ("de",), ("x",), ("be", "al")}


def test_corner_basis_all_vertices(bowtie):
    assert corner_basis(bowtie, ["1", "s", "2"]) == bowtie.normal_basis


def test_corner_count_by_endpoints(bowtie):
    S = {"s", "2"}
    sel = [v for v in bowtie.quiver.vertices if v in S]
    total = 0
    for u in sel:
        for v in sel:
            ui, vi = bowtie.quiver.v_index[u], bowtie.quiver.v_index[v]
            total += len(bowtie.paths_between(ui, vi))
    assert total == len(corner_basis(bowtie, sel))


def test_dim_independent_of_arrow_order():
    # bowtie with the arrow declarations permuted
    arrows = [("x", "s", "s"), ("de", "s", "2"), ("ga", "2", "s"), ("be", "s", "1"), ("al", "1", "s")]
    rels = [
        [(("x", "x"), 1)],
        [(("x", "de"), 1)],
        [(("x", "be"), 1)],
        [(("ga", "x"), 1)],
        [(("al", "x"), 1)],
        [(("ga", "be"), 1)],
        [(("al", "de"), 1)],
        [(("al", "be"), 1)],
        [(("ga", "de"), 1)],
        [(("be", "al"), 1), (("de", "ga"), -1)],
    ]
    B = complete(mk(["1", "s", "2"], arrows, rels, name="bowtie_perm"), 8)
    assert B.dim == 9


def test_monomial_completion_stays_monomial(corner_mono):
    assert corner_mono.is_monomial
    assert all(not rest for _, rest in corner_mono.rules)


def _tailed_corpus(seed, count, field):
    """Seeded algebras whose rules have tails: `random_presentation` almost
    never yields one, `binomial_presentation` nearly always does."""
    return completed_corpus(seed, count, field, bound=8, dim_cap=12, draw=binomial_presentation)


def test_binomial_draw_yields_tailed_rules():
    """Every algebra of the binomial draw over Q, GF(3) and GF(5) has a rule
    with a tail, while the default draw of the same seed has almost none."""
    for field in (QQ, FieldSpec(3), FieldSpec(5)):
        tailed = list(_tailed_corpus(881, 10, field))
        assert len(tailed) == 10 and all(not A.is_monomial for A in tailed)
        plain = completed_corpus(881, 10, field, bound=8, dim_cap=12)
        assert sum(not A.is_monomial for A in plain) <= 2


def test_normal_form_idempotent_and_linear():
    """Normal forms over Q, GF(3) and GF(5) are idempotent and linear, and
    each stores no zero and only field elements in canonical form.  The
    seeded corpus has monomial rules only, so bowtie with al*be - 2*ga*de,
    whose rule has the tail coefficient 1/2, and the binomial draw, whose
    rules have tails, are checked too."""
    text = (FIXTURES / "bowtie.alg").read_text(encoding="utf-8").replace("- ga*de", "- 2*ga*de")
    for field in (QQ, FieldSpec(3), FieldSpec(5)):
        rng = random.Random(88)
        bowtie = complete(parse_algebra(text.replace("field rational", f"field {field.name}")), 8)
        corpus = completed_corpus(880, 5, field, bound=8, dim_cap=10, max_vertices=3, max_arrows=4)
        for A in [bowtie, *corpus, *_tailed_corpus(880, 5, field)]:
            _check_normal_form_linear(rng, A)


def _check_normal_form_linear(rng, A):
    q = A.quiver
    paths = _random_formal_paths(rng, q, 6)
    f = A.field
    x = {p: f.from_int(rng.randint(-3, 3)) for p in paths[:3]}
    y = {p: f.from_int(rng.randint(-3, 3)) for p in paths[3:]}

    def nf(elem):
        out = A.normal_form(elem)
        assert all(c != 0 and is_field_element(f, c) for c in out.values())
        return out

    assert nf(nf(x)) == nf(x)
    a, b = f.from_int(2), f.from_int(-3)
    for lead, _ in A.rules:
        nf({lead: a})  # on bowtie a times the tail 1/2 is 1, stored as the int 1
    combo = {}
    for p, c in x.items():
        combo[p] = f.add(combo.get(p, f.zero()), f.mul(a, c))
    for p, c in y.items():
        combo[p] = f.add(combo.get(p, f.zero()), f.mul(b, c))
    rhs = {}
    for p, c in nf(x).items():
        rhs[p] = f.add(rhs.get(p, f.zero()), f.mul(a, c))
    for p, c in nf(y).items():
        rhs[p] = f.add(rhs.get(p, f.zero()), f.mul(b, c))
    assert nf(combo) == {p: c for p, c in rhs.items() if c != 0}


def _random_formal_paths(rng, q, count):
    out = []
    guard = 0
    while len(out) < count and guard < 200:
        guard += 1
        length = rng.randint(0, 4)
        if length == 0:
            out.append(Path(rng.randrange(q.n_vertices), 0, ()))
            out[-1] = Path(out[-1].source, out[-1].source, ())
            continue
        seq = [rng.randrange(q.n_arrows)]
        ok = True
        for _ in range(length - 1):
            outs = q.arrows_from[q.a_tgt[seq[-1]]]
            if not outs:
                ok = False
                break
            seq.append(outs[rng.randrange(len(outs))])
        if ok:
            out.append(Path(q.a_src[seq[0]], q.a_tgt[seq[-1]], tuple(seq)))
    return out


def test_mul_paths_endpoint_mismatch(line2):
    a = line2.normal_basis[-1]
    e1 = Path(0, 0, ())
    # a ends at vertex 2, so composing with e_1 after it gives zero
    assert line2.mul_paths(a, e1) == {}
