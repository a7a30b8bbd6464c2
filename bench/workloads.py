"""The benchmark's workloads: seeded inputs, ops and per-op oracles.

Every workload is a closed loop in one process and one thread: each op starts
when the previous one has ended.  ``build(name, seed)`` returns the op
population of one pass; together with a fresh import of the library it is
the benchmark's timed set-up (input generation and parsing).

Each workload has a population seed that fixes the *shape* of its inputs (the
quivers and relation words of ``corpus_gf5``, the module recipes of
``syzygy_q``), so that every ``--seed`` asks questions of comparable size and
the run-to-run spread stays small.  ``--seed`` draws everything else: every
scalar of every relation and module generator, the corner vertex subsets,
the isomorphism-search streams, the CLI ``--seed`` and the op order.

The generators are copies owned by the benchmark, so that edits under
``tests/`` cannot change a workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from harness import DECIDED, UNDECIDED, Op, OracleFailure, is_atleast

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Seeds that fix the shape population of each workload.  corpus_gf5 uses the
# corpus seed of acceptance criterion 4.
POPULATION_SEEDS = {"corpus_gf5": 424242, "syzygy_q": 20210319}
# Default --seed of each workload, used when none is given.
DEFAULT_SEEDS = {"corpus_gf5": 1, "fixtures_cli": 1, "syzygy_q": 1, "bowtie_defaults": 1}
# Wall budget of every op, far above the slowest op of the workload at the
# baseline commit (corpus_gf5 2.2 s, fixtures_cli 9.4 s, syzygy_q 4 s) and,
# for bowtie_defaults, far below the > 300 s those commands take there.
BUDGETS_S = {"corpus_gf5": 20.0, "fixtures_cli": 60.0, "syzygy_q": 30.0, "bowtie_defaults": 20.0}

CORPUS_SIZE = 120  # draws with at least one relation, per pass
CORPUS_BOUND = 10  # completion and pd/id bound, as in acceptance criterion 4
CORPUS_DIM_CAP = 14  # larger finite draws skip the cross-checks
# Syzygy dimension cap of the pd/id resolutions.  Criterion 4 uses 500; one
# draw of this distribution then resolves for 40 s before giving up, which no
# per-op budget of a 30-second run can hold.  At 150 the same draw gives up
# after under a second, still as ResolutionCapExceeded.
CORPUS_RES_CAP = 150
FIXTURE_DIMS = {
    "dual_numbers": 2,
    "line2": 3,
    "line3z": 5,
    "tri_dual": 4,
    "corner_mono": 6,
    "bowtie": 9,
}
REPORT_KEYS = ["algebra", "command", "results", "trace", "certificates", "conditional", "seed", "elapsed_ms"]


# -- corpus_gf5 --------------------------------------------------------------


def random_presentation(shape_rng, scalar_rng, field, max_vertices=4, max_arrows=6,
                        max_relations=4, max_len=4, name="rand"):
    """A random admissible presentation, distributed as the test corpus.

    ``shape_rng`` draws the quiver and the relation words, ``scalar_rng`` the
    coefficient of each binomial relation; with one generator for both this
    is exactly the distribution of the acceptance-suite corpus.
    """
    from qred.algebra import Path, Presentation, Quiver

    rng = shape_rng
    nv = rng.randint(1, max_vertices)
    vertices = [str(i + 1) for i in range(nv)]
    na = rng.randint(1, max_arrows)
    arrows = [(f"a{i}", str(rng.randint(1, nv)), str(rng.randint(1, nv))) for i in range(na)]
    quiver = Quiver(vertices, arrows)

    def random_path():
        for _ in range(30):
            length = rng.randint(2, max_len)
            seq = [rng.randrange(na)]
            for _ in range(length - 1):
                outs = quiver.arrows_from[quiver.a_tgt[seq[-1]]]
                if not outs:
                    break
                seq.append(outs[rng.randrange(len(outs))])
            else:
                return Path(quiver.a_src[seq[0]], quiver.a_tgt[seq[-1]], tuple(seq))
        return None

    relations = []
    seen = set()
    for _ in range(rng.randint(1, max_relations)):
        p = random_path()
        if p is None:
            continue
        if rng.random() < 0.35:
            q = random_path()
            if q is not None and (q.source, q.target) == (p.source, p.target) and q != p:
                hi = (field.p or 4) - 1
                c = field.from_int(scalar_rng.randint(1, max(1, hi)))
                key = (p, q)
                if key not in seen:
                    seen.add(key)
                    relations.append(((p, field.one()), (q, field.neg(c))))
                continue
        if (p,) not in seen:
            seen.add((p,))
            relations.append(((p, field.one()),))
    return Presentation(field, quiver, relations, name=name)


@dataclass
class CorpusAnswer:
    kind: str  # unresolved | invalid | large | cap | finite
    handle: object = None
    rows: list = None  # (vertex, bongartz pair, pd, id)
    subset: list = None
    corner_dim: int | None = None


def _corpus_op(pres, subset_rng_seed: int, budget: float) -> Op:
    from qred import algebra, homology, modules, reduction

    def run():
        try:
            A = algebra.complete(pres, CORPUS_BOUND)
        except algebra.DimensionNotResolved:
            return CorpusAnswer("unresolved")
        except algebra.InvalidPresentation:
            return CorpusAnswer("invalid")
        if A.dim > CORPUS_DIM_CAP:
            return CorpusAnswer("large", A)
        rows = []
        kind = "finite"
        try:
            for v in A.quiver.vertices:
                pair = homology.bongartz(A, v)
                S = modules.simple(A, A.quiver.v_index[v])
                pd = modules.pd_bounded(S, CORPUS_BOUND, dim_cap=CORPUS_RES_CAP)
                idim = modules.pd_bounded(S, CORPUS_BOUND, "injective", dim_cap=CORPUS_RES_CAP)
                rows.append((v, pair, pd, idim))
        except modules.ResolutionCapExceeded:
            kind = "cap"
        rng = random.Random(subset_rng_seed)
        names = list(A.quiver.vertices)
        subset = sorted(rng.sample(names, rng.randint(1, len(names))))
        C = reduction.corner_presentation(A, subset)
        return CorpusAnswer(kind, A, rows, subset, C.dim)

    def check(ans: CorpusAnswer) -> str:
        if ans.kind == "unresolved":
            return UNDECIDED
        if ans.kind in ("invalid", "large"):
            return DECIDED
        A = ans.handle
        for v, (no_starts, no_ends), pd, idim in ans.rows:
            if no_starts != (pd.exact and pd.value <= 1):
                raise OracleFailure(f"{A.name}: relation-endpoint criterion at {v} says {no_starts}, pd {pd}")
            if no_ends != (idim.exact and idim.value <= 1):
                raise OracleFailure(f"{A.name}: relation-endpoint criterion at {v} says {no_ends}, id {idim}")
        expected = len(algebra.corner_basis(A, ans.subset))
        if ans.corner_dim != expected:
            raise OracleFailure(f"{A.name}: corner {ans.subset} has dim {ans.corner_dim}, corner basis {expected}")
        if ans.kind == "cap" or any(is_atleast(pd) or is_atleast(idim) for _, _, pd, idim in ans.rows):
            return UNDECIDED
        return DECIDED

    return Op(f"{pres.name} complete+bongartz+corner", run, check, budget)


def build_corpus_gf5(seed: int) -> list[Op]:
    from qred.linalg import FieldSpec

    gf5 = FieldSpec(5)
    shape_rng = random.Random(POPULATION_SEEDS["corpus_gf5"])
    scalar_rng = random.Random(seed)
    ops = []
    draw = 0
    while len(ops) < CORPUS_SIZE:
        pres = random_presentation(shape_rng, scalar_rng, gf5, name=f"gf5_draw{draw}")
        draw += 1
        if not pres.relations:  # the test corpus skips these draws too
            continue
        ops.append(_corpus_op(pres, seed * 1000003 + draw, BUDGETS_S["corpus_gf5"]))
    return ops


# -- fixtures_cli ------------------------------------------------------------


def _fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.alg")


def fixture_commands() -> list[list[str]]:
    """Every subcommand on every fixture at default flags, except the two
    bowtie rows of ``bowtie_defaults``, plus the bounded bowtie commands of
    the acceptance suite."""
    first = {"dual_numbers": "1", "line2": "1", "line3z": "1", "tri_dual": "1", "corner_mono": "1", "bowtie": "1"}
    corner = {"dual_numbers": "1", "line2": "2", "line3z": "1,3", "tri_dual": "2", "corner_mono": "1", "bowtie": "s,2"}
    cmds = []
    for name, v in first.items():
        f = _fixture(name)
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
    b = _fixture("bowtie")
    cmds += [
        ["check", b, "--property", "injectives-generate", "--quotient", "1", "--bound", "8"],
        ["check", b, "--property", "all", "--triangular", "--bound", "8"],
        ["check", b, "--property", "all", "--corner", "s,2", "--bound", "8"],
    ]
    return cmds


def bowtie_default_commands() -> list[list[str]]:
    """The default-flag (--bound 20) bowtie rows: they exceed any practical
    budget at the baseline commit, so they form a workload of their own."""
    b = _fixture("bowtie")
    return [["analyze", b], ["check", b, "--property", "all"]]


# Exit codes each subcommand may return for these fixtures: 0 holds / report
# produced, 3 inconclusive or conditional.  1 (fails / refuted) and 2 (usage
# or parse error) are wrong for every fixture here.
ALLOWED_CODES = {"analyze": {0}, "resolve": {0}, "corner": {0}, "reduce": {0, 3}, "check": {0, 3}, "witness": {0, 3}}


def _fixture_name(argv: list[str]) -> str:
    return Path(argv[1]).stem


def _short(argv: list[str]) -> str:
    return " ".join([argv[0], _fixture_name(argv)] + argv[2:])


def _cli_op(argv: list[str], seed: int, budget: float, first_outputs: dict) -> Op:
    from qred import cli

    full = argv + ["--seed", str(seed)]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(full))
        return code, out.getvalue(), err.getvalue()

    def check(answer) -> str:
        code, out, err = answer
        cmd, name = argv[0], _fixture_name(argv)
        if code not in ALLOWED_CODES[cmd]:
            raise OracleFailure(f"exit code {code} outside {sorted(ALLOWED_CODES[cmd])}: {err.strip()[:200]}")
        key = tuple(full)
        if first_outputs.setdefault(key, out) != out:
            raise OracleFailure("report not byte-identical to the first run with the same --seed")
        try:
            report = json.loads(out)
        except json.JSONDecodeError as e:
            raise OracleFailure(f"report is not JSON: {e}")
        if list(report) != REPORT_KEYS:
            raise OracleFailure(f"report keys {list(report)}")
        if report["algebra"]["dimension"] != FIXTURE_DIMS[name]:
            raise OracleFailure(f"{name} has dimension {report['algebra']['dimension']}")
        results = report["results"]
        if cmd == "check" and name == "tri_dual" and (code != 0 or set(results["verdicts"].values()) != {"holds"}):
            raise OracleFailure(f"tri_dual verdicts {results['verdicts']} (exit {code})")
        if cmd == "check" and "--quotient" in argv and (code != 0 or results["verdicts"] != {"injectives-generate": "holds"}):
            raise OracleFailure(f"bowtie quotient verdict {results['verdicts']} (exit {code})")
        if cmd == "corner" and name == "bowtie" and results["corner"]["dimension"] != 6:
            raise OracleFailure(f"corner at s,2 has dimension {results['corner']['dimension']}")
        if cmd == "resolve":
            _check_resolution_table(results)
            return DECIDED if results["pd" if results["side"] == "projective" else "id"]["exact"] else UNDECIDED
        if cmd == "witness":
            return DECIDED if results["verdict"] == "holds" else UNDECIDED
        if cmd == "analyze":
            return DECIDED if results["global_dimension"]["exact"] else UNDECIDED
        return DECIDED if code == 0 and not report["conditional"] else UNDECIDED

    return Op(_short(argv), run, check, budget)


def _check_resolution_table(results: dict) -> None:
    """Exactness of 0 -> Omega^{i+1} -> P_i -> Omega^i -> 0, by dimension."""
    prev = sum(results["module_dims"])
    for row in results["resolution"]:
        p, s = sum(row["projective"]), sum(row["syzygy"])
        if p != prev + s:
            raise OracleFailure(f"step {row['i']}: dim P = {p} but {prev} + {s}")
        prev = s
    if results["side"] == "projective":
        pd, steps = results["pd"], len(results["resolution"])
        if results["terminated"] and not (pd["exact"] and pd["value"] == steps - 1):
            raise OracleFailure(f"pd {pd} but the resolution stops after {steps} projectives")
        if not results["terminated"] and pd["exact"] and pd["value"] < steps:
            raise OracleFailure(f"pd {pd} but Omega^{steps} is nonzero")


def _build_cli(commands: list[list[str]], seed: int, budget: float) -> list[Op]:
    first_outputs: dict = {}
    return [_cli_op(argv, seed, budget, first_outputs) for argv in commands]


def build_fixtures_cli(seed: int) -> list[Op]:
    return _build_cli(fixture_commands(), seed, BUDGETS_S["fixtures_cli"])


def build_bowtie_defaults(seed: int) -> list[Op]:
    return _build_cli(bowtie_default_commands(), seed, BUDGETS_S["bowtie_defaults"])


# -- syzygy_q ----------------------------------------------------------------


@dataclass(frozen=True)
class ModuleRecipe:
    """A quotient of a sum of bowtie projectives by a submodule generated by
    seeded radical elements; the shape of one syzygy_q module."""

    summands: tuple[str, ...]  # vertex names of the projective summands
    generators: tuple[str, ...]  # vertex of each generating radical element
    depth: int  # resolution depth of the resolve question
    bound: int  # pd/id bound
    target_dim: int  # Omega^k is the first syzygy of at least this dimension


def syzygy_recipes(A) -> list[ModuleRecipe]:
    """Eight module shapes drawn from the population seed.  Each generator
    sits at a vertex where the radical of the projective sum is nonzero."""
    from qred import modules

    rng = random.Random(POPULATION_SEEDS["syzygy_q"])
    names = A.quiver.vertices
    recipes = []
    for _ in range(8):
        summands = tuple(sorted(rng.choice(names) for _ in range(rng.randint(1, 2))))
        P = modules.rep_direct_sum([modules.projective(A, A.quiver.v_index[v])[0] for v in summands])[0]
        support = [v for v, red in zip(names, modules.radical_reducers(P)) if red.rank]
        generators = tuple(rng.choice(support) for _ in range(rng.randint(1, 2)))
        recipes.append(ModuleRecipe(summands, generators, rng.randint(6, 8), rng.randint(5, 7), rng.choice((18, 23, 28))))
    return recipes


def bowtie_module(A, recipe: ModuleRecipe, coeff_rng: random.Random):
    """P / <x_1, ..., x_r> with each x_i a seeded combination of the radical
    basis of P at the recipe's vertex, coefficients in {+-1, +-2, +-3}."""
    from qred import modules

    q = A.quiver
    f = A.field
    P = modules.rep_direct_sum([modules.projective(A, q.v_index[v])[0] for v in recipe.summands])[0]
    rad = modules.radical_reducers(P)
    vecs = [[] for _ in range(q.n_vertices)]
    for name in recipe.generators:
        u = q.v_index[name]
        vec = [f.zero()] * P.dims[u]
        for row in rad[u].basis_rows():
            c = f.from_int(coeff_rng.choice((-3, -2, -1, 1, 2, 3)))
            vec = [x + c * y for x, y in zip(vec, row)]
        vecs[u].append(vec)
    M, _ = modules.quotient_rep(P, modules.stable_span(P, vecs))
    return M


def _intertwines(fmap, M, N) -> bool:
    q = M.algebra.quiver
    return all(
        N.mats[a] @ fmap.mats[q.a_src[a]] == fmap.mats[q.a_tgt[a]] @ M.mats[a] for a in range(q.n_arrows)
    )


def _check_fibonacci(dims: list[int], where: str) -> None:
    """Syzygy dimensions over bowtie and its opposite follow d(k+2) = d(k+1) +
    d(k) from the second syzygy on, as long as the resolution has not stopped.
    ``dims[k]`` is dim Omega^k, with ``dims[0]`` the module itself."""
    for k in range(2, len(dims) - 2):
        if dims[k + 2] and dims[k + 2] != dims[k + 1] + dims[k]:
            raise OracleFailure(f"{where}: syzygy dims {dims} break d(k+2) = d(k+1) + d(k) at k={k}")


def _syzygy_ops(text: str, r: int, recipe: ModuleRecipe, seed: int, budget: float) -> list[Op]:
    from qred import algebra, modules, parser

    coeff_seed = seed * 1000003 + r
    pres = parser.parse_algebra(text)
    tag = f"bowtie_M{r}[{'+'.join(recipe.summands)}/{','.join(recipe.generators)}]"

    def module():
        A = algebra.complete(pres, 12)
        return bowtie_module(A, recipe, random.Random(coeff_seed))

    def syzygy_dims(M, steps):
        res = modules.minimal_resolution(M, steps)
        return res, [M.total_dim] + [K.total_dim for K in res.syzygies]

    def omega(M):
        """The first syzygy of at least the target dimension, one cover at a
        time; the last nonzero one (or M) when the resolution stops first."""
        K = M
        while K.total_dim < recipe.target_dim:
            nxt = modules.minimal_resolution(K, 1).syzygies
            if not nxt or nxt[0].is_zero():
                break
            K = nxt[0]
        return K

    def run_resolve():
        M = module()
        return M, syzygy_dims(M, recipe.depth)[1]

    def check_resolve(ans):
        M, dims = ans
        _check_fibonacci(dims, tag)
        return DECIDED

    def pd_op(side):
        def run():
            M = module()
            return M, modules.pd_bounded(M, recipe.bound, side)

        def check(ans):
            M, bd = ans
            N = M if side == "projective" else modules.dual(M)
            res, dims = syzygy_dims(N, recipe.bound + 1)
            # a stopped resolution fixes the value; otherwise any answer but
            # a finite value within the bound is true (sharper ones included)
            if res.terminated:
                wrong = str(bd) != f"Exact({len(res.projectives) - 1})"
            else:
                wrong = bd.exact and bd.value <= recipe.bound
            if wrong:
                raise OracleFailure(f"{tag} {side} dimension {bd}, but the resolution has syzygy dims {dims}")
            _check_fibonacci(dims, tag)
            return UNDECIDED if is_atleast(bd) else DECIDED

        return run, check

    def run_end():
        K = omega(module())
        return K, modules.hom_basis(K, K)

    def check_end(ans):
        K, basis = ans
        if not basis:
            raise OracleFailure(f"{tag}: End of a nonzero module is zero")
        for fmap in basis:
            if not _intertwines(fmap, K, K):
                raise OracleFailure(f"{tag}: an End basis map does not intertwine")
        flat = [[x for m in fmap.mats for row in m.data for x in row] for fmap in basis]
        from qred.linalg import Matrix

        if Matrix.from_rows(K.algebra.field, flat).rank() != len(basis):
            raise OracleFailure(f"{tag}: End basis is linearly dependent")
        return DECIDED

    def run_iso():
        K = omega(module())
        return K, modules.is_isomorphic(K, K, random.Random(coeff_seed ^ 0x150))

    def check_iso(ans):
        K, res = ans
        if res.kind == "no":
            raise OracleFailure(f"{tag}: Omega is reported not isomorphic to itself ({res.invariant})")
        if res.kind == "inconclusive":
            return UNDECIDED
        w = res.witness
        if not _intertwines(w, K, K):
            raise OracleFailure(f"{tag}: iso witness does not intertwine")
        if any(m.rows != m.cols or m.rank() != m.rows for m in w.mats):
            raise OracleFailure(f"{tag}: iso witness is not invertible")
        return DECIDED

    run_pd, check_pd = pd_op("projective")
    run_id, check_id = pd_op("injective")
    return [
        Op(f"{tag} resolve depth {recipe.depth}", run_resolve, check_resolve, budget),
        Op(f"{tag} pd bound {recipe.bound}", run_pd, check_pd, budget),
        Op(f"{tag} id bound {recipe.bound}", run_id, check_id, budget),
        Op(f"{tag} End(Omega, dim>={recipe.target_dim})", run_end, check_end, budget),
        Op(f"{tag} iso(Omega, Omega)", run_iso, check_iso, budget),
    ]


def build_syzygy_q(seed: int) -> list[Op]:
    from qred import algebra, parser

    text = (FIXTURES / "bowtie.alg").read_text(encoding="utf-8")
    ops = []
    for r, recipe in enumerate(syzygy_recipes(algebra.complete(parser.parse_algebra(text), 12))):
        ops += _syzygy_ops(text, r, recipe, seed, BUDGETS_S["syzygy_q"])
    return ops


# -- registry ----------------------------------------------------------------

BUILDERS = {
    "corpus_gf5": build_corpus_gf5,
    "fixtures_cli": build_fixtures_cli,
    "syzygy_q": build_syzygy_q,
    "bowtie_defaults": build_bowtie_defaults,
}


def build(name: str, seed: int) -> list[Op]:
    """The op population of one pass, in a seeded order."""
    ops = BUILDERS[name](seed)
    random.Random(seed).shuffle(ops)
    return ops
