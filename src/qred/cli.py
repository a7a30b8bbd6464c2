"""Command-line front-end.

Subcommands: analyze, reduce, check, corner, resolve, witness.  Every command
emits a JSON report with a fixed key layout (or a text summary with
``--format text``); reports are byte-identical across runs for a fixed seed.

Exit codes: 0 verdict holds / report produced, 1 verdict fails or a step was
refuted, 2 usage or parse error, 3 inconclusive or conditional, 4 internal
error (a broken internal invariant).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from .algebra import (
    AlgebraHandle,
    ConsistencyError,
    DimensionNotResolved,
    InvalidPresentation,
    complete,
    tensor_with_opposite,
)
from .homology import IdealSpec, gldim_bounded, serial_check
from .modules import dual, minimal_resolution, projective, standard_module
from .parser import ParseError, algebra_to_text, parse_algebra, parse_module
from .reduction import (
    PROPERTIES,
    corner_conditions,
    corner_presentation,
    eligible_vertices,
    property_verdict,
    quotient_conditions,
    reduce_fixpoint,
    triangular_split,
)
from .witness import (
    WitnessPair,
    identity_pair,
    search_level,
    syzygy_pair,
    verify_level,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"{path}: {e.strerror or e}")


def _load_algebra(path: str, bound: int) -> AlgebraHandle:
    text = sys.stdin.read() if path == "-" else _read_text(path)
    try:
        pres = parse_algebra(text)
        return complete(pres, bound)
    except ParseError as e:
        raise CliError(f"{path}:{e.line}:{e.col}: {e.message}")
    except InvalidPresentation as e:
        raise CliError(f"{path}: invalid presentation: {e}")
    except DimensionNotResolved as e:
        raise CliError(f"{path}: {e}")


def _algebra_summary(A: AlgebraHandle) -> dict:
    return {
        "name": A.name,
        "field": A.field.name,
        "dimension": A.dim,
        "monomial": A.is_monomial,
        "loewy_length": A.loewy_length,
        "vertices": list(A.quiver.vertices),
        "arrows": [list(a) for a in A.quiver.arrows],
    }


def _bd_json(bd) -> dict:
    return {"exact": bd.exact, "value": bd.value, "bound": bd.bound}


def _step_json(step) -> dict:
    return {
        "kind": step.kind,
        "input": step.input_name,
        "output": step.output_name,
        "params": {
            k: (v if not isinstance(v, IdealSpec) else {"vertices": list(v.vertices)})
            for k, v in step.params.items()
        },
        "conditions": [
            {"name": c.name, "verdict": c.verdict, "bound": c.bound, "detail": c.detail}
            for c in step.conditions
        ],
        "certified": step.certified,
    }


def _report(A, command, args_echo, results, trace, certificates, conditional, seed, elapsed_ms):
    return {
        "algebra": _algebra_summary(A),
        "command": {"name": command, "args": args_echo},
        "results": results,
        "trace": trace,
        "certificates": certificates,
        "conditional": conditional,
        "seed": seed,
        "elapsed_ms": elapsed_ms,
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return
    lines = []
    alg = report["algebra"]
    lines.append(
        f"algebra {alg['name']}: dim {alg['dimension']}, field {alg['field']}, "
        f"monomial {alg['monomial']}, loewy {alg['loewy_length']}"
    )
    for step in report["trace"]:
        conds = "; ".join(f"{c['name']}: {c['verdict']}" for c in step["conditions"])
        lines.append(f"step {step['kind']}: {step['input']} -> {step['output']} [{conds}]")
    for cert in report["certificates"]:
        rule = f" via {cert['rule']}" if cert.get("rule") else ""
        lines.append(f"{cert['property']}: {cert['verdict']}{rule}")
    for key, value in report["results"].items():
        lines.append(f"{key}: {value}")
    if report["conditional"]:
        lines.append("(conditional: some step left a hypothesis unresolved)")
    sys.stdout.write("\n".join(lines) + "\n")


def _parse_vertex_list(arg: str, A: AlgebraHandle) -> list[str]:
    """The comma-separated vertex names of arg, each a vertex of A."""
    out = arg.split(",")
    if out == [""]:
        raise CliError("empty vertex list")
    for i, v in enumerate(out):
        if not v:
            raise CliError(f"empty vertex name in {arg!r}")
        if v not in A.quiver.v_index:
            raise CliError(f"unknown vertex {v!r}")
        if v in out[:i]:
            raise CliError(f"vertex {v!r} listed twice")
    return out


def _reduction_steps(A, args, bound):
    """Quotient/corner/triangular steps requested by flags, in that order.

    A refuted step ends the list.
    """
    steps = []
    current = A
    if args.quotient is not None:
        J = IdealSpec.from_vertices(_parse_vertex_list(args.quotient, current))
        steps.append(quotient_conditions(current, J, bound))
        if steps[-1].output is None:
            return steps
        current = steps[-1].output
    if args.corner is not None:
        vertices = _parse_vertex_list(args.corner, current)
        steps.append(corner_conditions(current, vertices, bound, args.variant))
        current = steps[-1].output
    if args.triangular:
        step = triangular_split(current, bound)
        if step is not None:
            steps.append(step)
    return steps


def _refuted_report(A, steps):
    """The report of a command whose requested steps ended in a refutation."""
    trace = [_step_json(step) for step in steps]
    results = {"refuted": True, "failures": steps[-1].failures}
    return A, results, trace, [], False, EXIT_FAIL


def cmd_analyze(args, seed):
    A = _load_algebra(args.algebra, args.bound)
    gl = gldim_bounded(A, args.bound)
    results = {
        "dimension": A.dim,
        "monomial": A.is_monomial,
        "serial": serial_check(A),
        "loewy_length": A.loewy_length,
        "global_dimension": _bd_json(gl),
        "eligible_vertices": [list(e) for e in eligible_vertices(A)],
        "normal_basis_size_by_length": _basis_profile(A),
    }
    return A, results, [], [], False, EXIT_OK


def _basis_profile(A):
    prof = {}
    for p in A.normal_basis:
        prof[len(p.arrows)] = prof.get(len(p.arrows), 0) + 1
    return {str(k): prof[k] for k in sorted(prof)}


def cmd_reduce(args, seed):
    A = _load_algebra(args.algebra, args.bound)
    steps = _reduction_steps(A, args, args.bound)
    if steps and steps[-1].status == "refuted":
        return _refuted_report(A, steps)
    terminal, fsteps = reduce_fixpoint(steps[-1].output if steps else A)
    trace = [_step_json(s) for s in steps + fsteps]
    conditional = any(not s.certified for s in steps)
    results = {
        "terminal": _algebra_summary(terminal),
        "trace_length": len(trace),
        "presentation": algebra_to_text(terminal),
    }
    code = EXIT_INCONCLUSIVE if conditional else EXIT_OK
    return A, results, trace, [], conditional, code


def cmd_check(args, seed):
    A = _load_algebra(args.algebra, args.bound)
    steps = _reduction_steps(A, args, args.bound)
    if steps and steps[-1].status == "refuted":
        return _refuted_report(A, steps)
    props = PROPERTIES if args.property == "all" else (args.property,)
    verdict = property_verdict(A, args.bound, extra_steps=steps)
    trace = [_step_json(s) for s in verdict.steps]
    certs = [
        {
            "property": p,
            "verdict": verdict.certificates[p].verdict,
            "rule": verdict.certificates[p].rule,
        }
        for p in props
    ]
    results = {
        "terminal": _algebra_summary(verdict.terminal),
        "verdicts": {p: verdict.certificates[p].verdict for p in props},
    }
    conditional = verdict.conditional
    if all(verdict.certificates[p].verdict == "holds" for p in props):
        code = EXIT_INCONCLUSIVE if conditional else EXIT_OK
    else:
        code = EXIT_INCONCLUSIVE
    return A, results, trace, certs, conditional, code


def cmd_corner(args, seed):
    A = _load_algebra(args.algebra, args.bound)
    B = corner_presentation(A, _parse_vertex_list(args.vertices, A))
    if not args.json:
        sys.stdout.write(algebra_to_text(B))
        return None, None, None, None, None, EXIT_OK
    results = {"corner": _algebra_summary(B), "presentation": algebra_to_text(B)}
    return A, results, [], [], False, EXIT_OK


def _resolve_module(A, selector: str):
    if ":" in selector:
        kind, _, vertex = selector.partition(":")
        if kind not in ("simple", "projective", "injective"):
            raise CliError(f"unknown module kind {kind!r}")
        if vertex not in A.quiver.v_index:
            raise CliError(f"unknown vertex {vertex!r}")
        return f"{kind}:{vertex}", standard_module(A, kind, vertex)
    return _load_module(selector, A)


def _load_module(path: str, A: AlgebraHandle):
    """(name, module) parsed from a module or bimodule file over A."""
    text = _read_text(path)
    try:
        return parse_module(text, A)
    except ParseError as e:
        raise CliError(f"{path}:{e.line}:{e.col}: {e.message}")


def cmd_resolve(args, seed):
    A = _load_algebra(args.algebra, args.bound)
    name, M = _resolve_module(A, args.module)
    steps = args.steps
    # the injective coresolution of M is the dual of the projective
    # resolution of D(M); the dimension is read off one resolution, of at
    # least one step, and the table shows its first `steps` terms
    bound = max(0, steps - 1)
    N = M if args.side == "projective" else dual(M)
    res = minimal_resolution(N, bound + 1)
    # P_i, never assembled, is the sum of the projectives of N's algebra at
    # the vertices of its cover, a list that is never empty
    covers = [[sum(d) for d in zip(*(projective(N.algebra, v)[0].dims for v in vs))] for vs in res.covers[:steps]]
    table = [
        {"i": i, "projective": P, "syzygy": list(K.dims)} for i, (P, K) in enumerate(zip(covers, res.syzygies))
    ]
    results = {
        "module": name,
        "module_dims": list(M.dims),
        "side": args.side,
        "resolution": table,
        "terminated": res.terminated and len(res.covers) <= steps,
        "pd" if args.side == "projective" else "id": _bd_json(res.dimension(bound)),
    }
    return A, results, [], [], False, EXIT_OK


def cmd_witness(args, seed):
    if (args.identity, args.syzygy, args.pair is not None).count(True) != 1:
        raise CliError("choose one of --identity, --syzygy, --pair M N")
    # --identity and --syzygy build their pair over the first algebra alone;
    # naming that same file again is harmless, any other file is not used
    same = args.algebra2 and os.path.realpath(args.algebra2) == os.path.realpath(args.algebra)
    if args.algebra2 and args.pair is None and not same:
        raise CliError("a second algebra is used only with --pair")
    if args.level_max is not None and not args.search:
        raise CliError("--level-max needs --search")
    if args.level is not None and args.search:
        raise CliError("--level cannot be used with --search")
    A = _load_algebra(args.algebra, args.bound)
    B = _load_algebra(args.algebra2, args.bound) if args.algebra2 else A
    if args.identity:
        pair = identity_pair(A)
        pair_desc = "identity"
    elif args.syzygy:
        pair = syzygy_pair(A)
        pair_desc = "syzygy"
    else:
        env_ab, env_ba = _product_handles(A, B)
        _, M = _load_module(args.pair[0], env_ab)
        _, N = _load_module(args.pair[1], env_ba)
        pair = WitnessPair(M, N, 0)
        pair_desc = f"{args.pair[0]},{args.pair[1]}"
    if args.level is not None:
        pair = dataclasses.replace(pair, level=args.level)
    if args.search:
        n_max = args.level_max
        if n_max is None:
            n_max = 2 * A.enveloping().loewy_length
        n, reports = search_level(pair.M, pair.N, n_max, seed)
        results = {
            "pair": pair_desc,
            "search": {
                "level_max": n_max,
                "found_level": n,
                "levels": [
                    {"level": k, "verdict": r.verdict} for k, r in reports
                ],
            },
        }
        code = EXIT_OK if n is not None else EXIT_INCONCLUSIVE
        return A, results, [], [], False, code
    rep = verify_level(pair, seed)
    results = {
        "pair": pair_desc,
        "level": pair.level,
        "projectivity": list(rep.projectivity),
        "iso_left": rep.iso_left,
        "iso_right": rep.iso_right,
        "verdict": rep.verdict,
    }
    code = {
        "holds": EXIT_OK,
        "fails": EXIT_FAIL,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[rep.verdict]
    return A, results, [], [], rep.verdict == "inconclusive", code


def _product_handles(A, B):
    if B is A:
        return A.enveloping(), A.enveloping()
    return tensor_with_opposite(A, B), tensor_with_opposite(B, A)


def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qred",
        description="Reduction toolkit for homological finiteness of bound quiver algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, algebra2=False):
        p.add_argument("algebra", help="algebra file")
        if algebra2:
            p.add_argument("algebra2", nargs="?", help="second algebra file")
        p.add_argument(
            "--bound", type=nonnegative_int, default=20, help="resolution/Tor/completion bound"
        )
        p.add_argument("--seed", type=int, default=None, help="random seed (default QRED_SEED or 0)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true", help="record real elapsed time")

    p = sub.add_parser("analyze", help="dimension, monomial/serial flags, Loewy length, gldim")
    common(p)
    p.set_defaults(func=cmd_analyze)

    def step_flags(p):
        p.add_argument("--quotient", help="vertex list for an AeA homological-quotient step")
        p.add_argument("--corner", help="vertex list for a conditioned corner step")
        p.add_argument("--variant", choices=("pd", "id", "tor"), default="pd")
        p.add_argument("--triangular", action="store_true", help="try a triangular split")

    p = sub.add_parser("reduce", help="vertex-removal fixpoint plus optional steps")
    common(p)
    step_flags(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("check", help="certificate-based property verdict")
    common(p)
    p.add_argument(
        "--property",
        required=True,
        choices=PROPERTIES + ("all",),
    )
    step_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("corner", help="emit the corner presentation as an algebra file")
    common(p)
    p.add_argument("--vertices", required=True, help="comma-separated vertex names")
    p.add_argument("--json", action="store_true", help="wrap the presentation in a JSON report")
    p.set_defaults(func=cmd_corner)

    p = sub.add_parser("resolve", help="minimal resolution table of a module")
    common(p)
    p.add_argument("--module", required=True, help="simple:v | projective:v | injective:v | file")
    p.add_argument("--steps", type=nonnegative_int, default=8)
    p.add_argument("--side", choices=("projective", "injective"), default="projective")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("witness", help="verify or search witness pairs for singular equivalence")
    common(p, algebra2=True)
    p.add_argument("--identity", action="store_true", help="use the pair (A, A)")
    p.add_argument("--syzygy", action="store_true", help="use (first bimodule syzygy, A)")
    p.add_argument("--pair", nargs=2, metavar=("M", "N"), help="bimodule files")
    p.add_argument("--level", type=nonnegative_int, default=None)
    p.add_argument("--search", action="store_true", help="scan levels 0..level-max")
    p.add_argument("--level-max", type=nonnegative_int, default=None)
    p.set_defaults(func=cmd_witness)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    seed = args.seed
    if seed is None:
        text = os.environ.get("QRED_SEED") or "0"
        try:
            seed = int(text)
        except ValueError:
            sys.stderr.write(f"qred: QRED_SEED must be an integer, got {text!r}\n")
            return EXIT_USAGE
    t0 = time.monotonic()
    try:
        A, results, trace, certs, conditional, code = args.func(args, seed)
    except CliError as e:
        sys.stderr.write(f"qred: {e}\n")
        return e.code
    except (InvalidPresentation, DimensionNotResolved, ValueError) as e:
        sys.stderr.write(f"qred: {e}\n")
        return EXIT_USAGE
    except ConsistencyError as e:
        sys.stderr.write(f"qred: internal error: {e}\n")
        return EXIT_INTERNAL
    except MemoryError:
        sys.stderr.write("qred: internal error: out of memory\n")
        return EXIT_INTERNAL
    if A is None:  # corner default emitted raw text already
        return code
    elapsed = int((time.monotonic() - t0) * 1000) if args.timing else 0
    echo = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None and not callable(v)
    }
    report = _report(A, args.command, echo, results, trace, certs, conditional, seed, elapsed)
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
