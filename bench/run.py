"""qred benchmark: seeded workloads measured from outside the library.

One run of one workload, as BENCHMARK.json specifies it (from the repository root)::

    python3 bench/run.py --workload corpus_gf5 --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with a table of all metrics::

    python3 bench/run.py --all [--seconds 30] [--out report.json]

A run imports ``qred`` from ``src/`` of the checkout it sits in, builds the
workload's op population from ``--seed`` (its set-up, repeated and timed),
then runs passes over the population in a closed loop, one op at a time,
until the next pass would end after ``--seconds`` (untraced runs make at
least two passes; traced runs make one untraced and one traced pass).
Every op is checked by its oracle.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from harness import FAILED, SpeedProbe, run_op, summarise  # noqa: E402
from tracing import COUNTERS, SPAN_NAMES, Tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("corpus_gf5", "fixtures_cli", "syzygy_q")
EXTRA_WORKLOADS = ("bowtie_defaults",)  # run by --all; not listed in BENCHMARK.json
SETUP_REPEATS = 9
MAX_RUN_S = 150.0  # no further pass once the next one would end after this

# name -> unit; the end-to-end metrics of a --trace 0 run, as listed in
# BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "decided_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed by every run and by --all, but not in the result line: the per-op
# times of the small ops spread too much between runs on a shared machine to
# gate a change, and failed_frac is 0 whenever every op passes its oracle
REPORTED_ONLY = {"op_p50_ms": "ms", "op_tail_ms": "ms", "failed_frac": "ratio"}
TIMES = ("wall_s", "op_p50_ms", "op_tail_ms", "setup_s")  # reported at the reference speed


def per_layer_units() -> dict[str, str]:
    """name -> unit of every per-layer metric of a --trace 1 run."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for k in COUNTERS.get(name, ()):
            units[f"{name}.{k}"] = "s" if k.endswith("_s") else "count"
    units["linalg.rref.cache_hits"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def import_qred():
    """Import qred afresh from this checkout's src/, or exit with code 2."""
    for name in [n for n in sys.modules if n == "qred" or n.startswith("qred.")]:
        del sys.modules[name]
    qred = importlib.import_module("qred")
    if Path(qred.__file__).resolve().parent != SRC / "qred":
        sys.exit(f"bench: imported qred from {qred.__file__}, not from {SRC}")
    return qred


def setup(workload: str, seed: int, clock):
    """Import the library and build the op population, SETUP_REPEATS times;
    returns (ops of the last build, median set-up time)."""
    times = []
    ops = None
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        import_qred()
        ops = workloads.build(workload, seed)
        times.append(clock() - t0)
    return ops, statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spans_path=None) -> dict:
    """One run.  Each pass's op times, and the set-up time, are scaled to the
    probe's reference speed with the speed sampled during that pass (the
    whole run for set-up); the measured values are kept as ``measured_*``.

    A traced run makes one untraced pass and then one traced pass; the
    per-layer metrics come from the traced pass, and ``trace.overhead_s`` is
    the difference of the two passes at the reference speed.
    """
    probe = SpeedProbe()
    tracer = Tracer(clock=probe.clock) if trace else None
    passes, factors = [], []
    op_id = 0
    try:
        probe.start()
        ops, setup_s = setup(workload, seed, probe.clock)
        if tracer:
            tracer.install()
        t_start = time.perf_counter()
        while True:
            traced_pass = tracer is not None and len(passes) == 1
            mark = tracer.mark() if traced_pass else None
            samples = (probe.reps, probe.sampled_s)
            t_pass = time.perf_counter()
            records = []
            for op in ops:
                records.append(run_op(op, op_id, tracer if traced_pass else None, probe.clock))
                op_id += 1
            passes.append(records)
            factors.append(probe.factor_since(*samples))
            if traced_pass:
                layers = tracer.layer_metrics(mark)
                layers["trace.wall_s"] = sum(r.wall_s for r in records)
                layers["trace.spans"] = len(tracer.span_name) - mark[0]
                break
            now = time.perf_counter()
            elapsed, last = now - t_start, now - t_pass
            if not trace and len(passes) >= 2 and (elapsed + last > seconds or elapsed + last > MAX_RUN_S):
                break
    finally:
        if tracer:
            tracer.uninstall()
        probe.stop()
    if tracer and spans_path:
        tracer.write_spans(spans_path)
    # a failed op counts at its budget, which is not scaled
    scaled = [
        [r if r.outcome == FAILED else replace(r, wall_s=r.wall_s * f) for r in p] for p, f in zip(passes, factors)
    ]
    counts = summarise(passes)  # every op checked, the traced pass's too
    if trace:
        layers["trace.overhead_s"] = sum(r.wall_s for r in scaled[1]) - sum(r.wall_s for r in scaled[0])
        failures = [r for r in passes[1] if r.outcome == FAILED]
        passes, scaled = passes[:1], scaled[:1]
    summary = summarise(scaled)
    for k in ("attempted", "failed", "wrong"):
        summary[k] = counts[k]
    summary["setup_s"] = setup_s * probe.factor_since(0, 0.0)
    summary["speed_factors"] = factors
    measured = summarise(passes)
    measured["setup_s"] = setup_s
    for k in TIMES:
        summary[f"measured_{k}"] = measured[k]
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["passes"] = len(passes)
    summary["ops_per_pass"] = len(ops)
    summary["failures"] = [
        {"op_id": r.op_id, "op": r.name, "failure": r.failure, "reason": r.reason}
        for r in [r for p in passes for r in p if r.outcome == FAILED] + (failures if trace else [])
    ]
    if trace:
        summary["layers"] = layers
    return summary


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": summary["layers"][k], "unit": u} for k, u in per_layer_units().items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def print_summary(workload: str, seed: int, summary: dict, trace: bool) -> None:
    print(f"workload {workload}  seed {seed}  {summary['passes']} passes x {summary['ops_per_pass']} ops"
          f"  {'traced' if trace else 'untraced'}  speed factor per pass {[round(f, 4) for f in summary['speed_factors']]}")
    for k, u in {**END_TO_END, **REPORTED_ONLY}.items():
        extra = f"  (measured {summary['measured_' + k]:.4f})" if k in TIMES else ""
        if k == "op_tail_ms":
            extra += f"  (p{summary['op_tail_pct']} of {summary['op_samples']} ops per pass)"
        print(f"  {k:<14} {summary[k]:>12.4f} {u}{extra}")
    for f in summary["failures"]:
        print(f"  FAILED op {f['op_id']} [{f['op']}]: {f['failure']}: {f['reason']}")
    if trace:
        for k, v in summary["layers"].items():
            if v:
                print(f"  {k:<46} {v:>14.4f}")


def run_all(seed: int | None, seconds: float, out_path) -> int:
    """Every workload untraced, then traced, each in a process of its own
    (peak RSS is per process), one at a time."""
    report = {"seconds": seconds, "workloads": {}}
    for workload in WORKLOADS + EXTRA_WORKLOADS:
        s = workloads.DEFAULT_SEEDS[workload] if seed is None else seed
        row = {"seed": s}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(s),
                    "--seconds", str(seconds), "--trace", str(trace), "--detail"]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout[: proc.stdout.rfind("detail ")] if "detail " in proc.stdout else proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            detail = next(line for line in proc.stdout.splitlines() if line.startswith("detail "))
            row["traced" if trace else "untraced"] = json.loads(detail[len("detail "):])
        print(f"  tracing overhead on {workload}: {row['traced']['layers']['trace.overhead_s']:.3f} s per pass")
        report["workloads"][workload] = row
    print()
    print(f"{'workload':<16}" + "".join(f"{k + ' [' + u + ']':>22}" for k, u in {**END_TO_END, **REPORTED_ONLY}.items()))
    for workload, row in report["workloads"].items():
        u = row["untraced"]
        print(f"{workload:<16}" + "".join(f"{u[k]:>22.4f}" for k in {**END_TO_END, **REPORTED_ONLY}))
    if out_path:
        Path(out_path).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    ok = all(row["untraced"]["wrong"] == 0 and row["traced"]["wrong"] == 0 for row in report["workloads"].values())
    print(json.dumps({"correct": ok, "workloads": sorted(report["workloads"])}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced run's spans to this file, one JSON line each")
    ap.add_argument("--out", help="with --all: write the full report as JSON to this file")
    ap.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "qred" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no qred sources at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if args.workload is None:
        ap.error("give --workload or --all")
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    summary = run_workload(args.workload, seed, args.seconds, bool(args.trace), args.spans)
    print_summary(args.workload, seed, summary, bool(args.trace))
    if args.detail:
        print("detail " + json.dumps(summary))
    print(json.dumps(result_line(summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
