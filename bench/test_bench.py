"""Self-tests of the benchmark's own logic: self-time arithmetic, outcome
classification, the timeout path and the metric lists.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from harness import DECIDED, FAILED, UNDECIDED, Op, OracleFailure, run_op  # noqa: E402


class FakeClock:
    """Each reading advances time by one unit."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_times_subtract_direct_children_only():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_spans_nest_and_self_times_add_up():
    tr = tracing.Tracer(clock=FakeClock())
    inner = tr.wrap("linalg.solve", lambda: None)
    outer = tr.wrap("modules.hom_basis", lambda: (inner(), inner()))
    tr.enabled = True
    mark = tr.mark()
    outer()
    m = tr.layer_metrics(mark)
    # outer opens at 1, inner spans [2, 3] and [4, 5], outer closes at 6
    assert list(tr.span_parent) == [-1, 0, 0]
    assert m["modules.hom_basis.calls"] == 1 and m["linalg.solve.calls"] == 2
    assert m["linalg.solve.self_s"] == 2.0
    assert m["modules.hom_basis.self_s"] == 5.0 - 2.0
    assert sum(tracing.self_times(tr.span_start, tr.span_end, list(tr.span_parent))) == 5.0


def test_spans_are_written_one_json_line_each(tmp_path):
    tr = tracing.Tracer(clock=FakeClock())
    inner = tr.wrap("linalg.solve", lambda: None)
    outer = tr.wrap("modules.hom_basis", inner)
    tr.enabled, tr.op_id = True, 4
    outer()
    tr.write_spans(tmp_path / "spans.jsonl")
    lines = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert lines == [["modules.hom_basis", 1.0, 4.0, -1, 4], ["linalg.solve", 2.0, 3.0, 0, 4]]


def test_tracer_records_nothing_while_disabled():
    tr = tracing.Tracer()
    f = tr.wrap("cli.main", lambda x: x + 1)
    assert f(1) == 2
    assert len(tr.span_name) == 0


def test_install_rebinds_every_reference_and_uninstall_restores():
    run.import_qred()
    import qred
    from qred import homology, modules

    original = modules.pd_bounded
    tr = tracing.Tracer()
    tr.install()
    try:
        assert modules.pd_bounded is not original
        assert homology.pd_bounded is modules.pd_bounded  # imported by name
        assert qred.pd_bounded is modules.pd_bounded
        tr.enabled = True
        A = qred.complete(qred.parse_algebra((workloads.FIXTURES / "line2.alg").read_text()), 5)
        homology.gldim_bounded(A, 3)
        assert tr.counters["algebra.complete.basis"] == 3
        m = tr.layer_metrics((0, {}))
        assert m["homology.gldim_bounded.calls"] == 1
        assert m["modules.pd_bounded.calls"] == 2  # one per vertex simple
        assert m["linalg.matmul.calls"] > 0
    finally:
        tr.uninstall()
    assert modules.pd_bounded is original and homology.pd_bounded is original


def test_oracle_calls_are_not_traced():
    tr = tracing.Tracer()
    f = tr.wrap("linalg.solve", lambda: 1)
    op = Op("op", run=f, check=lambda r: (f(), DECIDED)[1], budget_s=5.0)
    rec = run_op(op, 7, tr)
    assert rec.outcome == DECIDED
    assert list(tr.span_op) == [7]


def test_outcome_classes():
    def op(run_fn, check_fn):
        return run_op(Op("op", run_fn, check_fn, budget_s=5.0), 0)

    assert op(lambda: 1, lambda r: DECIDED).outcome == DECIDED
    assert op(lambda: 1, lambda r: UNDECIDED).outcome == UNDECIDED

    def wrong(r):
        raise OracleFailure("2 != 1")

    rec = op(lambda: 1, wrong)
    assert (rec.outcome, rec.failure, rec.wall_s) == (FAILED, "wrong", 5.0)

    def boom():
        raise ValueError("bad input")

    rec = op(boom, lambda r: DECIDED)
    assert (rec.outcome, rec.failure, rec.wall_s) == (FAILED, "raised", 5.0)
    assert "ValueError" in rec.reason


def test_timeout_fails_the_op_at_its_budget_and_disarms_the_timer():
    def spin():
        end = time.monotonic() + 10.0
        try:
            while time.monotonic() < end:
                pass
        except Exception:  # a library-style broad handler must not swallow it
            return "swallowed"
        return "finished"

    t0 = time.monotonic()
    rec = run_op(Op("spin", spin, lambda r: DECIDED, budget_s=0.2), 3)
    assert time.monotonic() - t0 < 5.0
    assert (rec.outcome, rec.failure, rec.wall_s) == (FAILED, "timeout", 0.2)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is not harness._on_alarm


def test_probe_time_is_not_charged_to_the_op():
    ticks = iter([10.0, 12.0])
    probe = harness.SpeedProbe(clock=lambda: next(ticks))

    def op_run():
        probe.sampled_s += 0.5  # as if the SIGPROF handler ran during the op
        return 1

    rec = run_op(Op("op", op_run, lambda r: DECIDED, budget_s=5.0), 0, clock=probe.clock)
    assert rec.wall_s == 1.5


def test_probe_samples_during_cpu_work_and_scales_to_the_reference():
    probe = harness.SpeedProbe()
    probe.start()
    try:
        end = time.process_time() + 0.5
        while time.process_time() < end:
            pass
    finally:
        probe.stop()
    assert probe.reps >= 3
    assert probe.factor_since(0, 0.0) == harness.SpeedProbe.REFERENCE_REP_S * probe.reps / probe.sampled_s
    with pytest.raises(ValueError):
        probe.factor_since(probe.reps, probe.sampled_s)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL


def test_cli_oracle_rejects_exit_codes_outside_the_contract():
    op = workloads._cli_op(["analyze", str(workloads.FIXTURES / "line2.alg")], 0, 5.0, {})
    with pytest.raises(OracleFailure, match="exit code 1"):
        op.check((1, "", ""))


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]
    assert harness.tail(values) == (90.0, 90.0, 100)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_summarise_takes_medians_over_passes_and_pooled_fractions():
    R = harness.OpRecord
    passes = [
        [R(0, "a", 1.0, DECIDED), R(1, "b", 2.0, UNDECIDED)],
        [R(2, "a", 1.5, DECIDED), R(3, "b", 5.0, FAILED, "timeout")],
        [R(4, "a", 1.0, DECIDED), R(5, "b", 3.0, UNDECIDED)],
    ]
    s = harness.summarise(passes)
    assert s["wall_s"] == 4.0
    assert s["op_p50_ms"] == 2000.0  # pass medians 1500, 3250, 2000
    assert s["op_tail_ms"] == 3000.0 and s["op_samples"] == 2  # pass maxima 2000, 5000, 3000
    assert s["decided_frac"] == 0.5
    assert s["failed_frac"] == 1 / 6 and s["failed"] == 1 and s["wrong"] == 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
