"""Op execution, budgets, outcome classes and end-to-end metric arithmetic.

An op is one question put to the library.  Running it yields one record:
its wall time and its outcome class,

- ``decided``: answered with a certificate and confirmed by the op's oracle;
- ``undecided``: answered honestly but without a certificate (``AtLeast``,
  ``inconclusive``, ``conditional``, ``DimensionNotResolved``,
  ``ResolutionCapExceeded``) and not contradicted by the oracle;
- ``failed``: raised, answered wrongly against the oracle, exceeded its wall
  budget, or returned an exit code outside the CLI contract.

Budgets are enforced in-process with ``signal.setitimer``: no thread or
process is started, so the op is interrupted where it stands and the
interval timer raises :class:`OpTimeout` out of the library.

On a shared machine the speed at which this process runs Python drifts by
tens of percent within minutes.  :class:`SpeedProbe` samples it while the ops
run, so that times can be reported at a fixed reference speed.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"


def is_atleast(bd) -> bool:
    """True for an uncertified bounded dimension (``AtLeast(n)``)."""
    return str(bd).startswith("AtLeast")


class OpTimeout(BaseException):
    """Raised by the interval timer when an op exceeds its wall budget.

    A BaseException, so that no ``except Exception`` inside the library can
    swallow it.
    """


class OracleFailure(Exception):
    """The op's answer contradicts its oracle."""


@dataclass
class Op:
    """One timed question: ``run`` calls the library, ``check`` classifies.

    ``run`` builds the op's own inputs and returns the library's answer.
    ``check`` runs outside the timed region; it returns DECIDED or UNDECIDED
    and raises OracleFailure on a wrong answer.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    budget_s: float


@dataclass
class OpRecord:
    op_id: int
    name: str
    wall_s: float
    outcome: str
    failure: str = ""  # "timeout" | "raised" | "wrong" when outcome is FAILED
    reason: str = ""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(op: Op, op_id: int, tracer=None, clock=time.perf_counter) -> OpRecord:
    """Run one op under its budget and classify the answer.

    A timed-out or failed op counts at its budget, so a hang or a crash can
    never make the run look faster.  A tracer, if given, records the op's
    library calls only, not those of its oracle.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    if tracer is not None:
        tracer.op_id = op_id
        tracer.enabled = True
    t0 = clock()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.budget_s)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.enabled = False
        wall = clock() - t0
    except OpTimeout:
        return OpRecord(op_id, op.name, op.budget_s, FAILED, "timeout", f"exceeded its {op.budget_s:g} s budget")
    except Exception as e:  # the op raised: record it, keep the run going
        return OpRecord(op_id, op.name, op.budget_s, FAILED, "raised", f"{type(e).__name__}: {e}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    try:
        outcome = op.check(result)
    except OracleFailure as e:
        return OpRecord(op_id, op.name, op.budget_s, FAILED, "wrong", str(e))
    except Exception as e:  # an answer of a shape the oracle cannot read
        return OpRecord(op_id, op.name, op.budget_s, FAILED, "wrong", f"{type(e).__name__}: {e}")
    if outcome not in (DECIDED, UNDECIDED):
        raise ValueError(f"oracle of {op.name!r} returned {outcome!r}")
    return OpRecord(op_id, op.name, wall, outcome)


# One calibration rep: a fixed, library-independent sample of the interpreter
# work the library does (rational and mod-p row reduction, dict and tuple
# traffic); it takes about a millisecond.
_rng = random.Random(20210319)
_Q_ROWS = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(5)] for _ in range(5)]
_P_ROWS = [[_rng.randrange(5) for _ in range(8)] for _ in range(8)]
del _rng


def _eliminate(rows, inv, sub):
    m = [r[:] for r in rows]
    n = len(m)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        piv = inv(m[c][c])
        m[c] = [sub(0, -x * piv) for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [sub(a, f * b) for a, b in zip(m[i], m[c])]
    return m


def calibration_rep() -> None:
    _eliminate(_Q_ROWS, lambda x: 1 / x, lambda a, b: a - b)
    _eliminate(_P_ROWS, lambda x: pow(x, 3, 5), lambda a, b: (a - b) % 5)
    d = {}
    for i in range(200):
        k = (i % 97, (i * 7) % 13)
        d[k] = d.get(k, 0) + i % 5


class SpeedProbe:
    """Samples how fast this process runs Python while the ops run.

    Between :meth:`start` and :meth:`stop`, SIGPROF arrives every PERIOD_S
    of CPU time, wherever the process is, and its handler times one
    calibration rep; the samples are spread over the ops in proportion to
    their length.  A speed factor is REFERENCE_REP_S over the mean rep time
    of a stretch of samples: a time measured during that stretch, multiplied
    by it, is the time at the reference speed, at which a rep takes
    REFERENCE_REP_S.
    """

    PERIOD_S = 0.04
    REFERENCE_REP_S = 0.001

    def __init__(self, clock=time.perf_counter):
        self.clock_source = clock
        self.sampled_s = 0.0
        self.reps = 0

    def clock(self) -> float:
        """The wall clock minus the time spent sampling: it times ops as if
        the probe were not there."""
        return self.clock_source() - self.sampled_s

    def _on_prof(self, signum, frame):
        t0 = self.clock_source()
        calibration_rep()
        self.sampled_s += self.clock_source() - t0
        self.reps += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor_since(self, reps: int, sampled_s: float) -> float:
        """The factor from the samples taken after the probe stood at
        (reps, sampled_s)."""
        if self.reps == reps:
            raise ValueError("no speed samples taken")
        return self.REFERENCE_REP_S * (self.reps - reps) / (self.sampled_s - sampled_s)


def tail(values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that still
    has at least ``beyond`` samples above it.

    With fewer than ``beyond + 1`` samples the maximum is returned at the
    100th percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond  # 1-based rank with exactly `beyond` samples after it
    pct = math.floor(1000.0 * k / n) / 10.0
    return xs[k - 1], pct, n


def summarise(passes: list[list[OpRecord]]) -> dict:
    """End-to-end metrics of one run from its passes over the op population.

    Times are taken per pass and reported as the median over passes, so that
    the percentile behind ``op_tail_ms`` depends on the population size only,
    not on how many passes fit in the run.  Fractions pool every op.
    """
    records = [r for p in passes for r in p]
    if not records:
        raise ValueError("no ops ran")
    tails = [tail([r.wall_s * 1000.0 for r in p]) for p in passes]
    attempted = len(records)
    failed = sum(r.outcome == FAILED for r in records)
    return {
        "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
        "op_p50_ms": statistics.median(statistics.median(r.wall_s * 1000.0 for r in p) for p in passes),
        "op_tail_ms": statistics.median(t[0] for t in tails),
        "op_tail_pct": tails[0][1],
        "op_samples": tails[0][2],
        "failed_frac": failed / attempted,
        "decided_frac": sum(r.outcome == DECIDED for r in records) / attempted,
        "attempted": attempted,
        "failed": failed,
        "wrong": sum(r.failure in ("raised", "wrong") for r in records),
    }
