"""Per-layer tracing applied to the library from outside.

:class:`Tracer` wraps the public functions of each ``qred`` module, and a few
methods on their classes, with a span recorder.  ``qred`` modules import each
other's functions with ``from .x import y``, so every reference to a wrapped
function in every ``qred.*`` namespace is rebound, and restored by
:meth:`Tracer.uninstall`.

Spans are kept in memory as parallel arrays (name, start, end, parent, op id)
and may be written out at the end.  A layer's self time is its span's duration
minus the durations of its child spans.  Work counters are read from the
arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

from harness import is_atleast


def _complete(c, args, kwargs, out, exc, dur):
    if exc is None:
        c["algebra.complete.rules"] += len(out.rules)
        c["algebra.complete.basis"] += out.dim
    elif type(exc).__name__ == "DimensionNotResolved":
        c["algebra.complete.unresolved"] += 1
        c["algebra.complete.unresolved_s"] += dur


def _out_dim(metric):
    def count(c, args, kwargs, out, exc, dur):
        if exc is None:
            c[metric] += out[0].total_dim

    return count


def _resolution(c, args, kwargs, out, exc, dur):
    if exc is None:
        c["modules.minimal_resolution.out_dim"] += sum(K.total_dim for K in out.syzygies)


def _hom_basis(c, args, kwargs, out, exc, dur):
    M, N = args[0], args[1]
    c["modules.hom_basis.unknowns"] += sum(m * n for m, n in zip(M.dims, N.dims))
    if exc is None:
        c["modules.hom_basis.hom_dim"] += len(out)


def _is_isomorphic(c, args, kwargs, out, exc, dur):
    if exc is None and out.kind == "inconclusive":
        c["modules.is_isomorphic.inconclusive"] += 1


def _pd_bounded(c, args, kwargs, out, exc, dur):
    if exc is None and is_atleast(out):
        c["modules.pd_bounded.atleast"] += 1


def _matmul(c, args, kwargs, out, exc, dur):
    a, b = args[0], args[1]
    c["linalg.matmul.flops"] += a.rows * a.cols * b.cols


# (module, attribute, span name, counter or None).  The span name is the
# metric prefix: <module>.<function>.
FUNCTIONS = [
    ("algebra", "complete", "algebra.complete", _complete),
    ("algebra", "tensor_with_opposite", "algebra.tensor_with_opposite", None),
    ("homology", "bongartz", "homology.bongartz", None),
    ("homology", "minimal_relations", "homology.minimal_relations", None),
    ("homology", "gldim_bounded", "homology.gldim_bounded", None),
    ("homology", "gorenstein_bounded", "homology.gorenstein_bounded", None),
    ("homology", "bimodule_pd_bounded", "homology.bimodule_pd_bounded", None),
    ("modules", "projective_cover", "modules.projective_cover", _out_dim("modules.projective_cover.out_dim")),
    ("modules", "kernel_subrep", "modules.kernel_subrep", _out_dim("modules.kernel_subrep.out_dim")),
    ("modules", "minimal_resolution", "modules.minimal_resolution", _resolution),
    ("modules", "hom_basis", "modules.hom_basis", _hom_basis),
    ("modules", "is_isomorphic", "modules.is_isomorphic", _is_isomorphic),
    ("modules", "split_projective_summands", "modules.split_projective_summands", None),
    ("modules", "pd_bounded", "modules.pd_bounded", _pd_bounded),
    ("modules", "tensor_over", "modules.tensor_over", None),
    ("reduction", "property_verdict", "reduction.property_verdict", None),
    ("reduction", "corner_presentation", "reduction.corner_presentation", None),
    ("reduction", "corner_conditions", "reduction.corner_conditions", None),
    ("reduction", "quotient_conditions", "reduction.quotient_conditions", None),
    ("reduction", "triangular_split", "reduction.triangular_split", None),
    ("reduction", "reduce_fixpoint", "reduction.reduce_fixpoint", None),
    ("witness", "verify_level", "witness.verify_level", None),
    ("witness", "bimodule_syzygy", "witness.bimodule_syzygy", None),
    ("witness", "tensor_bimodules", "witness.tensor_bimodules", None),
    ("parser", "parse_algebra", "parser.parse_algebra", None),
    ("parser", "parse_module", "parser.parse_module", None),
    ("cli", "main", "cli.main", None),
]

# (module, class, method, span name, counter or None).  Matrix.rref is
# wrapped separately: its span name depends on the field.
METHODS = [
    ("linalg", "Matrix", "__matmul__", "linalg.matmul", _matmul),
    ("linalg", "Matrix", "solve", "linalg.solve", None),
    ("linalg", "SubspaceReducer", "insert", "linalg.reducer_insert", None),
    ("modules", "TensorFunctor", "space", "modules.tensor_space", None),
    ("modules", "TensorFunctor", "quotient_rep", "modules.tensor_quotient_rep", None),
]

SPAN_NAMES = [name for _, _, name, _ in FUNCTIONS] + [name for *_, name, _ in METHODS] + [
    "linalg.rref_q",
    "linalg.rref_gfp",
]

COUNTERS = {
    "algebra.complete": ("unresolved", "unresolved_s", "rules", "basis"),
    "modules.projective_cover": ("out_dim",),
    "modules.kernel_subrep": ("out_dim",),
    "modules.minimal_resolution": ("out_dim",),
    "modules.hom_basis": ("unknowns", "hom_dim"),
    "modules.is_isomorphic": ("inconclusive",),
    "modules.pd_bounded": ("atleast",),
    "linalg.matmul": ("flops",),
    "linalg.rref_q": ("entries",),
    "linalg.rref_gfp": ("entries",),
}


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span: its duration minus its children's durations."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = list(SPAN_NAMES)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.enabled = False  # spans are recorded only while an op runs
        self.counters: defaultdict = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(self.clock())
        return i

    def _close(self, i: int) -> float:
        t = self.clock()
        self.span_end[i] = t
        self.stack.pop()
        return t - self.span_start[i]

    def wrap(self, name: str, fn, count=None):
        name_id = self.name_ids[name]
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                dur = self._close(i)
                if count is not None:
                    count(counters, args, kwargs, None, exc, dur)
                raise
            dur = self._close(i)
            if count is not None:
                count(counters, args, kwargs, out, None, dur)
            return out

        return traced

    def _wrap_rref(self, fn):
        q_id, p_id = self.name_ids["linalg.rref_q"], self.name_ids["linalg.rref_gfp"]
        c = self.counters

        @functools.wraps(fn)
        def traced(m):
            if not self.enabled:
                return fn(m)
            if m._rref is not None:
                c["linalg.rref.cache_hits"] += 1
            else:
                c["linalg.rref_q.entries" if m.field.p is None else "linalg.rref_gfp.entries"] += m.rows * m.cols
            i = self._open(q_id if m.field.p is None else p_id)
            try:
                return fn(m)
            finally:
                self._close(i)

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the imported ``qred``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for modname in {m for m, *_ in FUNCTIONS + METHODS}:
            importlib.import_module(f"qred.{modname}")
        mods = {n: m for n, m in list(sys.modules.items()) if n == "qred" or n.startswith("qred.")}
        for modname, attr, name, count in FUNCTIONS:
            fn = getattr(mods[f"qred.{modname}"], attr)
            traced = self.wrap(name, fn, count)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, traced)
        for modname, clsname, attr, name, count in METHODS:
            cls = getattr(mods[f"qred.{modname}"], clsname)
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(name, fn, count))
        Matrix = mods["qred.linalg"].Matrix
        self._restore.append((Matrix, "rref", Matrix.__dict__["rref"]))
        Matrix.rref = self._wrap_rref(Matrix.__dict__["rref"])

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """A point to measure a pass from: (span count, counter snapshot)."""
        return len(self.span_name), dict(self.counters)

    def layer_metrics(self, since: tuple[int, dict]) -> dict[str, float]:
        """calls, self_s and counters of every span name since a mark."""
        first, before = since
        names = self.span_name[first:]
        parents = [p - first if p >= first else -1 for p in self.span_parent[first:]]
        selfs = self_times(self.span_start[first:], self.span_end[first:], parents)
        out: dict[str, float] = {}
        for n in self.names:
            out[f"{n}.calls"] = 0
            out[f"{n}.self_s"] = 0.0
            for k in COUNTERS.get(n, ()):
                out[f"{n}.{k}"] = 0
        out["linalg.rref.cache_hits"] = 0
        for nid, s in zip(names, selfs):
            n = self.names[nid]
            out[f"{n}.calls"] += 1
            out[f"{n}.self_s"] += s
        for k, v in self.counters.items():
            out[k] = v - before.get(k, 0)
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.span_name[i]],
                            self.span_start[i],
                            self.span_end[i],
                            self.span_parent[i],
                            self.span_op[i],
                        ]
                    )
                    + "\n"
                )
