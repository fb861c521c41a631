"""In-memory span tracer for the benchmark's traced run.

The traced run wraps the public functions of each layer *at the names the
program calls them by* (``repro.core.als_su.compute_hermitians``, the
class attribute ``FactorStore.recommend_batch``, ...) and restores the
originals afterwards, so no file of the program changes and the untraced
run executes the program untouched.

Every wrapped call records one :class:`Span` (name, start, end, parent
span, unit id) and bumps counters at the same boundary.  A *unit* is one
set-up, one timed step or the paper-model pass; spans of one unit share
its id.  Self time is a span's duration minus the time its child spans
cover; with one thread, children nest strictly inside their parent, so
the self times of a unit add up to the unit's root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "instrument"]


@dataclass
class Span:
    """One traced call."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters, kept in memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.unit = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        span = Span(span_id, name, time.perf_counter(), 0.0, parent, self.unit)
        self.spans.append(span)
        self._stack.append(span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    @contextlib.contextmanager
    def unit_span(self, unit: str):
        """Root span of one unit of work; every span inside carries ``unit``."""
        self.unit = unit
        with self.span("unit") as root:
            yield root

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.unit][key] += value

    def self_times(self, unit: str) -> dict[str, float]:
        """Self seconds per span name within one unit."""
        spans = [s for s in self.spans if s.unit == unit]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s.name] += s.duration - child_time[s.id]
        return dict(out)

    def export(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "unit": s.unit}
            for s in self.spans
        ]


# --------------------------------------------------------------------- #
# per-layer counters, computed from argument shapes at the call boundary
# --------------------------------------------------------------------- #
def _hermitian_counts(tracer: Tracer, args, kwargs, out) -> None:
    r, theta = args[0], args[1]
    start = args[3] if len(args) > 3 else kwargs.get("row_start", 0)
    stop = args[4] if len(args) > 4 else kwargs.get("row_stop")
    stop = r.shape[0] if stop is None else stop
    nnz = int(r.indptr[stop] - r.indptr[start])
    rows = stop - start
    f = theta.shape[1]
    tracer.count("hermitian.calls")
    tracer.count("hermitian.nnz", nnz)
    # A_u += θθᵀ and B_u += r·θ per rating: 2f² + 2f flops.
    tracer.count("hermitian.flops_computed", 2 * nnz * f * f + 2 * nnz * f)
    # Read one θ row, a column id and a value per rating; write A and B.
    tracer.count("hermitian.bytes_computed", nnz * (8 * f + 4 + 8) + rows * 8 * (f * f + f))


def _solve_counts(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("solve.calls")
    tracer.count("solve.systems", out.shape[0])


def _schedule_counts(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("schedule.calls")


def _reduce_counts(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("reduce.calls")
    tracer.count("reduce.bytes_computed", sum(p.nbytes for p in args[0]))


def _perfmodel_counts(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("perfmodel.calls")


def _rate_counts(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("service.rate.calls")
    tracer.count("service.rate.errors", out.status == "error")


def _publish_counts(tracer: Tracer, args, kwargs, out) -> None:
    x, theta = args[1], args[2]
    tracer.count("registry.bytes", 8 * (x.size + theta.size))


def _store_before(args, kwargs) -> float:
    return args[0].stats.simulated_seconds


def _store_counts(tracer: Tracer, args, kwargs, out, before: float) -> None:
    store, users = args[0], args[1]
    n = len(users)
    tracer.count("store.batches")
    tracer.count("store.queries", n)
    tracer.count("store.sim_service_s", store.stats.simulated_seconds - before)
    tracer.count("store.score_bytes_computed", n * store.n_items * store.score_dtype(0).itemsize)


# (module, attribute path, span name, counter, pre-call probe)
_SITES = [
    ("repro.datasets", "generate_ratings", "datasets.generate", None, None),
    ("repro.core.als_su", "compute_hermitians", "hermitian", _hermitian_counts, None),
    ("repro.core.als_mo", "compute_hermitians", "hermitian", _hermitian_counts, None),
    ("repro.serving.foldin", "compute_hermitians", "hermitian", _hermitian_counts, None),
    ("repro.core.als_su", "batch_solve", "solve", _solve_counts, None),
    ("repro.core.als_mo", "batch_solve", "solve", _solve_counts, None),
    ("repro.serving.foldin", "batch_solve", "solve", _solve_counts, None),
    ("repro.core.als_su", "execute_graph", "schedule", _schedule_counts, None),
    ("repro.core.als_mo", "execute_graph", "schedule", _schedule_counts, None),
    ("repro.core.als_su", "numeric_reduce", "reduce", _reduce_counts, None),
    ("repro.core.trainer", "CuMF.fit", "fit", None, None),
    ("repro.core.perfmodel", "su_als_iteration_time", "perfmodel", _perfmodel_counts, None),
    ("repro.core.perfmodel", "mo_als_iteration_time", "perfmodel", _perfmodel_counts, None),
    ("repro.serving.store", "FactorStore.recommend_batch", "store", _store_counts, _store_before),
    ("repro.serving.simulator", "RequestSimulator.run", "simulator", None, None),
    ("repro.serving.service.facade", "RecommenderService.rate", "service.rate", _rate_counts, None),
    ("repro.serving.service.facade", "RecommenderService.refresh", "refresh", None, None),
    ("repro.serving.lifecycle.registry", "SnapshotRegistry.publish", "registry.publish", _publish_counts, None),
]


def _wrap(tracer: Tracer, fn, name: str, counter, probe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = probe(args, kwargs) if probe is not None else None
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if counter is not None:
            if probe is not None:
                counter(tracer, args, kwargs, out, before)
            else:
                counter(tracer, args, kwargs, out)
        return out

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the ``with`` block."""
    installed = []
    try:
        for module_name, path, name, counter, probe in _SITES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, original, name, counter, probe))
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
