"""Full-scale iteration-time model for the cuMF solvers.

The convergence experiments factorize *scaled-down* synthetic matrices
(numerics are real), but the time axis of the paper's figures is wall-clock
on the *full-scale* datasets.  This module describes a full-scale
:class:`~repro.datasets.registry.DatasetSpec` as a uniform-density
:class:`~repro.sparse.shape.RatingsShape` and executes the solvers' own
shape-only update graphs (``build_update_graph(shape, None, ...)``) under
the ``serial`` scheduler — the same launch/transfer description the
trained solvers run, minus the numerics.  The experiment drivers combine
both: RMSE trajectory from the scaled run, seconds-per-iteration from
this model.

Clamped plans reach thousands of batches per pass, so a pass executes in
runs of at most :data:`RUN_BATCHES` batches, the scatter/broadcast of the
fixed factor only in the first.  Serial waves never span batches, so the
clock and its breakdown are the same as for the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.als_mo import MemoryOptimizedALS
from repro.core.als_su import ScaleUpALS
from repro.core.config import ALSConfig
from repro.core.schedule import execute_graph
from repro.core.taskgraph import TaskGraph
from repro.datasets.registry import DatasetSpec
from repro.gpu.specs import TITAN_X, DeviceSpec
from repro.sparse.shape import RatingsShape

__all__ = ["IterationTime", "iteration_graphs", "mo_als_iteration_time", "su_als_iteration_time"]

#: Batches per executed graph; bounds the model's memory on clamped plans.
RUN_BATCHES = 64


@dataclass
class IterationTime:
    """Per-iteration simulated time and its phase breakdown."""

    seconds: float
    breakdown: dict = field(default_factory=dict)
    p: int = 1
    q_x: int = 1
    q_theta: int = 1


def iteration_graphs(solver: MemoryOptimizedALS | ScaleUpALS, dataset: DatasetSpec) -> Iterator[TaskGraph]:
    """One shape-only iteration on ``dataset``: both passes, :data:`RUN_BATCHES` batches per graph."""
    shape = RatingsShape.of(dataset)
    for r, label in ((shape, "x"), (shape.transpose(), "theta")):
        q = solver.plan_batches(r)
        for start in range(0, q, RUN_BATCHES):
            graph, _ = solver.build_update_graph(r, None, label, batches=range(start, min(start + RUN_BATCHES, q)))
            yield graph


def _iteration_time(solver: MemoryOptimizedALS | ScaleUpALS, dataset: DatasetSpec) -> IterationTime:
    machine = solver.machine
    for graph in iteration_graphs(solver, dataset):
        execute_graph(graph, machine, "serial")
    shape = RatingsShape.of(dataset)
    q_x, q_theta = solver.plan_batches(shape), solver.plan_batches(shape.transpose())
    return IterationTime(machine.elapsed_seconds(), machine.clock.breakdown(), p=machine.n_gpus, q_x=q_x, q_theta=q_theta)


def mo_als_iteration_time(
    dataset: DatasetSpec,
    config: ALSConfig | None = None,
    spec: DeviceSpec = TITAN_X,
) -> IterationTime:
    """Simulated seconds of one full MO-ALS iteration on ``dataset``.

    ``config`` defaults to the dataset's own ``f``/λ with all memory
    optimisations enabled.
    """
    config = config or ALSConfig(f=dataset.f, lam=dataset.lam, iterations=1)
    return _iteration_time(MemoryOptimizedALS(config, spec=spec), dataset)


def su_als_iteration_time(
    dataset: DatasetSpec,
    n_gpus: int = 4,
    config: ALSConfig | None = None,
    spec: DeviceSpec = TITAN_X,
) -> IterationTime:
    """Simulated seconds of one full SU-ALS iteration on ``dataset``.

    Each of the two passes independently picks model parallelism (fixed
    factor replicated, no reduction) or data parallelism (grid partition +
    reduction), exactly like :class:`~repro.core.als_su.ScaleUpALS` —
    because it *is* that solver's graph.
    """
    config = config or ALSConfig(f=dataset.f, lam=dataset.lam, iterations=1)
    return _iteration_time(ScaleUpALS(config, n_gpus=n_gpus, spec=spec), dataset)
