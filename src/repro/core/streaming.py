"""Streaming/minibatch ALS: rating chunks processed as arriving waves.

A full ALS iteration wants the whole rating matrix before it updates
anything; a production trainer often *receives* ratings progressively
(log replay, Kafka-style ingestion, backfill).  :class:`StreamingALS`
models that: the training matrix is split into ``n_chunks`` contiguous
row ranges and each solver iteration processes the next chunk as one
task-graph wave —

* the chunk's user rows are solved against the current Θ (a scheduled
  SU-style update pass over just those rows), and
* Θ is re-solved against every row *seen so far*, warm-starting from the
  previous wave's factors,

so the model sharpens as data arrives instead of waiting for the full
matrix.  Rows whose chunk has not arrived yet keep their (warm-started
or random) factors.  After ``n_chunks`` iterations every chunk has
arrived and further waves cycle through the chunks again — behaving like
minibatch refinement passes over the full matrix.

Every wave is built and executed through the same
:class:`~repro.core.taskgraph.TaskGraph` / scheduler machinery as
SU-ALS, so chunk updates get the same simulated-time accounting, trace
export and scheduler choices; registered as ``"streaming-als"`` in the
solver registry, it fits/resumes/early-stops through
:class:`~repro.core.solver.session.TrainingSession` like every other
solver.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.comm.reduction import ReductionScheme
from repro.core.als_base import starting_factors
from repro.core.als_su import ScaleUpALS
from repro.core.config import ALSConfig
from repro.core.solver.protocol import SolverStep
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.specs import TITAN_X, DeviceSpec
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import partition_bounds

__all__ = ["StreamingALS"]


class StreamingALS(ScaleUpALS):
    """Minibatch ALS over rating chunks arriving as task-graph waves.

    Each chunk update is an SU-ALS update pass over a row slice, so this
    solver is a :class:`~repro.core.als_su.ScaleUpALS` that replaces only
    :meth:`iterate`; traces, trace export, the breakdown and ``fit`` are
    SU-ALS's own.
    """

    name = "streaming-als"

    def __init__(
        self,
        config: ALSConfig,
        machine: MultiGPUMachine | None = None,
        n_gpus: int = 1,
        spec: DeviceSpec = TITAN_X,
        reduction: ReductionScheme | None = None,
        scheduler=None,
        n_chunks: int = 4,
        verify: bool = False,
    ):
        if n_chunks < 1:
            raise ValueError("n_chunks must be >= 1")
        super().__init__(config, machine=machine, n_gpus=n_gpus, spec=spec, reduction=reduction, scheduler=scheduler, verify=verify)
        self.n_chunks = n_chunks

    def iterate(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> Iterator[SolverStep]:
        """Yield factors per wave, with simulated seconds attached.

        Wave ``k`` processes chunk ``k % n_chunks``: its X rows are
        solved against the current Θ, then Θ is re-solved against all
        rows seen so far — each as one scheduled task graph,
        warm-starting from the previous wave's factors.
        """
        cfg = self.config
        m, n = train.shape
        x, theta = starting_factors(train, cfg, x0, theta0)
        self.traces = []
        yield SolverStep(x, theta)

        chunks = min(self.n_chunks, m) if m else 1
        bounds = partition_bounds(m, chunks)
        seen_hi = 0
        mark = self.machine.elapsed_seconds()
        for k in range(cfg.iterations):
            chunk = k % chunks
            lo, hi = int(bounds[chunk]), int(bounds[chunk + 1])
            seen_hi = max(seen_hi, hi)
            if hi > lo:
                chunk_rows = train.row_slice(lo, hi)
                x = x.copy()
                x[lo:hi] = self._update_pass(chunk_rows, theta, label="x")
            seen = train.row_slice(0, seen_hi)
            seen_t = seen.to_csc().transpose_csr()
            theta = self._update_pass(seen_t, x[:seen_hi], label="theta")
            elapsed = self.machine.elapsed_seconds()
            yield SolverStep(x, theta, seconds=elapsed - mark)
            mark = elapsed
