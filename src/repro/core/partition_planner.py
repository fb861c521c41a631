"""The eq.-8 partition planner (§4.3, "How to partition?").

One GPU working on batch ``j`` with Θ partition ``i`` must hold

``m·f/q  +  n·f/p  +  |R^(ij)|  +  (m/q)·f²  +  (m/q)·f  +  ε  <  C``

(in single-precision floats), where ``C`` is the device memory capacity
and ``ε`` a headroom allowance (the paper uses 500 MB on a 12 GB card).
The planner searches for the smallest feasible ``(p, q)`` and also
implements the paper's three best practices:

1. if ``p = 1`` satisfies (8) for some ``q``, solve on a single GPU
   (SU-ALS degenerates to MO-ALS);
2. once ``p = 1`` fits, do not grow ``q`` further;
3. otherwise start from ``p`` such that ``n·f/p ≈ C/2`` and pick the
   smallest ``q`` that fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.core.kernels import FLOAT_BYTES

__all__ = ["PartitionPlan", "footprint_floats", "plan_partitions"]

DEFAULT_HEADROOM_BYTES = 500 * 1024 * 1024


@dataclass(frozen=True)
class PartitionPlan:
    """Outcome of the planner for one update pass."""

    p: int
    q: int
    per_gpu_floats: float
    capacity_floats: float
    feasible: bool
    data_parallel: bool

    @property
    def utilisation(self) -> float:
        """Fraction of usable device memory the plan occupies."""
        if self.capacity_floats == 0:
            return float("inf")
        return self.per_gpu_floats / self.capacity_floats

    def describe(self) -> str:
        """One-line human-readable summary."""
        mode = "data+model parallel" if self.data_parallel else ("model parallel" if self.q > 1 else "single pass")
        return (
            f"p={self.p}, q={self.q} ({mode}); "
            f"{self.per_gpu_floats * FLOAT_BYTES / 1e9:.2f} GB per GPU of "
            f"{self.capacity_floats * FLOAT_BYTES / 1e9:.2f} GB usable"
        )


def footprint_floats(m: int, n: int, nz: int, f: int, p: int, q: int) -> float:
    """Left-hand side of eq. (8) without the headroom term, in floats."""
    if min(m, n, f, p, q) <= 0 or nz < 0:
        raise ValueError("all of m, n, f, p, q must be positive and nz non-negative")
    x_part = m * f / q
    theta_part = n * f / p
    r_block = 2.0 * nz / (p * q) + m / q + 1.0
    hermitians = (m / q) * f * f
    rhs = (m / q) * f
    return x_part + theta_part + r_block + hermitians + rhs


@lru_cache(maxsize=256)
def plan_partitions(
    m: int,
    n: int,
    nz: int,
    f: int,
    capacity_bytes: float,
    n_gpus: int = 1,
    headroom_bytes: float = DEFAULT_HEADROOM_BYTES,
    max_q: int = 4096,
    strategy: str = "minimal",
) -> PartitionPlan:
    """Choose ``(p, q)`` for the update-X pass of a problem of this size.

    Parameters
    ----------
    m, n, nz, f:
        Problem dimensions (update-Θ passes call this with m and n swapped).
    capacity_bytes:
        Global-memory capacity of one GPU.
    n_gpus:
        Number of GPUs available; ``p`` never exceeds it.
    headroom_bytes:
        The ε of eq. (8).
    max_q:
        Upper bound on the number of X batches to try.
    strategy:
        ``"minimal"`` returns the smallest feasible ``(p, q)`` trying
        ``p = 1`` first (best practices 1-2); ``"paper"`` starts the search
        at ``p ≈ n·f / (C/2)`` (best practice 3).
    """
    if capacity_bytes <= headroom_bytes:
        raise ValueError("capacity must exceed the headroom allowance")
    capacity_floats = (capacity_bytes - headroom_bytes) / FLOAT_BYTES

    if strategy == "paper":
        p_start = max(1, min(n_gpus, math.ceil((n * f) / (capacity_floats / 2.0))))
    elif strategy == "minimal":
        p_start = 1
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    best: PartitionPlan | None = None
    for p in range(p_start, n_gpus + 1):
        # Θ's partition alone must fit, otherwise no q can help.
        if n * f / p >= capacity_floats:
            continue
        for q in range(1, max_q + 1):
            fp = footprint_floats(m, n, nz, f, p, q)
            if fp < capacity_floats:
                return PartitionPlan(
                    p=p,
                    q=q,
                    per_gpu_floats=fp,
                    capacity_floats=capacity_floats,
                    feasible=True,
                    data_parallel=p > 1,
                )
        # Remember the least-bad plan for diagnostics if nothing fits.
        fp = footprint_floats(m, n, nz, f, p, max_q)
        candidate = PartitionPlan(p, max_q, fp, capacity_floats, False, p > 1)
        if best is None or candidate.per_gpu_floats < best.per_gpu_floats:
            best = candidate

    if best is not None:
        return best
    # Even Θ/p does not fit with every available GPU.
    fp = footprint_floats(m, n, nz, f, max(n_gpus, 1), max_q)
    return PartitionPlan(max(n_gpus, 1), max_q, fp, capacity_floats, False, n_gpus > 1)
