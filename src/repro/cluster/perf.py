"""Per-iteration / per-epoch time models for the distributed baselines.

Each function returns the wall-clock seconds one pass over the data takes
on a given :class:`~repro.cluster.nodes.ClusterSpec`, derived from the
data movement the respective system performs:

* **distributed ALS** (Spark MLlib style, §2.2 / §6.2): every partition of
  X needs the θ_v columns its rows reference, which are shuffled over the
  network each iteration; compute is the same Hermitian + solve work cuMF
  does.
* **distributed SGD** (libMF / NOMAD style): compute-light but bound by
  random factor-matrix accesses in memory; NOMAD additionally circulates
  every item column across all nodes once per epoch.
* **parameter-server SGD** (Factorbird): workers pull/push the factors they
  touch over the network, softened by a cache hit rate.
* **rotation ALS** (Facebook/Giraph): like distributed ALS but Θ partitions
  rotate across workers, so the whole factor matrix crosses the network
  once per iteration.

These are deliberately coarse first-principles models; the paper's own
baseline numbers are wall-clock measurements on clusters this reproduction
cannot access.
"""

from __future__ import annotations

from repro.cluster.nodes import ClusterSpec
from repro.datasets.registry import DatasetSpec
from repro.perf.analytical import als_iteration_cost

__all__ = [
    "distributed_als_iteration_time",
    "distributed_sgd_epoch_time",
    "parameter_server_epoch_time",
    "rotation_als_iteration_time",
]

FLOAT_BYTES = 4


def _als_compute_seconds(dataset: DatasetSpec, cluster: ClusterSpec, f: int | None = None) -> float:
    """Compute-only time of one ALS iteration spread over the cluster."""
    f = f or dataset.f
    cost = als_iteration_cost(dataset.m, dataset.n, dataset.nz, f)
    flops = cost.flops()
    # ALS's Hermitian assembly streams Θ gathers from memory: Nz·f floats per pass.
    stream_bytes = 2.0 * dataset.nz * f * FLOAT_BYTES
    return max(flops / (cluster.effective_gflops * 1e9), stream_bytes / cluster.aggregate_memory_bw)


def distributed_als_iteration_time(
    dataset: DatasetSpec,
    cluster: ClusterSpec,
    f: int | None = None,
    dedup_factor: float = 0.7,
    serialization_factor: float = 4.0,
    software_efficiency: float = 0.05,
    per_task_overhead_s: float = 5.0,
) -> float:
    """One iteration of partition-and-ship ALS (SparkALS, MLlib 1.1 era).

    The shuffle ships, for every rating, the θ_v column its X partition
    needs; ``dedup_factor`` is the fraction that survives per-partition
    de-duplication (SparkALS's improvement over PALS, §2.2), and
    ``serialization_factor`` the JVM serialisation overhead on the wire.
    (MLlib 1.1 shipped boxed doubles, hence a 4x wire blow-up).
    ``software_efficiency`` derates the raw flop rate to what the
    JVM/Scala inner loops achieved in that era; ``per_task_overhead_s`` is
    the fixed Spark stage-scheduling cost.
    """
    f = f or dataset.f
    compute = _als_compute_seconds(dataset, cluster, f) / software_efficiency
    shuffle_bytes = (dedup_factor * dataset.nz + dataset.m + dataset.n) * f * FLOAT_BYTES
    network = serialization_factor * shuffle_bytes / cluster.bisection_bw
    return compute + network + per_task_overhead_s


def distributed_sgd_epoch_time(
    dataset: DatasetSpec,
    cluster: ClusterSpec,
    f: int | None = None,
    flops_per_sample_per_f: float = 8.0,
    rotations: int | None = None,
) -> float:
    """One epoch of block-partitioned SGD (libMF on one node, NOMAD on many).

    Per rating the update of eq. (4) touches ``x_u`` and ``θ_v`` (read and
    write), which for matrices larger than cache are random DRAM accesses;
    NOMAD additionally sends every column block to every node once per
    epoch (``rotations`` defaults to the node count).
    """
    f = f or dataset.f
    flops = dataset.nz * flops_per_sample_per_f * f
    compute = flops / (cluster.effective_gflops * 1e9)
    touched_bytes = dataset.nz * 4.0 * f * FLOAT_BYTES  # read+write of both factor rows
    memory = touched_bytes / cluster.aggregate_random_bw
    rotations = cluster.nodes if rotations is None else rotations
    network = 0.0
    if cluster.nodes > 1:
        network = (dataset.n * f * FLOAT_BYTES * rotations) / cluster.bisection_bw
    return max(compute, memory) + network


def parameter_server_epoch_time(
    dataset: DatasetSpec,
    cluster: ClusterSpec,
    f: int | None = None,
    cache_hit_rate: float = 0.5,
) -> float:
    """One epoch of parameter-server SGD (Factorbird).

    Every rating requires pulling and pushing the touched factor rows from
    the servers unless the worker's cache already holds them.
    """
    if not 0.0 <= cache_hit_rate < 1.0:
        raise ValueError("cache_hit_rate must be in [0, 1)")
    f = f or dataset.f
    local = distributed_sgd_epoch_time(dataset, cluster, f, rotations=0)
    ps_bytes = dataset.nz * (1.0 - cache_hit_rate) * 2.0 * f * FLOAT_BYTES * 2.0  # pull + push of x_u and θ_v
    network = ps_bytes / cluster.bisection_bw
    return max(local, network)


def rotation_als_iteration_time(
    dataset: DatasetSpec,
    cluster: ClusterSpec,
    f: int | None = None,
    per_superstep_overhead_s: float = 5.0,
) -> float:
    """One iteration of rotation-based ALS (Facebook's Giraph approach).

    Θ is partitioned and rotated across all workers, so the full factor
    matrix crosses the network ``nodes`` times per iteration (each worker
    must see every partition); Giraph supersteps add a fixed overhead.
    """
    f = f or dataset.f
    compute = _als_compute_seconds(dataset, cluster, f)
    rotation_bytes = dataset.n * f * FLOAT_BYTES * cluster.nodes
    network = rotation_bytes / cluster.bisection_bw
    return compute + network + per_superstep_overhead_s * cluster.nodes
