"""The benchmark's three workloads, driven through the program's public API.

Each workload has a ``setup`` (inputs generated from the seed, any set-up
fit, the service build and the offered-load probe), a timed ``step`` and
the output checks.  A step returns a :class:`Step`: its host wall time,
how many operations it attempted and how many failed, the simulated
figures it produced and the report-derived per-layer values.

Every replay runs on a freshly built backend, so the simulated clock
history of an earlier replay cannot leak into a later one and repeated
steps reproduce their simulated figures exactly — which ``check_repeat``
asserts.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro.core.perfmodel as perfmodel
import repro.datasets as datasets
from repro.core import ALSConfig, CuMF
from repro.datasets.registry import DATASETS, HUGEWIKI, DatasetSpec
from repro.serving import CacheConfig, QueryTrace, ServingConfig, TenantPolicy

__all__ = ["CheckFailed", "Step", "WORKLOADS", "Workload", "check_repeat"]

LAM = 0.05
TOPK = 10
MAX_BATCH = 256
REPLICAS = 2
# Offered load as a share of the capacity probed on the same deployment.
LOAD_FRACTION = 0.8


class CheckFailed(RuntimeError):
    """An output of the program failed one of the benchmark's checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Step:
    """Outcome of one timed step."""

    wall_s: float
    attempted: int
    failed: int
    # Simulated figures and host sub-timings, by detail-metric name.
    values: dict = field(default_factory=dict)
    # Report-derived per-layer values, by per-layer metric name.
    layers: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _spec(name: str, size: dict) -> DatasetSpec:
    return DatasetSpec(name, size["m"], size["n"], size["nnz"], size["f"], LAM, kind="synthetic")


def _fit(data, size: dict):
    model = CuMF(ALSConfig(f=size["f"], lam=LAM, iterations=size["iterations"], seed=0), backend="su", n_gpus=4)
    return model, model.fit(data.train, data.test)


def _gpu_layers(result) -> dict:
    return {f"gpu.sim.{key}_s": result.breakdown.get(key, 0.0) for key in ("h2d", "kernels", "scatter", "gather")}


def _routing_layers(report) -> dict:
    queries = np.asarray(report.per_replica_queries, dtype=np.float64)
    return {
        "routing.imbalance": float(queries.max() / queries.mean()),
        "routing.max_utilization": float(max(report.per_replica_utilization)),
        "simulator.mean_batch": report.mean_batch_size,
    }


def _failures(report) -> int:
    return report.n_shed + report.n_dropped


def check_repeat(first: Step, step: Step, keys) -> None:
    """A fixed seed on a fresh backend reproduces every simulated figure."""
    for key in keys:
        require(step.values[key] == first.values[key], f"{key} changed between steps: {first.values[key]!r} -> {step.values[key]!r}")


class Workload:
    """One named workload.

    Subclasses set ``name``, ``sizes``, ``repeat_keys`` (simulated figures
    every step must reproduce) and ``reference`` (the kind of fixed
    computation, see ``run.Reference``, whose wall time ``step_cost`` is
    expressed in).

    ``workdir`` is scratch space inside the checkout, removed by ``close``.
    """

    name: str
    sizes: dict
    repeat_keys: tuple
    reference = "topk"

    def __init__(self, scale: str, workdir: Path):
        self.scale = scale
        self.size = self.sizes[scale]
        self.workdir = workdir

    def final_check(self, state) -> None:
        """Checks on the set-up state once the steps are done."""

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# --------------------------------------------------------------------- #
# train-su4
# --------------------------------------------------------------------- #
class TrainSU4(Workload):
    """Full ALS passes: SU-ALS on 4 simulated GPUs, then the paper models."""

    name = "train-su4"
    sizes = {
        "full": {"m": 1000, "n": 1500, "nnz": 30_000, "f": 32, "iterations": 3},
        "smoke": {"m": 120, "n": 160, "nnz": 4_000, "f": 4, "iterations": 3},
    }
    repeat_keys = ("fit_sim_s", "test_rmse")
    reference = "hermitian"

    def setup(self, seed: int):
        data = datasets.generate_ratings(_spec(self.name, self.size), seed=seed)
        return data, {}

    def step(self, data, rep: int) -> Step:
        (model, result), wall = _timed(_fit, data, self.size)
        rmse = [h.test_rmse for h in result.history]
        require(len(rmse) == self.size["iterations"], f"expected {self.size['iterations']} iterations, got {len(rmse)}")
        require(all(b < a for a, b in zip(rmse, rmse[1:])), f"test RMSE did not decrease: {rmse}")
        require(np.isfinite(result.x).all() and np.isfinite(result.theta).all(), "non-finite factors")
        return Step(
            wall_s=wall,
            attempted=1,
            failed=0,
            values={"fit_wall_s": wall, "fit_sim_s": result.total_seconds, "test_rmse": result.final_test_rmse},
            layers=_gpu_layers(result),
        )

    def headline_sim_ms(self, step: Step) -> float:
        return step.values["fit_sim_s"] * 1e3

    def paper_models(self) -> dict:
        """Table-5 specs x 1/2/4 GPUs on the full-scale iteration models."""
        specs = list(DATASETS.values()) if self.scale == "full" else [DATASETS["Netflix"], HUGEWIKI]
        start = time.perf_counter()
        seconds = {}
        for spec in specs:
            seconds[(spec.name, 1)] = perfmodel.mo_als_iteration_time(spec).seconds
            for gpus in (2, 4):
                seconds[(spec.name, gpus)] = perfmodel.su_als_iteration_time(spec, n_gpus=gpus).seconds
        wall = time.perf_counter() - start
        require(all(np.isfinite(s) and s > 0 for s in seconds.values()), "non-positive paper-model time")
        return {"paper_models_wall_s": wall, "paper_hugewiki_su4_sim_s": seconds[(HUGEWIKI.name, 4)]}


# --------------------------------------------------------------------- #
# serving workloads
# --------------------------------------------------------------------- #
@dataclass
class Deployment:
    data: object
    model: CuMF
    config: ServingConfig
    sim_kwargs: dict
    traces: tuple
    seed: int
    writes: list = field(default_factory=list)


def _probe(service, n_queries: int, n_users: int, seed: int, exponent: float) -> tuple[float, dict]:
    """Capacity of this deployment and the replay settings derived from it.

    A saturating trace keeps every batch full; its per-query service time
    (summed over the units) gives the simulated queries per second all
    units sustain together.  The batching window is two full-batch
    service times of one unit, so windows matter at this time scale.
    """
    probe = QueryTrace.poisson(n_queries, 1e9, n_users, seed=seed, user_exponent=exponent)
    report = service.simulate(probe, k=TOPK, max_batch=MAX_BATCH)
    capacity = REPLICAS * report.n_requests / report.service_seconds
    return capacity, {"k": TOPK, "max_batch": MAX_BATCH, "window_s": 2 * MAX_BATCH * REPLICAS / capacity}


class ServeReplay(Workload):
    """Open-loop Poisson replay on 2 replicas x 2 shards, fast replay loop."""

    name = "serve-replay"
    sizes = {
        "full": {"m": 2000, "n": 4000, "nnz": 30_000, "f": 32, "iterations": 2, "queries": 8_000, "probe": 2_000, "sample": 200},
        "smoke": {"m": 150, "n": 300, "nnz": 1_500, "f": 8, "iterations": 2, "queries": 400, "probe": 200, "sample": 20},
    }
    user_exponent = 0.8
    repeat_keys = ("sim_p50_ms", "sim_p95_ms", "sim_service_s")

    def setup(self, seed: int):
        size = self.size
        data = datasets.generate_ratings(_spec(self.name, size), seed=seed)
        model, result = _fit(data, size)
        config = ServingConfig(replicas=REPLICAS, n_shards=2, router="least-loaded", log=False, ratings=data.train)
        capacity, sim_kwargs = _probe(model.serve(config), size["probe"], size["m"], seed + 7, self.user_exponent)
        trace = QueryTrace.poisson(size["queries"], LOAD_FRACTION * capacity, size["m"], seed=seed + 11, user_exponent=self.user_exponent)
        return Deployment(data, model, config, sim_kwargs, (trace,), seed), _gpu_layers(result)

    def step(self, dep: Deployment, rep: int) -> Step:
        (trace,) = dep.traces
        service = dep.model.serve(dep.config)
        report, wall = _timed(service.simulate, trace, **dep.sim_kwargs)
        require(report.n_dropped == 0, f"{report.n_dropped} queries dropped")
        require(sum(report.per_replica_queries) == trace.n_requests, "per-replica query counts do not sum to the trace")
        require(not report.cache, "serve-replay has no cache, yet the report carries cache counters")
        failed = _failures(report)
        return Step(
            wall_s=wall,
            attempted=trace.n_requests,
            failed=failed,
            values={
                "replay_qps": trace.n_requests / wall,
                "sim_p50_ms": report.latency_p50_s * 1e3,
                "sim_p95_ms": report.latency_p95_s * 1e3,
                "sim_service_s": report.service_seconds,
                "failed_share": failed / trace.n_requests,
            },
            layers=_routing_layers(report),
        )

    def headline_sim_ms(self, step: Step) -> float:
        return step.values["sim_p95_ms"]

    def final_check(self, dep: Deployment) -> None:
        """Sampled users' top-k against a float64 brute-force X·Θᵀ."""
        rng = np.random.default_rng(dep.seed + 13)
        users = rng.choice(self.size["m"], size=self.size["sample"], replace=False)
        response = dep.model.serve(dep.config).recommend(users, k=TOPK)
        require(response.status == "ok", f"recommend returned {response.status}: {response.error}")
        check_topk(dep.model.result.x, dep.model.result.theta, dep.data.train, users, response.payload)


def check_topk(x, theta, seen, users, answers, tol: float = 1e-5) -> None:
    """Top-k ids equal the float64 reference (up to float32 near-ties), scores to ``tol``."""
    for user, answer in zip(users, answers):
        scores = theta @ x[user]
        scores[seen.row(int(user))[0]] = -np.inf
        ids = np.array([item for item, _ in answer], dtype=np.int64)
        got = np.array([score for _, score in answer])
        require(ids.size == TOPK, f"user {user}: {ids.size} answers, expected {TOPK}")
        require(np.all(np.isfinite(scores[ids])), f"user {user}: an excluded item was recommended")
        require(np.allclose(got, scores[ids], rtol=0.0, atol=tol), f"user {user}: scores differ from float64 by > {tol}")
        ref = np.sort(scores)[::-1][:TOPK]
        # A float32 near-tie may swap neighbours; the true score at every
        # rank must still match the reference ranking.
        require(np.allclose(scores[ids], ref, rtol=0.0, atol=tol), f"user {user}: top-{TOPK} ids differ from float64 brute force")


class LifecycleMixed(Workload):
    """Tiered cache, two tenants, rate() writes, refresh and a rolling swap."""

    name = "lifecycle-mixed"
    sizes = {
        "full": {"m": 2000, "n": 4000, "nnz": 30_000, "f": 32, "iterations": 2, "queries": 3_000, "probe": 2_000, "writers": 300, "items_per_write": 3},
        "smoke": {"m": 150, "n": 300, "nnz": 1_500, "f": 8, "iterations": 2, "queries": 300, "probe": 200, "writers": 20, "items_per_write": 2},
    }
    user_exponent = 1.1
    # Interactive and bulk tenants split the offered load; the bulk
    # tenant's cap sits below its offered rate, so part of its traffic is
    # served degraded (reduced k) rather than shed.
    tenant_share = {"interactive": 0.45, "bulk": 0.55}
    bulk_cap_share = 0.4
    repeat_keys = ("sim_p50_ms", "sim_p95_ms", "rollout_window_p95_ms", "sim_service_s")

    def _policies(self, capacity: float) -> list:
        return [
            # Deadline: twenty full-batch service times of one unit.
            TenantPolicy("interactive", weight=3.0, priority=1, deadline_ms=1e3 * 20 * MAX_BATCH * REPLICAS / capacity),
            TenantPolicy("bulk", weight=1.0, rate_cap_qps=self.bulk_cap_share * LOAD_FRACTION * capacity, burst=64, degrade_k=5),
        ]

    def setup(self, seed: int):
        size = self.size
        data = datasets.generate_ratings(_spec(self.name, size), seed=seed)
        model, result = _fit(data, size)
        # The hot tier holds a twentieth of the item pages, well below the
        # working set, and the warm tier half the factor bytes.  A replay
        # lasts about 3 ms simulated: the planner gets ~100 windows and
        # heat decays over a sixth of the trace.
        cache = CacheConfig(
            hot_fraction=0.05, page_items=64, warm_bytes=size["n"] * size["f"] * 2, plan_window_s=2e-5, half_life_s=5e-4
        )
        base = ServingConfig(replicas=REPLICAS, n_shards=2, router="least-loaded", ratings=data.train, cache=cache)
        capacity, sim_kwargs = _probe(model.serve(base), size["probe"], size["m"], seed + 7, self.user_exponent)
        config = replace(base, tenants=self._policies(capacity))
        rates = {name: share * LOAD_FRACTION * capacity for name, share in self.tenant_share.items()}
        duration = size["queries"] / (LOAD_FRACTION * capacity)
        reads = QueryTrace.multi_tenant(rates, duration, size["m"], seed=seed + 11, user_exponent=self.user_exponent)
        swap = QueryTrace.multi_tenant(rates, duration, size["m"], seed=seed + 17, user_exponent=self.user_exponent)
        writes = self._writes(data.train, seed + 19)
        return Deployment(data, model, config, sim_kwargs, (reads, swap), seed, writes), _gpu_layers(result)

    def _writes(self, train, seed: int) -> list:
        """Ratings from known users on existing items they have not rated."""
        rng = np.random.default_rng(seed)
        size = self.size
        writes = []
        for user in rng.choice(size["m"], size=size["writers"], replace=False):
            unseen = np.setdiff1d(np.arange(size["n"]), train.row(int(user))[0])
            items = rng.choice(unseen, size=size["items_per_write"], replace=False)
            writes.append((int(user), items, rng.uniform(1.0, 5.0, size=items.size)))
        return writes

    def step(self, dep: Deployment, rep: int) -> Step:
        reads, swap = dep.traces
        registry_dir = self.workdir / f"cycle-{dep.seed}-{rep}"
        service = dep.model.serve(replace(dep.config, registry_dir=str(registry_dir)))
        start = time.perf_counter()
        first, read_wall = _timed(service.simulate, reads, **dep.sim_kwargs)
        responses = [service.rate(user, items, ratings) for user, items, ratings in dep.writes]
        refreshed, refresh_wall = _timed(service.refresh, tag="perfbench")
        events = service.plan_rollout(start_s=0.25 * swap.duration, step_s=0.25 * swap.duration)
        second, swap_wall = _timed(service.simulate, swap, events, **dep.sim_kwargs)
        wall = time.perf_counter() - start

        errors = sum(r.status == "error" for r in responses)
        require(errors == 0, f"{errors} rate() calls returned errors")
        for report in (first, second):
            require(report.n_dropped == 0, f"{report.n_dropped} queries dropped")
            require(report.cache.get("stale_hits", -1) == 0, f"stale cache hits: {report.cache.get('stale_hits')}")
            require(sum(report.per_replica_queries) + report.n_shed == report.n_requests, "per-replica query counts do not sum to the trace")
        target = f"v{service.registry.latest_version()}"
        require(target == "v1" and service.versions() == [target] * REPLICAS, f"units serve {service.versions()} after the rollout to {target}")
        self._check_refresh(dep, service, refreshed)
        shutil.rmtree(registry_dir, ignore_errors=True)

        n_queries = reads.n_requests + swap.n_requests
        failed = errors + _failures(first) + _failures(second)
        attempted = n_queries + len(responses) + 1
        tenants = list(first.per_tenant.values()) + list(second.per_tenant.values())
        layers = _routing_layers(first)
        for key in ("hits", "misses", "promotions", "waves", "stale_hits"):
            layers[f"cache.{key}"] = first.cache[key] + second.cache[key]
        hits, misses = layers["cache.hits"], layers["cache.misses"]
        layers["cache.hit_rate"] = hits / (hits + misses)
        layers["tenancy.shed"] = first.n_shed + second.n_shed
        layers["tenancy.degraded"] = first.n_degraded + second.n_degraded
        layers["tenancy.slo_violations"] = sum(t.n_slo_violations for t in tenants)
        layers["refresh.rows"] = refreshed.affected_users.size
        layers["rollout.events"] = len(events)
        layers["rollout.dropped"] = second.n_dropped
        return Step(
            wall_s=wall,
            attempted=attempted,
            failed=failed,
            values={
                "replay_qps": n_queries / (read_wall + swap_wall),
                "refresh_wall_s": refresh_wall,
                "sim_p50_ms": first.latency_p50_s * 1e3,
                "sim_p95_ms": first.latency_p95_s * 1e3,
                "rollout_window_p95_ms": second.window_p95_s * 1e3,
                "sim_service_s": first.service_seconds + second.service_seconds,
                "failed_share": failed / attempted,
            },
            layers=layers,
        )

    @staticmethod
    def _check_refresh(dep: Deployment, service, refreshed) -> None:
        """Refreshed rows equal an independent float64 re-solve to 1e-8."""
        theta = dep.model.result.theta
        merged = refreshed.ratings
        f = theta.shape[1]
        unit = service.backend.serving_units()[0]
        require(refreshed.affected_users.size == len(dep.writes), "refresh did not re-solve every rated user")
        for user in refreshed.affected_users:
            cols, vals = merged.row(int(user))
            t = theta[cols]
            reg = unit.lam * cols.size if unit.weighted else unit.lam
            ref = np.linalg.solve(t.T @ t + reg * np.eye(f), t.T @ vals)
            require(np.max(np.abs(refreshed.x[user] - ref)) <= 1e-8, f"refreshed row {user} differs from a full re-solve")

    def headline_sim_ms(self, step: Step) -> float:
        return step.values["sim_p95_ms"]


WORKLOADS = {cls.name: cls for cls in (TrainSU4, ServeReplay, LifecycleMixed)}
