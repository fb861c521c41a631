"""Observability zero-cost pins: identical numbers off, <5% wall when on.

The observability layer is threaded through the training session, the
graph executor, the serving facade and the replay loops — hot paths
that prior PRs pinned byte-identical across refactors.  Three pins keep
it honest:

* with observability *disabled* (the default), training factors and
  every simulated :class:`TrafficReport` aggregate are byte-identical
  to an observed run — the hooks add zero simulated work and never
  perturb the numerics;
* the wall-clock cost of running *fully enabled* (registry + tracer +
  per-batch spans + report publishing) stays under 5% over the disabled
  path on a replay workload.  The disabled path does strictly less than
  the enabled one, so this bound also caps what the dormant hooks can
  cost over the pre-observability code.
"""

import time

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import ALSConfig, FitResult
from repro.core.trainer import CuMF
from repro.datasets.registry import DatasetSpec
from repro.datasets.synthetic import generate_ratings
from repro.serving import FactorStore, RecommenderService, ServingCluster
from repro.serving.simulator import QueryTrace

M_USERS = 4_000
N_ITEMS = 12_000
F = 32
N_REQUESTS = 400
RATE_QPS = 2_000.0
ROUNDS = 7
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def result():
    rng = np.random.default_rng(17)
    return FitResult(
        x=rng.random((M_USERS, F)),
        theta=rng.random((N_ITEMS, F)),
        solver="bench-random",
    )


@pytest.fixture(scope="module")
def trace():
    return QueryTrace.poisson(
        n_requests=N_REQUESTS, rate_qps=RATE_QPS, n_users=M_USERS, seed=23
    )


def fresh_service(result) -> RecommenderService:
    return RecommenderService(ServingCluster([FactorStore.from_result(result, n_shards=4)]))


def report_key(report) -> tuple:
    """Every deterministic aggregate of a TrafficReport (wall time excluded)."""
    return (
        report.n_requests,
        report.n_batches,
        report.mean_batch_size,
        report.makespan_s,
        report.throughput_qps,
        report.service_seconds,
        report.latency_p50_s,
        report.latency_p95_s,
        report.latency_max_s,
        report.per_replica_queries,
        report.per_replica_busy_s,
        report.per_replica_utilization,
        report.n_dropped,
    )


def test_training_factors_identical_with_observability_on(report):
    """Pin: the instrumented session/scheduler never touches the numerics."""
    spec = DatasetSpec("bench-obs", 200, 80, 3000, 8, 0.05, kind="synthetic")
    ratings = generate_ratings(spec, seed=31, noise_sigma=0.2)

    config = ALSConfig(f=8, iterations=2, seed=31)

    def run():
        model = CuMF(config, backend="su", n_gpus=2, scheduler="eager")
        return model.fit(ratings.train)

    plain = run()
    with obs.observed() as (registry, tracer):
        watched = run()
        n_spans = len(tracer.spans)
        n_series = len(registry)
    assert np.array_equal(plain.x, watched.x)
    assert np.array_equal(plain.theta, watched.theta)
    assert n_spans > 0 and n_series > 0  # it really was recording
    report(
        "observability off == on (training factors)",
        "factors bitwise identical across %d iterations; observed run recorded "
        "%d spans and %d metric series" % (len(plain.history), n_spans, n_series),
    )


def test_traffic_report_identical_with_observability_on(result, trace, report):
    """Pin: replay aggregates are byte-identical, observed or not."""
    plain = fresh_service(result).simulate(trace)
    with obs.observed():
        watched = fresh_service(result).simulate(trace)
    assert report_key(plain) == report_key(watched)
    report(
        "observability off == on (TrafficReport)",
        "all %d aggregate fields identical; p95 %.4f ms over %d requests"
        % (len(report_key(plain)), plain.latency_p95_s * 1e3, plain.n_requests),
    )


def test_enabled_overhead_under_5_percent(result, trace, report):
    """Acceptance pin: full instrumentation costs <5% wall on the replay path."""
    # Warm both paths, then interleave the timed rounds so drift hits
    # them equally; compare best-of-rounds (the simulated work is
    # deterministic and identical by the pin above).
    fresh_service(result).simulate(trace)
    with obs.observed():
        fresh_service(result).simulate(trace)

    wall_off = wall_on = float("inf")
    for _ in range(ROUNDS):
        service = fresh_service(result)
        wall0 = time.perf_counter()
        service.simulate(trace)
        wall_off = min(wall_off, time.perf_counter() - wall0)

        service = fresh_service(result)
        with obs.observed():
            wall0 = time.perf_counter()
            service.simulate(trace)
            wall_on = min(wall_on, time.perf_counter() - wall0)

    overhead = wall_on / wall_off - 1.0
    report(
        "observability wall overhead, %d requests @ %.0f qps" % (N_REQUESTS, RATE_QPS),
        "disabled: %8.3f ms/replay\nenabled:  %8.3f ms/replay\noverhead: %+7.2f%%"
        % (wall_off * 1e3, wall_on * 1e3, overhead * 100.0),
    )
    assert overhead < MAX_OVERHEAD, (
        f"observability costs {overhead:.1%} wall over the disabled path "
        f"(threshold {MAX_OVERHEAD:.0%})"
    )
