"""Service-facade benchmarks: what the typed envelope costs over the raw store.

The :class:`RecommenderService` data plane wraps every recommend call in
routing, request coercion and a :class:`ServeResponse` — bookkeeping
that must stay invisible next to the scoring GEMM.  Two pins:

* the *simulated* cost per batch is bit-identical on both paths (the
  envelope adds zero simulated work — it is pure host-side
  bookkeeping);
* the *wall-clock* overhead of the envelope path over the raw
  ``FactorStore.recommend_batch`` path stays under 5% at a production
  batch size (the acceptance threshold; locally it is well under 1%).
"""

import time

import numpy as np
import pytest

from repro.core.config import FitResult
from repro.serving import FactorStore, RecommenderService, ServingCluster

M_USERS = 5_000
N_ITEMS = 20_000
F = 32
BATCH = 256
TOPK = 10
N_SHARDS = 4
ROUNDS = 7
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def result():
    rng = np.random.default_rng(7)
    return FitResult(
        x=rng.random((M_USERS, F)),
        theta=rng.random((N_ITEMS, F)),
        solver="bench-random",
    )


@pytest.fixture(scope="module")
def users():
    return np.random.default_rng(11).integers(0, M_USERS, size=BATCH)


@pytest.fixture()
def service(result):
    return RecommenderService(ServingCluster([FactorStore.from_result(result, n_shards=N_SHARDS)]))


def test_bench_service_recommend(benchmark, service, users):
    response = benchmark(service.recommend, users, TOPK)
    assert response.ok and len(response.payload) == BATCH


def test_envelope_matches_raw_payload(result, users):
    """The envelope carries exactly what the raw path returns."""
    raw = FactorStore.from_result(result, n_shards=N_SHARDS)
    service = RecommenderService(ServingCluster([FactorStore.from_result(result, n_shards=N_SHARDS)]))
    response = service.recommend(users, k=TOPK)
    assert response.ok and response.replica == 0
    assert response.payload == raw.recommend_batch(users, k=TOPK)


def test_envelope_overhead_under_5_percent(result, users, report):
    """Acceptance pin: service envelope wall overhead < 5% over the raw store."""
    raw = FactorStore.from_result(result, n_shards=N_SHARDS)
    service = RecommenderService(ServingCluster([FactorStore.from_result(result, n_shards=N_SHARDS)]))

    # Warm both paths (BLAS thread pools, allocator), then interleave the
    # timed rounds so drift hits both paths equally; take the best round
    # of each (the simulated cost is deterministic either way).
    raw.recommend_batch(users, k=TOPK)
    service.recommend(users, k=TOPK)

    wall_raw = wall_service = float("inf")
    sim_raw = sim_service = 0.0
    for _ in range(ROUNDS):
        before = raw.stats.simulated_seconds
        wall0 = time.perf_counter()
        raw.recommend_batch(users, k=TOPK)
        wall_raw = min(wall_raw, time.perf_counter() - wall0)
        sim_raw = raw.stats.simulated_seconds - before

        wall0 = time.perf_counter()
        response = service.recommend(users, k=TOPK)
        wall_service = min(wall_service, time.perf_counter() - wall0)
        sim_service = response.latency_s

    overhead = wall_service / wall_raw - 1.0
    report(
        "service envelope overhead, B=%d users x %d items (f=%d, %d shards)"
        % (BATCH, N_ITEMS, F, N_SHARDS),
        "raw store:  %8.3f ms/batch wall  (%.6f s simulated)\n"
        "service:    %8.3f ms/batch wall  (%.6f s simulated)\n"
        "overhead:   %+7.2f%% wall, simulated delta %.2e s"
        % (
            wall_raw * 1e3,
            sim_raw,
            wall_service * 1e3,
            sim_service,
            overhead * 100.0,
            sim_service - sim_raw,
        ),
    )
    # The envelope adds zero *simulated* work: both paths charge the
    # machine the exact same kernel/transfer estimates.
    assert sim_service == sim_raw
    assert overhead < MAX_OVERHEAD, (
        f"service envelope costs {overhead:.1%} over the raw store path "
        f"(threshold {MAX_OVERHEAD:.0%})"
    )
