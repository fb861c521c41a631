#!/usr/bin/env python
"""Serving quickstart: train -> export -> serve -> fold in a cold user.

Trains MO-ALS on a synthetic Netflix-shaped workload, snapshots the
factors into a :class:`FactorStore` sharded over four simulated GPUs,
answers a batch of top-k queries, folds in a user who arrived after
training, and finally replays Poisson and bursty query traffic through
the store to show the throughput/latency effect of the batching window.

Run:  python examples/serving_quickstart.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core import ALSConfig, CuMF
from repro.datasets import NETFLIX, generate_ratings
from repro.serving import FactorStore, QueryTrace, RequestSimulator, ServingCluster


def main() -> None:
    # 1. Train (the paper's half of the system).
    spec = NETFLIX.scaled(max_rows=2000, f=16)
    data = generate_ratings(spec, seed=0, noise_sigma=0.3)
    model = CuMF(ALSConfig(f=16, lam=0.05, iterations=8, seed=1), backend="mo")
    result = model.fit(data.train, data.test)
    print(f"trained: test RMSE {result.final_test_rmse:.4f} "
          f"in {result.total_seconds:.2f} simulated s")

    # 2. Snapshot the factors into a store sharded over 4 simulated GPUs.
    #    (This drives the store layer directly; the unified front door is
    #    model.serve(ServingConfig(...)) -- see examples/service_api.py.)
    store = FactorStore.from_result(model.result, n_shards=4)
    print(f"exported: {store}")

    # 3. Serve a batch of queries.
    users = np.arange(8)
    for user, recs in zip(users, store.recommend_batch(users, k=3, exclude=data.train)):
        items = ", ".join(f"item {i} ({s:.2f})" for i, s in recs)
        print(f"  user {user}: {items}")

    # 4. A user who arrived after training: fold them in against frozen Θ.
    rng = np.random.default_rng(42)
    liked = rng.choice(store.n_items, size=12, replace=False)
    ratings = rng.uniform(3.5, 5.0, size=liked.size)
    newcomer = store.fold_in(liked, ratings)
    recs = store.recommend(newcomer, k=3, exclude=data.train)
    print(f"folded-in user {newcomer}: " + ", ".join(f"item {i} ({s:.2f})" for i, s in recs))

    # 5. Replay query traffic through the store in batched windows; a
    #    lone store is served as a one-replica cluster.
    backend = ServingCluster([store])
    for trace in (
        QueryTrace.poisson(4000, 50_000.0, store.n_users, seed=7),
        QueryTrace.bursty(4000, 20_000.0, 200_000.0, store.n_users,
                          burst_every_s=0.05, burst_len_s=0.01, seed=7),
    ):
        sim = RequestSimulator(backend, k=10, exclude=data.train,
                               max_batch=256, window_s=0.002)
        print()
        print(sim.run(trace).summary())

    print(f"\nstore counters: {store.stats.as_dict()}")


if __name__ == "__main__":
    main()
