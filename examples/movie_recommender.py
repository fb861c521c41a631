#!/usr/bin/env python
"""A small end-to-end recommender built on the cuMF API.

This is the workload the paper's introduction motivates (collaborative
filtering for e-commerce / streaming): ratings arrive as (user, item,
rating) triplets, are split into train/test, factorized, checkpointed, and
then used to serve top-k recommendations and cold-restart from the
checkpoint — exercising the fault-tolerance path of §4.4.

Run:  python examples/movie_recommender.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core import ALSConfig, CuMF
from repro.datasets import DatasetSpec, generate_ratings, save_ratings_npz, load_ratings_npz, train_test_split


def build_catalogue(n_items: int) -> list[str]:
    genres = ["Action", "Drama", "Comedy", "Sci-Fi", "Documentary", "Horror", "Romance"]
    return [f"{genres[i % len(genres)]} movie #{i}" for i in range(n_items)]


def main() -> None:
    # 1. "Collect" ratings: here a synthetic low-rank + noise generator stands
    # in for the production rating log.
    spec = DatasetSpec("movies", m=3000, n=400, nz=120_000, f=16, lam=0.05, kind="synthetic")
    data = generate_ratings(spec, seed=5, noise_sigma=0.25, test_fraction=0.0)
    ratings = data.train
    catalogue = build_catalogue(spec.n)

    # 2. Persist and reload the rating matrix (the datasets/io path).
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ratings.npz")
        save_ratings_npz(path, ratings)
        ratings = load_ratings_npz(path)
        print(f"loaded {ratings.nnz:,} ratings for {ratings.shape[0]:,} users x {ratings.shape[1]:,} items")

        # 3. Train/test split and training with per-iteration checkpoints.
        train, test = train_test_split(ratings, test_fraction=0.1, seed=1)
        ckpt_dir = os.path.join(tmp, "checkpoints")
        model = CuMF(ALSConfig(f=16, lam=0.05, iterations=8, seed=2), backend="mo", checkpoint_dir=ckpt_dir)
        result = model.fit(train, test)
        print(f"trained: test RMSE {result.final_test_rmse:.4f} in {result.total_seconds:.2f} simulated GPU seconds")
        print(f"checkpoints on disk: {sorted(os.listdir(ckpt_dir))}")

        # 4. Serve recommendations.
        for user in (0, 7, 42):
            recs = model.recommend(user, k=3, exclude=train)
            names = ", ".join(f"{catalogue[i]} ({score:.2f})" for i, score in recs)
            print(f"user {user:>4}: {names}")

        # 5. Simulate a crash: a fresh process restarts from the checkpoint and
        # continues training without losing the learned factors.
        restarted = CuMF(ALSConfig(f=16, lam=0.05, iterations=2, seed=2), backend="mo", checkpoint_dir=ckpt_dir)
        resumed = restarted.fit(train, test, resume=True)
        print(
            f"after restart (+2 iterations): test RMSE {resumed.final_test_rmse:.4f} "
            f"(was {result.final_test_rmse:.4f})"
        )

    # 6. Batch scoring for an offline evaluation job.
    users = np.arange(10)
    items = np.arange(10)
    print("sample predictions:", np.round(model.predict(users, items), 2))


if __name__ == "__main__":
    main()
