"""Micro-benchmarks of the numerical hot paths (wall-clock, pytest-benchmark).

These are not paper artefacts; they track the performance of the
vectorised Hermitian assembly and batched solve that every experiment
rests on, so regressions in the NumPy kernels are caught.
"""

import numpy as np
import pytest

from repro.core.hermitian import batch_solve, compute_hermitians, compute_hermitians_loop, update_factor
from repro.datasets.registry import DatasetSpec
from repro.datasets.synthetic import generate_ratings


@pytest.fixture(scope="module")
def workload():
    spec = DatasetSpec("bench", 3000, 600, 90_000, 16, 0.05, kind="synthetic")
    return generate_ratings(spec, seed=0)


@pytest.fixture(scope="module")
def theta(workload):
    return np.random.default_rng(1).normal(size=(workload.train.shape[1], 16))


def test_bench_compute_hermitians(benchmark, workload, theta):
    a, b = benchmark(compute_hermitians, workload.train, theta, 0.05, 0, 1024)
    assert a.shape == (1024, 16, 16)


def test_compute_hermitians_matches_loop_on_skewed_block(workload, theta):
    """Untimed: the sparse-product path against the loop reference at realistic skew.

    The 64-row block holds the workload's most active user, so the check
    covers the heavy rows of the power-law distribution.
    """
    r = workload.train
    start = int(np.argmax(r.nnz_per_row())) // 64 * 64
    stop = min(start + 64, r.shape[0])
    a, b = compute_hermitians(r, theta, 0.05, start, stop)
    a_loop, b_loop = compute_hermitians_loop(r.row_slice(start, stop), theta, 0.05)
    np.testing.assert_allclose(a, a_loop, rtol=0, atol=1e-10)
    np.testing.assert_allclose(b, b_loop, rtol=0, atol=1e-10)


def test_bench_batch_solve(benchmark, workload, theta):
    a, b = compute_hermitians(workload.train, theta, 0.05, 0, 2048)
    x = benchmark(batch_solve, a, b)
    assert np.isfinite(x).all()


def test_bench_full_update_pass(benchmark, workload, theta):
    x = benchmark(update_factor, workload.train, theta, 0.05, 2048)
    assert x.shape == (workload.train.shape[0], 16)
