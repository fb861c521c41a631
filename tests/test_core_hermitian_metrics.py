"""Tests for the ALS numerical core: Hermitian assembly, solves, metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hermitian import (
    batch_solve,
    compute_hermitians,
    compute_hermitians_loop,
    update_factor,
)
from repro.core.metrics import objective_value, predict_entries, rmse
from repro.datasets.registry import DatasetSpec
from repro.datasets.synthetic import generate_ratings
from repro.sparse.csr import CSRMatrix

from tests.conftest import random_coo


class TestHermitians:
    def _setup(self, seed=0, m=20, n=12, nnz=80, f=5):
        r = random_coo(m, n, nnz, seed=seed).to_csr()
        theta = np.random.default_rng(seed + 1).normal(size=(n, f))
        return r, theta

    def test_vectorised_matches_loop_reference(self):
        r, theta = self._setup()
        a_vec, b_vec = compute_hermitians(r, theta, lam=0.1)
        a_loop, b_loop = compute_hermitians_loop(r, theta, lam=0.1)
        np.testing.assert_allclose(a_vec, a_loop, atol=1e-10)
        np.testing.assert_allclose(b_vec, b_loop, atol=1e-10)

    def test_unweighted_regularization(self):
        r, theta = self._setup(seed=3)
        a_vec, _ = compute_hermitians(r, theta, lam=0.5, weighted=False)
        a_loop, _ = compute_hermitians_loop(r, theta, lam=0.5, weighted=False)
        np.testing.assert_allclose(a_vec, a_loop, atol=1e-10)

    def test_weighted_lambda_scales_with_row_count(self):
        r, theta = self._setup(seed=5)
        lam = 0.7
        a, _ = compute_hermitians(r, theta, lam=lam)
        counts = r.nnz_per_row()
        gram_free = a - lam * counts[:, None, None] * np.eye(theta.shape[1])
        # The remaining part must be exactly the gram of the gathered columns.
        for u in range(r.shape[0]):
            cols, _ = r.row(u)
            np.testing.assert_allclose(gram_free[u], theta[cols].T @ theta[cols], atol=1e-10)

    def test_row_range_slicing(self):
        r, theta = self._setup(seed=7)
        a_full, b_full = compute_hermitians(r, theta, lam=0.1)
        a_part, b_part = compute_hermitians(r, theta, lam=0.1, row_start=5, row_stop=12)
        np.testing.assert_allclose(a_part, a_full[5:12])
        np.testing.assert_allclose(b_part, b_full[5:12])

    def test_b_is_rhs_of_eq2(self):
        r, theta = self._setup(seed=9)
        _, b = compute_hermitians(r, theta, lam=0.0)
        np.testing.assert_allclose(b, r.to_dense() @ theta, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        r, theta = self._setup()
        with pytest.raises(ValueError):
            compute_hermitians(r, theta[:-1], lam=0.1)

    def test_invalid_row_range_rejected(self):
        r, theta = self._setup()
        with pytest.raises(ValueError):
            compute_hermitians(r, theta, 0.1, row_start=10, row_stop=5)


@st.composite
def _ratings_blocks(draw):
    """A small CSR matrix (rows without ratings allowed), Θ and a row range."""
    m = draw(st.integers(0, 8))
    n = draw(st.integers(1, 6))
    f = draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    counts = gen.integers(0, n + 1, size=m)
    counts[gen.random(m) < 0.3] = 0
    indices = [np.sort(gen.choice(n, size=c, replace=False)) for c in counts]
    indptr = np.concatenate([[0], np.cumsum(counts)])
    cols = np.concatenate(indices) if m else np.zeros(0, dtype=np.int64)
    r = CSRMatrix((m, n), indptr, cols, gen.normal(size=int(indptr[-1])))
    theta = gen.normal(size=(n, f))
    start = draw(st.integers(0, m))
    stop = draw(st.integers(start, m))
    return r, theta, start, stop


class TestSparseProductHermitians:
    """Pins of the sparse-product assembly beyond the loop reference."""

    @staticmethod
    def _powerlaw(seed=0, f=8):
        spec = DatasetSpec("skewed", 300, 120, 4_000, f, 0.05, kind="synthetic")
        r = generate_ratings(spec, seed=seed).train
        theta = np.random.default_rng(seed + 1).normal(size=(r.shape[1], f))
        return r, theta

    @settings(max_examples=60, deadline=None)
    @given(block=_ratings_blocks(), lam=st.floats(0.0, 2.0), weighted=st.booleans())
    def test_property_matches_loop_reference(self, block, lam, weighted):
        r, theta, start, stop = block
        a, b = compute_hermitians(r, theta, lam, start, stop, weighted=weighted)
        a_loop, b_loop = compute_hermitians_loop(r, theta, lam, weighted=weighted)
        assert a.shape == (stop - start,) + a_loop.shape[1:]
        np.testing.assert_allclose(a, a_loop[start:stop], rtol=0, atol=1e-10)
        np.testing.assert_allclose(b, b_loop[start:stop], rtol=0, atol=1e-10)

    def test_a_is_exactly_symmetric(self):
        r, theta = self._powerlaw()
        a, _ = compute_hermitians(r, theta, lam=0.05)
        assert np.array_equal(a, a.transpose(0, 2, 1))

    def test_row_range_equals_rows_of_full_call_bitwise(self):
        r, theta = self._powerlaw(seed=4)
        a_full, b_full = compute_hermitians(r, theta, lam=0.05)
        for start, stop in [(0, 1), (17, 64), (100, 300), (299, 299)]:
            a, b = compute_hermitians(r, theta, 0.05, start, stop)
            assert np.array_equal(a, a_full[start:stop])
            assert np.array_equal(b, b_full[start:stop])


class TestBatchSolve:
    def test_solves_stacked_spd_systems(self, rng):
        f, k = 4, 6
        mats = rng.normal(size=(k, f, f))
        a = np.einsum("kij,klj->kil", mats, mats) + 0.5 * np.eye(f)
        x_true = rng.normal(size=(k, f))
        b = np.einsum("kij,kj->ki", a, x_true)
        np.testing.assert_allclose(batch_solve(a, b), x_true, atol=1e-8)

    def test_singular_rows_get_zero_solution(self):
        a = np.zeros((2, 3, 3))
        a[1] = np.eye(3)
        b = np.ones((2, 3))
        out = batch_solve(a, b)
        np.testing.assert_allclose(out[0], 0.0)
        np.testing.assert_allclose(out[1], 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            batch_solve(np.zeros((2, 3, 3)), np.zeros((2, 4)))

    def test_update_factor_minimises_regularized_objective(self):
        """The ALS update must be the exact minimiser of J w.r.t. X."""
        r = random_coo(15, 10, 60, seed=11).to_csr()
        rng = np.random.default_rng(2)
        theta = rng.normal(size=(10, 4))
        lam = 0.3
        x_opt = update_factor(r, theta, lam)
        x_init = rng.normal(size=x_opt.shape)

        def j_of(x):
            return objective_value(r, x, theta, lam) - lam * np.sum(r.nnz_per_col() * np.sum(theta**2, axis=1))

        assert j_of(x_opt) <= j_of(x_init) + 1e-9
        # Perturbing the optimum must not decrease the objective.
        for _ in range(5):
            perturbed = x_opt + rng.normal(scale=1e-3, size=x_opt.shape)
            assert j_of(perturbed) >= j_of(x_opt) - 1e-9

    def test_update_factor_row_batching_invariance(self):
        r = random_coo(33, 14, 150, seed=13).to_csr()
        theta = np.random.default_rng(3).normal(size=(14, 6))
        a = update_factor(r, theta, 0.05, row_batch=7)
        b = update_factor(r, theta, 0.05, row_batch=1000)
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestMetrics:
    def test_rmse_zero_for_perfect_factors(self, rng):
        x = rng.normal(size=(8, 3))
        theta = rng.normal(size=(6, 3))
        r = CSRMatrix.from_dense(x @ theta.T)
        assert rmse(r, x, theta) == pytest.approx(0.0, abs=1e-10)

    def test_rmse_hand_computed(self):
        r = CSRMatrix.from_dense(np.array([[2.0, 0.0], [0.0, 4.0]]))
        x = np.zeros((2, 1))
        theta = np.zeros((2, 1))
        assert rmse(r, x, theta) == pytest.approx(np.sqrt((4 + 16) / 2))

    def test_predict_entries_alignment(self, rng):
        x = rng.normal(size=(5, 2))
        theta = rng.normal(size=(4, 2))
        r = CSRMatrix.from_dense(np.ones((5, 4)))
        preds = predict_entries(r, x, theta)
        np.testing.assert_allclose(preds, (x @ theta.T).ravel())

    def test_objective_value_components(self, rng):
        x = rng.normal(size=(4, 2))
        theta = rng.normal(size=(3, 2))
        dense = np.abs(rng.normal(size=(4, 3))) + 0.1
        r = CSRMatrix.from_dense(dense)
        lam = 0.4
        expected = np.sum((dense - x @ theta.T) ** 2)
        expected += lam * np.sum(r.nnz_per_row() * np.sum(x**2, axis=1))
        expected += lam * np.sum(r.nnz_per_col() * np.sum(theta**2, axis=1))
        assert objective_value(r, x, theta, lam) == pytest.approx(expected)
