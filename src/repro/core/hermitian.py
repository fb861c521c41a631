"""Numerical core of ALS: Hermitian assembly and batched solves.

Eq. (2) of the paper: for every row ``u``,

``A_u = Σ_{r_uv ≠ 0} (θ_v θ_vᵀ + λ I)``  and  ``B_u = Θᵀ · Rᵀ_{u*}``,

then ``x_u = A_u⁻¹ B_u``.  With the weighted-λ-regularization of eq. (1)
the λ term appears ``n_{x_u}`` times, i.e. ``A_u`` gets ``λ n_{x_u} I``.

Two implementations are provided:

* :func:`compute_hermitians` — the vectorised production path.  It forms
  ``T[v] = vec(θ_v θ_vᵀ)`` once per distinct column of the row block and
  assembles both sides as sparse-dense products over the block's rating
  pattern: ``A = (R≠0) @ T`` and ``B = R @ Θ`` (via :mod:`scipy.sparse`).
  This is the host counterpart of cuMF's ``get_hermitian``: each θ_v is
  read once per block instead of once per rating, and the temporaries are
  ``(rows + distinct columns) × f²`` floats rather than ``nnz × f²``.
  Every row's sum runs over its ratings in CSR order, so a row's result
  does not depend on which block it was computed in.
* :func:`compute_hermitians_loop` — a straight transliteration of
  Algorithm 1 used as the ground truth in tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.csr import CSRMatrix

__all__ = [
    "compute_hermitians",
    "compute_hermitians_loop",
    "batch_solve",
    "update_factor",
]


def compute_hermitians(
    r: CSRMatrix,
    theta: np.ndarray,
    lam: float,
    row_start: int = 0,
    row_stop: int | None = None,
    weighted: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``get_hermitian_x`` for rows ``[row_start, row_stop)``.

    Returns ``(A, B)`` with shapes ``(rows, f, f)`` and ``(rows, f)``.
    ``weighted=True`` applies the weighted-λ-regularization
    (``λ n_{x_u} I``); ``False`` applies plain ``λ I`` (useful for
    comparisons against non-weighted formulations).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[0] != r.shape[1]:
        raise ValueError("theta must have one row per column of R")
    row_stop = r.shape[0] if row_stop is None else row_stop
    if not 0 <= row_start <= row_stop <= r.shape[0]:
        raise ValueError("invalid row range")
    f = theta.shape[1]
    rows = row_stop - row_start

    lo, hi = r.indptr[row_start], r.indptr[row_stop]
    cols = r.indices[lo:hi]
    vals = r.data[lo:hi]
    indptr = r.indptr[row_start : row_stop + 1] - lo

    used, local = np.unique(cols, return_inverse=True)
    gathered = theta[used]  # (distinct columns, f)
    outer = np.einsum("ki,kj->kij", gathered, gathered).reshape(used.size, f * f)
    shape = (rows, used.size)
    pattern = sp.csr_array((np.ones(cols.size), local, indptr), shape=shape)
    a = (pattern @ outer).reshape(rows, f, f)
    b = sp.csr_array((vals, local, indptr), shape=shape) @ gathered

    diagonal = a.reshape(rows, f * f)[:, :: f + 1]  # a view of every A_u's diagonal
    if weighted:
        diagonal += lam * np.diff(indptr)[:, None]
    else:
        diagonal += lam
    assert a.shape == (rows, f, f) and b.shape == (rows, f)
    return a, b


def compute_hermitians_loop(r: CSRMatrix, theta: np.ndarray, lam: float, weighted: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Reference implementation of Algorithm 1 lines 2-9 (per-row loop)."""
    theta = np.asarray(theta, dtype=np.float64)
    m = r.shape[0]
    f = theta.shape[1]
    a = np.zeros((m, f, f), dtype=np.float64)
    b = np.zeros((m, f), dtype=np.float64)
    eye = np.eye(f, dtype=np.float64)
    for u in range(m):
        cols, vals = r.row(u)
        a_u = np.zeros((f, f), dtype=np.float64)
        for v_idx in range(cols.shape[0]):
            theta_v = theta[cols[v_idx]]
            a_u += np.outer(theta_v, theta_v)
            if weighted:
                a_u += lam * eye
        if not weighted:
            a_u += lam * eye
        a[u] = a_u
        b[u] = theta[cols].T @ vals if cols.size else 0.0
    return a, b


def batch_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the stack of linear systems ``A_u x_u = B_u`` (Algorithm 1 Batch_Solve).

    Rows whose ``A_u`` is singular (no ratings and λ weighting of zero)
    get a zero solution rather than raising, matching what a regularized
    production system does with cold users/items.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 2 or a.shape[0] != b.shape[0] or a.shape[1] != a.shape[2] or a.shape[2] != b.shape[1]:
        raise ValueError(f"incompatible shapes for batch solve: {a.shape} vs {b.shape}")
    out = np.zeros_like(b)
    # Identify well-posed systems cheaply via the diagonal (A_u is PSD + λnI,
    # so a zero diagonal row happens only for rows with no ratings and no reg).
    diag = np.einsum("kii->ki", a)
    solvable = np.all(diag > 0, axis=1)
    if solvable.any():
        try:
            # Keep an explicit trailing axis so the stacked solve treats b as
            # a batch of column vectors on every NumPy version.
            out[solvable] = np.linalg.solve(a[solvable], b[solvable][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # Extremely rare fallback: solve one by one, pinv for the bad ones.
            for idx in np.nonzero(solvable)[0]:
                try:
                    out[idx] = np.linalg.solve(a[idx], b[idx])
                except np.linalg.LinAlgError:
                    out[idx] = np.linalg.pinv(a[idx]) @ b[idx]
    return out


def update_factor(
    r: CSRMatrix,
    theta: np.ndarray,
    lam: float,
    row_batch: int = 4096,
    weighted: bool = True,
) -> np.ndarray:
    """One full update-X pass: returns the new ``X`` given ``Θ`` fixed.

    The pass runs in row blocks of ``row_batch``, the batching structure
    cuMF uses on the GPU.  A block's temporaries are its ``A`` stack and
    the outer products of its distinct columns, ``(rows + distinct
    columns) × f × f`` floats.
    """
    m = r.shape[0]
    f = np.asarray(theta).shape[1]
    x = np.zeros((m, f), dtype=np.float64)
    for start in range(0, m, row_batch):
        stop = min(start + row_batch, m)
        a, b = compute_hermitians(r, theta, lam, start, stop, weighted=weighted)
        x[start:stop] = batch_solve(a, b)
    return x
