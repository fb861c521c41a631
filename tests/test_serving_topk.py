"""The array top-k path equals a float64 brute-force X·Θᵀ, ties included.

Factors are small integers, so every score is exact in float32 as well
as float64 and the reference ranking — descending score, ascending id —
is the answer itself, not an approximation of it.  Which of several
items tied at the k-th score makes the cut is not specified, so the
reference refuses data with such a tie.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu.machine import MultiGPUMachine
from repro.serving import FactorStore, TieredFactorStore, TopK
from repro.sparse.csr import CSRMatrix

N_USERS, N_ITEMS, F = 24, 37, 4
TIE_USER, TOP_ITEM, TIE_ITEMS = 0, 17, (5, 30)  # the tied pair straddles shards at 2 and 3 shards
BLIND_USER = 7  # has rated every item


@pytest.fixture(scope="module")
def factors():
    rng = np.random.default_rng(11)
    x = rng.integers(-1000, 1001, size=(N_USERS, F)).astype(np.float64)
    theta = rng.integers(-1000, 1001, size=(N_ITEMS, F)).astype(np.float64)
    # Item rows on the corner of the box that the tie user's factor points
    # to score highest for that user: one best item, then an exact tie.
    theta[TOP_ITEM] = 1000 * np.sign(x[TIE_USER])
    theta[list(TIE_ITEMS)] = 999 * np.sign(x[TIE_USER])
    return x, theta


@pytest.fixture(scope="module")
def seen():
    rng = np.random.default_rng(12)
    dense = np.zeros((N_USERS, N_ITEMS))
    for u in range(N_USERS):
        dense[u, rng.choice(N_ITEMS, size=5, replace=False)] = 1.0
    dense[TIE_USER, list(TIE_ITEMS)] = 0.0
    dense[BLIND_USER] = 1.0
    return CSRMatrix.from_dense(dense)


def build(cls, factors, n_shards):
    x, theta = factors
    store = cls(x, theta, machine=MultiGPUMachine(n_gpus=n_shards))
    store.fold_in(np.array([1, 2, 3]), np.array([5.0, 4.0, 1.0]))  # user N_USERS
    return store


def reference(store, users, k, seen):
    """Each user's ``[(item, score), ...]`` by float64 brute force."""
    out = []
    for u in users:
        scores = store.theta @ store.x[u]
        if seen is not None:
            rated = seen.row(u)[0] if u < N_USERS else np.array([1, 2, 3])
            scores[rated] = -np.inf
        order = np.lexsort((np.arange(N_ITEMS), -scores))
        if k < N_ITEMS and np.isfinite(scores[order[k]]):
            assert scores[order[k - 1]] != scores[order[k]], f"user {u}: test data tie at the k-th score"
        out.append([(int(i), float(scores[i])) for i in order[:k] if np.isfinite(scores[i])])
    return out


@pytest.mark.parametrize("cls", [FactorStore, TieredFactorStore])
@pytest.mark.parametrize("n_shards", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 6, 50])
@pytest.mark.parametrize("masked", [True, False], ids=["exclude", "no-exclude"])
def test_topk_equals_float64_reference(cls, n_shards, k, masked, factors, seen):
    store = build(cls, factors, n_shards)
    users = np.arange(store.n_users)
    exclude = seen if masked else None
    got = store.recommend_batch(users, k=k, exclude=exclude, user_block=10)  # three blocks, the last partial
    want = reference(store, users, k, exclude)
    kk = min(k, N_ITEMS)

    assert isinstance(got, TopK) and len(got) == users.size
    assert got.ids.shape == got.scores.shape == (users.size, kk)
    assert got.ids.dtype == np.int64 and got.scores.dtype == np.float32
    assert got.counts.tolist() == [len(answer) for answer in want]
    for row, answer in enumerate(want):
        n = got.counts[row]
        assert got.ids[row, :n].tolist() == [item for item, _ in answer]
        want_scores = np.array([score for _, score in answer])
        # Integer factors score exactly; the folded-in user's float factor
        # is rounded to float32 for scoring.
        tol = 0.0 if users[row] < N_USERS else 1e-6 * np.abs(want_scores).max(initial=1.0)
        np.testing.assert_allclose(got.scores[row, :n], want_scores, rtol=0.0, atol=tol)
        assert np.all(got.scores[row, n:] == -np.inf)
        assert got[row] == list(zip(got.ids[row, :n].tolist(), got.scores[row, :n].tolist()))
    assert got.tolist() == [got[row] for row in range(len(got))] == list(got)
    assert got == got.tolist()


@pytest.mark.parametrize("cls", [FactorStore, TieredFactorStore])
@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_exact_tie_orders_by_ascending_id(cls, n_shards, factors, seen):
    store = build(cls, factors, n_shards)
    got = store.recommend_batch(np.array([TIE_USER]), k=4, exclude=seen)
    assert got.ids[0, :3].tolist() == [TOP_ITEM, *TIE_ITEMS]
    assert got.scores[0, 0] > got.scores[0, 1] == got.scores[0, 2] > got.scores[0, 3]


@pytest.mark.parametrize("cls", [FactorStore, TieredFactorStore])
def test_user_with_everything_excluded_gets_no_answers(cls, factors, seen):
    store = build(cls, factors, 2)
    got = store.recommend_batch(np.array([BLIND_USER, 1]), k=5, exclude=seen)
    assert got.counts.tolist() == [0, 5]
    assert got[0] == [] and store.recommend(BLIND_USER, k=5, exclude=seen) == []


def test_sequence_view(factors, seen):
    store = build(FactorStore, factors, 2)
    got = store.recommend_batch(np.arange(6), k=3, exclude=seen)
    lists = got.tolist()
    assert got[-1] == lists[-1] and got[1:4] == lists[1:4]
    assert got == store.recommend_batch(np.arange(6), k=3, exclude=seen)
    assert got != lists[:-1] and got != tuple(lists)
    with pytest.raises(IndexError):
        got[6]
    with pytest.raises(ValueError, match="read-only"):
        got.ids[0, 0] = 1
    empty = store.recommend_batch(np.array([], dtype=np.int64), k=3)
    assert len(empty) == 0 and empty == []
