"""Train/test splitting and k-fold cross-validation.

The paper's protocol (Section IV-A): "We randomly select 80% samples from
our dataset for training and the rest 20% for testing.  We employ a
10-fold cross-validation on the training set and grid search is applied
to find the best hyperparameters of each model."  The grid search over
these folds lives in :mod:`repro.predict.evaluate`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import MLError
from repro.util.rng import ensure_rng


def train_test_split(
    X,
    y,
    *,
    test_size: float = 0.2,
    random_state=None,
    extras: Sequence[np.ndarray] = (),
):
    """Random split into train and test partitions.

    ``extras`` are additional aligned arrays split with the same
    permutation (e.g. sample metadata); they are appended pairwise to the
    returned tuple.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if not 0.0 < test_size < 1.0:
        raise MLError(f"test_size must be in (0, 1), got {test_size}")
    n = X.shape[0]
    if y.shape[0] != n:
        raise MLError("X and y differ in sample count")
    rng = ensure_rng(random_state)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_size)))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    result = [X[train_idx], X[test_idx], y[train_idx], y[test_idx]]
    for extra in extras:
        extra = np.asarray(extra)
        if extra.shape[0] != n:
            raise MLError("extras must align with X")
        result.extend([extra[train_idx], extra[test_idx]])
    return tuple(result)


class KFold:
    """K-fold cross-validation splitter."""

    def __init__(self, n_splits: int = 10, *, shuffle: bool = True,
                 random_state=None) -> None:
        if n_splits < 2:
            raise MLError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = np.asarray(X).shape[0]
        if n < self.n_splits:
            raise MLError(
                f"cannot split {n} samples into {self.n_splits} folds"
            )
        indices = np.arange(n)
        if self.shuffle:
            ensure_rng(self.random_state).shuffle(indices)
        fold_sizes = np.full(self.n_splits, n // self.n_splits, dtype=int)
        fold_sizes[: n % self.n_splits] += 1
        current = 0
        for size in fold_sizes:
            test = indices[current:current + size]
            train = np.concatenate(
                [indices[:current], indices[current + size:]]
            )
            current += size
            yield train, test
