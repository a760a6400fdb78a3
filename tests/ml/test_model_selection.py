import numpy as np
import pytest

from repro.errors import MLError
from repro.ml import KFold, LassoRegression, train_test_split
from repro.predict.evaluate import ScaledModel, _NestedGridSearch


def data(n=100, p=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X @ np.arange(1, p + 1) + rng.normal(scale=0.1, size=n)
    return X, y


def test_train_test_split_sizes_and_disjoint():
    X, y = data(100)
    Xtr, Xte, ytr, yte = train_test_split(X, y, test_size=0.2,
                                          random_state=0)
    assert len(yte) == 20 and len(ytr) == 80
    # different seeds give different splits
    _, Xte2, _, _ = train_test_split(X, y, test_size=0.2, random_state=1)
    assert not np.array_equal(Xte, Xte2)


def test_train_test_split_deterministic():
    X, y = data(50)
    a = train_test_split(X, y, test_size=0.3, random_state=5)
    b = train_test_split(X, y, test_size=0.3, random_state=5)
    assert np.array_equal(a[1], b[1])


def test_train_test_split_extras_aligned():
    X, y = data(30)
    tags = np.arange(30)
    Xtr, Xte, ytr, yte, ttr, tte = train_test_split(
        X, y, test_size=0.5, random_state=0, extras=[tags]
    )
    assert np.array_equal(X[tte], Xte)


def test_train_test_split_validation():
    X, y = data(10)
    with pytest.raises(MLError):
        train_test_split(X, y, test_size=1.5)
    with pytest.raises(MLError):
        train_test_split(X, y[:5])


def test_kfold_partitions_everything():
    X, _ = data(53)
    folds = list(KFold(5, random_state=0).split(X))
    assert len(folds) == 5
    all_test = np.concatenate([test for _, test in folds])
    assert sorted(all_test) == list(range(53))
    for train, test in folds:
        assert set(train) & set(test) == set()


def test_kfold_validation():
    with pytest.raises(MLError):
        KFold(1)
    with pytest.raises(MLError):
        list(KFold(10).split(np.ones((5, 1))))


def test_grid_search_finds_lower_alpha_for_clean_data():
    """The grid search ``repro train --grid-search`` runs keeps the
    best-scoring grid point and refits it on all the data."""
    X, y = data(150)
    search = _NestedGridSearch(
        ScaledModel(LassoRegression(max_iter=200)),
        {"alpha": [0.001, 5.0]},
        cv=KFold(3, random_state=0),
    )
    search.fit(X, y)
    assert search.best_params_["alpha"] == 0.001
    assert search.best_estimator_.estimator.alpha == 0.001
    assert search.best_estimator_.predict(X).shape == (150,)


def test_estimator_clone_and_set_params():
    model = LassoRegression(alpha=0.7)
    clone = model.clone_unfitted()
    assert clone.alpha == 0.7
    with pytest.raises(MLError):
        model.set_params(bogus=1)
