import numpy as np
import pytest

from repro.errors import MLError
from repro.ml import (
    DecisionTreeRegressor,
    FeatureBinner,
    GradientBoostingRegressor,
    MLPRegressor,
    RandomForestRegressor,
    mean_absolute_error,
    r2_score,
)


def friedman(n=600, seed=0):
    """Nonlinear benchmark where trees should beat linear models."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 8))
    y = (
        10 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20 * (X[:, 2] - 0.5) ** 2
        + 10 * X[:, 3]
        + 5 * X[:, 4]
        + rng.normal(scale=0.3, size=n)
    )
    return X, y


def test_binner_roundtrip_codes():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 3))
    binner = FeatureBinner(16).fit(X)
    codes = binner.transform(X)
    assert codes.dtype == np.uint8
    assert codes.max() < 16
    with pytest.raises(MLError):
        FeatureBinner(1)


def test_binner_validates_width():
    binner = FeatureBinner(8).fit(np.ones((10, 2)) * np.arange(2))
    with pytest.raises(MLError):
        binner.transform(np.ones((3, 3)))


def test_decision_tree_fits_step_function():
    X = np.linspace(0, 1, 200).reshape(-1, 1)
    y = (X[:, 0] > 0.5).astype(float) * 10
    tree = DecisionTreeRegressor(max_depth=2, min_samples_leaf=2).fit(X, y)
    pred = tree.predict(X)
    assert mean_absolute_error(y, pred) < 0.5
    assert tree.n_leaves_ >= 2
    assert tree.feature_importances_[0] == 1.0


def test_tree_depth_limits_leaves():
    X, y = friedman(300)
    shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
    deep = DecisionTreeRegressor(max_depth=6).fit(X, y)
    assert shallow.n_leaves_ <= 4
    assert deep.n_leaves_ > shallow.n_leaves_


def test_gbrt_beats_single_tree_on_friedman():
    X, y = friedman()
    split = 450
    tree = DecisionTreeRegressor(max_depth=3).fit(X[:split], y[:split])
    gbrt = GradientBoostingRegressor(
        n_estimators=80, max_depth=3, learning_rate=0.15
    ).fit(X[:split], y[:split])
    err_tree = mean_absolute_error(y[split:], tree.predict(X[split:]))
    err_gbrt = mean_absolute_error(y[split:], gbrt.predict(X[split:]))
    assert err_gbrt < err_tree


def test_gbrt_train_loss_monotone_nonincreasing():
    X, y = friedman(300)
    gbrt = GradientBoostingRegressor(n_estimators=40, subsample=1.0).fit(X, y)
    losses = gbrt.train_score_
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_gbrt_importances_find_informative_features():
    X, y = friedman(800)
    gbrt = GradientBoostingRegressor(n_estimators=60).fit(X, y)
    imp = gbrt.feature_importances_
    assert imp.shape == (8,)
    assert imp.sum() == pytest.approx(1.0)
    # features 5..7 are pure noise; informative ones should dominate
    assert imp[:5].sum() > imp[5:].sum()


def test_gbrt_validates_params():
    X, y = friedman(50)
    with pytest.raises(MLError):
        GradientBoostingRegressor(n_estimators=0).fit(X, y)
    with pytest.raises(MLError):
        GradientBoostingRegressor(subsample=0.0).fit(X, y)
    with pytest.raises(MLError):
        GradientBoostingRegressor(learning_rate=0).fit(X, y)


def test_gbrt_deterministic_per_seed():
    X, y = friedman(200)
    a = GradientBoostingRegressor(n_estimators=15, subsample=0.7,
                                  random_state=3).fit(X, y).predict(X)
    b = GradientBoostingRegressor(n_estimators=15, subsample=0.7,
                                  random_state=3).fit(X, y).predict(X)
    assert np.array_equal(a, b)


def test_random_forest_reasonable():
    X, y = friedman(500)
    forest = RandomForestRegressor(n_estimators=20, max_depth=8).fit(
        X[:400], y[:400]
    )
    assert r2_score(y[400:], forest.predict(X[400:])) > 0.5
    assert forest.feature_importances_.sum() == pytest.approx(1.0)


def test_mlp_learns_nonlinear_function():
    X, y = friedman(700, seed=2)
    mlp = MLPRegressor(hidden_layer_sizes=(32, 16), max_epochs=150,
                       random_state=0).fit(X[:550], y[:550])
    assert r2_score(y[550:], mlp.predict(X[550:])) > 0.6
    assert mlp.n_epochs_ <= 150
    assert len(mlp.loss_curve_) == mlp.n_epochs_


def test_mlp_early_stopping_can_trigger():
    X, y = friedman(300)
    mlp = MLPRegressor(max_epochs=400, patience=3, random_state=0).fit(X, y)
    assert mlp.n_epochs_ <= 400


def test_mlp_tanh_activation_works():
    X, y = friedman(200)
    mlp = MLPRegressor(activation="tanh", max_epochs=30).fit(X, y)
    assert np.all(np.isfinite(mlp.predict(X)))
    with pytest.raises(MLError):
        MLPRegressor(activation="sigmoid").fit(X, y)


def test_mlp_requires_hidden_layer():
    X, y = friedman(60)
    with pytest.raises(MLError):
        MLPRegressor(hidden_layer_sizes=()).fit(X, y)


def test_mlp_width_validation():
    X, y = friedman(60)
    mlp = MLPRegressor(max_epochs=5).fit(X, y)
    with pytest.raises(MLError):
        mlp.predict(np.ones((2, 9)))
