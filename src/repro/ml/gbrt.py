"""Gradient Boosted Regression Trees (the paper's winning model).

"GBRT combines multiple weak prediction models to form a powerful
regression ensemble ... builds the model in a stage-wise manner and
introduces a weak estimator in each stage based on the gradients of the
existing weak estimators.  Several parameters require to be tuned such as
the number of estimators and the learning rate."

Least-squares boosting: each stage fits a shallow histogram tree to the
current residuals.  Feature importance follows the paper's definition —
"averaging the number of times that a feature is used as a split point of
the trees in the ensemble model".
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError
from repro.ml.base import BaseEstimator, RegressorMixin, check_X_y, check_array
from repro.ml.tree import FeatureBinner, _HistogramTreeBuilder
from repro.util.rng import ensure_rng


class GradientBoostingRegressor(BaseEstimator, RegressorMixin):
    """Least-squares gradient boosting over histogram trees."""

    def __init__(
        self,
        n_estimators: int = 150,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        max_features: float = 1.0,
        n_bins: int = 32,
        random_state: int = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.max_features = max_features
        self.n_bins = n_bins
        self.random_state = random_state

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "GradientBoostingRegressor":
        X, y = check_X_y(X, y)
        if self.n_estimators < 1:
            raise MLError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if not 0.0 < self.subsample <= 1.0:
            raise MLError(f"subsample must be in (0, 1], got {self.subsample}")
        if self.learning_rate <= 0:
            raise MLError(f"learning_rate must be > 0, got {self.learning_rate}")
        rng = ensure_rng(self.random_state)

        self._binner = FeatureBinner(self.n_bins).fit(X)
        codes = self._binner.transform(X)
        n, p = X.shape

        self.init_ = float(y.mean())
        prediction = np.full(n, self.init_)
        self.split_counts_ = np.zeros(p, dtype=np.float64)
        self._trees = []
        self.train_score_: list[float] = []

        builder = _HistogramTreeBuilder(
            self.max_depth, self.min_samples_leaf, 0.0, self.n_bins,
            max_features=self.max_features, rng=rng,
        )
        n_sub = max(2 * self.min_samples_leaf, int(round(n * self.subsample)))
        n_sub = min(n, n_sub)

        for _ in range(self.n_estimators):
            residual = y - prediction
            if self.subsample < 1.0:
                idx = rng.choice(n, size=n_sub, replace=False)
                nodes = builder.build(codes[idx], residual[idx],
                                      self.split_counts_)
            else:
                # pass `codes` itself (not a per-stage `codes[idx]` view)
                # so the builder's offset-pack memo hits across stages
                nodes = builder.build(codes, residual, self.split_counts_)
            update = _HistogramTreeBuilder.predict_fast(nodes, codes)
            prediction = prediction + self.learning_rate * update
            self._trees.append(nodes)
            self.train_score_.append(float(np.mean((y - prediction) ** 2)))

        self.n_features_in_ = p
        self._compiled = None
        self._mark_fitted()
        return self

    # ------------------------------------------------------------------
    def compile_kernel(self):
        """Flat node-table kernel (lazy, cached until the next fit) —
        see :mod:`repro.ml.compiled`."""
        self.check_fitted()
        if getattr(self, "_compiled", None) is None:
            from repro.ml.compiled import compile_ensemble

            self._compiled = compile_ensemble(self)
        return self._compiled

    def predict(self, X) -> np.ndarray:
        self.check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise MLError(
                f"X has {X.shape[1]} features, model fitted on "
                f"{self.n_features_in_}"
            )
        codes = self._binner.transform(X)
        return self.compile_kernel().predict_codes(codes)

    def predict_reference(self, X) -> np.ndarray:
        """The pinned ``_Node``-walk prediction the compiled kernel is
        parity-tested against (``tests/ml/test_compiled_parity.py``)."""
        self.check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise MLError(
                f"X has {X.shape[1]} features, model fitted on "
                f"{self.n_features_in_}"
            )
        codes = self._binner.transform(X)
        prediction = np.full(X.shape[0], self.init_)
        for nodes in self._trees:
            prediction += self.learning_rate * (
                _HistogramTreeBuilder.predict_fast(nodes, codes)
            )
        return prediction

    # ------------------------------------------------------------------
    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalized split counts (the paper's importance statistic)."""
        self.check_fitted()
        total = self.split_counts_.sum()
        if total == 0:
            return np.zeros_like(self.split_counts_)
        return self.split_counts_ / total

    @property
    def n_trees_(self) -> int:
        self.check_fitted()
        return len(self._trees)


class RandomForestRegressor(BaseEstimator, RegressorMixin):
    """Bagged histogram trees (beyond-paper comparison model)."""

    def __init__(
        self,
        n_estimators: int = 60,
        max_depth: int = 10,
        min_samples_leaf: int = 3,
        max_features: float = 0.33,
        n_bins: int = 32,
        random_state: int = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.n_bins = n_bins
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        rng = ensure_rng(self.random_state)
        self._binner = FeatureBinner(self.n_bins).fit(X)
        codes = self._binner.transform(X)
        n, p = X.shape
        n_feat = max(1, int(round(p * self.max_features)))
        builder = _HistogramTreeBuilder(
            self.max_depth, self.min_samples_leaf, 0.0, self.n_bins
        )
        self.split_counts_ = np.zeros(p, dtype=np.float64)
        self._trees = []
        for _ in range(self.n_estimators):
            sample_idx = rng.integers(0, n, size=n)
            feat_idx = np.sort(rng.choice(p, size=n_feat, replace=False))
            sub_counts = np.zeros(n_feat)
            nodes = builder.build(
                codes[sample_idx][:, feat_idx], y[sample_idx], sub_counts
            )
            self.split_counts_[feat_idx] += sub_counts
            self._trees.append((feat_idx, nodes))
        self.n_features_in_ = p
        self._compiled = None
        self._mark_fitted()
        return self

    def compile_kernel(self):
        """Flat node-table kernel (lazy, cached until the next fit) —
        per-tree feature subsets are remapped to global columns at
        compile time; see :mod:`repro.ml.compiled`."""
        self.check_fitted()
        if getattr(self, "_compiled", None) is None:
            from repro.ml.compiled import compile_ensemble

            self._compiled = compile_ensemble(self)
        return self._compiled

    def predict(self, X) -> np.ndarray:
        self.check_fitted()
        X = check_array(X)
        codes = self._binner.transform(X)
        return self.compile_kernel().predict_codes(codes)

    def predict_reference(self, X) -> np.ndarray:
        """The pinned ``_Node``-walk prediction the compiled kernel is
        parity-tested against (``tests/ml/test_compiled_parity.py``)."""
        self.check_fitted()
        X = check_array(X)
        codes = self._binner.transform(X)
        total = np.zeros(X.shape[0])
        for feat_idx, nodes in self._trees:
            total += _HistogramTreeBuilder.predict_fast(
                nodes, codes[:, feat_idx]
            )
        return total / len(self._trees)

    @property
    def feature_importances_(self) -> np.ndarray:
        self.check_fitted()
        total = self.split_counts_.sum()
        if total == 0:
            return np.zeros_like(self.split_counts_)
        return self.split_counts_ / total
