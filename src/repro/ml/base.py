"""Estimator base API (scikit-learn style).

The paper trains its models "with the scikit-learn machine learning
library"; that library is not available in this environment, so
:mod:`repro.ml` reimplements the needed estimators on NumPy with the same
fit/predict/get_params surface, which keeps the Table IV grid search
and cross-validation generic.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.errors import MLError, NotFittedError


def check_array(X, name: str = "X", *, ndim: int = 2) -> np.ndarray:
    """Validate and convert ``X`` to a float64 array of ``ndim`` dims."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim:
        raise MLError(f"{name} must be {ndim}-dimensional, got shape {X.shape}")
    if X.size == 0:
        raise MLError(f"{name} is empty")
    if not np.all(np.isfinite(X)):
        raise MLError(f"{name} contains NaN or infinite values")
    return X


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix / target vector pair."""
    X = check_array(X, "X", ndim=2)
    y = check_array(y, "y", ndim=1)
    if X.shape[0] != y.shape[0]:
        raise MLError(
            f"X has {X.shape[0]} samples but y has {y.shape[0]}"
        )
    return X, y


class BaseEstimator:
    """Parameter introspection shared by all estimators.

    Constructor arguments are the hyperparameters; ``get_params`` /
    ``set_params`` / ``clone_unfitted`` let the Table IV grid search in
    :mod:`repro.predict.evaluate` clone and re-parameterize any
    estimator.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, p in signature.parameters.items()
            if name != "self" and p.kind != p.VAR_KEYWORD
        ]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise MLError(
                    f"invalid parameter {key!r} for {type(self).__name__}"
                )
            setattr(self, key, value)
        return self

    def clone_unfitted(self) -> "BaseEstimator":
        """Fresh estimator with identical hyperparameters, no fitted state."""
        return type(self)(**self.get_params())

    # ------------------------------------------------------------------
    def _mark_fitted(self) -> None:
        self._fitted = True

    def check_fitted(self) -> None:
        if not getattr(self, "_fitted", False):
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before use"
            )


class RegressorMixin:
    """Default scoring for regressors (R^2, like scikit-learn)."""

    def score(self, X, y) -> float:
        from repro.ml.metrics import r2_score

        return r2_score(y, self.predict(X))
