"""Model training and evaluation: the Table IV protocol.

"We randomly select 80% samples from our dataset for training and the
rest 20% for testing.  We employ a 10-fold cross-validation on the
training set and grid search is applied to find the best hyperparameters
of each model.  The testing set is totally unseen and only used to
evaluate estimation accuracy" — with MAE and MedAE per target (vertical,
horizontal and their average), with and without marginal-sample
filtering, for the Linear (Lasso), ANN and GBRT model families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.dataset.build import CongestionDataset
from repro.errors import MLError
from repro.ml.base import BaseEstimator
from repro.ml.gbrt import GradientBoostingRegressor
from repro.ml.linear import LassoRegression
from repro.ml.metrics import mean_absolute_error, median_absolute_error
from repro.ml.mlp import MLPRegressor
from repro.ml.model_selection import KFold, train_test_split
from repro.ml.preprocessing import StandardScaler

#: targets evaluated in Table IV, in paper column order
TABLE4_TARGETS = ("vertical", "horizontal", "average")

#: model families in paper row order
TABLE4_MODELS = ("linear", "ann", "gbrt")


def _model_factories() -> dict[str, Callable[[], BaseEstimator]]:
    """Tuned defaults per model family (found by offline grid search).

    The ``preset="paper"`` path of :func:`evaluate_models` re-runs the
    full 10-fold grid search like the paper; the fast path trains these
    configurations directly so the whole Table IV regenerates in minutes.
    """
    return {
        "linear": lambda: LassoRegression(alpha=0.05, max_iter=300),
        "ann": lambda: MLPRegressor(
            hidden_layer_sizes=(96, 48), max_epochs=200, batch_size=256,
            learning_rate=2e-3, random_state=0,
        ),
        "gbrt": lambda: GradientBoostingRegressor(
            n_estimators=250, learning_rate=0.08, max_depth=5,
            subsample=0.8, max_features=0.4, random_state=0,
        ),
    }


def _param_grids(preset: str) -> dict[str, dict]:
    if preset == "paper":
        return {
            "linear": {"alpha": [0.005, 0.02, 0.05, 0.2, 1.0]},
            "ann": {
                "hidden_layer_sizes": [(64, 32), (96, 48)],
                "learning_rate": [1e-3, 2e-3],
            },
            "gbrt": {
                "n_estimators": [150, 250],
                "learning_rate": [0.06, 0.08],
                "max_depth": [4, 5],
            },
        }
    return {
        "linear": {"alpha": [0.02, 0.2]},
        "ann": {"learning_rate": [1e-3, 2e-3]},
        "gbrt": {"max_depth": [4, 5]},
    }


@dataclass
class ScaledModel(BaseEstimator):
    """StandardScaler + estimator pipeline (scale-sensitive models)."""

    def __init__(self, estimator: BaseEstimator, with_scaler: bool = True):
        self.estimator = estimator
        self.with_scaler = with_scaler

    def fit(self, X, y):
        if self.with_scaler:
            self._scaler = StandardScaler().fit(X)
            X = self._scaler.transform(X)
        self.estimator.fit(X, y)
        self._mark_fitted()
        return self

    def predict(self, X):
        self.check_fitted()
        if self.with_scaler:
            X = self._scaler.transform(X)
        return self.estimator.predict(X)

    def get_params(self):
        return {"estimator": self.estimator, "with_scaler": self.with_scaler}

    def clone_unfitted(self):
        return ScaledModel(self.estimator.clone_unfitted(), self.with_scaler)


@dataclass
class ModelEvaluation:
    """One Table IV cell group: a model on one target."""

    model: str
    target: str
    filtered: bool
    mae: float
    medae: float
    best_params: dict = field(default_factory=dict)


@dataclass
class Table4Results:
    """All Table IV rows, addressable by (filtered, model, target)."""

    entries: list[ModelEvaluation] = field(default_factory=list)
    n_train: int = 0
    n_test: int = 0

    def get(self, model: str, target: str, filtered: bool) -> ModelEvaluation:
        for entry in self.entries:
            if (entry.model == model and entry.target == target
                    and entry.filtered == filtered):
                return entry
        raise MLError(f"no evaluation for {model}/{target}/filtered={filtered}")

    def rows(self) -> list[list]:
        """Rows in the paper's layout (filtering block x model)."""
        out = []
        for filtered in (False, True):
            for model in TABLE4_MODELS:
                row = ["Filtering" if filtered else "Not Filtering", model]
                for target in TABLE4_TARGETS:
                    entry = self.get(model, target, filtered)
                    row.extend([entry.mae, entry.medae])
                out.append(row)
        return out


def evaluate_models(
    dataset: CongestionDataset,
    *,
    models: tuple[str, ...] = TABLE4_MODELS,
    targets: tuple[str, ...] = TABLE4_TARGETS,
    filtering_modes: tuple[bool, ...] = (False, True),
    preset: str = "fast",
    cv_folds: int | None = None,
    test_size: float = 0.2,
    seed: int = 0,
    grid_search: bool = True,
) -> Table4Results:
    """Run the full Table IV protocol on ``dataset``.

    ``preset="fast"`` uses small grids and 3-fold CV (minutes);
    ``preset="paper"`` uses wider grids and 10-fold CV like the paper.
    """
    factories = _model_factories()
    grids = _param_grids(preset)
    folds = cv_folds if cv_folds is not None else (10 if preset == "paper" else 3)
    results = Table4Results()

    datasets = {}
    for filtered in filtering_modes:
        datasets[filtered] = (
            dataset.filter_marginal()[0] if filtered else dataset
        )

    for filtered, data in datasets.items():
        for target in targets:
            y = data.target(target)
            X_train, X_test, y_train, y_test = train_test_split(
                data.X, y, test_size=test_size, random_state=seed
            )
            results.n_train = len(y_train)
            results.n_test = len(y_test)
            for model_name in models:
                if model_name not in factories:
                    raise MLError(f"unknown model {model_name!r}")
                base = ScaledModel(
                    factories[model_name](),
                    with_scaler=model_name != "gbrt",
                )
                best_params: dict = {}
                if grid_search and grids.get(model_name):
                    search = _NestedGridSearch(
                        base, grids[model_name],
                        cv=KFold(folds, shuffle=True, random_state=seed),
                    )
                    search.fit(X_train, y_train)
                    model = search.best_estimator_
                    best_params = search.best_params_
                else:
                    model = base
                    model.fit(X_train, y_train)
                pred = model.predict(X_test)
                results.entries.append(
                    ModelEvaluation(
                        model=model_name,
                        target=target,
                        filtered=filtered,
                        mae=mean_absolute_error(y_test, pred),
                        medae=median_absolute_error(y_test, pred),
                        best_params=best_params,
                    )
                )
    return results


class _NestedGridSearch:
    """Grid search over the inner estimator of a :class:`ScaledModel`."""

    def __init__(self, pipeline: ScaledModel, param_grid: dict, cv: KFold):
        self.pipeline = pipeline
        self.param_grid = param_grid
        self.cv = cv

    def fit(self, X, y):
        import itertools

        keys = sorted(self.param_grid)
        best_score = -np.inf
        best_params: dict = {}
        for values in itertools.product(*(self.param_grid[k] for k in keys)):
            params = dict(zip(keys, values))
            fold_scores = []
            for train_idx, test_idx in self.cv.split(X):
                candidate = self.pipeline.clone_unfitted()
                candidate.estimator.set_params(**params)
                candidate.fit(X[train_idx], y[train_idx])
                pred = candidate.predict(X[test_idx])
                fold_scores.append(-mean_absolute_error(y[test_idx], pred))
            mean_score = float(np.mean(fold_scores))
            if mean_score > best_score:
                best_score = mean_score
                best_params = params
        self.best_params_ = best_params
        self.best_score_ = best_score
        self.best_estimator_ = self.pipeline.clone_unfitted()
        self.best_estimator_.estimator.set_params(**best_params)
        self.best_estimator_.fit(X, y)
        return self
