"""From-scratch NumPy ML stack with a scikit-learn-style API.

Exports resolve lazily (PEP 562): :mod:`repro.ml.compiled` — the
inference-only model kernels and their packed-bytes format — must stay
importable without dragging in the training estimators, so a model's
persisted kernels decode and run without the training stack in the
process at all.
"""

import importlib

_EXPORTS = {
    "BaseEstimator": "repro.ml.base",
    "RegressorMixin": "repro.ml.base",
    "check_array": "repro.ml.base",
    "check_X_y": "repro.ml.base",
    "mean_absolute_error": "repro.ml.metrics",
    "median_absolute_error": "repro.ml.metrics",
    "mean_squared_error": "repro.ml.metrics",
    "root_mean_squared_error": "repro.ml.metrics",
    "r2_score": "repro.ml.metrics",
    "max_error": "repro.ml.metrics",
    "StandardScaler": "repro.ml.preprocessing",
    "train_test_split": "repro.ml.model_selection",
    "KFold": "repro.ml.model_selection",
    "LinearRegression": "repro.ml.linear",
    "LassoRegression": "repro.ml.linear",
    "MLPRegressor": "repro.ml.mlp",
    "FeatureBinner": "repro.ml.tree",
    "DecisionTreeRegressor": "repro.ml.tree",
    "GradientBoostingRegressor": "repro.ml.gbrt",
    "RandomForestRegressor": "repro.ml.gbrt",
    "CompiledEnsemble": "repro.ml.compiled",
    "compile_ensemble": "repro.ml.compiled",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(importlib.import_module(module), name)
    try:
        return importlib.import_module(f"repro.ml.{name}")
    except ModuleNotFoundError:
        raise AttributeError(
            f"module 'repro.ml' has no attribute {name!r}"
        ) from None


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
