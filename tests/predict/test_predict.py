import numpy as np
import pytest

from repro.errors import MLError
from repro.kernels import build_face_detection
from repro.predict import (
    CongestionPredictor,
    ScaledModel,
    evaluate_models,
    suggest_resolutions,
)
from repro.ml import LassoRegression


def test_scaled_model_pipeline_roundtrip():
    rng = np.random.default_rng(0)
    X = rng.normal(5, 2, size=(100, 4))
    y = X @ np.ones(4)
    model = ScaledModel(LassoRegression(alpha=0.001))
    model.fit(X, y)
    assert np.allclose(model.predict(X), y, atol=0.5)
    clone = model.clone_unfitted()
    assert clone is not model


def test_evaluate_models_structure(small_dataset):
    results = evaluate_models(
        small_dataset,
        models=("linear",),
        targets=("vertical", "average"),
        filtering_modes=(False, True),
        grid_search=False,
    )
    assert len(results.entries) == 4
    entry = results.get("linear", "vertical", True)
    assert entry.mae >= 0 and entry.medae >= 0
    assert entry.medae <= entry.mae * 3
    with pytest.raises(MLError):
        results.get("gbrt", "vertical", True)


def test_evaluate_models_rejects_unknown(small_dataset):
    with pytest.raises(MLError):
        evaluate_models(small_dataset, models=("svm",), grid_search=False)


def test_predictor_fit_and_score(small_dataset):
    predictor = CongestionPredictor("linear").fit(small_dataset)
    scores = predictor.score(small_dataset)
    assert scores["vertical_mae"] >= 0
    assert predictor.n_training_samples_ <= small_dataset.n_samples


def test_predictor_requires_fit():
    predictor = CongestionPredictor("linear")
    with pytest.raises(MLError):
        predictor.predict_matrix(np.ones((2, 302)))


def test_predictor_rejects_unknown_family():
    with pytest.raises(MLError):
        CongestionPredictor("perceptron9000")


def test_predict_design_without_implementation(small_dataset):
    predictor = CongestionPredictor("linear").fit(small_dataset)
    design = build_face_detection(scale=0.18, variant="baseline")
    prediction = predictor.predict_design(design)
    assert len(prediction.node_ids) == len(prediction.vertical)
    assert prediction.regions
    assert prediction.inference_seconds < 60
    hottest = prediction.hottest_regions(3)
    assert len(hottest) <= 3
    assert hottest == sorted(hottest, key=lambda r: -r.average)


def test_gbrt_predictor_exposes_importances(small_dataset):
    predictor = CongestionPredictor("gbrt")
    predictor._factory = lambda: __import__(
        "repro.ml", fromlist=["GradientBoostingRegressor"]
    ).GradientBoostingRegressor(n_estimators=10, max_depth=2)
    predictor.fit(small_dataset)
    # the shrink took effect: the test did not fit the full model
    assert predictor.kernels["vertical"].n_trees == 10
    imp = predictor.feature_importances_
    assert imp is not None and imp.shape == (302,)


def test_resolution_advisor_suggests_actions(small_dataset):
    predictor = CongestionPredictor("linear").fit(small_dataset)
    design = build_face_detection(scale=0.18, variant="baseline")
    prediction = predictor.predict_design(design)
    actions = suggest_resolutions(prediction)
    assert actions
    kinds = {a.kind for a in actions}
    assert kinds <= {"remove_inline", "replicate_inputs", "partition", "restructure"}
    # inlining provenance exists only in the synthesized module, so this
    # fails if the advisor reads the pre-HLS source
    assert "remove_inline" in kinds
    for action in actions:
        assert action.describe()
