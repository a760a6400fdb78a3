"""repro — reproduction of "Machine Learning Based Routing Congestion
Prediction in FPGA High-Level Synthesis" (Zhao et al., DATE 2019).

Public API tour
---------------

Build a design and run the full C-to-FPGA flow::

    from repro import run_flow
    result = run_flow("face_detection", "baseline")
    print(result.summary())

Build the paper's dataset and train the models::

    from repro import build_paper_dataset, evaluate_models
    dataset = build_paper_dataset()
    table4 = evaluate_models(dataset)

Predict congestion for a new design without place-and-route::

    from repro import CongestionPredictor, build_face_detection
    predictor = CongestionPredictor("gbrt").fit(dataset)
    design = build_face_detection(variant="baseline")
    prediction = predictor.predict_design(design)
    print(prediction.hottest_regions())

Serve many predictions from a persistent model (train once, then every
process loads from the registry under ``REPRO_CACHE_DIR``)::

    from repro import CongestionService, PredictRequest
    service = CongestionService("gbrt")
    responses = service.predict_batch(
        [PredictRequest("face_detection"), PredictRequest("bnn")]
    )

The package namespace resolves lazily (PEP 562): importing ``repro`` is
free, and inference-only consumers — a process importing
:mod:`repro.ml.compiled` to decode and run a model's packed kernels —
never pull in the flow/training stack at all.
"""

import importlib

__version__ = "1.0.0"

#: public name -> defining module, resolved on first attribute access
_EXPORTS = {
    "ReproError": "repro.errors",
    "FlowContext": "repro.flow",
    "FlowOptions": "repro.flow",
    "FlowPipeline": "repro.flow",
    "run_flow": "repro.flow",
    "run_flow_on_design": "repro.flow",
    "CongestionDataset": "repro.dataset",
    "build_paper_dataset": "repro.dataset",
    "CongestionPredictor": "repro.predict",
    "evaluate_models": "repro.predict",
    "suggest_resolutions": "repro.predict",
    "build_face_detection": "repro.kernels",
    "build_digit_recognition": "repro.kernels",
    "build_spam_filter": "repro.kernels",
    "build_bnn": "repro.kernels",
    "build_rendering_3d": "repro.kernels",
    "build_optical_flow": "repro.kernels",
    "build_kernel": "repro.kernels",
    "build_combined": "repro.kernels",
    "PAPER_COMBINATIONS": "repro.kernels",
    "N_FEATURES": "repro.features",
    "FeatureCategory": "repro.features",
    "feature_names": "repro.features",
    "xc7z020": "repro.fpga",
    "CongestionService": "repro.serve",
    "ModelRegistry": "repro.serve",
    "PredictRequest": "repro.serve",
    "PredictResponse": "repro.serve",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(importlib.import_module(module), name)
    # fall back to subpackage access (``repro.serve`` after a bare
    # ``import repro``), mirroring eager-init behavior
    try:
        return importlib.import_module(f"repro.{name}")
    except ModuleNotFoundError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}"
        ) from None


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
