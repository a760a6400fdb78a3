"""A what-if prediction builds no synthesized IR and frees its artifacts.

``CongestionService.predict`` reads the synthesized design through its
table IR and op tables only: it creates no
:class:`~repro.ir.operation.Operation` beyond the design build's and
never materializes ``HLSResult.module``.  Its per-request artifacts —
the HLS result, the dependency graph, the feature snapshot and the
feature matrix — form no reference cycle, so they die as soon as the
request returns, with the collector off.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.features.extract import FeatureExtractor
from repro.flow import FlowOptions
from repro.hls.tableir import ModuleTable
from repro.ir.operation import Operation
from repro.kernels.combos import build_kernel
from repro.serve import CongestionService, PredictRequest

DESIGN = "face_detection"


class _ConstantModel:
    """A stand-in model: these tests measure the path, not the answer."""

    def predict_matrix(self, X):
        return np.full(len(X), 7.0), np.full(len(X), 3.0)


def _service() -> CongestionService:
    service = CongestionService("linear", options=FlowOptions(scale=1.0),
                                registry=None)
    service.adopt_predictor(_ConstantModel(), source="memory")
    return service


def _operations() -> int:
    return sum(type(obj) is Operation for obj in gc.get_objects())


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def test_prediction_creates_no_operations_beyond_the_design_build(
        monkeypatch, collector_off):
    design_ops = build_kernel(DESIGN, scale=1.0).module.n_ops()
    gc.collect()

    def refuse(self):
        raise AssertionError("the what-if path materialized hls.module")

    monkeypatch.setattr(ModuleTable, "module", refuse)
    service = _service()
    before = _operations()
    response = service.predict(PredictRequest(DESIGN))
    assert response.n_operations > design_ops
    assert _operations() - before == design_ops


def test_feature_matrix_dies_with_the_request(monkeypatch, collector_off):
    refs = {}
    extract_all = FeatureExtractor.extract_all

    def watched(self):
        nodes, X = extract_all(self)
        refs.update(hls=weakref.ref(self.hls), graph=weakref.ref(self.graph),
                    snapshot=weakref.ref(self.snapshot),
                    matrix=weakref.ref(X.base if X.base is not None else X))
        return nodes, X

    monkeypatch.setattr(FeatureExtractor, "extract_all", watched)
    service = _service()
    service.predict(PredictRequest(DESIGN))
    assert set(refs) == {"hls", "graph", "snapshot", "matrix"}
    assert {name: ref() is None for name, ref in refs.items()} == \
        dict.fromkeys(refs, True)
