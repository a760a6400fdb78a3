"""The prediction phase: trained models applied to new designs.

"With the trained model, the highly congested regions in the source code
of the target design can be detected during the prediction phase and
users can resolve congestion issues in the HLS flow without running the
time-consuming RTL implementation flow."

``CongestionPredictor.predict_design`` therefore consumes only HLS-level
artifacts (module, schedule, binding, reports, dependency graph) — no
placement or routing is required at prediction time.  The model itself
is one flat NumPy kernel per congestion direction
(:mod:`repro.ml.compiled`), whether it was just fitted, loaded from the
model registry or handed to a pool worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.dataset.build import CongestionDataset
from repro.errors import MLError
from repro.features.extract import FeatureExtractor
from repro.flow import pipeline as flow_pipeline
from repro.fpga.device import Device, xc7z020
from repro.graph.depgraph import build_dependency_graph
from repro.hls.synthesis import HLSResult, synthesize
from repro.ir.module import Module
from repro.kernels.common import KernelDesign
from repro.ml.compiled import CompiledEnsemble, compile_model, shared_binning
from repro.ml.metrics import mean_absolute_error
from repro.predict.evaluate import ScaledModel, _model_factories


@dataclass
class SourceRegionPrediction:
    """Predicted congestion of one source location."""

    source_file: str
    source_line: int
    vertical: float
    horizontal: float
    n_ops: int

    @property
    def average(self) -> float:
        return 0.5 * (self.vertical + self.horizontal)


@dataclass
class DesignPrediction:
    """Per-node predictions plus source-level aggregation."""

    node_ids: list[int]
    vertical: np.ndarray
    horizontal: np.ndarray
    #: the synthesis result the predictions are for
    hls: HLSResult
    regions: list[SourceRegionPrediction] = field(default_factory=list)
    inference_seconds: float = 0.0

    @property
    def module(self) -> Module:
        """The synthesized IR objects (built on the first read)."""
        return self.hls.module

    def hottest_regions(self, n: int = 5) -> list[SourceRegionPrediction]:
        return sorted(self.regions, key=lambda r: -r.average)[:n]


class RegionIndex:
    """Model-independent node -> source-region grouping.

    Building the grouping reads each predicted operation's source file
    and line from the synthesized table IR (op node ids number the
    operations in module order) — a handful of array operations per
    (result, graph, nodes) — while evaluating it against fresh
    predictions is a handful of vectorized maxima.  The serving tier
    memoizes instances per design group so repeated requests pay only
    the cheap half.
    """

    __slots__ = ("_keys", "_indices")

    def __init__(self, keys: list[tuple[str, int]],
                 indices: list[np.ndarray]) -> None:
        self._keys = keys
        self._indices = indices

    @classmethod
    def build(cls, hls: HLSResult, graph,
              nodes: list[int]) -> "RegionIndex":
        """Group ``nodes`` of ``graph`` by the source line of their
        operation in ``hls``, the synthesis result the graph was built
        from; groups come in the order of their first node."""
        ir = hls.ir
        ops = ir.module_order()[np.asarray(nodes, dtype=np.int64)]
        file, line = ir.op_file[ops], ir.op_line[ops]
        key = file * (int(line.max(initial=0)) + 1) + line
        _, first, group = np.unique(key, return_index=True,
                                    return_inverse=True)
        group = group.reshape(-1)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        group = rank[group]
        by_group = np.argsort(group, kind="stable")
        cuts = np.flatnonzero(np.diff(group[by_group])) + 1
        heads = np.sort(first)
        return cls(
            [(ir.file_names[f], ln) for f, ln in
             zip(file[heads].tolist(), line[heads].tolist())],
            np.split(by_group, cuts) if len(by_group) else [],
        )

    def regions(self, v: np.ndarray,
                h: np.ndarray) -> list[SourceRegionPrediction]:
        return [
            SourceRegionPrediction(
                source_file=file,
                source_line=line,
                vertical=float(v[idx].max()),
                horizontal=float(h[idx].max()),
                n_ops=len(idx),
            )
            for (file, line), idx in zip(self._keys, self._indices)
        ]


def regions_from_predictions(
    hls: HLSResult,
    graph,
    nodes: list[int],
    v: np.ndarray,
    h: np.ndarray,
) -> list[SourceRegionPrediction]:
    """Aggregate per-node predictions to source-region maxima.

    Shared by :meth:`CongestionPredictor.predict_design` and the batch
    path of :class:`repro.serve.CongestionService` so both report
    identical regions for identical per-node predictions.
    """
    return RegionIndex.build(hls, graph, nodes).regions(v, h)


class CongestionPredictor:
    """Vertical + horizontal congestion regressors behind one facade.

    A fitted predictor answers through one flat NumPy kernel per
    direction (:mod:`repro.ml.compiled`) and nothing else: :meth:`fit`
    lowers the trained models right away, and :meth:`from_kernels`
    rebuilds a predictor from kernels alone — what the model registry
    loads and what pool workers adopt.  Only the instance that fitted
    keeps its training-time estimators (for
    :attr:`feature_importances_`).
    """

    def __init__(self, model: str = "gbrt", device: Device | None = None):
        factories = _model_factories()
        if model not in factories:
            raise MLError(f"unknown model family {model!r}")
        self.model_name = model
        self.device = device or xc7z020()
        self._models: dict[str, ScaledModel] = {}
        self._factory = factories[model]
        #: direction -> kernel; empty until fitted
        self.kernels: dict = {}
        self._shared_bins = False

    @classmethod
    def from_kernels(cls, model: str, kernels: dict, *,
                     device: Device | None = None,
                     n_training_samples: int | None = None,
                     ) -> "CongestionPredictor":
        """A predictor serving ``kernels`` (``{"vertical": ...,
        "horizontal": ...}``), with no training-time estimators."""
        predictor = cls(model, device)
        predictor._adopt_kernels(kernels)
        if n_training_samples is not None:
            predictor.n_training_samples_ = n_training_samples
        return predictor

    def _adopt_kernels(self, kernels: dict) -> None:
        self.kernels = dict(kernels)
        vertical, horizontal = kernels["vertical"], kernels["horizontal"]
        # both directions are fitted on the same X, so tree ensembles
        # share their bin edges: quantize once, traverse twice
        self._shared_bins = (
            vertical.kind == horizontal.kind == CompiledEnsemble.kind
            and shared_binning(vertical, horizontal)
        )

    # ------------------------------------------------------------------
    def fit(self, dataset: CongestionDataset, *, filter_marginal: bool = True
            ) -> "CongestionPredictor":
        """Train one regressor per congestion direction, then lower each
        to its serving kernel."""
        data = dataset.filter_marginal()[0] if filter_marginal else dataset
        for target in ("vertical", "horizontal"):
            model = ScaledModel(
                self._factory(), with_scaler=self.model_name != "gbrt"
            )
            model.fit(data.X, data.target(target))
            self._models[target] = model
        self._adopt_kernels({
            target: compile_model(model)
            for target, model in self._models.items()
        })
        self.n_training_samples_ = data.n_samples
        return self

    def _check_fitted(self) -> None:
        if not self.kernels:
            raise MLError("CongestionPredictor must be fitted first")

    # ------------------------------------------------------------------
    def predict_matrix(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._check_fitted()
        vertical = self.kernels["vertical"]
        horizontal = self.kernels["horizontal"]
        if self._shared_bins:
            codes = vertical.bin(X)
            return (
                vertical.predict_codes(codes),
                horizontal.predict_codes(codes),
            )
        return vertical.predict(X), horizontal.predict(X)

    def score(self, dataset: CongestionDataset) -> dict[str, float]:
        """MAE per direction on a labelled dataset."""
        v, h = self.predict_matrix(dataset.X)
        return {
            "vertical_mae": mean_absolute_error(dataset.y_vertical, v),
            "horizontal_mae": mean_absolute_error(dataset.y_horizontal, h),
        }

    # ------------------------------------------------------------------
    def predict_design(
        self,
        design: KernelDesign,
        *,
        hls: HLSResult | None = None,
    ) -> DesignPrediction:
        """Predict per-operation congestion from HLS artifacts only.

        ``hls`` is the design's synthesis result, computed here when not
        given under the flow's clock, as the flow's HLS stage does; every
        structural read goes to its op tables, and no IR object of the
        synthesized module is built.
        """
        self._check_fitted()
        start = time.perf_counter()
        if hls is None:
            hls = synthesize(design.module, design.directives,
                             clock=flow_pipeline.FLOW_CLOCK)
        graph = build_dependency_graph(hls)
        extractor = FeatureExtractor(hls, graph, self.device)
        nodes, X = extractor.extract_all()
        v, h = self.predict_matrix(X)
        regions = regions_from_predictions(hls, graph, nodes, v, h)
        return DesignPrediction(
            node_ids=nodes,
            vertical=v,
            horizontal=h,
            hls=hls,
            regions=regions,
            inference_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    @property
    def feature_importances_(self) -> np.ndarray | None:
        """Vertical-model importances (GBRT split counts), if available:
        ``None`` for families without them and for a predictor rebuilt
        from kernels."""
        self._check_fitted()
        model = self._models.get("vertical")
        if model is None:
            return None
        return getattr(model.estimator, "feature_importances_", None)
