"""Interactive what-if sweeps over a directive space.

An :class:`ExplorationSession` owns one design + one
:class:`~repro.explore.space.DirectiveSpace` and answers "what would
this pragma combination do?" many times cheaply:

* every configuration becomes one
  :class:`~repro.serve.service.PredictRequest` carrying the applied
  directive set's canonical key, and the whole sweep fans through
  :meth:`CongestionService.predict_batch` (or through a
  :class:`~repro.serve.server.ResilientCongestionServer` — one explore
  session is exactly the correlated-fan-out stress workload the serving
  tier was built for);
* only the **HLS prefix** of the flow ever runs in predict mode — the
  serving pipeline is ``(HLSStage(), GraphStage())``, so no
  packing/placement/routing stage can execute, which is the paper's
  entire value proposition;
* evaluations are memoized by canonical directive key, and the
  service's feature cache holds each configuration's HLS-prefix result,
  so each unique configuration is synthesized at most once per sweep no
  matter how often the tuner revisits it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ExploreError, OverloadedError
from repro.explore.space import DirectiveConfig, DirectiveSpace
from repro.flow.c_to_fpga import run_flow_on_design
from repro.flow.pipeline import FlowOptions
from repro.hls.directives import DirectiveSet
from repro.kernels.combos import (
    KERNEL_BUILDERS,
    PAPER_COMBINATIONS,
    build_combined,
    build_kernel,
)
from repro.serve.service import CongestionService, PredictRequest

#: regions hotter than this (avg of V/H, percent) count as "hot area"
HOT_REGION_THRESHOLD = 80.0

#: request enough regions that hot-area statistics see all of them
_ALL_REGIONS = 1_000_000


@dataclass
class ConfigEvaluation:
    """Predicted outcome of one directive configuration."""

    label: str
    directives_key: tuple
    config: DirectiveConfig | None  # None for the design's baseline
    #: predicted congestion (percent of track capacity)
    peak_vertical: float = 0.0
    peak_horizontal: float = 0.0
    hot_regions: int = 0
    mean_region: float = 0.0
    #: HLS-report trade-off axes
    latency_cycles: int = 0
    resources: dict[str, int] = field(default_factory=dict)
    n_operations: int = 0
    #: deltas vs the session baseline (filled by the session)
    delta_peak: float = 0.0
    delta_hot_regions: int = 0
    delta_mean: float = 0.0
    delta_latency: int = 0
    delta_lut: int = 0
    #: ground-truth place-and-route numbers (validation mode only)
    measured: dict | None = None

    @property
    def peak(self) -> float:
        return max(self.peak_vertical, self.peak_horizontal)

    @property
    def lut(self) -> int:
        return int(self.resources.get("LUT", 0))

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "peak": round(self.peak, 3),
            "peak_vertical": round(self.peak_vertical, 3),
            "peak_horizontal": round(self.peak_horizontal, 3),
            "hot_regions": self.hot_regions,
            "mean_region": round(self.mean_region, 3),
            "latency_cycles": self.latency_cycles,
            "lut": self.lut,
            "n_operations": self.n_operations,
            "delta_peak": round(self.delta_peak, 3),
            "delta_hot_regions": self.delta_hot_regions,
            "delta_mean": round(self.delta_mean, 3),
            "delta_latency": self.delta_latency,
            "delta_lut": self.delta_lut,
            **({"measured": self.measured}
               if self.measured is not None else {}),
        }


def pareto_front(evaluations: list[ConfigEvaluation]) -> list[int]:
    """Indices of non-dominated evaluations (minimize predicted peak,
    hot-area, latency and LUT simultaneously)."""

    def axes(e: ConfigEvaluation) -> tuple:
        return (e.peak, e.hot_regions, e.latency_cycles, e.lut)

    front = []
    for i, e in enumerate(evaluations):
        a = axes(e)
        dominated = False
        for j, other in enumerate(evaluations):
            if i == j:
                continue
            b = axes(other)
            if all(x <= y for x, y in zip(b, a)) and b != a:
                dominated = True
                break
        if not dominated:
            front.append(i)
    return front


@dataclass
class SweepResult:
    """Everything one sweep produced."""

    design: str
    variant: str
    baseline: ConfigEvaluation
    evaluations: list[ConfigEvaluation]
    pareto: list[int]
    telemetry: dict
    seconds: float

    def best(self, n: int = 5) -> list[ConfigEvaluation]:
        """Top-``n`` configurations by predicted peak (ties broken by
        hot-area, then latency)."""
        return sorted(
            self.evaluations,
            key=lambda e: (e.peak, e.hot_regions, e.latency_cycles),
        )[:n]

    def to_json(self) -> dict:
        return {
            "design": self.design,
            "variant": self.variant,
            "baseline": self.baseline.to_json(),
            "evaluations": [e.to_json() for e in self.evaluations],
            "pareto": [self.evaluations[i].label for i in self.pareto],
            "telemetry": self.telemetry,
            "seconds": round(self.seconds, 4),
        }


def build_design_for(name: str, variant: str, scale: float,
                     directives_key: tuple | None = None):
    """By-name design build, optionally with overridden directives."""
    if name in KERNEL_BUILDERS:
        design = build_kernel(name, scale=scale, variant=variant)
    elif name in PAPER_COMBINATIONS:
        design = build_combined(name, scale=scale, variant=variant)
    else:
        known = sorted({*KERNEL_BUILDERS, *PAPER_COMBINATIONS})
        raise ExploreError(f"unknown design {name!r}; known: {known}")
    if directives_key is not None:
        directives = DirectiveSet.from_key(
            directives_key, name=f"{name}:{variant}:whatif"
        )
        directives.validate(design.module)
        design.directives = directives
    return design


class ExplorationSession:
    """Sweep directive configurations and compare predicted congestion."""

    def __init__(
        self,
        design: str,
        space: DirectiveSpace | None = None,
        *,
        variant: str = "baseline",
        model: str = "gbrt",
        service: CongestionService | None = None,
        server=None,
        options: FlowOptions | None = None,
        device=None,
        max_knobs: int | None = None,
        hot_threshold: float = HOT_REGION_THRESHOLD,
        n_jobs: int = 1,
    ) -> None:
        self.design = design
        self.variant = variant
        self.hot_threshold = hot_threshold
        if service is None and server is not None:
            service = server.service
        self.service = service or CongestionService(
            model, options=options, device=device, n_jobs=n_jobs,
        )
        #: optional resilient front-end; when set, predictions are
        #: submitted through its bounded queue / micro-batcher instead
        #: of calling the service directly
        self.server = server
        self.options = self.service.options
        self.device = self.service.device
        #: source of the base directive set the space perturbs
        self._base_design = build_design_for(
            design, variant, self.options.scale
        )
        self.base_directives = self._base_design.directives
        self.space = space or DirectiveSpace.around(
            self._base_design, max_knobs=max_knobs
        )
        self.space.validate(self._base_design.module)
        #: canonical directive key -> ConfigEvaluation
        self._evaluations: dict[tuple, ConfigEvaluation] = {}
        self._baseline: ConfigEvaluation | None = None
        self.counters = {
            "configs_requested": 0,
            "memo_hits": 0,
            "predictions_issued": 0,
            "ground_truth_flows": 0,
        }

    # ------------------------------------------------------------------
    # prediction plumbing
    # ------------------------------------------------------------------
    def _predict(self, requests: list[PredictRequest]):
        if self.server is None:
            return self.service.predict_batch(requests)
        # fan out through the resilient front-end; back off when the
        # admission queue is full (resolve the oldest future first)
        futures = []
        for request in requests:
            while True:
                try:
                    futures.append(self.server.submit(request))
                    break
                except OverloadedError:
                    if not futures:
                        raise
                    futures[0].result(timeout=60.0)
        return [f.result(timeout=60.0) for f in futures]

    def _evaluation_from_response(self, response, label: str,
                                  key: tuple,
                                  config: DirectiveConfig | None
                                  ) -> ConfigEvaluation:
        regions = response.regions
        hot = sum(1 for r in regions if r.average > self.hot_threshold)
        mean = (sum(r.average for r in regions) / len(regions)
                if regions else 0.0)
        return ConfigEvaluation(
            label=label,
            directives_key=key,
            config=config,
            peak_vertical=response.predicted_max_vertical,
            peak_horizontal=response.predicted_max_horizontal,
            hot_regions=hot,
            mean_region=mean,
            latency_cycles=response.latency_cycles,
            resources=dict(response.resources),
            n_operations=response.n_operations,
        )

    def _fill_deltas(self, evaluation: ConfigEvaluation) -> None:
        base = self.baseline()
        evaluation.delta_peak = evaluation.peak - base.peak
        evaluation.delta_hot_regions = (
            evaluation.hot_regions - base.hot_regions
        )
        evaluation.delta_mean = evaluation.mean_region - base.mean_region
        evaluation.delta_latency = (
            evaluation.latency_cycles - base.latency_cycles
        )
        evaluation.delta_lut = evaluation.lut - base.lut

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def baseline(self) -> ConfigEvaluation:
        """Predicted outcome of the design's own directive set."""
        if self._baseline is None:
            response = self._predict([PredictRequest(
                self.design, self.variant, top=_ALL_REGIONS,
            )])[0]
            self.counters["predictions_issued"] += 1
            self._baseline = self._evaluation_from_response(
                response, "baseline", self.base_directives.to_key(), None,
            )
        return self._baseline

    def evaluate(self, configs) -> list[ConfigEvaluation]:
        """Evaluate configurations (memoized), preserving input order.

        All not-yet-seen configurations go out as **one** prediction
        batch: one stacked model invocation, one feature extraction per
        unique configuration.
        """
        configs = list(configs)
        self.counters["configs_requested"] += len(configs)
        self.baseline()  # deltas need the reference point first
        keyed = []
        for config in configs:
            applied = self.space.apply(config, self.base_directives)
            keyed.append((config, applied.to_key()))

        fresh: dict[tuple, DirectiveConfig] = {}
        for config, key in keyed:
            if key not in self._evaluations and key not in fresh:
                fresh[key] = config
            elif key in self._evaluations:
                self.counters["memo_hits"] += 1
        if fresh:
            order = list(fresh)
            requests = [
                PredictRequest(self.design, self.variant,
                               top=_ALL_REGIONS, directives=key)
                for key in order
            ]
            responses = self._predict(requests)
            self.counters["predictions_issued"] += len(requests)
            for key, response in zip(order, responses):
                evaluation = self._evaluation_from_response(
                    response, fresh[key].label(), key, fresh[key],
                )
                self._fill_deltas(evaluation)
                self._evaluations[key] = evaluation
        return [self._evaluations[key] for _, key in keyed]

    def sweep(self, configs=None, *, max_configs: int = 24,
              seed: int = 0) -> SweepResult:
        """Evaluate a batch of configurations and rank them.

        ``configs`` defaults to a seed-deterministic sample of the
        space (full enumeration when it fits in ``max_configs``).
        """
        start = time.perf_counter()
        if configs is None:
            configs = self.space.sample(max_configs, seed)
        stats_before = self.service.stats()
        baseline = self.baseline()
        evaluations = self.evaluate(configs)
        stats_after = self.service.stats()
        # de-duplicate while preserving first-seen order for the report
        unique: dict[tuple, ConfigEvaluation] = {}
        for e in evaluations:
            unique.setdefault(e.directives_key, e)
        ranked = sorted(
            unique.values(),
            key=lambda e: (e.peak, e.hot_regions, e.latency_cycles,
                           e.label),
        )
        telemetry = {
            "n_configs": len(list(configs)),
            "n_unique": len(unique),
            "predictions_issued": self.counters["predictions_issued"],
            "memo_hits": self.counters["memo_hits"],
            "feature_cache_hits": (
                stats_after["feature_hits"] - stats_before["feature_hits"]
            ),
            "feature_cache_misses": (
                stats_after["feature_misses"]
                - stats_before["feature_misses"]
            ),
            "prediction_cache_hits": (
                stats_after["prediction_hits"]
                - stats_before["prediction_hits"]
            ),
            "prediction_cache_misses": (
                stats_after["prediction_misses"]
                - stats_before["prediction_misses"]
            ),
            "service": {
                k: v for k, v in stats_after.items()
                if k in ("predictions", "batches", "trained",
                         "registry_loads", "model_source")
            },
        }
        return SweepResult(
            design=self.design,
            variant=self.variant,
            baseline=baseline,
            evaluations=ranked,
            pareto=pareto_front(ranked),
            telemetry=telemetry,
            seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    # ground truth (validation mode only — runs real place-and-route)
    # ------------------------------------------------------------------
    def measure_ground_truth(self,
                             evaluation: ConfigEvaluation) -> dict:
        """Run the **full** flow (place-and-route included) for one
        already-predicted configuration and attach measured congestion.

        This is the explicit opt-in escape hatch: predict mode never
        places or routes; validation of the top-k recommendations does.
        """
        design = build_design_for(
            self.design, self.variant, self.options.scale,
            None if evaluation.config is None else
            evaluation.directives_key,
        )
        result = run_flow_on_design(design, self.device, self.options)
        self.counters["ground_truth_flows"] += 1
        measured = {
            "max_vertical": round(result.congestion.max_vertical(), 3),
            "max_horizontal": round(result.congestion.max_horizontal(), 3),
            "peak": round(result.congestion.max_congestion(), 3),
            "mean_vertical": round(result.congestion.mean_vertical(), 3),
            "n_congested": result.congestion.n_congested(),
            "latency_cycles": result.hls.latency_cycles,
            "wns_ns": round(result.timing.wns_ns, 3),
        }
        evaluation.measured = measured
        return measured

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Session + service counters (cache-reuse telemetry)."""
        return {**self.counters, "service": self.service.stats()}
