"""The congestion-prediction serving facade.

:class:`CongestionService` is the stable front door for answering
"where will this design be congested?" many times cheaply:

* it lazily **loads-or-trains** its predictor — first from an in-memory
  slot, then from the :class:`~repro.serve.registry.ModelRegistry`
  (second processes never retrain), and only then by building the
  training dataset and fitting from scratch (saving the result);
* whichever way it came, the model is one flat NumPy kernel per
  direction: a registry load decodes the persisted arrays and serves
  them as they are, with no unpickling and no first-use compile;
* requests run only the **HLS prefix** of the flow, a pipeline of
  ``(HLSStage(), GraphStage())`` — no packing, placement or routing
  ever executes on the serving path.  The graph stage
  returns the dependency graph as read-only NumPy arrays, and feature
  extraction is batched NumPy over them: serving needs no networkx;
* the service keeps **one bounded cache**: a least-recently-used map of
  at most :attr:`CongestionService.FEATURE_CACHE_SIZE` request groups
  (design, variant, directives override).  An entry holds what an
  answer reads — the group's *distinct* feature rows with an index from
  each operation to its row, the region index and the HLS summary —
  plus the group's last answer and the model generation that produced
  it.  Operations of one design repeat their feature rows many times
  over (about one row in eight is distinct on the paper designs), so
  an entry is a fraction of the full matrix and the model scores each
  distinct row once.  A repeated group skips the design build, HLS and
  extraction, and reuses its answer while that generation is current;
  after a model swap only the model reruns.  Serving never touches
  ``run_flow``'s result memo or the ``REPRO_CACHE_DIR`` disk cache, so
  its memory stays bounded however many distinct configurations
  arrive;
* :meth:`predict_batch` answers many :class:`PredictRequest` objects in
  one model invocation: the distinct rows of all unique groups are
  stacked into a single matrix and the regressors run once, which is
  where the batch throughput win comes from.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.dataset.build import build_paper_dataset
from repro.errors import (
    CircuitOpenError,
    CorruptArtifactError,
    DeadlineExceededError,
    ModelRegistryError,
    ServeError,
    StaleModelError,
)
from repro.features.extract import FeatureExtractor
from repro.hls.directives import DirectiveSet
from repro.flow.pipeline import FlowOptions, FlowPipeline, GraphStage, HLSStage
from repro.fpga.device import Device, xc7z020
from repro.kernels.combos import (
    KERNEL_BUILDERS,
    PAPER_COMBINATIONS,
    build_combined,
    build_kernel,
)
from repro.predict.predictor import (
    CongestionPredictor,
    RegionIndex,
    SourceRegionPrediction,
)
from repro.serve.registry import ModelRegistry, dataset_spec_fingerprint
from repro.serve.resilience import ResiliencePolicy, deadline_timestamp


@dataclass(frozen=True)
class PredictRequest:
    """One prediction request, addressable by design name.

    ``directives`` optionally *overrides* the design's directive set
    with a canonical :meth:`~repro.hls.directives.DirectiveSet.to_key`
    tuple — the what-if exploration workload: same source, different
    pragma configuration, answered without any place-and-route.  Each
    distinct override is a group of its own in the service's feature
    cache, so two configurations never alias and a repeated
    configuration is a cache hit.
    """

    design: str
    variant: str = "baseline"
    #: how many hottest source regions to return
    top: int = 5
    #: canonical DirectiveSet.to_key() override, or None for the stock
    #: directives of (design, variant)
    directives: tuple | None = None

    @property
    def group_key(self) -> tuple:
        """Identity of the feature-extraction group this request joins."""
        return (self.design, self.variant, self.directives)


@dataclass
class PredictResponse:
    """Answer to one :class:`PredictRequest`."""

    request: PredictRequest
    #: hottest source regions, descending by average congestion
    regions: list[SourceRegionPrediction] = field(default_factory=list)
    n_operations: int = 0
    predicted_max_vertical: float = 0.0
    predicted_max_horizontal: float = 0.0
    #: where the model came from: "memory" | "registry" | "trained"
    model_source: str = ""
    #: wall seconds attributed to this request (batch time / batch size
    #: when served as part of a batch)
    latency_seconds: float = 0.0
    batch_size: int = 1
    #: True when the service fell back after a dependency failure (e.g.
    #: a quarantined registry artifact forced a retrain-in-place, or the
    #: trained model could not be saved); the prediction itself is
    #: from a fully fitted model, but operators should know
    degraded: bool = False
    degraded_reason: str = ""
    #: HLS-report summary of the (possibly directive-overridden) design —
    #: what-if exploration trades these against predicted congestion
    latency_cycles: int = 0
    resources: dict[str, int] = field(default_factory=dict)
    #: which model generation answered: increments every time the
    #: service adopts a predictor (train, registry load, hot-swap), so a
    #: micro-batch served across a hot-swap is provably single-generation
    model_generation: int = 0


def _row_multipliers(n_columns: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers of the row hash, one per column."""
    rng = np.random.default_rng(0x5EED_C0DE)
    return rng.integers(0, 2**64, n_columns, dtype=np.uint64) | np.uint64(1)


#: rows :func:`_distinct_rows` hashes and verifies per step.  A block of
#: 302-column feature rows keeps each step's temporaries (the folded
#: words, the gathered first rows) near 0.6 MB instead of two copies of
#: the whole matrix, and is still large enough that the few NumPy calls
#: per block cost little against the work in them.
_DISTINCT_BLOCK_ROWS = 256


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, inverse)`` with ``rows[inverse]`` equal to ``X``: the
    distinct rows of ``X`` (read-only) and each row's index among them.

    Rows are split by a 64-bit hash of their words: each word is folded
    (``u ^ (u >> 32)``, so a float's high bits reach the low ones a
    product keeps) and the row is one integer product with fixed odd
    multipliers.  The split is kept only when ``rows[inverse]`` equals
    ``X`` word for word; a collision falls back to sorting the rows'
    bytes.  Either way rows are compared by their bytes, so the split is
    exact: equal bytes are equal values.  (A ``-0.0``/``0.0`` pair stays
    two rows.)  Hashing and the check both run over blocks of
    :data:`_DISTINCT_BLOCK_ROWS` rows, so neither copies the matrix.
    """
    X = np.ascontiguousarray(X)
    if X.dtype.itemsize == 8 and X.ndim == 2 and X.shape[1]:
        words = X.view(np.uint64)
        multipliers = _row_multipliers(X.shape[1])
        blocks = [slice(start, start + _DISTINCT_BLOCK_ROWS)
                  for start in range(0, len(X), _DISTINCT_BLOCK_ROWS)]
        keys = np.empty(len(X), dtype=np.uint64)
        for block in blocks:
            folded = words[block] >> np.uint64(32)
            folded ^= words[block]
            np.matmul(folded, multipliers, out=keys[block])
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        if all(np.array_equal(words[first[inverse[block]]], words[block])
               for block in blocks):
            rows = X[first]
            rows.setflags(write=False)
            return rows, inverse
    keys = X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1])))
    _, first, inverse = np.unique(
        keys.ravel(), return_index=True, return_inverse=True
    )
    rows = X[first]
    rows.setflags(write=False)
    return rows, inverse


@dataclass(eq=False)
class _CachedGroup:
    """One feature-cache entry: everything an answer reads about a
    request group, plus the group's last answer and the model
    generation that produced it.

    The group's feature matrix is kept as its distinct rows plus the
    index of each operation's row (``rows[inverse]`` is the matrix), so
    the model scores each distinct row once and the entry holds a
    fraction of the full matrix."""

    rows: np.ndarray
    inverse: np.ndarray
    index: RegionIndex
    latency_cycles: int
    resources: dict[str, int]
    #: (regions sorted hottest first, max vertical, max horizontal)
    answer: tuple | None = None
    generation: int = 0


class CongestionService:
    """Train-or-load once, then answer prediction requests cheaply."""

    #: request groups the feature cache holds; past this the least
    #: recently used group is evicted and recomputed in full if asked again
    FEATURE_CACHE_SIZE = 128

    def __init__(
        self,
        model: str = "gbrt",
        *,
        options: FlowOptions | None = None,
        device: Device | None = None,
        combos: tuple[str, ...] | None = None,
        registry: ModelRegistry | str | None = "auto",
        n_jobs: int = 1,
        resilience: ResiliencePolicy | None = None,
        prediction_cache: bool = True,
    ) -> None:
        self.model_name = model
        self.options = options or FlowOptions()
        self.device = device or xc7z020()
        self.combos = tuple(combos or PAPER_COMBINATIONS)
        self.n_jobs = n_jobs
        #: reuse a cached group's answer while its model generation is
        #: current?  Benchmarks that measure model-invocation cost turn
        #: this off — otherwise every repeat request is a dict hit and
        #: the numbers say nothing about inference.
        self.prediction_cache = prediction_cache
        #: optional retry/circuit-breaker wiring around the registry and
        #: dataset-build dependencies (the resilient server installs one)
        self.resilience = resilience
        if registry == "auto":
            try:
                self.registry: ModelRegistry | None = ModelRegistry()
            except ModelRegistryError:
                self.registry = None  # no REPRO_CACHE_DIR: memory only
        elif isinstance(registry, str):
            self.registry = ModelRegistry(registry)
        else:
            self.registry = registry
        #: the HLS prefix — hls + dependency graph, nothing physical
        self.pipeline = FlowPipeline((HLSStage(), GraphStage()))
        self._predictor: CongestionPredictor | None = None
        self._model_source = ""
        self._model_generation = 0
        self._degraded_reason = ""
        #: the service's only cache: PredictRequest.group_key ->
        #: _CachedGroup, least recently used first
        self._feature_cache: OrderedDict[tuple, _CachedGroup] = \
            OrderedDict()
        #: concurrent workers may warm/build through one service: one
        #: lock keeps "train exactly once", the other serializes design
        #: builds, which reset the process-global op-uid counter
        self._warm_lock = threading.Lock()
        self._design_lock = threading.Lock()
        self._counters = {
            "predictions": 0, "batches": 0, "trained": 0,
            "registry_loads": 0, "stale_rejections": 0,
            "quarantined_loads": 0, "registry_unavailable": 0,
            "save_failures": 0,
            "feature_hits": 0, "feature_misses": 0,
            "prediction_hits": 0, "prediction_misses": 0,
        }

    # ------------------------------------------------------------------
    # model lifecycle
    # ------------------------------------------------------------------
    @property
    def dataset_fingerprint(self) -> str:
        return dataset_spec_fingerprint(self.combos, self.options)

    def warm(self) -> str:
        """Ensure a predictor is available; returns its source
        ("memory", "registry" or "trained").

        With a :class:`~repro.serve.resilience.ResiliencePolicy`
        installed, registry loads are retried on transient I/O and
        guarded by a circuit breaker, and **graceful degradation**
        applies: a corrupt (quarantined) artifact or an unavailable
        registry falls back to retrain-in-place and every subsequent
        response carries ``degraded=True`` with the reason, instead of
        the process crashing or silently serving nothing.
        """
        with self._warm_lock:
            return self._warm_locked()

    def _warm_locked(self) -> str:
        if self._predictor is not None:
            self._model_source = "memory"
            return self._model_source
        policy = self.resilience

        if self.registry is not None:
            def load():
                return self.registry.load(
                    self.model_name, self.dataset_fingerprint,
                    device=self.device,
                )

            if policy is not None:
                attempt = load

                def load():
                    return policy.registry_breaker.call(
                        lambda: policy.registry_retry.call(attempt),
                        on=(OSError,),
                    )

            try:
                self._predictor = load()
                self._model_generation += 1
                self._counters["registry_loads"] += 1
                self._model_source = "registry"
                return self._model_source
            except StaleModelError:
                self._counters["stale_rejections"] += 1
            except CorruptArtifactError as exc:
                # the registry already quarantined the artifact pair;
                # retrain in place and flag responses as degraded
                self._counters["quarantined_loads"] += 1
                self._degraded_reason = (
                    f"registry artifact quarantined; retrained in place "
                    f"({exc})"
                )
            except ModelRegistryError:
                pass  # nothing saved yet — train below
            except (OSError, CircuitOpenError) as exc:
                self._counters["registry_unavailable"] += 1
                self._degraded_reason = (
                    f"model registry unavailable; retrained in place "
                    f"({exc})"
                )

        def build():
            return build_paper_dataset(
                options=self.options, combos=self.combos,
                n_jobs=self.n_jobs, device=self.device,
            )

        if policy is not None:
            dataset = policy.dataset_breaker.call(build)
        else:
            dataset = build()
        predictor = CongestionPredictor(self.model_name, self.device)
        predictor.fit(dataset)
        self._predictor = predictor
        self._model_generation += 1
        self._counters["trained"] += 1
        self._model_source = "trained"
        if self.registry is not None:
            try:
                self.registry.save(
                    predictor, dataset_fingerprint=self.dataset_fingerprint
                )
            except (OSError, ModelRegistryError) as exc:
                if policy is None:
                    raise
                # resilient mode: an unsaved model still serves —
                # flag it so operators see the registry is unhealthy
                self._counters["save_failures"] += 1
                self._degraded_reason = (
                    f"trained model could not be saved ({exc})"
                )
        return self._model_source

    @property
    def predictor(self) -> CongestionPredictor:
        if self._predictor is None:
            self.warm()
        return self._predictor

    @property
    def model_generation(self) -> int:
        """0 before any model is adopted; +1 per train/load/hot-swap."""
        return self._model_generation

    def adopt_predictor(self, predictor: CongestionPredictor, *,
                        source: str = "registry") -> int:
        """Atomically replace the serving predictor (model hot-swap).

        Returns the new model generation.  A cached answer is reused
        only while the generation that produced it is current, so no
        stale answer can outlive a swap; the cached features survive it,
        and the new model reruns on them.  Callers that serve
        batches concurrently must serialize this against
        ``predict_batch`` — :meth:`ResilientCongestionServer.hot_swap`
        does exactly that, which is what makes in-flight micro-batches
        finish on the old model.
        """
        with self._warm_lock:
            self._predictor = predictor
            self._model_source = source
            self._model_generation += 1
            return self._model_generation

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _build_design(self, request: PredictRequest):
        if request.design in KERNEL_BUILDERS:
            build = build_kernel
        elif request.design in PAPER_COMBINATIONS:
            build = build_combined
        else:
            known = sorted({*KERNEL_BUILDERS, *PAPER_COMBINATIONS})
            raise ServeError(
                f"unknown design {request.design!r}; known: {known}"
            )
        with self._design_lock:
            design = build(
                request.design, scale=self.options.scale,
                variant=request.variant,
            )
        if request.directives is not None:
            directives = DirectiveSet.from_key(
                request.directives,
                name=f"{request.design}:{request.variant}:whatif",
            )
            directives.validate(design.module)
            design.directives = directives
        return design

    def _cached_group(self, request: PredictRequest,
                      deadline: float | None = None) -> _CachedGroup:
        """The feature-cache entry of ``request``'s group, computed on a
        miss: build the design, run the HLS-prefix pipeline, extract
        features and keep the matrix's distinct rows.  A hit becomes the
        most recently used entry; a miss past :attr:`FEATURE_CACHE_SIZE`
        evicts the least recently used.
        """
        key = request.group_key
        entry = self._feature_cache.get(key)
        if entry is not None:
            self._feature_cache.move_to_end(key)
            self._counters["feature_hits"] += 1
            return entry
        design = self._build_design(request)
        ctx = self.pipeline.run(design, self.device, self.options,
                                deadline=deadline)
        hls = ctx.hls
        extractor = FeatureExtractor(hls, ctx.graph, self.device)
        nodes, X = extractor.extract_all()
        rows, inverse = _distinct_rows(X)
        entry = _CachedGroup(
            rows=rows,
            inverse=inverse,
            index=RegionIndex.build(hls, ctx.graph, nodes),
            latency_cycles=hls.latency_cycles,
            resources=dict(hls.top_report.hierarchical_resources),
        )
        self._counters["feature_misses"] += 1
        while len(self._feature_cache) >= self.FEATURE_CACHE_SIZE:
            self._feature_cache.popitem(last=False)
        self._feature_cache[key] = entry
        return entry

    def predict(self, request: PredictRequest, *,
                deadline=None) -> PredictResponse:
        """Answer one request (a batch of one)."""
        return self.predict_batch([request], deadline=deadline)[0]

    def predict_batch(
        self, requests: list[PredictRequest], *, deadline=None,
    ) -> list[PredictResponse]:
        """Answer many requests with one stacked model invocation.

        ``deadline`` (a :class:`~repro.serve.resilience.Deadline` or
        monotonic timestamp) propagates into the HLS-prefix pipeline:
        an expired budget raises
        :class:`~repro.errors.DeadlineExceededError` for the whole
        batch — extraction work is shared, so the batch deadline should
        be the *loosest* member deadline (the server handles per-request
        expiry around this call).
        """
        if not requests:
            return []
        deadline = deadline_timestamp(deadline)
        start = time.perf_counter()
        predictor = self.predictor
        source = self._model_source
        generation = self._model_generation

        # one cache entry per unique (design, variant, directives); the
        # model reruns for the groups without a current answer
        entries: dict[tuple, _CachedGroup] = {}
        for request in requests:
            if request.group_key not in entries:
                entries[request.group_key] = self._cached_group(
                    request, deadline
                )
        stale = []
        for entry in entries.values():
            if (self.prediction_cache and entry.answer is not None
                    and entry.generation == generation):
                self._counters["prediction_hits"] += 1
            else:
                stale.append(entry)
                self._counters["prediction_misses"] += 1

        if stale:
            # one model invocation over the stacked feature matrix
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceededError(
                    "deadline exceeded after feature extraction, before "
                    "the model invocation"
                )
            v_all, h_all = predictor.predict_matrix(
                np.vstack([entry.rows for entry in stale])
            )
            offset = 0
            for entry in stale:
                end = offset + len(entry.rows)
                # scatter the distinct rows' answers back to operations
                v = v_all[offset:end][entry.inverse]
                h = h_all[offset:end][entry.inverse]
                offset = end
                regions = entry.index.regions(v, h)
                regions.sort(key=lambda r: -r.average)
                entry.answer = (regions, float(v.max()), float(h.max()))
                entry.generation = generation

        elapsed = time.perf_counter() - start
        degraded_reason = self._degraded_reason
        responses = []
        for request in requests:
            entry = entries[request.group_key]
            regions, v_max, h_max = entry.answer
            responses.append(PredictResponse(
                request=request,
                regions=regions[:request.top],
                n_operations=len(entry.inverse),
                predicted_max_vertical=v_max,
                predicted_max_horizontal=h_max,
                model_source=source,
                latency_seconds=elapsed / len(requests),
                batch_size=len(requests),
                degraded=bool(degraded_reason),
                degraded_reason=degraded_reason,
                latency_cycles=entry.latency_cycles,
                resources=entry.resources,
                model_generation=generation,
            ))
        self._counters["predictions"] += len(requests)
        if len(requests) > 1:
            self._counters["batches"] += 1
        return responses

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release serving resources.  A plain in-process service holds
        none (no-op); the multi-process :class:`repro.serve.pool.PoolServer`
        overrides this to stop its workers.  Idempotent."""

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service, feature-cache and registry hit statistics."""
        return {
            **self._counters,
            "model_source": self._model_source,
            "model_generation": self._model_generation,
            "degraded_reason": self._degraded_reason,
            "registry": (
                self.registry.stats() if self.registry is not None else None
            ),
            "resilience": (
                self.resilience.stats() if self.resilience is not None
                else None
            ),
        }


def measure_serving(
    service: CongestionService, requests: list[PredictRequest]
) -> dict:
    """Time single-request vs batched serving of ``requests``.

    The measurement ``python -m repro serve-demo`` prints: prime the
    feature cache first (both modes measure prediction cost, not
    first-touch synthesis), then time a per-request loop and one
    batched call.  The service must not reuse
    answers (``prediction_cache=False``): otherwise every timed request
    is a dict lookup and the numbers say nothing about the model.
    """
    if service.prediction_cache:
        raise ServeError(
            "measure_serving needs a service built with "
            "prediction_cache=False; with answer reuse on it would time "
            "cache hits"
        )
    service.predict_batch(requests)
    latencies = []
    start = time.perf_counter()
    for request in requests:
        response = service.predict(request)
        latencies.append(response.latency_seconds)
    single_seconds = time.perf_counter() - start
    start = time.perf_counter()
    service.predict_batch(requests)
    batch_seconds = time.perf_counter() - start
    return {
        "latencies": sorted(latencies),
        "single_seconds": single_seconds,
        "batch_seconds": batch_seconds,
    }
