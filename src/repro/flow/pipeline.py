"""Composable stage pipeline for the C-to-FPGA flow.

The flow is eight named stages (``hls -> rtl -> pack -> place -> route ->
sta -> graph -> backtrace``), each a :class:`Stage` object that consumes
artifacts from an immutable :class:`FlowContext` and produces exactly one
new artifact.  :class:`FlowPipeline` threads the context through the
stages and supports:

* **partial runs** — ``pipeline.run(design, until="place")`` stops after
  placement; ``pipeline.subset(["graph"])`` keeps only the stages a
  target transitively requires (the HLS-prefix used by the serving
  layer never touches place-and-route);
* **substitution / injection** — ``with_stage`` swaps a stage
  implementation, ``insert_after`` injects an extra one, both returning
  a new pipeline (experiments never mutate the default flow);
* **per-stage timing** — every executed stage appends a
  :class:`StageRecord` (name, seconds) to the context.

The pipeline caches nothing: every run executes its stages.  Whole flow
results are memoized (and persisted under ``REPRO_CACHE_DIR``) by
``run_flow`` in :mod:`repro.flow.c_to_fpga`, which with
``run_flow_on_design`` wraps this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.backtrace.trace import BacktraceResult, Backtracer
from repro.errors import DeadlineExceededError, FlowError
from repro.fpga.device import Device, xc7z020
from repro.graph.depgraph import build_dependency_graph
from repro.graph.snapshot import GraphStructure, compile_snapshot
from repro.hls.scheduling import ClockConstraint
from repro.hls.synthesis import HLSResult, synthesize
from repro.impl.packing import Packing, pack_netlist
from repro.impl.placement import Placement, PlacementOptions, place_netlist
from repro.impl.routing import CongestionMap, RoutingOptions, route_design
from repro.impl.timing import TimingAnalyzer, TimingParams, TimingReport
from repro.kernels.common import KernelDesign
from repro.rtl.generate import generate_netlist
from repro.rtl.netlist import Netlist
from repro.util.faults import fault_point

#: canonical stage order of the complete flow
STAGE_ORDER = (
    "hls", "rtl", "pack", "place", "route", "sta", "graph", "backtrace",
)


@dataclass
class FlowOptions:
    """Knobs for one C-to-FPGA run.

    Stage-level option objects (currently :class:`RoutingOptions`) are
    part of the cache key: any knob that changes a stage's output must
    change the key, or a later run would silently serve stale results.
    """

    scale: float = 1.0
    seed: int = 0
    placement_effort: str = "fast"
    clock_period_ns: float = 10.0
    clock_uncertainty_ns: float = 1.25
    merge_shared: bool = True
    allow_sharing: bool = True
    routing: RoutingOptions = field(default_factory=RoutingOptions)

    def cache_key(self, name: str, variant: str) -> tuple:
        return (
            name, variant, self.scale, self.seed, self.placement_effort,
            self.clock_period_ns, self.clock_uncertainty_ns,
            self.merge_shared, self.allow_sharing,
            *self.routing.cache_key(),
        )


@dataclass(frozen=True)
class StageRecord:
    """Telemetry for one executed stage."""

    stage: str
    seconds: float


@dataclass(frozen=True)
class FlowContext:
    """Immutable state threaded through the pipeline.

    Every stage receives the context and returns one artifact; the
    pipeline attaches it via :meth:`with_output`, producing a *new*
    context.  Artifacts of stages that have not run are ``None``.
    """

    design: KernelDesign
    device: Device
    options: FlowOptions
    hls: HLSResult | None = None
    netlist: Netlist | None = None
    packing: Packing | None = None
    placement: Placement | None = None
    congestion: CongestionMap | None = None
    timing: TimingReport | None = None
    graph: GraphStructure | None = None
    labels: BacktraceResult | None = None
    records: tuple[StageRecord, ...] = ()

    # ------------------------------------------------------------------
    @property
    def stage_seconds(self) -> dict[str, float]:
        """Per-stage wall clock (insertion order == execution order)."""
        return {r.stage: r.seconds for r in self.records}

    @property
    def completed_stages(self) -> tuple[str, ...]:
        return tuple(r.stage for r in self.records)

    def require(self, artifact: str):
        """The named artifact, or :class:`FlowError` if its stage has
        not run."""
        value = getattr(self, artifact)
        if value is None:
            raise FlowError(
                f"artifact {artifact!r} not available; completed stages: "
                f"{list(self.completed_stages)}"
            )
        return value

    def with_output(self, record: StageRecord, **artifacts) -> "FlowContext":
        return replace(self, records=(*self.records, record), **artifacts)


class Stage:
    """One named flow stage.

    Subclasses set ``name`` (stage identity), ``requires`` (names of
    stages whose artifacts must already be in the context), ``provides``
    (the :class:`FlowContext` field written; empty for observer-only
    stages) and implement :meth:`run`.
    """

    name: str = ""
    requires: tuple[str, ...] = ()
    provides: str = ""

    def run(self, ctx: FlowContext):
        raise NotImplementedError


class HLSStage(Stage):
    name = "hls"
    provides = "hls"

    def run(self, ctx: FlowContext) -> HLSResult:
        clock = ClockConstraint(ctx.options.clock_period_ns,
                                ctx.options.clock_uncertainty_ns)
        return synthesize(
            ctx.design.module, ctx.design.directives, clock=clock,
            allow_sharing=ctx.options.allow_sharing,
        )


class RTLStage(Stage):
    name = "rtl"
    requires = ("hls",)
    provides = "netlist"

    def run(self, ctx: FlowContext) -> Netlist:
        return generate_netlist(ctx.require("hls"))


class PackStage(Stage):
    name = "pack"
    requires = ("rtl",)
    provides = "packing"

    def run(self, ctx: FlowContext) -> Packing:
        return pack_netlist(ctx.require("netlist"), ctx.device)


class PlaceStage(Stage):
    name = "place"
    requires = ("rtl", "pack")
    provides = "placement"

    def run(self, ctx: FlowContext) -> Placement:
        return place_netlist(
            ctx.require("netlist"), ctx.require("packing"), ctx.device,
            PlacementOptions(effort=ctx.options.placement_effort,
                             seed=ctx.options.seed),
        )


class RouteStage(Stage):
    name = "route"
    requires = ("rtl", "pack", "place")
    provides = "congestion"

    def run(self, ctx: FlowContext) -> CongestionMap:
        return route_design(
            ctx.require("netlist"), ctx.require("packing"),
            ctx.require("placement"), ctx.device, ctx.options.routing,
        )


class StaStage(Stage):
    name = "sta"
    requires = ("hls", "rtl", "pack", "place", "route")
    provides = "timing"

    def run(self, ctx: FlowContext) -> TimingReport:
        hls = ctx.require("hls")
        logic_delay = max(
            s.critical_delay_ns for s in hls.schedule.functions.values()
        )
        return TimingAnalyzer(ctx.device, TimingParams()).analyze(
            ctx.require("netlist"), ctx.require("packing"),
            ctx.require("placement"), ctx.require("congestion"),
            logic_delay_ns=logic_delay,
            target_period_ns=ctx.options.clock_period_ns,
            uncertainty_ns=ctx.options.clock_uncertainty_ns,
        )


class GraphStage(Stage):
    name = "graph"
    requires = ("hls",)
    provides = "graph"

    def run(self, ctx: FlowContext) -> GraphStructure:
        hls = ctx.require("hls")
        graph = build_dependency_graph(
            hls, merge_shared=ctx.options.merge_shared,
        )
        # Compile the feature snapshot against this HLS result here, so
        # every downstream extraction (dataset assembly, prediction,
        # serving) finds it memoized on the result.
        compile_snapshot(graph, hls)
        return graph


class BacktraceStage(Stage):
    name = "backtrace"
    requires = ("hls", "rtl", "pack", "place", "route")
    provides = "labels"

    def run(self, ctx: FlowContext) -> BacktraceResult:
        return Backtracer(
            ctx.require("hls").module, ctx.require("netlist"),
            ctx.require("packing"), ctx.require("placement"),
            ctx.require("congestion"),
        ).label_operations()


def default_stages() -> tuple[Stage, ...]:
    """Fresh instances of the eight stock stages, in flow order."""
    return (HLSStage(), RTLStage(), PackStage(), PlaceStage(), RouteStage(),
            StaStage(), GraphStage(), BacktraceStage())


class FlowPipeline:
    """An ordered, validated sequence of :class:`Stage` objects."""

    def __init__(self, stages: Sequence[Stage] | None = None) -> None:
        self.stages: tuple[Stage, ...] = (
            tuple(stages) if stages is not None else default_stages()
        )
        self._by_name: dict[str, Stage] = {}
        provided: set[str] = set()
        for stage in self.stages:
            if not stage.name:
                raise FlowError(f"stage {stage!r} has no name")
            if stage.name in self._by_name:
                raise FlowError(f"duplicate stage name {stage.name!r}")
            for req in stage.requires:
                if req not in self._by_name:
                    raise FlowError(
                        f"stage {stage.name!r} requires {req!r}, which is "
                        f"not an earlier stage"
                    )
            if stage.provides:
                if stage.provides in provided:
                    raise FlowError(
                        f"artifact {stage.provides!r} provided twice"
                    )
                if stage.provides not in FlowContext.__dataclass_fields__:
                    raise FlowError(
                        f"stage {stage.name!r} provides unknown artifact "
                        f"{stage.provides!r}"
                    )
                provided.add(stage.provides)
            self._by_name[stage.name] = stage

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    @classmethod
    def default(cls) -> "FlowPipeline":
        return cls()

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def stage(self, name: str) -> Stage:
        if name not in self._by_name:
            raise FlowError(
                f"unknown stage {name!r}; pipeline has {list(self.names)}"
            )
        return self._by_name[name]

    def until(self, name: str) -> "FlowPipeline":
        """The prefix pipeline ending at (and including) ``name``."""
        self.stage(name)
        cut = self.names.index(name) + 1
        return FlowPipeline(self.stages[:cut])

    def subset(self, targets: Iterable[str]) -> "FlowPipeline":
        """Only ``targets`` plus the stages they transitively require.

        ``FlowPipeline.default().subset(["graph"])`` is the HLS-prefix
        pipeline (``hls`` -> ``graph``) — no place-and-route.
        """
        needed: set[str] = set()

        def visit(name: str) -> None:
            if name in needed:
                return
            needed.add(name)
            for req in self.stage(name).requires:
                visit(req)

        for target in targets:
            visit(target)
        return FlowPipeline([s for s in self.stages if s.name in needed])

    def with_stage(self, stage: Stage) -> "FlowPipeline":
        """Substitute the same-named stage with ``stage``."""
        self.stage(stage.name)
        return FlowPipeline([
            stage if s.name == stage.name else s for s in self.stages
        ])

    def insert_after(self, anchor: str, stage: Stage) -> "FlowPipeline":
        """Inject ``stage`` right after stage ``anchor``."""
        idx = self.names.index(self.stage(anchor).name) + 1
        return FlowPipeline([*self.stages[:idx], stage, *self.stages[idx:]])

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        design: KernelDesign,
        device: Device | None = None,
        options: FlowOptions | None = None,
        *,
        until: str | None = None,
        deadline: float | None = None,
    ) -> FlowContext:
        """Thread a fresh :class:`FlowContext` through the stages.

        Every stage runs: the pipeline keeps no cache of its own.
        ``until`` truncates the run after the named stage.

        ``design`` is never modified: the HLS stage only reads its
        module, so ``ctx.design.module`` stays the pre-HLS source.  The
        synthesized design is ``ctx.hls``: the graph stage reads its op
        tables, and ``ctx.hls.module`` builds its IR objects for the
        stages that walk them (RTL elaboration, back-tracing).

        ``deadline`` (a ``time.monotonic()`` timestamp, as produced by
        :class:`repro.serve.resilience.Deadline`) is checked before each
        stage: an expired deadline raises
        :class:`~repro.errors.DeadlineExceededError` instead of starting
        more work, which is how the serving tier stops a slow request
        from occupying a worker past its budget.
        """
        options = options or FlowOptions()
        device = device or xc7z020()
        pipe = self.until(until) if until is not None else self

        ctx = FlowContext(design=design, device=device, options=options)
        for stage in pipe.stages:
            if deadline is not None:
                late = time.monotonic() - deadline
                if late >= 0:
                    raise DeadlineExceededError(
                        f"deadline exceeded {late * 1e3:.1f}ms before "
                        f"stage {stage.name!r} (completed: "
                        f"{list(ctx.completed_stages)})"
                    )
            # chaos seam: slow-stage latency / stage failure injection
            fault_point(f"stage.{stage.name}")
            start = time.perf_counter()
            value = stage.run(ctx)
            record = StageRecord(stage.name, time.perf_counter() - start)
            artifacts = {stage.provides: value} if stage.provides else {}
            ctx = ctx.with_output(record, **artifacts)
        return ctx
