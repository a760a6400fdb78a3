"""The C-to-FPGA flow as a pipeline of stages.

The flow is eight named stages (``hls -> rtl -> pack -> place -> route ->
sta -> graph -> backtrace``), each a :class:`Stage` object that reads
artifacts from an immutable :class:`FlowContext` and produces exactly one
new artifact.  :class:`FlowPipeline` is an ordered tuple of stages with
one :meth:`~FlowPipeline.run`, which threads a fresh context through
them, records each stage's wall clock in ``stage_seconds`` and returns
the completed context.  The flow runs in two shapes: all eight stages
label the training samples, and the serving tier runs
``(HLSStage(), GraphStage())``, which is all prediction needs.
``run(..., until=...)`` stops after a named stage (the CLI's partial
runs).

The pipeline caches nothing: every run executes its stages.  Whole flow
results are memoized (and persisted under ``REPRO_CACHE_DIR``) by
``run_flow`` in :mod:`repro.flow.c_to_fpga`, which with
``run_flow_on_design`` wraps this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.backtrace.trace import BacktraceResult, Backtracer
from repro.errors import DeadlineExceededError, FlowError
from repro.fpga.device import Device, xc7z020
from repro.graph.depgraph import build_dependency_graph
from repro.graph.snapshot import GraphStructure, compile_snapshot
from repro.hls.scheduling import ClockConstraint
from repro.hls.synthesis import HLSResult, synthesize
from repro.impl.packing import Packing, pack_netlist
from repro.impl.placement import (
    Placement,
    PlacementOptions,
    check_effort,
    place_netlist,
)
from repro.impl.routing import CongestionMap, RoutingOptions, route_design
from repro.impl.timing import TimingAnalyzer, TimingReport
from repro.kernels.common import KernelDesign
from repro.rtl.generate import generate_netlist
from repro.rtl.netlist import Netlist
from repro.util.faults import fault_point

#: canonical stage order of the complete flow
STAGE_ORDER = (
    "hls", "rtl", "pack", "place", "route", "sta", "graph", "backtrace",
)

#: the clock every flow synthesizes and times against
FLOW_CLOCK = ClockConstraint(period_ns=10.0, uncertainty_ns=1.25)


@dataclass
class FlowOptions:
    """Knobs for one C-to-FPGA run.

    Stage-level option objects (currently :class:`RoutingOptions`) are
    part of the cache key: any knob that changes a stage's output must
    change the key, or a later run would silently serve stale results.
    An unknown ``placement_effort`` is a
    :class:`~repro.errors.PlacementError` here, not at placement.
    """

    scale: float = 1.0
    seed: int = 0
    placement_effort: str = "fast"
    routing: RoutingOptions = field(default_factory=RoutingOptions)

    def __post_init__(self) -> None:
        check_effort(self.placement_effort)

    def cache_key(self, name: str, variant: str) -> tuple:
        # The fixed clock and the always-on resource sharing and Fig.-4
        # merge keep their places: the key names the disk entries and
        # the dataset fingerprint published models are found by.
        return (
            name, variant, self.scale, self.seed, self.placement_effort,
            FLOW_CLOCK.period_ns, FLOW_CLOCK.uncertainty_ns, True, True,
            *self.routing.cache_key(),
        )


@dataclass(frozen=True)
class FlowContext:
    """Immutable state threaded through the pipeline, and the result of
    a run.

    Every stage receives the context and returns one artifact; the
    pipeline attaches it via :meth:`with_output`, producing a *new*
    context.  Artifacts of stages that have not run are ``None``.
    ``stage_seconds`` maps each completed stage to its wall clock, in
    execution order.

    ``design.module`` is the pre-HLS source; the synthesized design that
    labels, graph and netlist refer to is ``hls``.  Every stage, the
    dataset assembly and :meth:`summary` read it as tables (``hls.ir``
    and its op tables); ``hls.module`` builds its IR objects only for a
    reader that asks, such as :meth:`Backtracer.ops_in_tile`.
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
    stage_seconds: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def require(self, artifact: str):
        """The named artifact, or :class:`FlowError` if its stage has
        not run."""
        value = getattr(self, artifact)
        if value is None:
            raise FlowError(
                f"artifact {artifact!r} not available; completed stages: "
                f"{list(self.stage_seconds)}"
            )
        return value

    def with_output(self, stage: str, seconds: float,
                    **artifacts) -> "FlowContext":
        return replace(self, stage_seconds={**self.stage_seconds,
                                            stage: seconds}, **artifacts)

    @property
    def backtracer(self) -> Backtracer:
        return Backtracer(
            self.require("hls"), self.require("netlist"),
            self.require("packing"), self.require("placement"),
            self.require("congestion"),
        )

    def summary(self) -> dict:
        """One-line metrics of a complete run (the benchmark tables)."""
        hls = self.require("hls")
        timing = self.require("timing")
        congestion = self.require("congestion")
        return {
            "name": self.design.name,
            "variant": self.design.variant,
            "ops": hls.ir.n_ops(),
            "latency_cycles": hls.latency_cycles,
            "lut": hls.top_report.hierarchical_resources["LUT"],
            "wns_ns": timing.wns_ns,
            "fmax_mhz": timing.max_frequency_mhz,
            "max_v_congestion": congestion.max_vertical(),
            "max_h_congestion": congestion.max_horizontal(),
            "n_congested": congestion.n_congested(),
            "n_samples": self.require("labels").n_samples(),
            "flow_seconds": sum(self.stage_seconds.values()),
        }


class Stage:
    """One named flow stage.

    Subclasses set ``name`` (stage identity) and ``provides`` (the
    :class:`FlowContext` field written) and implement :meth:`run`, which
    reads earlier artifacts through :meth:`FlowContext.require`.
    """

    name: str = ""
    provides: str = ""

    def run(self, ctx: FlowContext):
        raise NotImplementedError


class HLSStage(Stage):
    name = "hls"
    provides = "hls"

    def run(self, ctx: FlowContext) -> HLSResult:
        return synthesize(ctx.design.module, ctx.design.directives,
                          clock=FLOW_CLOCK)


class RTLStage(Stage):
    name = "rtl"
    provides = "netlist"

    def run(self, ctx: FlowContext) -> Netlist:
        return generate_netlist(ctx.require("hls"))


class PackStage(Stage):
    name = "pack"
    provides = "packing"

    def run(self, ctx: FlowContext) -> Packing:
        return pack_netlist(ctx.require("netlist"), ctx.device)


class PlaceStage(Stage):
    name = "place"
    provides = "placement"

    def run(self, ctx: FlowContext) -> Placement:
        return place_netlist(
            ctx.require("netlist"), ctx.require("packing"), ctx.device,
            PlacementOptions(effort=ctx.options.placement_effort,
                             seed=ctx.options.seed),
        )


class RouteStage(Stage):
    name = "route"
    provides = "congestion"

    def run(self, ctx: FlowContext) -> CongestionMap:
        return route_design(
            ctx.require("netlist"), ctx.require("packing"),
            ctx.require("placement"), ctx.device, ctx.options.routing,
        )


class StaStage(Stage):
    name = "sta"
    provides = "timing"

    def run(self, ctx: FlowContext) -> TimingReport:
        hls = ctx.require("hls")
        logic_delay = max(
            s.critical_delay_ns for s in hls.schedule.functions.values()
        )
        return TimingAnalyzer().analyze(
            ctx.require("netlist"), ctx.require("packing"),
            ctx.require("placement"), ctx.require("congestion"),
            logic_delay_ns=logic_delay,
            target_period_ns=FLOW_CLOCK.period_ns,
            uncertainty_ns=FLOW_CLOCK.uncertainty_ns,
        )


class GraphStage(Stage):
    name = "graph"
    provides = "graph"

    def run(self, ctx: FlowContext) -> GraphStructure:
        hls = ctx.require("hls")
        graph = build_dependency_graph(hls)
        # Compile the feature snapshot against this HLS result here, so
        # every downstream extraction (dataset assembly, prediction,
        # serving) finds it memoized on the result.
        compile_snapshot(graph, hls)
        return graph


class BacktraceStage(Stage):
    name = "backtrace"
    provides = "labels"

    def run(self, ctx: FlowContext) -> BacktraceResult:
        return ctx.backtracer.label_operations()


def default_stages() -> tuple[Stage, ...]:
    """Fresh instances of the eight stock stages, in flow order."""
    return (HLSStage(), RTLStage(), PackStage(), PlaceStage(), RouteStage(),
            StaStage(), GraphStage(), BacktraceStage())


class FlowPipeline:
    """An ordered tuple of :class:`Stage` objects (by default the eight
    of the complete flow)."""

    def __init__(self, stages: Sequence[Stage] | None = None) -> None:
        self.stages: tuple[Stage, ...] = (
            tuple(stages) if stages is not None else default_stages()
        )

    def run(
        self,
        design: KernelDesign,
        device: Device | None = None,
        options: FlowOptions | None = None,
        *,
        until: str | None = None,
        deadline: float | None = None,
    ) -> FlowContext:
        """Thread a fresh :class:`FlowContext` through the stages and
        return the completed context.

        Every stage runs: the pipeline keeps no cache of its own.
        ``until`` truncates the run after the named stage; a name no
        stage has is a :class:`~repro.errors.FlowError`.

        ``design`` is never modified: the HLS stage only reads its
        module, so ``ctx.design.module`` stays the pre-HLS source.  The
        synthesized design is ``ctx.hls``: RTL elaboration, the graph and
        back-tracing read its table IR, op tables and binding arrays, so
        no stage builds its IR objects.

        ``deadline`` (a ``time.monotonic()`` timestamp, as produced by
        :class:`repro.serve.resilience.Deadline`) is checked before each
        stage: an expired deadline raises
        :class:`~repro.errors.DeadlineExceededError` instead of starting
        more work, which is how the serving tier stops a slow request
        from occupying a worker past its budget.
        """
        options = options or FlowOptions()
        device = device or xc7z020()
        stages = self.stages
        if until is not None:
            names = [stage.name for stage in stages]
            if until not in names:
                raise FlowError(
                    f"unknown stage {until!r}; pipeline has {names}")
            stages = stages[:names.index(until) + 1]

        ctx = FlowContext(design=design, device=device, options=options)
        for stage in stages:
            if deadline is not None:
                late = time.monotonic() - deadline
                if late >= 0:
                    raise DeadlineExceededError(
                        f"deadline exceeded {late * 1e3:.1f}ms before "
                        f"stage {stage.name!r} (completed: "
                        f"{list(ctx.stage_seconds)})"
                    )
            # chaos seam: slow-stage latency / stage failure injection
            fault_point(f"stage.{stage.name}")
            start = time.perf_counter()
            value = stage.run(ctx)
            ctx = ctx.with_output(stage.name, time.perf_counter() - start,
                                  **{stage.provides: value})
        return ctx
