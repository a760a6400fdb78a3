"""The stage-pipeline API: partial runs, substitution, cache keys."""

import dataclasses

import pytest

from repro.errors import FlowError
from repro.flow import (
    STAGE_ORDER,
    FlowContext,
    FlowOptions,
    FlowPipeline,
    FlowResult,
    Stage,
    StageRecord,
    run_flow,
    run_flow_on_design,
)
from repro.flow.pipeline import RouteStage
from repro.impl.routing import RoutingOptions, route_design
from repro.kernels.combos import build_kernel

SCALE = 0.18


def _options() -> FlowOptions:
    return FlowOptions(scale=SCALE, placement_effort="fast", seed=0)


def test_default_pipeline_order():
    assert FlowPipeline.default().names == STAGE_ORDER


def test_until_hls_runs_no_physical_stage():
    design = build_kernel("face_detection", scale=SCALE)
    ctx = FlowPipeline.default().run(design, options=_options(), until="hls")
    assert ctx.completed_stages == ("hls",)
    assert ctx.hls is not None
    for artifact in ("netlist", "packing", "placement", "congestion",
                     "timing", "graph", "labels"):
        assert getattr(ctx, artifact) is None


def test_until_place_skips_routing():
    design = build_kernel("face_detection", scale=SCALE)
    ctx = FlowPipeline.default().run(design, options=_options(),
                                     until="place")
    assert ctx.completed_stages == ("hls", "rtl", "pack", "place")
    assert ctx.placement is not None
    assert ctx.congestion is None


def test_subset_graph_is_hls_prefix():
    pipe = FlowPipeline.default().subset(["graph"])
    assert pipe.names == ("hls", "graph")
    design = build_kernel("face_detection", scale=SCALE)
    ctx = pipe.run(design, options=_options())
    assert ctx.graph is not None and ctx.placement is None


def test_context_is_immutable():
    design = build_kernel("face_detection", scale=SCALE)
    ctx = FlowContext(design=design, device=None, options=_options())
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.hls = "nope"
    record = StageRecord("hls", 0.0)
    new = ctx.with_output(record)
    assert new is not ctx and new.records == (record,)
    assert ctx.records == ()


def test_context_require_raises_on_missing_artifact():
    design = build_kernel("face_detection", scale=SCALE)
    ctx = FlowContext(design=design, device=None, options=_options())
    with pytest.raises(FlowError, match="placement"):
        ctx.require("placement")


def test_wrapper_equivalent_to_pipeline():
    wrapped = run_flow_on_design(build_kernel("face_detection", scale=SCALE),
                                 options=_options())
    ctx = FlowPipeline.default().run(
        build_kernel("face_detection", scale=SCALE), options=_options()
    )
    direct = FlowResult.from_context(ctx)
    a, b = wrapped.summary(), direct.summary()
    a.pop("flow_seconds"), b.pop("flow_seconds")
    assert a == b


class _MarkedRoute(RouteStage):
    """Route with zero smear — distinguishable from the stock stage."""

    def run(self, ctx):
        return route_design(
            ctx.require("netlist"), ctx.require("packing"),
            ctx.require("placement"), ctx.device, RoutingOptions(smear=0),
        )


def test_stage_substitution():
    design = build_kernel("face_detection", scale=SCALE)
    stock = FlowPipeline.default().run(design, options=_options(),
                                       until="route")
    design2 = build_kernel("face_detection", scale=SCALE)
    swapped = FlowPipeline.default().with_stage(_MarkedRoute()).run(
        design2, options=_options(), until="route"
    )
    import numpy as np

    assert not np.array_equal(swapped.congestion.v_demand,
                              stock.congestion.v_demand)


def test_stage_injection_observer():
    seen = []

    class Probe(Stage):
        name = "probe"
        requires = ("place",)
        provides = ""

        def run(self, ctx):
            seen.append(ctx.require("placement"))

    pipe = FlowPipeline.default().insert_after("place", Probe())
    assert pipe.names.index("probe") == pipe.names.index("place") + 1
    design = build_kernel("face_detection", scale=SCALE)
    pipe.run(design, options=_options(), until="probe")
    assert len(seen) == 1


def test_pipeline_validation():
    from repro.flow.pipeline import HLSStage

    with pytest.raises(FlowError, match="duplicate"):
        FlowPipeline([HLSStage(), HLSStage()])

    class Orphan(Stage):
        name = "orphan"
        requires = ("place",)

    with pytest.raises(FlowError, match="requires"):
        FlowPipeline([Orphan()])
    with pytest.raises(FlowError, match="unknown stage"):
        FlowPipeline.default().until("nonsense")


def test_routing_options_in_flow_cache_keys():
    base = _options()
    smeared = _options()
    smeared.routing = RoutingOptions(smear=2)
    assert base.cache_key("x", "y") != smeared.cache_key("x", "y")

    a = run_flow("face_detection", "baseline", options=base)
    b = run_flow("face_detection", "baseline", options=smeared)
    assert a is not b
    c = run_flow("face_detection", "baseline", options=_options())
    assert c is a


# ----------------------------------------------------------------------
# deadline propagation + stage fault seam
# ----------------------------------------------------------------------
def test_expired_deadline_fails_before_first_stage():
    import time

    from repro.errors import DeadlineExceededError

    design = build_kernel("face_detection", scale=SCALE)
    pipe = FlowPipeline.default().subset(["graph"])
    with pytest.raises(DeadlineExceededError, match="before stage 'hls'"):
        pipe.run(design, options=_options(),
                 deadline=time.monotonic() - 1.0)


def test_slow_stage_under_deadline_raises_typed():
    """An injected slow stage eats the budget; the *next* stage boundary
    surfaces a typed DeadlineExceededError naming what did complete."""
    import time

    from repro.errors import DeadlineExceededError
    from repro.util.faults import FaultSpec, injected_faults

    design = build_kernel("face_detection", scale=SCALE)
    pipe = FlowPipeline.default().subset(["graph"])
    with injected_faults(
        [FaultSpec("stage.hls", "delay", delay_seconds=0.15)]
    ):
        with pytest.raises(DeadlineExceededError) as exc_info:
            pipe.run(design, options=_options(),
                     deadline=time.monotonic() + 0.05)
    assert "before stage 'graph'" in str(exc_info.value)
    assert "'hls'" in str(exc_info.value)  # the completed prefix


def test_generous_deadline_does_not_interfere():
    import time

    design = build_kernel("face_detection", scale=SCALE)
    pipe = FlowPipeline.default().subset(["graph"])
    ctx = pipe.run(design, options=_options(),
                   deadline=time.monotonic() + 300.0)
    assert ctx.graph is not None
