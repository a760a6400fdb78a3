"""The stage pipeline: partial runs, the serving prefix, cache keys."""

import dataclasses

import pytest

from repro.errors import FlowError, PlacementError
from repro.flow import (
    STAGE_ORDER,
    FlowContext,
    FlowOptions,
    FlowPipeline,
    run_flow,
    run_flow_on_design,
)
from repro.impl.placement import PlacementOptions
from repro.impl.routing import RoutingOptions
from repro.kernels.combos import build_kernel
from repro.serve.registry import dataset_spec_fingerprint
from repro.serve.service import CongestionService

SCALE = 0.18


def _options() -> FlowOptions:
    return FlowOptions(scale=SCALE, placement_effort="fast", seed=0)


def test_default_pipeline_order():
    assert tuple(s.name for s in FlowPipeline().stages) == STAGE_ORDER


def test_until_hls_runs_no_physical_stage():
    design = build_kernel("face_detection", scale=SCALE)
    ctx = FlowPipeline().run(design, options=_options(), until="hls")
    assert tuple(ctx.stage_seconds) == ("hls",)
    assert ctx.hls is not None
    for artifact in ("netlist", "packing", "placement", "congestion",
                     "timing", "graph", "labels"):
        assert getattr(ctx, artifact) is None


def test_until_place_skips_routing():
    design = build_kernel("face_detection", scale=SCALE)
    ctx = FlowPipeline().run(design, options=_options(), until="place")
    assert tuple(ctx.stage_seconds) == ("hls", "rtl", "pack", "place")
    assert ctx.placement is not None
    assert ctx.congestion is None
    # a partial run has no summary: the missing artifact is named
    with pytest.raises(FlowError, match="timing"):
        ctx.summary()


def test_service_pipeline_runs_hls_and_graph_only():
    service = CongestionService("linear", options=_options(),
                                registry=None)
    assert [s.name for s in service.pipeline.stages] == ["hls", "graph"]
    design = build_kernel("face_detection", scale=SCALE)
    ctx = service.pipeline.run(design, options=_options())
    assert tuple(ctx.stage_seconds) == ("hls", "graph")
    assert ctx.graph is not None
    for artifact in ("netlist", "packing", "placement", "congestion",
                     "timing", "labels"):
        assert getattr(ctx, artifact) is None


def test_context_is_immutable():
    design = build_kernel("face_detection", scale=SCALE)
    ctx = FlowContext(design=design, device=None, options=_options())
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.hls = "nope"
    new = ctx.with_output("hls", 0.0, hls="synthesized")
    assert new is not ctx
    assert new.stage_seconds == {"hls": 0.0} and new.hls == "synthesized"
    assert ctx.stage_seconds == {} and ctx.hls is None


def test_context_require_raises_on_missing_artifact():
    design = build_kernel("face_detection", scale=SCALE)
    ctx = FlowContext(design=design, device=None, options=_options())
    with pytest.raises(FlowError, match="placement"):
        ctx.require("placement")


def test_wrapper_equivalent_to_pipeline():
    wrapped = run_flow_on_design(build_kernel("face_detection", scale=SCALE),
                                 options=_options())
    direct = FlowPipeline().run(
        build_kernel("face_detection", scale=SCALE), options=_options()
    )
    assert isinstance(wrapped, FlowContext)
    a, b = wrapped.summary(), direct.summary()
    a.pop("flow_seconds"), b.pop("flow_seconds")
    assert a == b


def test_pipeline_validation():
    """``until`` comes from the user (the CLI's ``--until``): a stage
    the pipeline does not have is a typed error, not a full run."""
    design = build_kernel("face_detection", scale=SCALE)
    with pytest.raises(FlowError, match="unknown stage 'nonsense'"):
        FlowPipeline().run(design, options=_options(), until="nonsense")


def test_unknown_placement_effort_is_a_typed_error():
    """A misspelt effort would otherwise run another schedule under a
    cache key of its own: both option types refuse it when built."""
    with pytest.raises(PlacementError, match="'fats'"):
        FlowOptions(placement_effort="fats")
    with pytest.raises(PlacementError, match="'fats'"):
        PlacementOptions(effort="fats")
    assert PlacementOptions(effort="high").n_sweeps == 72


def test_flow_cache_key_and_dataset_fingerprint_are_pinned():
    """The key names the disk entries, and the fingerprint is how a
    service finds a model published earlier: neither may drift."""
    assert FlowOptions().cache_key("*", "baseline") == (
        "*", "baseline", 1.0, 0, "fast", 10.0, 1.25, True, True, 0.55, 1)
    assert dataset_spec_fingerprint(
        ("face_detection", "digit_spam", "bnn_render_flow"), FlowOptions()
    ) == "fe999b23bf07b657406bdeaedd41926ff7284a9f4ca89ce405aeef00345826ab"


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
    pipe = CongestionService("linear", registry=None).pipeline
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
    pipe = CongestionService("linear", registry=None).pipeline
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
    pipe = CongestionService("linear", registry=None).pipeline
    ctx = pipe.run(design, options=_options(),
                   deadline=time.monotonic() + 300.0)
    assert ctx.graph is not None
