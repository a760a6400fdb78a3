"""End-to-end C-to-FPGA flow orchestration.

The flow is a :class:`FlowPipeline` of named :class:`Stage` objects
threading an immutable :class:`FlowContext`; ``run_flow`` /
``run_flow_on_design`` are the classic one-call wrappers.
"""

from repro.flow.pipeline import (
    STAGE_ORDER,
    FlowContext,
    FlowOptions,
    FlowPipeline,
    Stage,
    StageRecord,
    default_stages,
)
from repro.flow.c_to_fpga import (
    FlowResult,
    run_flow,
    run_flow_on_design,
)

__all__ = [
    "STAGE_ORDER", "FlowContext", "FlowOptions", "FlowPipeline",
    "Stage", "StageRecord", "default_stages",
    "FlowResult", "run_flow", "run_flow_on_design",
]
