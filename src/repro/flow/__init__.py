"""End-to-end C-to-FPGA flow orchestration.

The flow is a :class:`FlowPipeline`, an ordered tuple of named
:class:`Stage` objects threading an immutable :class:`FlowContext`;
``run_flow`` / ``run_flow_on_design`` run all eight stages and return
the completed context.
"""

from repro.flow.pipeline import (
    STAGE_ORDER,
    FlowContext,
    FlowOptions,
    FlowPipeline,
    Stage,
    default_stages,
)
from repro.flow.c_to_fpga import (
    run_flow,
    run_flow_on_design,
)

__all__ = [
    "STAGE_ORDER", "FlowContext", "FlowOptions", "FlowPipeline",
    "Stage", "default_stages", "run_flow", "run_flow_on_design",
]
