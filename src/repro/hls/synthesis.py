"""Top-level HLS synthesis driver.

``synthesize`` is the library's equivalent of running Vivado HLS ``csynth``
on one design: it applies directives, runs the front-end optimization
pipeline, schedules, binds, maps memories, generates FSMs and assembles
per-function reports.  The result object is what RTL generation, feature
extraction and the C-to-FPGA flow all consume.

Synthesis is copy-on-write: it transforms a structural copy of the input
module (:meth:`repro.ir.module.Module.copy`) and leaves the input as it
was, so one design can be synthesized under many directive sets.
``HLSResult.module`` is the synthesized IR; every reader of post-HLS
structure (graph, features, back-tracing, source regions) must use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.binding import FunctionBinding, bind_module
from repro.hls.directives import DirectiveSet
from repro.hls.fsm import FSMInfo, generate_fsm
from repro.hls.memories import MemoryMap, map_function_memories
from repro.hls.opchar import OperatorLibrary, DEFAULT_LIBRARY
from repro.hls.report import (
    FunctionReport,
    build_function_report,
    roll_up_hierarchy,
)
from repro.hls.scheduling import (
    ClockConstraint,
    ModuleSchedule,
    Scheduler,
)
from repro.hls.transforms import apply_directives
from repro.ir.module import Module
from repro.ir.passes import run_default_pipeline
from repro.ir.verify import verify_module


@dataclass
class HLSResult:
    """Everything HLS produces for one design."""

    module: Module
    clock: ClockConstraint
    library: OperatorLibrary
    schedule: ModuleSchedule
    bindings: dict[str, FunctionBinding]
    memory_maps: dict[str, MemoryMap]
    fsms: dict[str, FSMInfo]
    reports: dict[str, FunctionReport]
    transform_summary: dict = field(default_factory=dict)

    @property
    def top_report(self) -> FunctionReport:
        return self.reports[self.module.top.name]

    @property
    def latency_cycles(self) -> int:
        return self.top_report.latency_cycles

    def total_muxes(self) -> int:
        return sum(r.muxes.count for r in self.reports.values())


def synthesize(
    module: Module,
    directives: DirectiveSet | None = None,
    *,
    library: OperatorLibrary = DEFAULT_LIBRARY,
    clock: ClockConstraint | None = None,
    allow_sharing: bool = True,
    run_frontend_passes: bool = True,
    dsp_limit: int | None = 220,
) -> HLSResult:
    """Run the complete HLS flow on a copy of ``module``.

    ``module`` is left untouched; the copy carries its operation uids,
    and operations the directives add get uids above the largest of
    them.

    Parameters
    ----------
    module:
        The design IR; its top function must be set.
    directives:
        Optional directive set (inline / unroll / pipeline / partition).
    allow_sharing:
        Disable to model a binder without resource sharing (used by the
        sharing-merge ablation).
    """
    clock = clock or ClockConstraint()
    module = module.copy()

    transform_summary: dict = {}
    if directives is not None and not directives.is_empty():
        transform_summary = apply_directives(module, directives)
    if run_frontend_passes:
        stats = run_default_pipeline(module)
        transform_summary["folded"] = stats.folded
        transform_summary["dce_removed"] = stats.removed
        transform_summary["narrowed"] = stats.narrowed
    verify_module(module)

    scheduler = Scheduler(library, clock, dsp_limit=dsp_limit)
    schedule = scheduler.schedule_module(module)
    bindings = bind_module(module, schedule, library, allow_sharing=allow_sharing)
    memory_maps = {
        name: map_function_memories(func)
        for name, func in module.functions.items()
    }
    fsms = {
        name: generate_fsm(schedule.for_function(name))
        for name in module.functions
    }
    reports = {
        name: build_function_report(
            module.functions[name],
            schedule.for_function(name),
            bindings[name],
            memory_maps[name],
            fsms[name],
            clock,
        )
        for name in module.functions
    }
    roll_up_hierarchy(module, reports)

    return HLSResult(
        module=module,
        clock=clock,
        library=library,
        schedule=schedule,
        bindings=bindings,
        memory_maps=memory_maps,
        fsms=fsms,
        reports=reports,
        transform_summary=transform_summary,
    )
