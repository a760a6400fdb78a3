"""Top-level HLS synthesis driver.

``synthesize`` is the library's equivalent of running Vivado HLS ``csynth``
on one design: it applies directives, runs the front-end optimization
pipeline, schedules, binds, maps memories, generates FSMs and assembles
per-function reports.  The result object is what RTL generation, feature
extraction and the C-to-FPGA flow all consume.

Synthesis reads its input and never writes to it: it lowers the source
module once into a columnar :class:`~repro.hls.tableir.ModuleTable`, and
the directives, the front-end passes and verification are functions
from one table to the next (:mod:`repro.hls.frontend`), so one design
can be synthesized under many directive sets.  The final table yields
the op tables scheduling, binding, reports, the dependency graph and the
feature snapshot read; RTL elaboration, back-tracing, dataset metadata
and the flow summary read the table, its op tables and the binding
arrays too.  ``HLSResult.module`` is the synthesized IR as objects,
built from the final table the first time a reader asks for it (the
reference oracles, ``Backtracer.ops_in_tile``, tests); neither a
prediction nor a label flow does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.binding import FunctionBinding, bind_module
from repro.hls.directives import DirectiveSet
from repro.hls import frontend
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
from repro.hls.tableir import ModuleTable, lower_module, verify_table
from repro.ir.module import Module


@dataclass
class HLSResult:
    """Everything HLS produces for one design.

    ``ir`` is the synthesized design as a table, which every stage of
    the flow reads; :attr:`module` builds its IR objects on first read,
    for readers outside the flow.  The feature snapshot compiled against
    this result is memoized here (see
    :func:`repro.graph.snapshot.compile_snapshot`): the result holds the
    graph, and the graph holds nothing back, so a request's artifacts
    are freed by reference counting alone.
    """

    ir: ModuleTable
    clock: ClockConstraint
    library: OperatorLibrary
    schedule: ModuleSchedule
    bindings: dict[str, FunctionBinding]
    memory_maps: dict[str, MemoryMap]
    fsms: dict[str, FSMInfo]
    reports: dict[str, FunctionReport]
    transform_summary: dict = field(default_factory=dict)
    #: ``(graph, snapshot)`` of the last :func:`compile_snapshot`
    snapshot_memo: tuple | None = field(default=None, compare=False,
                                        repr=False)

    def __getstate__(self) -> dict:
        # the snapshot rebuilds cheaply: it never rides along in a pickle
        return {**vars(self), "snapshot_memo": None}

    @property
    def module(self) -> Module:
        """The synthesized IR objects (built on the first read)."""
        return self.ir.module()

    @property
    def top_report(self) -> FunctionReport:
        return self.reports[self.ir.top]

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
    """Run the complete HLS flow on ``module``'s table form.

    ``module`` is only read; the result carries its operation uids, and
    operations the directives add get uids above the largest of them.

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
    ir = lower_module(module)

    transform_summary: dict = {}
    if directives is not None and not directives.is_empty():
        ir, transform_summary = frontend.apply_directives(ir, directives)
    if run_frontend_passes:
        ir, stats = frontend.run_frontend_passes(ir)
        transform_summary.update(stats)
    verify_table(ir)

    scheduler = Scheduler(library, clock, dsp_limit=dsp_limit)
    schedule = scheduler.schedule_module(ir)
    bindings = bind_module(ir, schedule, library, allow_sharing=allow_sharing)
    memory_maps = {
        name: map_function_memories(func)
        for name, func in ir.functions.items()
    }
    fsms = {
        name: generate_fsm(schedule.for_function(name))
        for name in ir.functions
    }
    reports = {
        name: build_function_report(
            ir.functions[name],
            schedule.for_function(name),
            bindings[name],
            memory_maps[name],
            fsms[name],
            clock,
        )
        for name in ir.functions
    }
    roll_up_hierarchy(ir, schedule, reports)

    return HLSResult(
        ir=ir,
        clock=clock,
        library=library,
        schedule=schedule,
        bindings=bindings,
        memory_maps=memory_maps,
        fsms=fsms,
        reports=reports,
        transform_summary=transform_summary,
    )

