"""HLS synthesis reports.

Vivado HLS emits per-function estimates of resources, latency and timing;
the paper's *Global Information* feature category reads exactly these
(Table II): resource usage of the top function and of the operation's own
function, target/estimated clock and uncertainty, memory and multiplexer
summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hls.binding import FunctionBinding
from repro.hls.fsm import FSMInfo
from repro.hls.memories import MemoryMap
from repro.hls.opchar import RESOURCE_KINDS
from repro.hls.scheduling import ClockConstraint, FunctionSchedule


@dataclass
class MuxSummary:
    """Multiplexer statistics for one function (a Table II global block)."""

    count: int = 0
    lut: int = 0
    total_inputs: int = 0
    total_bitwidth: int = 0

    @property
    def mean_inputs(self) -> float:
        return self.total_inputs / self.count if self.count else 0.0

    @property
    def mean_bitwidth(self) -> float:
        return self.total_bitwidth / self.count if self.count else 0.0


@dataclass
class MemorySummary:
    """Memory statistics for one function (a Table II global block)."""

    words: int = 0
    banks: int = 0
    bits: int = 0
    primitives: int = 0


@dataclass
class FunctionReport:
    """Per-function HLS report (exclusive of callees unless noted)."""

    function: str
    resources: dict[str, int] = field(default_factory=dict)
    #: includes all callee instances transitively
    hierarchical_resources: dict[str, int] = field(default_factory=dict)
    latency_cycles: int = 0
    n_states: int = 0
    target_clock_ns: float = 0.0
    clock_uncertainty_ns: float = 0.0
    estimated_clock_ns: float = 0.0
    muxes: MuxSummary = field(default_factory=MuxSummary)
    memories: MemorySummary = field(default_factory=MemorySummary)

    def resource(self, kind: str) -> int:
        return self.resources.get(kind, 0)


def _add(into: dict[str, int], other: dict[str, int]) -> None:
    for kind in RESOURCE_KINDS:
        into[kind] = into.get(kind, 0) + other.get(kind, 0)


def _register_ffs(schedule: FunctionSchedule) -> int:
    """FF bits for values that cross a control-state boundary.

    Operations with pipeline latency already register their output in the
    characterized spec, so only combinational results are counted here.
    """
    registered = schedule.registered_results()
    return int(schedule.table.result_width[registered].sum())


def build_function_report(
    func,
    schedule: FunctionSchedule,
    binding: FunctionBinding,
    memory_map: MemoryMap,
    fsm: FSMInfo,
    clock: ClockConstraint,
) -> FunctionReport:
    """Aggregate one function's HLS artifacts into a report."""
    report = FunctionReport(function=func.name)
    units = binding.unit_resources.sum(axis=0).tolist()
    resources = dict(zip(RESOURCE_KINDS, units))

    mux = MuxSummary()
    for m in binding.muxes:
        mux.count += 1
        mux.lut += m.lut
        mux.total_inputs += m.n_inputs
        mux.total_bitwidth += m.width
    resources["LUT"] += mux.lut

    mem = MemorySummary(
        words=memory_map.total_words,
        banks=memory_map.n_banks,
        bits=memory_map.total_bits,
        primitives=memory_map.total_primitives,
    )
    resources["BRAM"] += memory_map.total_bram18
    resources["LUT"] += memory_map.total_lut
    resources["FF"] += memory_map.total_ff

    resources["FF"] += fsm.ff + _register_ffs(schedule)
    resources["LUT"] += fsm.lut

    report.resources = resources
    report.hierarchical_resources = dict(resources)  # callees added later
    report.latency_cycles = schedule.latency_cycles
    report.n_states = schedule.n_states
    report.target_clock_ns = clock.period_ns
    report.clock_uncertainty_ns = clock.uncertainty_ns
    # HLS-style estimate: slowest chained path plus half the uncertainty
    # margin, floored well below the target (tiny functions report small
    # estimates, exactly like Vivado HLS).
    report.estimated_clock_ns = max(
        schedule.critical_delay_ns + 0.5 * clock.uncertainty_ns,
        0.25 * clock.period_ns,
    )
    report.muxes = mux
    report.memories = mem
    return report


def roll_up_hierarchy(module, schedule, reports: dict[str, FunctionReport]
                      ) -> None:
    """Fold callee resources into callers' hierarchical totals.

    One callee instance is counted per call site (the call ops of each
    function's op table in ``schedule``), matching how HLS instantiates
    a module per call (no cross-call sharing).
    """
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(name: str) -> None:
        if state.get(name) == 2:
            return
        state[name] = 1
        for callee in module.functions[name].callees:
            if callee in module.functions and state.get(callee) != 1:
                visit(callee)
        state[name] = 2
        order.append(name)

    for name in module.functions:
        visit(name)

    for name in order:
        total = dict(reports[name].resources)
        for callee in schedule.for_function(name).table.call_callee:
            if callee in reports:
                _add(total, reports[callee].hierarchical_resources)
        reports[name].hierarchical_resources = total
