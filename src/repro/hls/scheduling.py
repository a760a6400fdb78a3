"""Resource-constrained list scheduling with operation chaining.

HLS "schedules IR operations to different control states" (paper Fig. 3).
The schedule produced here drives three things downstream:

* the ΔTcs quantities of the #Resource/ΔTcs feature category (distance in
  control states between dependent operations, Section III-B3);
* each operation's latency feature (Timing category);
* the design latency reported in Tables I/III/VI.

The scheduler walks each function's dataflow DAG in topological order
(function op order is constructed topologically), chains combinational
operations inside one control state while the clock budget allows, and
legalizes memory-port and DSP contention by delaying operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import IRError, SchedulingError
from repro.hls.opchar import OperatorLibrary, DEFAULT_LIBRARY
from repro.hls.optable import LOAD, STORE, OpTable, op_tables
from repro.hls.tableir import ModuleTable, freeze_arrays

#: Registered-output arrival offset inside a state (clock-to-out, ns).
_CLK_TO_OUT_NS = 0.4

#: BRAM ports available per memory bank (7-series true dual port).
_PORTS_PER_BANK = 2


@dataclass(frozen=True)
class ClockConstraint:
    """Target clock for synthesis (Vivado HLS style)."""

    period_ns: float = 10.0
    uncertainty_ns: float = 1.25

    def __post_init__(self) -> None:
        if self.period_ns <= 0:
            raise SchedulingError(f"clock period must be positive: {self.period_ns}")
        if not 0 <= self.uncertainty_ns < self.period_ns:
            raise SchedulingError(
                f"uncertainty {self.uncertainty_ns} outside [0, period)"
            )

    @property
    def budget_ns(self) -> float:
        """Usable combinational delay per control state."""
        return self.period_ns - self.uncertainty_ns


def _no_ops() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class FunctionSchedule:
    """Scheduling result for one function.

    ``start``, ``end`` and ``arrival`` are read-only arrays indexed by
    op position in ``table`` (the function's :class:`OpTable`, which
    every reader after the scheduler shares).
    """

    function: str
    table: OpTable | None = None
    #: control state each op starts in
    start: np.ndarray = field(default_factory=_no_ops)
    #: control state each op's result is registered in
    end: np.ndarray = field(default_factory=_no_ops)
    #: arrival time (ns) of each op's result inside its state
    arrival: np.ndarray = field(default_factory=_no_ops)
    n_states: int = 1
    #: total cycles including loop iteration counts
    latency_cycles: int = 0
    #: critical combinational path found while chaining (ns)
    critical_delay_ns: float = 0.0

    def __post_init__(self) -> None:
        freeze_arrays(self)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        freeze_arrays(self)

    def has_op(self, uid: int) -> bool:
        """True when operation ``uid`` is scheduled here."""
        return self.table is not None and uid in self.table.pos_of

    def start_of(self, uid: int) -> int:
        """Control state operation ``uid`` starts in."""
        return int(self.start[self.table.pos_of[uid]])

    def end_of(self, uid: int) -> int:
        """Control state operation ``uid``'s result is registered in."""
        return int(self.end[self.table.pos_of[uid]])

    def arrival_of(self, uid: int) -> float:
        """Arrival time (ns) of operation ``uid``'s result in its state."""
        return float(self.arrival[self.table.pos_of[uid]])

    def delta_tcs(self, producer_uid: int, consumer_uid: int) -> int:
        """Control-state distance ΔTcs between two dependent operations.

        Defined as ``max(1, start(consumer) - end(producer))`` — a chained
        pair still has distance one state budget apart for feature purposes
        (the paper divides by ΔTcs, so zero is excluded).
        """
        gap = self.start_of(consumer_uid) - self.end_of(producer_uid)
        return max(1, gap)

    def registered_results(self) -> np.ndarray:
        """Ops whose combinational result crosses a state boundary.

        A bool mask by op position: the op has no pipeline latency of
        its own (multi-cycle units register their output in the spec)
        and some user inside the function starts after the op's end
        state, so its result needs a register.
        """
        t = self.table
        owner = np.repeat(np.arange(t.n), np.diff(t.user_indptr))
        late = self.start[t.user_pos] > self.end[owner]
        crosses = np.bincount(owner[late], minlength=t.n) > 0
        return crosses & (t.latency == 0)


@dataclass
class ModuleSchedule:
    """Per-function schedules plus module-level roll-ups."""

    clock: ClockConstraint
    functions: dict[str, FunctionSchedule] = field(default_factory=dict)

    def for_function(self, name: str) -> FunctionSchedule:
        if name not in self.functions:
            raise SchedulingError(f"no schedule for function {name!r}")
        return self.functions[name]

    @property
    def top_latency(self) -> int:
        """Latency of the lexically-last scheduled function set's top."""
        # Populated by schedule_module; stored under "__top__" alias.
        return self.functions["__top__"].latency_cycles


def _callee_order(module: ModuleTable) -> list[str]:
    """Functions sorted callee-first so call latencies are available."""
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(name: str) -> None:
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            raise SchedulingError(f"recursive call cycle through {name!r}")
        state[name] = 1
        for callee in module.functions[name].callees:
            if callee in module.functions:
                visit(callee)
        state[name] = 2
        order.append(name)

    for name in module.functions:
        visit(name)
    return order


class Scheduler:
    """List scheduler for a module under one clock constraint."""

    def __init__(
        self,
        library: OperatorLibrary = DEFAULT_LIBRARY,
        clock: ClockConstraint | None = None,
        *,
        dsp_limit: int | None = 220,
    ) -> None:
        self.library = library
        self.clock = clock or ClockConstraint()
        self.dsp_limit = dsp_limit

    # ------------------------------------------------------------------
    def schedule_module(self, module: ModuleTable) -> ModuleSchedule:
        """Schedule every function (callee-first) and roll up latency.

        ``module`` is a verified :class:`~repro.hls.tableir.ModuleTable`;
        its op tables are derived here with the scheduler's library.
        """
        tables = op_tables(module, self.library)
        result = ModuleSchedule(clock=self.clock)
        callee_latency: dict[str, int] = {}
        for name in _callee_order(module):
            sched = self.schedule_function(module.functions[name],
                                           tables[name], callee_latency)
            result.functions[name] = sched
            callee_latency[name] = sched.latency_cycles
        if module.top is None:
            raise IRError(f"module {module.name} has no top function")
        result.functions["__top__"] = result.functions[module.top]
        return result

    # ------------------------------------------------------------------
    def schedule_function(
        self,
        func,
        table: OpTable,
        callee_latency: dict[str, int] | None = None,
    ) -> FunctionSchedule:
        """Schedule ``func``'s dataflow DAG over its op table.  ``func``,
        a :class:`~repro.hls.tableir.FuncRec`, supplies the array
        declarations and loops."""
        callee_latency = callee_latency or {}
        clock_budget = self.clock.budget_ns
        dsp_limit = self.dsp_limit

        latency = table.latency.tolist()
        for pos, callee in zip(table.call_pos.tolist(), table.call_callee):
            latency[pos] = max(1, callee_latency.get(callee, 1))
        indptr = table.prod_indptr.tolist()
        producers = table.prod_pos.tolist()
        # Resource budgets the start state must respect: the port limit
        # of a load/store's memory bank (by array id) or the DSP budget.
        # Ops inside pipelined loops are exempt.
        limit_of = [
            max(1, decl.banks) * _PORTS_PER_BANK
            if decl is not None and not decl.is_registers else 0
            for decl in map(func.arrays.get, table.arrays)
        ]
        is_mem = (table.opcode_id == LOAD) | (table.opcode_id == STORE)
        piped = table.pipelined
        port_limited = np.zeros(table.n, dtype=bool)
        if limit_of:
            port_limited = is_mem & ~piped & (table.array_id >= 0)
            port_limited[port_limited] = (
                np.array(limit_of)[table.array_id[port_limited]] > 0)
        dsp = table.resources[:, 2]
        dsp_limited = ~is_mem & ~piped & (dsp > 0) & (dsp_limit is not None)
        # per op: 0 no budget, 1 its bank's ports, 2 the DSP budget
        budget_kind = (port_limited + 2 * dsp_limited).tolist()
        array_id = table.array_id.tolist()
        dsp = dsp.tolist()
        mem_usage: dict[tuple[int, int], int] = {}
        dsp_usage: dict[int, int] = {}

        n = table.n
        starts = [0] * n
        ends = [0] * n
        arrivals = [0.0] * n
        critical = 0.0
        lo = 0
        for i, hi, lat, d, kind in zip(range(n), indptr[1:], latency,
                                       table.delay_ns.tolist(), budget_kind):
            # State in which the last producer's result is available, and
            # the latest arrival into it (a result registered in an
            # earlier state arrives at clock-to-out).
            if hi == lo:
                start = 0
                worst_in = 0.0
            elif hi == lo + 1:
                p = producers[lo]
                start = ends[p]
                worst_in = max(0.0, arrivals[p])
            else:
                preds = producers[lo:hi]
                start = max([ends[p] for p in preds])
                worst_in = 0.0
                for p in preds:
                    ready = arrivals[p] if ends[p] == start \
                        else _CLK_TO_OUT_NS
                    if ready > worst_in:
                        worst_in = ready
            if lat == 0:
                # Combinational op: chain inside `start` if the
                # accumulated delay fits the state budget, else register
                # and take the next state.
                arrival = worst_in + d
                if hi > lo and arrival > clock_budget:
                    start += 1
                    arrival = _CLK_TO_OUT_NS + d
            else:
                arrival = _CLK_TO_OUT_NS
            lo = hi

            if kind:
                # Legalize resource contention by pushing the start state.
                legal = start
                if kind == 1:
                    aid = array_id[i]
                    limit = limit_of[aid]
                    while mem_usage.get((aid, legal), 0) >= limit:
                        legal += 1
                    mem_usage[(aid, legal)] = mem_usage.get((aid, legal), 0) + 1
                else:
                    need = dsp[i]
                    if need > dsp_limit:
                        raise SchedulingError(
                            f"{func.name}: {table.opcode(i)} needs {need} "
                            f"DSPs, over the limit of {dsp_limit} per state"
                        )
                    while dsp_usage.get(legal, 0) + need > dsp_limit:
                        legal += 1
                    dsp_usage[legal] = dsp_usage.get(legal, 0) + need
                if legal != start:
                    start = legal
                    if lat == 0:
                        arrival = _CLK_TO_OUT_NS + d

            starts[i] = start
            ends[i] = start + lat
            arrivals[i] = arrival
            if lat:
                arrival = d
            if arrival > critical:
                critical = arrival

        start = np.array(starts, dtype=np.int64)
        end = np.array(ends, dtype=np.int64)
        n_states = 1 + max(ends, default=0)
        return FunctionSchedule(
            function=func.name,
            table=table,
            start=start,
            end=end,
            arrival=np.array(arrivals, dtype=np.float64),
            n_states=n_states,
            latency_cycles=self._roll_up_latency(func, table, start, end,
                                                 n_states),
            critical_delay_ns=critical,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _roll_up_latency(func, table: OpTable, start: np.ndarray,
                         end: np.ndarray, n_states: int) -> int:
        """Total cycles: straight-line span plus iterated loop bodies.

        Each loop contributes ``trips * body`` (or ``body + II*(trips-1)``
        when pipelined) in place of its raw single-iteration span; the
        adjustment composes bottom-up through the loop nest.
        """
        raw_span: dict[str, int] = {}
        for name, members in table.loops.items():
            if len(members):
                raw_span[name] = int(end[members].max()
                                     - start[members].min()) + 1
            else:
                raw_span[name] = 1

        children: dict[str, list[str]] = {name: [] for name in func.loops}
        roots: list[str] = []
        for name, loop in func.loops.items():
            if loop.parent and loop.parent in func.loops:
                children[loop.parent].append(name)
            else:
                roots.append(name)

        memo: dict[str, int] = {}

        def effective(name: str) -> int:
            if name in memo:
                return memo[name]
            loop = func.loops[name]
            body = raw_span[name]
            for child in children[name]:
                body += effective(child) - raw_span[child]
            body = max(1, body)
            if loop.pipelined:
                total = body + loop.initiation_interval * (loop.trip_count - 1)
            else:
                total = body * loop.trip_count
            memo[name] = max(1, total)
            return memo[name]

        latency = n_states
        for root in roots:
            latency += effective(root) - raw_span[root]
        return max(1, latency)
