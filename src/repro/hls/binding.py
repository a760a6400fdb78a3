"""Operation-to-functional-unit binding with resource sharing.

HLS "binds operations to functional units based on characterized
libraries" (paper Fig. 3).  Expensive operators scheduled into disjoint
control-state intervals share one RTL module; the paper's dependency graph
then *merges* the sharing operations into one combined node (Fig. 4), and
the multiplexers inserted at shared-unit inputs are counted as global
features (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import BindingError
from repro.hls.opchar import OperatorLibrary, OperatorSpec, DEFAULT_LIBRARY
from repro.hls.optable import CALL, LOAD, OPCODE_NAMES, STORE, OpTable
from repro.hls.scheduling import FunctionSchedule
from repro.hls.tableir import FuncRec, ModuleTable, freeze_arrays

#: Widths are bucketed so e.g. a 13-bit and a 16-bit multiply can share.
_WIDTH_BUCKET = 8

#: ops bound to a unit of their own whatever their cost
_NEVER_SHARED = frozenset({LOAD, STORE, CALL})


def is_shareable(spec: OperatorSpec) -> bool:
    """Sharing policy: only units that are worth a multiplexer.

    Mirrors Vivado HLS defaults: DSP-mapped and multi-cycle units and large
    fabric operators are shared; trivial LUT logic is not.
    """
    if spec.dsp > 0:
        return True
    if spec.latency_cycles >= 2:
        return True
    return spec.lut >= 96


@dataclass(slots=True)
class FunctionalUnit:
    """One RTL module instance executing one or more IR operations."""

    fu_id: int
    function: str
    opcode: str
    width: int
    spec: OperatorSpec
    op_uids: list[int] = field(default_factory=list)

    @property
    def n_ops(self) -> int:
        return len(self.op_uids)

    @property
    def is_shared(self) -> bool:
        return self.n_ops > 1


@dataclass(frozen=True)
class MuxInstance:
    """A multiplexer synthesized at a shared resource input."""

    function: str
    n_inputs: int
    width: int
    lut: int
    reason: str  # "fu_input" or "mem_port"


@dataclass(eq=False)
class FunctionBinding:
    """Binding result for one function.

    ``fu_of_pos`` holds each operation's unit id by op position in
    ``table``, ``unit_first`` each unit's first operation and
    ``unit_resources`` each unit's spec footprint (RESOURCE_KINDS
    order), so array readers gather all three without touching a unit
    object.  Units drawn from a sharing pool are kept as objects
    (``pooled``, by unit id); every other unit executes exactly its
    first operation with that operation's own spec, so :attr:`units`
    builds those objects from the table when first read.
    """

    function: str
    table: OpTable
    fu_of_pos: np.ndarray
    unit_first: np.ndarray
    unit_resources: np.ndarray
    pooled: dict[int, FunctionalUnit] = field(default_factory=dict)
    muxes: list[MuxInstance] = field(default_factory=list)

    def __post_init__(self) -> None:
        freeze_arrays(self)

    def __getstate__(self) -> dict:
        # the unit objects rebuild from the arrays
        state = dict(self.__dict__)
        state.pop("units", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        freeze_arrays(self)

    @cached_property
    def units(self) -> list[FunctionalUnit]:
        """Every unit, by unit id."""
        t = self.table
        opcode_id = t.opcode_id.tolist()
        width = t.width.tolist()
        uid = t.uid.tolist()
        return [
            self.pooled.get(fu_id) or FunctionalUnit(
                fu_id, self.function, OPCODE_NAMES[opcode_id[pos]],
                width[pos], t.specs[pos], [uid[pos]])
            for fu_id, pos in enumerate(self.unit_first.tolist())
        ]

    @property
    def fu_of_op(self) -> dict[int, int]:
        """Op uid -> unit id, in op order (built on each access)."""
        return dict(zip(self.table.uid.tolist(), self.fu_of_pos.tolist()))

    def unit(self, fu_id: int) -> FunctionalUnit:
        return self.units[fu_id]

    def unit_of(self, op_uid: int) -> FunctionalUnit:
        pos = self.table.pos_of.get(op_uid)
        if pos is None:
            raise BindingError(f"operation uid {op_uid} is not bound")
        return self.units[self.fu_of_pos[pos]]

    def shared_groups(self) -> list[list[int]]:
        """Op-uid groups that share one unit (inputs to Fig. 4 merging)."""
        return [u.op_uids for u in self.pooled.values() if u.is_shared]

    def n_muxes(self) -> int:
        return len(self.muxes)

    def mux_lut_total(self) -> int:
        return sum(m.lut for m in self.muxes)


class Binder:
    """Greedy interval binder (left-edge style) under a sharing policy."""

    def __init__(self, library: OperatorLibrary = DEFAULT_LIBRARY) -> None:
        self.library = library

    def bind_function(
        self,
        func: FuncRec,
        schedule: FunctionSchedule,
        *,
        allow_sharing: bool = True,
    ) -> FunctionBinding:
        """Bind every operation of ``func`` (a table-IR function record)
        to a functional unit.

        Reads the function's :class:`OpTable` and schedule arrays only.
        """
        table = schedule.table
        if table is None or not table.is_table_of(func):
            raise BindingError(
                f"schedule of {schedule.function!r} does not belong to "
                f"function {func.name!r}"
            )
        specs = table.specs
        uids = table.uid.tolist()
        opcode_id = table.opcode_id.tolist()
        bucket = np.maximum(
            _WIDTH_BUCKET, -(-table.width // _WIDTH_BUCKET) * _WIDTH_BUCKET
        ).tolist()
        can_share = [
            allow_sharing and not piped and oid not in _NEVER_SHARED
            and is_shareable(spec)
            for spec, piped, oid in zip(specs, table.pipelined.tolist(),
                                        opcode_id)
        ]
        starts = schedule.start.tolist()
        ends = schedule.end.tolist()
        name = func.name

        first_op: list[int] = []      # position of each unit's first op
        fu_of_pos = [0] * table.n
        shareable_pool: dict[tuple[int, int], list[FunctionalUnit]] = {}
        pooled: dict[int, FunctionalUnit] = {}
        fu_last_end: dict[int, int] = {}

        for i, share in enumerate(can_share):
            if not share:
                # a unit of its own: built from the table when read
                fu_of_pos[i] = len(first_op)
                first_op.append(i)
                continue
            start = starts[i]
            end = ends[i]
            # A pipelined/multi-cycle unit is busy until the state before
            # its registered result appears; combinational units occupy
            # their single state.
            busy_end = end - 1 if end > start else end
            key = (opcode_id[i], bucket[i])
            pool = shareable_pool.setdefault(key, [])
            for unit in pool:
                if fu_last_end[unit.fu_id] < start:
                    unit.op_uids.append(uids[i])
                    break
            else:
                opcode = OPCODE_NAMES[key[0]]
                unit = FunctionalUnit(
                    len(first_op), name, opcode, key[1],
                    self.library.characterize(opcode, key[1]), [uids[i]],
                )
                first_op.append(i)
                pool.append(unit)
                pooled[unit.fu_id] = unit
            fu_last_end[unit.fu_id] = busy_end
            fu_of_pos[i] = unit.fu_id

        # unit footprints: the op's own spec, a pooled unit's bucket spec
        unit_resources = table.resources[first_op].reshape(-1, 4)
        for fu_id, unit in pooled.items():
            spec = unit.spec
            unit_resources[fu_id] = (spec.lut, spec.ff, spec.dsp, spec.bram)
        shared = [unit for unit in pooled.values() if unit.is_shared]
        return FunctionBinding(
            function=name,
            table=table,
            fu_of_pos=np.array(fu_of_pos, dtype=np.int64),
            unit_first=np.array(first_op, dtype=np.int64),
            unit_resources=unit_resources,
            pooled=pooled,
            muxes=(self._fu_muxes(name, table, shared)
                   + self._memory_muxes(func, table)),
        )

    # ------------------------------------------------------------------
    def _fu_muxes(self, function: str, table: OpTable,
                  shared: list[FunctionalUnit]) -> list[MuxInstance]:
        """Each input port of a shared unit (in unit order) gets an n:1
        mux."""
        muxes = []
        for unit in shared:
            first = table.pos_of[unit.op_uids[0]]
            n_ports = max(1, int(table.n_operands[first]))
            mux_spec = self.library.mux_spec(max(2, unit.n_ops), unit.width)
            muxes += [
                MuxInstance(
                    function=function,
                    n_inputs=unit.n_ops,
                    width=unit.width,
                    lut=mux_spec.lut,
                    reason="fu_input",
                )
                for _ in range(n_ports)
            ]
        return muxes

    def _memory_muxes(self, func, table: OpTable) -> list[MuxInstance]:
        """Banked memories with multiple accessors need port muxes."""
        accessed = table.array_id[table.array_id >= 0]
        n_accessors = np.bincount(accessed, minlength=len(table.arrays))
        muxes = []
        for array, count in zip(table.arrays, n_accessors.tolist()):
            decl = func.arrays.get(array)
            if decl is None or decl.is_registers:
                continue
            per_port = -(-count // (decl.banks * 2))
            if per_port <= 1:
                continue
            width = max(decl.bits, 1)
            mux_spec = self.library.mux_spec(max(2, per_port), width)
            muxes += [
                MuxInstance(
                    function=func.name,
                    n_inputs=per_port,
                    width=width,
                    lut=mux_spec.lut,
                    reason="mem_port",
                )
                for _ in range(decl.banks * 2)
            ]
        return muxes


def bind_module(
    module: ModuleTable,
    schedules,
    library: OperatorLibrary = DEFAULT_LIBRARY,
    *,
    allow_sharing: bool = True,
) -> dict[str, FunctionBinding]:
    """Bind every function in ``module``; returns name -> binding."""
    binder = Binder(library)
    return {
        name: binder.bind_function(
            func, schedules.for_function(name), allow_sharing=allow_sharing
        )
        for name, func in module.functions.items()
    }
