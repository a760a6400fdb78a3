"""The object-walk RTL elaborator, kept as the oracle of the table one.

This is the original elaborator: it walks ``hls.module``, the
synthesized IR as objects, function by function and call site by call
site, following each value's ``users`` and each operation's
``operands``.  The production :mod:`repro.rtl.generate` builds the same
:class:`~repro.rtl.netlist.Netlist`, cell for cell and net for net, from
the synthesized table IR, the op tables and the binding arrays;
``tests/flow/test_label_parity.py`` asserts the two agree on the
paper designs and on sampled directive configurations.  Do not
optimize this module: its value is being the slow, obviously faithful
walk the fast path is measured against.

Each function *call site* elaborates to its own instance of the callee's
datapath (Vivado HLS instantiates one module per call), so a design where
a classifier function is called from an unrolled loop gets one classifier
instance per replica — the physical structure behind the paper's
congestion case study.

Connectivity rules:

* every value produced by an operation becomes one net from its
  functional-unit cell to the cells of its consumers;
* operand ports of *shared* functional units are fed through multiplexer
  cells (one per port), so sharing trades wires for mux congestion;
* loads/stores connect to memory-bank cells (address + data wires);
* each instance's FSM cell fans out a control net to all of its units;
* top-level arguments become I/O port cells, connected to the
  ``read_port``/``write_port`` operations that reference them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RTLError
from repro.hls.optable import wire_cap
from repro.hls.synthesis import HLSResult
from repro.ir.function import Function
from repro.ir.operation import Operation
from repro.ir.value import Value
from repro.rtl.netlist import Netlist

#: Completely-partitioned register banks are packed into cells of at most
#: this many flip-flops (mirrors slice register packing).
_REG_BANK_FF_LIMIT = 64

#: Control handshake width (start/done) between FSMs and datapath cells.
_CTRL_WIDTH = 2


def consumed_bits(value: Value, consumer: Operation) -> int:
    """Wires actually consumed from ``value`` by ``consumer``: the
    paper's edge-weight rule (:func:`repro.hls.optable.wire_cap`)."""
    result = consumer.result
    cap = wire_cap(consumer.opcode,
                   result.bitwidth() if result is not None else None)
    return min(max(1, value.bitwidth()), cap)


@dataclass(frozen=True)
class _ArgRef:
    """Marks a value that is an argument of the enclosing caller."""

    index: int


@dataclass
class _Instance:
    """Bookkeeping for one elaborated function instance."""

    path: str
    function: str
    op_cell: dict[int, int] = field(default_factory=dict)
    #: per argument index: (sink cell id, width) pairs
    arg_sinks: list[list[tuple[int, int]]] = field(default_factory=list)
    ret_cell: int | None = None
    ret_width: int = 1
    fsm_cell: int = -1


class ReferenceRTLGenerator:
    """Elaborates an :class:`HLSResult` into a :class:`Netlist`."""

    def __init__(self, hls: HLSResult) -> None:
        self.hls = hls
        self.netlist = Netlist(hls.module.name)
        self._call_counter: dict[str, int] = {}

    # ------------------------------------------------------------------
    def generate(self) -> Netlist:
        top = self.hls.module.top
        instance = self._elaborate(top, "top")
        self._connect_top_ports(top, instance)
        return self.netlist

    # ------------------------------------------------------------------
    def _elaborate(self, func: Function, path: str) -> _Instance:
        hls = self.hls
        binding = hls.bindings[func.name]
        schedule = hls.schedule.for_function(func.name)
        memory_map = hls.memory_maps[func.name]
        fsm = hls.fsms[func.name]
        nl = self.netlist

        inst = _Instance(path=path, function=func.name)
        inst.arg_sinks = [[] for _ in func.arguments]
        arg_index = {id(a): i for i, a in enumerate(func.arguments)}

        # --- functional-unit cells -----------------------------------
        fu_cell: dict[int, int] = {}
        for unit in binding.units:
            cell = nl.add_cell(
                f"{path}/{unit.opcode}_{unit.fu_id}",
                "fu",
                lut=unit.spec.lut,
                ff=unit.spec.ff,
                dsp=unit.spec.dsp,
                bram18=unit.spec.bram,
                op_uids=tuple(unit.op_uids),
                instance=path,
                function=func.name,
            )
            fu_cell[unit.fu_id] = cell.cell_id
            for uid in unit.op_uids:
                inst.op_cell[uid] = cell.cell_id

        # --- pipeline registers folded onto producer cells ------------
        # (multi-cycle units already register their output in the spec)
        table = schedule.table
        for pos in np.flatnonzero(schedule.registered_results()).tolist():
            cell = nl.cells[inst.op_cell[int(table.uid[pos])]]
            cell.ff += int(table.result_width[pos])

        # --- FSM cell and control fanout ------------------------------
        fsm_cell = nl.add_cell(
            f"{path}/fsm", "fsm", lut=fsm.lut, ff=fsm.ff,
            instance=path, function=func.name,
        )
        inst.fsm_cell = fsm_cell.cell_id
        fu_cells = sorted(set(fu_cell.values()))
        if fu_cells:
            nl.add_net(
                f"{path}/ctrl", fsm_cell.cell_id, fu_cells, _CTRL_WIDTH
            )

        # --- memory banks ----------------------------------------------
        bank_cells = self._emit_memory_banks(func, memory_map, path)

        # --- shared-unit input muxes -----------------------------------
        mux_of_port: dict[tuple[int, int], int] = {}
        for unit in binding.units:
            if not unit.is_shared:
                continue
            first = func.op(unit.op_uids[0])
            n_ports = max(1, len(first.operands))
            mux_spec = hls.library.mux_spec(max(2, unit.n_ops), unit.width)
            for port in range(n_ports):
                mux = nl.add_cell(
                    f"{path}/mux_fu{unit.fu_id}_p{port}", "mux",
                    lut=mux_spec.lut, instance=path, function=func.name,
                )
                mux_of_port[(unit.fu_id, port)] = mux.cell_id
                nl.add_net(
                    f"{path}/mux_fu{unit.fu_id}_p{port}_out",
                    mux.cell_id, [fu_cell[unit.fu_id]], unit.width,
                )

        # --- value nets -------------------------------------------------
        self._emit_value_nets(
            func, inst, binding, fu_cell, mux_of_port, arg_index, path
        )

        # --- memory access nets -----------------------------------------
        self._emit_memory_nets(func, inst, bank_cells, path)

        # --- ret --------------------------------------------------------
        for op in func.ops_of("ret"):
            inst.ret_cell = inst.op_cell[op.uid]
            if op.operands:
                inst.ret_width = max(1, op.operands[0].bitwidth())

        # --- calls (recurse) ---------------------------------------------
        self._emit_calls(func, inst, arg_index, path)

        return inst

    # ------------------------------------------------------------------
    def _emit_memory_banks(self, func, memory_map, path):
        """Create bank cells; completely-partitioned banks are packed."""
        nl = self.netlist
        bank_cells: dict[str, list[int]] = {}
        reg_accum: dict[str, tuple[int, int]] = {}
        for bank in memory_map.banks:
            if bank.kind == "reg":
                count, ff = reg_accum.get(bank.array, (0, 0))
                ff += bank.ff
                count += 1
                if ff >= _REG_BANK_FF_LIMIT:
                    cell = nl.add_cell(
                        f"{path}/{bank.array}_regs{len(bank_cells.get(bank.array, []))}",
                        "mem", ff=ff, instance=path, function=func.name,
                    )
                    bank_cells.setdefault(bank.array, []).append(cell.cell_id)
                    ff, count = 0, 0
                reg_accum[bank.array] = (count, ff)
            else:
                cell = nl.add_cell(
                    f"{path}/{bank.array}_b{bank.index}", "mem",
                    lut=bank.lut, ff=bank.ff, bram18=bank.bram18,
                    instance=path, function=func.name,
                )
                bank_cells.setdefault(bank.array, []).append(cell.cell_id)
        for array, (count, ff) in reg_accum.items():
            if ff > 0:
                cell = nl.add_cell(
                    f"{path}/{array}_regs{len(bank_cells.get(array, []))}",
                    "mem", ff=ff, instance=path, function=func.name,
                )
                bank_cells.setdefault(array, []).append(cell.cell_id)
        return bank_cells

    # ------------------------------------------------------------------
    def _emit_value_nets(self, func, inst, binding, fu_cell, mux_of_port,
                         arg_index, path):
        """One net per produced value; shared-unit inputs go via muxes."""
        nl = self.netlist
        for op in func.operations:
            if op.result is None or not op.result.users:
                continue
            driver = inst.op_cell[op.uid]
            sinks: list[int] = []
            width = 1
            for user in op.result.users:
                if user.parent is not func:
                    continue
                width = max(width, consumed_bits(op.result, user))
                unit = binding.unit_of(user.uid)
                if unit.is_shared:
                    # Route into the mux of the operand port being fed.
                    for port, operand in enumerate(user.operands):
                        if operand is op.result:
                            mux = mux_of_port.get((unit.fu_id, port))
                            sinks.append(mux if mux is not None
                                         else inst.op_cell[user.uid])
                else:
                    sinks.append(inst.op_cell[user.uid])
            if sinks:
                nl.add_net(
                    f"{path}/{op.name}", driver, sinks, width,
                    source_op=op.uid,
                )

        # Arguments consumed directly by ops of this function.
        for i, arg in enumerate(func.arguments):
            for user in arg.users:
                if user.parent is not func:
                    continue
                inst.arg_sinks[i].append(
                    (inst.op_cell[user.uid], consumed_bits(arg, user))
                )

    # ------------------------------------------------------------------
    #: accessors per bank above which the port-mux tree is materialized
    _PORT_MUX_THRESHOLD = 6

    def _emit_memory_nets(self, func, inst, bank_cells, path):
        """Wire memory accesses, aggregating contended banks via muxes.

        Lightly-used banks connect point to point.  Heavily-shared banks
        get an explicit address/write mux cell per bank (real HLS output);
        because the mux tree is a large cell, packing spreads it over
        several tiles, which spreads the wiring demand the way a real
        placed mux tree does, and the read data becomes one broadcast net.
        """
        nl = self.netlist
        accesses: dict[str, list] = {}
        for op in func.operations:
            if op.opcode in ("load", "store") and op.attrs.get("array"):
                accesses.setdefault(op.attrs["array"], []).append(op)

        for array, ops in accesses.items():
            banks = bank_cells.get(array)
            if not banks:
                continue
            decl = func.arrays.get(array)
            addr_bits = max(1, math.ceil(math.log2(max(2, decl.words))))
            data_bits = max(1, decl.bits)

            by_bank: dict[int, list] = {}
            for op in ops:
                index_operands = (
                    op.operands if op.opcode == "load" else op.operands[1:]
                )
                # A constant index pins the access to its bank (so every
                # reader of element k hits the same bank — the shared-input
                # fan-out of the paper's case study); dynamic indices
                # spread by op identity.
                bank_key = op.uid
                for operand in index_operands:
                    if operand.is_constant and isinstance(operand.constant, int):
                        bank_key = operand.constant
                        break
                by_bank.setdefault(bank_key % len(banks), []).append(op)

            for bank_idx, bank_ops in by_bank.items():
                bank = banks[bank_idx]
                if len(bank_ops) <= self._PORT_MUX_THRESHOLD:
                    for op in bank_ops:
                        op_cell = inst.op_cell[op.uid]
                        if op.opcode == "load":
                            nl.add_net(f"{path}/{op.name}_addr", op_cell,
                                       [bank], addr_bits)
                            nl.add_net(f"{path}/{op.name}_data", bank,
                                       [op_cell], data_bits)
                        else:
                            nl.add_net(f"{path}/{op.name}_wr", op_cell,
                                       [bank], addr_bits + data_bits)
                    continue

                # contended bank: explicit port-mux aggregation
                mux_spec = self.hls.library.mux_spec(
                    max(2, len(bank_ops)), addr_bits + data_bits
                )
                amux = nl.add_cell(
                    f"{path}/{array}_b{bank_idx}_pmux", "mux",
                    lut=mux_spec.lut, instance=inst.path,
                    function=func.name,
                )
                nl.add_net(
                    f"{path}/{array}_b{bank_idx}_pmux_out",
                    amux.cell_id, [bank], addr_bits + data_bits,
                )
                load_sinks = []
                for op in bank_ops:
                    op_cell = inst.op_cell[op.uid]
                    width = addr_bits if op.opcode == "load" else (
                        addr_bits + data_bits
                    )
                    nl.add_net(f"{path}/{op.name}_req", op_cell,
                               [amux.cell_id], width)
                    if op.opcode == "load":
                        load_sinks.append(op_cell)
                if load_sinks:
                    nl.add_net(
                        f"{path}/{array}_b{bank_idx}_rdata", bank,
                        load_sinks, data_bits,
                    )

    # ------------------------------------------------------------------
    def _emit_calls(self, func, inst, arg_index, path):
        nl = self.netlist
        for op in func.ops_of("call"):
            callee_name = op.attrs.get("callee")
            callee = self.hls.module.functions.get(callee_name)
            if callee is None:
                raise RTLError(f"call {op.name} targets unknown {callee_name!r}")
            k = self._call_counter.get(callee_name, 0)
            self._call_counter[callee_name] = k + 1
            child = self._elaborate(callee, f"{path}/{callee_name}.{k}")

            call_cell = inst.op_cell[op.uid]
            # start/done handshake with the child's FSM
            nl.add_net(
                f"{path}/{op.name}_hs", call_cell, [child.fsm_cell], _CTRL_WIDTH
            )
            # actual arguments
            for i, operand in enumerate(op.operands):
                sinks = child.arg_sinks[i] if i < len(child.arg_sinks) else []
                if not sinks:
                    continue
                sink_cells = [s for s, _ in sinks]
                width = max(w for _, w in sinks)
                driver = self._driver_of(func, inst, arg_index, operand)
                if driver is None:
                    continue
                if isinstance(driver, _ArgRef):
                    # operand is an argument of the caller itself: forward.
                    inst.arg_sinks[driver.index].extend(sinks)
                else:
                    nl.add_net(
                        f"{path}/{op.name}_arg{i}", driver, sink_cells, width
                    )
            # return value to the call's consumers
            if op.result is not None and op.result.users and child.ret_cell is not None:
                sinks = [
                    inst.op_cell[u.uid] for u in op.result.users
                    if u.parent is func
                ]
                if sinks:
                    nl.add_net(
                        f"{path}/{op.name}_ret", child.ret_cell, sinks,
                        child.ret_width, source_op=op.uid,
                    )

    def _driver_of(self, func, inst, arg_index, value):
        """Cell driving ``value`` inside this instance.

        Returns a cell id, an :class:`_ArgRef` when the value is a caller
        argument (to be forwarded another level up), or None for constants
        and unresolvable values.
        """
        if value.is_constant:
            return None
        if id(value) in arg_index:
            return _ArgRef(arg_index[id(value)])
        producer = value.producer
        if producer is None or producer.uid not in inst.op_cell:
            return None
        return inst.op_cell[producer.uid]

    # ------------------------------------------------------------------
    def _connect_top_ports(self, top: Function, inst: _Instance) -> None:
        """I/O port cells for top arguments + read/write_port ops."""
        nl = self.netlist
        port_cell: dict[str, int] = {}
        for arg in top.arguments:
            cell = nl.add_cell(
                f"port/{arg.name}", "port", instance="top", function=top.name,
            )
            port_cell[arg.name] = cell.cell_id
        for op in top.operations:
            if op.opcode not in ("read_port", "write_port"):
                continue
            port = op.attrs.get("port")
            if port not in port_cell:
                continue
            width = max(1, op.bitwidth())
            if op.opcode == "read_port":
                nl.add_net(
                    f"top/{op.name}_io", port_cell[port],
                    [inst.op_cell[op.uid]], width,
                )
            else:
                nl.add_net(
                    f"top/{op.name}_io", inst.op_cell[op.uid],
                    [port_cell[port]], width,
                )
        # Arguments used directly (as operands) connect from port cells too.
        for i, arg in enumerate(top.arguments):
            sinks = inst.arg_sinks[i]
            if sinks:
                nl.add_net(
                    f"top/arg_{arg.name}", port_cell[arg.name],
                    [s for s, _ in sinks], max(w for _, w in sinks),
                )


def reference_netlist(hls: HLSResult) -> Netlist:
    """Elaborate ``hls`` by walking its IR objects."""
    return ReferenceRTLGenerator(hls).generate()
