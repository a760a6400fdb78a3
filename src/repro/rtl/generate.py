"""RTL elaboration: HLS results to a flat cell-level netlist.

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

Elaboration reads the synthesized design as tables: the table IR
(``hls.ir``), each function's op table and schedule, and the binding's
arrays (``fu_of_pos``, ``unit_first``, ``pooled``).  What the op tables
do not hold — each value's users in the order the IR lists them, call
operands, constant memory indices — is read from the table IR's use
rows here.  A function's own cells and nets are planned once, with cell
ids relative to the instance's first cell, and every instance copies the
plan under its own path.  The object walk this replaces is kept as the
oracle in :mod:`repro.rtl._reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.errors import RTLError
from repro.hls.optable import (
    LOAD,
    OPCODE_NAMES,
    READ_PORT,
    RET,
    WRITE_PORT,
    connection_wires,
)
from repro.hls.synthesis import HLSResult
from repro.hls.tableir import RESULT, ranges
from repro.rtl.netlist import Cell, Net, Netlist

#: Completely-partitioned register banks are packed into cells of at most
#: this many flip-flops (mirrors slice register packing).
_REG_BANK_FF_LIMIT = 64

#: Control handshake width (start/done) between FSMs and datapath cells.
_CTRL_WIDTH = 2

#: accessors per bank above which the port-mux tree is materialized
_PORT_MUX_THRESHOLD = 6


@dataclass(frozen=True)
class _ArgRef:
    """Marks a call operand that is an argument of the caller."""

    index: int


@dataclass(frozen=True)
class _Plan:
    """One function's own cells and nets, as columns, with cell ids
    relative to an instance's first cell (unit ``k``'s cell is ``k``).

    ``cells`` is (name suffix, kind, lut, ff, dsp, bram18, op uids) and
    ``nets`` is (name suffix, driver, sinks, width, source op uid); each
    net's sinks are distinct and exclude its driver.
    """

    cells: tuple
    nets: tuple
    fsm_cell: int
    #: per argument: (cell, wires) of each of its uses in the function
    arg_sinks: list
    ret_cell: int | None
    ret_width: int
    #: per call op: (callee, op name, call cell, drivers, result sinks,
    #: op uid); a driver is (operand index, cell or :class:`_ArgRef`)
    calls: list


@dataclass
class _Instance:
    """One elaborated function instance, in absolute cell ids."""

    base: int
    fsm_cell: int
    #: per argument: (sink cell, wires), forwarded uses included
    arg_sinks: list
    ret_cell: int | None
    ret_width: int


class RTLGenerator:
    """Elaborates an :class:`HLSResult` into a :class:`Netlist`."""

    def __init__(self, hls: HLSResult) -> None:
        self.hls = hls
        t = hls.ir
        self.netlist = Netlist(t.name)
        self._plans: dict[str, _Plan] = {}
        self._call_counter: dict[str, int] = {}
        # each live op's position in its function
        self._pos = np.full(len(t.op_uid), -1, dtype=np.int64)
        for rec in t.functions.values():
            self._pos[rec.order] = np.arange(len(rec.order))
        self._use_val = t.use_val.tolist()

    # ------------------------------------------------------------------
    def generate(self) -> Netlist:
        top = self.hls.ir.top
        instance = self._instantiate(top, "top")
        self._connect_top_ports(top, instance)
        return self.netlist

    # ------------------------------------------------------------------
    def _instantiate(self, name: str, path: str) -> _Instance:
        plan = self._plans.get(name)
        if plan is None:
            plan = self._plans[name] = self._plan(name)
        nl = self.netlist
        base = len(nl.cells)
        prefix = path + "/"

        suffixes, kinds, lut, ff, dsp, bram, uids = plan.cells
        m = len(suffixes)
        nl.cells.extend(map(
            Cell, range(base, base + m), map(prefix.__add__, suffixes),
            kinds, lut, ff, dsp, bram, uids, repeat(path, m),
            repeat(name, m)))
        of_op = nl.cells_of_op
        for cell, ops in zip(range(base, base + m), uids):
            for uid in ops:
                of_op.setdefault(uid, []).append(cell)

        suffixes, net_drivers, sinks, widths, sources = plan.nets
        first = len(nl.nets)
        if base:
            shift = base.__add__
            net_drivers = list(map(shift, net_drivers))
            sinks = [tuple(map(shift, s)) for s in sinks]
        nl.nets.extend(map(
            Net, range(first, first + len(suffixes)),
            map(prefix.__add__, suffixes), net_drivers, sinks, widths,
            sources))

        inst = _Instance(
            base=base,
            fsm_cell=base + plan.fsm_cell,
            arg_sinks=[[(c + base, w) for c, w in uses]
                       for uses in plan.arg_sinks],
            ret_cell=None if plan.ret_cell is None else base + plan.ret_cell,
            ret_width=plan.ret_width,
        )
        for callee, op_name, call_cell, drivers, ret_sinks, uid in plan.calls:
            if callee not in self.hls.ir.functions:
                raise RTLError(f"call {op_name} targets unknown {callee!r}")
            k = self._call_counter.get(callee, 0)
            self._call_counter[callee] = k + 1
            child = self._instantiate(callee, f"{prefix}{callee}.{k}")
            call_cell += base
            # start/done handshake with the child's FSM
            nl.add_net(f"{prefix}{op_name}_hs", call_cell, [child.fsm_cell],
                       _CTRL_WIDTH)
            # actual arguments
            for i, driver in drivers:
                uses = child.arg_sinks[i] if i < len(child.arg_sinks) else []
                if not uses:
                    continue
                if isinstance(driver, _ArgRef):
                    # operand is an argument of the caller itself: forward.
                    inst.arg_sinks[driver.index].extend(uses)
                else:
                    nl.add_net(f"{prefix}{op_name}_arg{i}", driver + base,
                               [s for s, _ in uses], max(w for _, w in uses))
            # return value to the call's consumers
            if ret_sinks and child.ret_cell is not None:
                nl.add_net(f"{prefix}{op_name}_ret", child.ret_cell,
                           [c + base for c in ret_sinks], child.ret_width,
                           source_op=uid)
        return inst

    # ------------------------------------------------------------------
    def _plan(self, name: str) -> _Plan:
        hls = self.hls
        t = hls.ir
        rec = t.functions[name]
        schedule = hls.schedule.for_function(name)
        table = schedule.table
        binding = hls.bindings[name]
        fu = binding.fu_of_pos
        fu_cell = fu.tolist()
        op_name = list(map(t.op_name.__getitem__, rec.order.tolist()))
        uid = table.uid.tolist()
        cells: list[tuple] = []
        nets: list[tuple] = []

        # --- functional-unit cells, with the registers of results that
        # cross a state folded onto their producers' cells (multi-cycle
        # units already register their output in the spec)
        first = binding.unit_first
        n_units = len(first)
        resources = binding.unit_resources.copy()
        registered = np.flatnonzero(schedule.registered_results())
        np.add.at(resources[:, 1], fu[registered],
                  table.result_width[registered])
        unit_uids = [(u,) for u in table.uid[first].tolist()]
        for k, unit in binding.pooled.items():
            unit_uids[k] = tuple(unit.op_uids)
        opcodes = table.opcode_id[first].tolist()
        cells.extend(zip(
            [f"{OPCODE_NAMES[o]}_{k}" for k, o in enumerate(opcodes)],
            repeat("fu"), *resources.T.tolist(), unit_uids))

        # --- FSM cell and control fanout ------------------------------
        fsm = hls.fsms[name]
        fsm_cell = len(cells)
        cells.append(("fsm", "fsm", fsm.lut, fsm.ff, 0, 0, ()))
        if n_units:
            nets.append(("ctrl", fsm_cell, tuple(range(n_units)),
                         _CTRL_WIDTH, None))

        bank_cells = _plan_memory_banks(hls.memory_maps[name], cells)

        # --- shared-unit input muxes -----------------------------------
        mux_of_unit = np.full(n_units, -1, dtype=np.int64)
        n_ports = np.zeros(n_units, dtype=np.int64)
        for k, unit in sorted(binding.pooled.items()):
            if not unit.is_shared:
                continue
            mux_of_unit[k] = len(cells)
            n_ports[k] = max(1, int(table.n_operands[first[k]]))
            spec = hls.library.mux_spec(max(2, unit.n_ops), unit.width)
            for port in range(n_ports[k]):
                cells.append((f"mux_fu{k}_p{port}", "mux", spec.lut, 0, 0, 0,
                              ()))
                nets.append((f"mux_fu{k}_p{port}_out", len(cells) - 1, (k,),
                             max(1, unit.width), None))

        # --- every use in the function, and the uses of results by
        # producer in the order the IR lists each value's users
        ptr = t.op_use_ptr
        starts = ptr[rec.order]
        counts = table.n_operands
        uses = ranges(starts, counts)
        user = np.repeat(np.arange(table.n), counts)
        port = uses - np.repeat(starts, counts)
        read = t.use_val[uses]
        res = np.flatnonzero(t.val_kind[read] == RESULT)
        prod = self._pos[t.val_producer[read[res]]]
        by_use = np.lexsort((t.use_time[uses[res]], prod))
        prod, user, port = prod[by_use], user[res][by_use], port[res][by_use]

        # --- value nets -------------------------------------------------
        nets.extend(_value_nets(prod, user, port, table, fu, mux_of_unit,
                                n_ports, len(cells), op_name, uid))

        # Arguments consumed directly by ops of this function.
        indptr = table.arg_user_indptr.tolist()
        arg_users = table.arg_user_pos
        wires = connection_wires(
            np.repeat(table.arg_width, np.diff(table.arg_user_indptr)),
            table.wire_cap[arg_users])
        pairs = list(zip(fu[arg_users].tolist(), wires.tolist()))
        arg_sinks = [pairs[a:b] for a, b in zip(indptr[:-1], indptr[1:])]

        # --- memory access nets -----------------------------------------
        self._plan_memory_nets(rec, table, fu_cell, op_name, uid,
                               starts.tolist(), bank_cells, cells, nets)

        # --- ret --------------------------------------------------------
        use_val = self._use_val
        starts, counts = starts.tolist(), counts.tolist()
        ret_cell, ret_width = None, 1
        for q in np.flatnonzero(table.opcode_id == RET).tolist():
            ret_cell = fu_cell[q]
            if counts[q]:
                ret_width = max(1, int(t.val_width[use_val[starts[q]]]))

        # --- calls --------------------------------------------------------
        arg_index = {v: i for i, v in enumerate(rec.args.tolist())}
        consts, kind = t.val_const, t.val_kind
        producer = t.val_producer
        calls = []
        for q, callee in zip(table.call_pos.tolist(), table.call_callee):
            drivers = []
            operands = use_val[starts[q]:starts[q] + counts[q]]
            for i, v in enumerate(operands):
                if consts[v] is not None:
                    continue
                if v in arg_index:
                    drivers.append((i, _ArgRef(arg_index[v])))
                elif kind[v] == RESULT:
                    drivers.append((i, fu_cell[self._pos[producer[v]]]))
            lo, hi = np.searchsorted(prod, (q, q + 1)).tolist()
            ret_sinks = fu[user[lo:hi]].tolist()
            calls.append((callee, op_name[q], fu_cell[q], drivers, ret_sinks,
                          uid[q]))

        return _Plan(
            cells=tuple(map(list, zip(*cells))),
            nets=tuple(map(list, zip(*nets))) if nets else ([],) * 5,
            fsm_cell=fsm_cell,
            arg_sinks=arg_sinks,
            ret_cell=ret_cell,
            ret_width=ret_width,
            calls=calls,
        )

    # ------------------------------------------------------------------
    def _plan_memory_nets(self, rec, table, fu_cell, op_name, uid, starts,
                          bank_cells, cells, nets):
        """Wire memory accesses, aggregating contended banks via muxes.

        Lightly-used banks connect point to point.  Heavily-shared banks
        get an explicit address/write mux cell per bank (real HLS output);
        because the mux tree is a large cell, packing spreads it over
        several tiles, which spreads the wiring demand the way a real
        placed mux tree does, and the read data becomes one broadcast net.
        """
        mem = np.flatnonzero(table.array_id >= 0)
        if not len(mem):
            return
        consts = self.hls.ir.val_const
        use_val = self._use_val
        counts = table.n_operands[mem].tolist()
        loads = (table.opcode_id[mem] == LOAD).tolist()
        accesses: list[list] = [[] for _ in table.arrays]
        for q, a, n, load in zip(mem.tolist(), table.array_id[mem].tolist(),
                                 counts, loads):
            # A constant index pins the access to its bank (so every
            # reader of element k hits the same bank — the shared-input
            # fan-out of the paper's case study); dynamic indices
            # spread by op identity.
            bank_key = uid[q]
            for v in use_val[starts[q] + (0 if load else 1):starts[q] + n]:
                if isinstance(consts[v], int):
                    bank_key = consts[v]
                    break
            accesses[a].append((fu_cell[q], op_name[q], load, bank_key))

        for array, ops in zip(table.arrays, accesses):
            banks = bank_cells.get(array)
            if not banks:
                continue
            decl = rec.arrays.get(array)
            addr_bits = max(1, math.ceil(math.log2(max(2, decl.words))))
            data_bits = max(1, decl.bits)

            by_bank: dict[int, list] = {}
            for access in ops:
                by_bank.setdefault(access[3] % len(banks), []).append(access)

            for bank_idx, bank_ops in by_bank.items():
                bank = banks[bank_idx]
                if len(bank_ops) <= _PORT_MUX_THRESHOLD:
                    for cell, name, load, _ in bank_ops:
                        if load:
                            nets.append((f"{name}_addr", cell, (bank,),
                                         addr_bits, None))
                            nets.append((f"{name}_data", bank, (cell,),
                                         data_bits, None))
                        else:
                            nets.append((f"{name}_wr", cell, (bank,),
                                         addr_bits + data_bits, None))
                    continue

                # contended bank: explicit port-mux aggregation
                spec = self.hls.library.mux_spec(
                    max(2, len(bank_ops)), addr_bits + data_bits
                )
                amux = len(cells)
                cells.append((f"{array}_b{bank_idx}_pmux", "mux", spec.lut,
                              0, 0, 0, ()))
                nets.append((f"{array}_b{bank_idx}_pmux_out", amux, (bank,),
                             addr_bits + data_bits, None))
                load_sinks = []
                for cell, name, load, _ in bank_ops:
                    width = addr_bits if load else addr_bits + data_bits
                    nets.append((f"{name}_req", cell, (amux,), width, None))
                    if load:
                        load_sinks.append(cell)
                if load_sinks:
                    nets.append((f"{array}_b{bank_idx}_rdata", bank,
                                 tuple(dict.fromkeys(load_sinks)), data_bits,
                                 None))

    # ------------------------------------------------------------------
    def _connect_top_ports(self, name: str, inst: _Instance) -> None:
        """I/O port cells for top arguments + read/write_port ops."""
        t = self.hls.ir
        nl = self.netlist
        rec = t.functions[name]
        table = self.hls.schedule.for_function(name).table
        fu = self.hls.bindings[name].fu_of_pos
        arg_names = [t.value_name(a) for a in rec.args.tolist()]
        port_cell: dict[str, int] = {}
        for arg in arg_names:
            cell = nl.add_cell(
                f"port/{arg}", "port", instance="top", function=name,
            )
            port_cell[arg] = cell.cell_id
        io = np.flatnonzero((table.opcode_id == READ_PORT)
                            | (table.opcode_id == WRITE_PORT))
        for q in io.tolist():
            op = int(rec.order[q])
            port = t.attr(op, "port")
            if port not in port_cell:
                continue
            cell = inst.base + int(fu[q])
            width = max(1, int(table.width[q]))
            if table.opcode_id[q] == READ_PORT:
                nl.add_net(f"top/{t.op_name[op]}_io", port_cell[port],
                           [cell], width)
            else:
                nl.add_net(f"top/{t.op_name[op]}_io", cell,
                           [port_cell[port]], width)
        # Arguments used directly (as operands) connect from port cells too.
        for arg, sinks in zip(arg_names, inst.arg_sinks):
            if sinks:
                nl.add_net(
                    f"top/arg_{arg}", port_cell[arg],
                    [s for s, _ in sinks], max(w for _, w in sinks),
                )


def _plan_memory_banks(memory_map, cells: list) -> dict[str, list[int]]:
    """Append the bank cells; completely-partitioned banks are packed.
    Returns array name -> its bank cells."""
    bank_cells: dict[str, list[int]] = {}
    reg_accum: dict[str, tuple[int, int]] = {}
    for bank in memory_map.banks:
        if bank.kind == "reg":
            count, ff = reg_accum.get(bank.array, (0, 0))
            ff += bank.ff
            count += 1
            if ff >= _REG_BANK_FF_LIMIT:
                ids = bank_cells.setdefault(bank.array, [])
                cells.append((f"{bank.array}_regs{len(ids)}", "mem", 0, ff,
                              0, 0, ()))
                ids.append(len(cells) - 1)
                ff, count = 0, 0
            reg_accum[bank.array] = (count, ff)
        else:
            cells.append((f"{bank.array}_b{bank.index}", "mem", bank.lut,
                          bank.ff, 0, bank.bram18, ()))
            bank_cells.setdefault(bank.array, []).append(len(cells) - 1)
    for array, (count, ff) in reg_accum.items():
        if ff > 0:
            ids = bank_cells.setdefault(array, [])
            cells.append((f"{array}_regs{len(ids)}", "mem", 0, ff, 0, 0, ()))
            ids.append(len(cells) - 1)
    return bank_cells


def _value_nets(prod, user, port, table, fu, mux_of_unit, n_ports, n_cells,
                op_name, uid) -> list[tuple]:
    """One net per produced value, as plan rows.

    ``prod``, ``user`` and ``port`` are the uses of results, by producer
    and then in the order the IR lists each value's users.  A user on a
    shared unit is reached through the mux of every port reading the
    value (in port order, where the value lists that user first); any
    other user through its unit's cell.  Each cell is a sink once, where
    it first appears, and never the driver's own cell.
    """
    if not len(prod):
        return []
    _, first, inverse = np.unique(prod * table.n + user, return_index=True,
                                  return_inverse=True)
    order = np.lexsort((port, first[inverse.reshape(-1)]))
    prod, user, port = prod[order], user[order], port[order]
    sink = fu[user]
    mux = mux_of_unit[sink]
    via = (mux >= 0) & (port < n_ports[sink])
    sink = np.where(via, mux + port, sink)

    # the widest connection sets the net's wires
    group = np.flatnonzero(np.concatenate(([True], prod[1:] != prod[:-1])))
    wires = connection_wires(table.result_width[prod], table.wire_cap[user])
    width = np.maximum(1, np.maximum.reduceat(wires, group))

    _, keep = np.unique(prod * n_cells + sink, return_index=True)
    keep.sort()
    keep = keep[sink[keep] != fu[prod[keep]]]
    drivers, at = np.unique(prod[keep], return_index=True)
    bounds = at.tolist() + [len(keep)]
    cells = sink[keep].tolist()
    drivers = drivers.tolist()
    width = width[np.searchsorted(prod[group], drivers)].tolist()
    fu_cell = fu[drivers].tolist()
    return list(zip(
        [op_name[q] for q in drivers],
        fu_cell,
        [tuple(cells[a:b]) for a, b in zip(bounds[:-1], bounds[1:])],
        width,
        [uid[q] for q in drivers],
    ))


def generate_netlist(hls: HLSResult) -> Netlist:
    """Elaborate ``hls`` into a flat RTL netlist."""
    return RTLGenerator(hls).generate()
