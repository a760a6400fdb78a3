"""Each function of the final table IR as read-only per-op arrays.

Every reader after verification — scheduling, binding, the register
count of the reports, the dependency graph and the feature snapshot —
reads a function's operations through its :class:`OpTable`: flat NumPy
arrays indexed by *op position* (the operation's index in the
function's op order).  :func:`op_tables` derives the tables of every
function of a verified :class:`~repro.hls.tableir.ModuleTable` in one
module-wide pass and characterizes each distinct (opcode, width) kind
once, so no reader downstream touches an
:class:`~repro.ir.operation.Operation`.  A table holds nothing the IR
does not.

The paper's wire-count rule (edge weights, Section III-A2) is stated
once here, at the width level (:func:`wire_cap`): the lowering stores
it per operation, and the graph's array build and RTL elaboration apply
it elementwise (:func:`connection_wires`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IRError
from repro.hls.opchar import OperatorLibrary
from repro.hls.tableir import (
    ARGUMENT,
    CONSTANT,
    OPCODE_NAMES,
    RESULT,
    FuncRec,
    ModuleTable,
    freeze_arrays,
    ranges,
)
from repro.ir.opcodes import opcode_index

LOAD, STORE, CALL = (opcode_index(name) for name in ("load", "store", "call"))
READ_PORT, WRITE_PORT = opcode_index("read_port"), opcode_index("write_port")
RET = opcode_index("ret")
_SHIFT = np.zeros(len(OPCODE_NAMES), dtype=bool)
_SHIFT[[opcode_index(name) for name in ("shl", "lshr", "ashr")]] = True
#: packs (opcode id, result width + 1) into one key
_WIDTH_KEY = 1 << 32

#: consumers that take every wire of the operand they read
_WHOLE_VALUE_CONSUMERS = frozenset({"zext", "sext", "concat", "load", "store"})

#: :func:`wire_cap` of a consumer that takes whole values
UNCAPPED = np.iinfo(np.int64).max


def wire_cap(opcode: str, result_width: int | None) -> int:
    """Most wires a consumer takes from any one operand.

    This is the paper's edge-weight rule: "if one of its successors
    takes eight of the total 32 bits as the input signals, the actual
    number of wires for this connection is eight".  A consumer with a
    result reads at most its own result width (at least one wire);
    width changes, concatenation, memory accesses and ops without a
    result (``result_width`` None) read whole values.  A connection
    carries ``min(max(1, produced width), cap)`` wires.
    """
    if result_width is None or opcode in _WHOLE_VALUE_CONSUMERS:
        return UNCAPPED
    return max(1, result_width)


def connection_wires(produced_width, cap):
    """:func:`wire_cap` applied elementwise: the wires of connections
    from values ``produced_width`` bits wide into consumers with ``cap``."""
    return np.minimum(np.maximum(1, produced_width), cap)


def _frozen(values, dtype) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class OpTable:
    """The operations of one function as read-only arrays.

    Every per-op array is indexed by op position.  CSR pairs
    (``*_indptr``, ``*_pos``) list positions: entries of op (or
    argument) ``i`` are ``pos[indptr[i]:indptr[i+1]]``.  ``eq=False``:
    tables compare by identity.
    """

    #: the table IR the function was lowered from, and its name there
    ir: ModuleTable
    name: str
    uid: np.ndarray              # int [n]
    #: op uid -> position
    pos_of: dict
    opcode_id: np.ndarray        # int [n], index into OPCODE_NAMES
    #: :meth:`Operation.bitwidth`: result width, else widest operand
    width: np.ndarray            # int [n]
    result_width: np.ndarray     # int [n], -1 for ops without a result
    wire_cap: np.ndarray         # int [n], :func:`wire_cap` of each op
    n_operands: np.ndarray       # int [n]
    #: the characterization of each op (one per distinct kind)
    specs: tuple
    delay_ns: np.ndarray         # float [n]
    latency: np.ndarray          # int [n], the spec's pipeline depth
    resources: np.ndarray        # int [n, 4] in RESOURCE_KINDS order
    #: distinct producers of each op, in first-operand order, and the
    #: number of operands each one feeds
    prod_indptr: np.ndarray
    prod_pos: np.ndarray
    prod_uses: np.ndarray
    #: distinct users of each op's result inside the function
    user_indptr: np.ndarray
    user_pos: np.ndarray
    #: memory accessed by each load/store (index into ``arrays``), else -1
    array_id: np.ndarray         # int [n]
    arrays: tuple                # array names, in first-access order
    pipelined: np.ndarray        # bool [n], inside a pipelined loop
    #: loop name -> positions of its body
    loops: dict
    #: call ops and the functions they call (aligned)
    call_pos: np.ndarray
    call_callee: tuple
    #: per argument: bit width, its users inside the function (one entry
    #: per use, in ``users`` order) and the read_port/write_port ops
    #: naming it
    arg_width: np.ndarray
    arg_user_indptr: np.ndarray
    arg_user_pos: np.ndarray
    port_indptr: np.ndarray
    port_pos: np.ndarray
    #: each ``ret`` returning an op's value: that op and the wires
    ret_src: np.ndarray
    ret_wires: np.ndarray

    def __post_init__(self) -> None:
        freeze_arrays(self)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        freeze_arrays(self)

    @property
    def n(self) -> int:
        return len(self.uid)

    def is_table_of(self, func: FuncRec) -> bool:
        """True when this table describes ``func``, a function record of
        the table IR."""
        return func is self.ir.functions.get(self.name)

    def opcode(self, pos: int) -> str:
        return OPCODE_NAMES[self.opcode_id[pos]]


def op_tables(t: ModuleTable, library: OperatorLibrary) -> dict[str, OpTable]:
    """The :class:`OpTable` of every function of ``t`` (verified), in
    module order: one module-wide pass, one characterization per
    distinct (opcode, width, constant-shift) kind."""
    funcs = list(t.functions.values())
    sizes = [len(f.order) for f in funcs]
    offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    mod = t.module_order()
    N = len(mod)
    gpos = np.full(len(t.op_uid), -1, dtype=np.int64)
    gpos[mod] = np.arange(N)
    uid = t.op_uid[mod]
    opcode_id = t.op_opcode[mod]
    result = t.op_result[mod]
    result_width = np.full(N, -1, dtype=np.int64)
    has_result = result >= 0
    result_width[has_result] = t.val_width[result[has_result]]

    ptr = t.op_use_ptr
    n_operands = ptr[mod + 1] - ptr[mod]
    uses = ranges(ptr[mod], n_operands)
    owner = np.repeat(np.arange(N, dtype=np.int64), n_operands)
    value = t.use_val[uses]
    # Operation.bitwidth: the result's width, else the widest operand
    widest = np.zeros(N, dtype=np.int64)
    has = np.flatnonzero(n_operands)
    if len(has):
        widest[has] = np.maximum.reduceat(
            t.val_width[value], (np.cumsum(n_operands) - n_operands)[has])
    width = np.where(result_width > 0, result_width, widest)

    # every (consumer, producer) operand pair, in operand order
    is_result = t.val_kind[value] == RESULT
    producer = gpos[t.val_producer[value[is_result]]]
    consumer = owner[is_result]
    op_fpos = np.repeat(np.arange(len(funcs)), sizes)
    foreign = (producer < 0) | (op_fpos[producer] != op_fpos[consumer])
    if foreign.any():
        op = int(mod[consumer[np.argmax(foreign)]])
        raise IRError(f"{t.op_name[op]} reads a value produced outside "
                      "its function")
    prod_indptr, prod_pos, prod_uses = _distinct_pairs(consumer, producer, N)
    by_producer = np.argsort(prod_pos, kind="stable")
    user_pos = np.repeat(np.arange(N), np.diff(prod_indptr))[by_producer]
    user_indptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(np.bincount(prod_pos, minlength=N), out=user_indptr[1:])

    # one characterization per distinct kind; a shift by a constant is
    # wiring
    const_shift = _SHIFT[opcode_id] & (n_operands == 2)
    shift = np.flatnonzero(const_shift)
    const_shift[shift] = t.val_kind[t.use_val[ptr[mod[shift]] + 1]] == CONSTANT
    kinds, code = np.unique((opcode_id * 2 + const_shift) * _WIDTH_KEY + width,
                            return_inverse=True)
    code = code.reshape(-1)
    distinct = [library.spec_of_kind(OPCODE_NAMES[k // _WIDTH_KEY // 2],
                                     int(k % _WIDTH_KEY),
                                     bool(k // _WIDTH_KEY % 2))
                for k in kinds.tolist()]
    specs = tuple(map(distinct.__getitem__, code.tolist()))
    delay_ns = np.array([sp.delay_ns for sp in distinct],
                        dtype=np.float64)[code]
    latency = np.array([sp.latency_cycles for sp in distinct],
                       dtype=np.int64)[code]
    resources = np.array([(sp.lut, sp.ff, sp.dsp, sp.bram) for sp in distinct],
                         dtype=np.int64).reshape(-1, 4)[code]

    # the wire rule per distinct (opcode, result width) pair
    caps, cap_of = np.unique(opcode_id * _WIDTH_KEY + (result_width + 1),
                             return_inverse=True)
    caps = np.array([
        wire_cap(OPCODE_NAMES[k // _WIDTH_KEY],
                 None if k % _WIDTH_KEY == 0 else k % _WIDTH_KEY - 1)
        for k in caps.tolist()
    ], dtype=np.int64)[cap_of.reshape(-1)]

    # argument uses by ops of the declaring function, in users order
    arg_slot = np.full(len(t.val_kind), -1, dtype=np.int64)
    arg_base = np.concatenate(([0], np.cumsum([len(f.args) for f in funcs])))
    for f, base in zip(funcs, arg_base.tolist()):
        arg_slot[f.args] = base + np.arange(len(f.args))
    fid_pos = np.full(len(t.fnames), -1, dtype=np.int64)
    fid_pos[[f.fid for f in funcs]] = np.arange(len(funcs))
    is_arg = (t.val_kind[value] == ARGUMENT) & (arg_slot[value] >= 0)
    is_arg[is_arg] = fid_pos[t.val_owner[value[is_arg]]] == op_fpos[
        owner[is_arg]]
    arg_use = np.flatnonzero(is_arg)
    arg_use = arg_use[np.lexsort((t.use_time[uses[arg_use]],
                                  arg_slot[value[arg_use]]))]
    arg_user_indptr = np.zeros(arg_base[-1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(arg_slot[value[arg_use]], minlength=arg_base[-1]),
              out=arg_user_indptr[1:])
    arg_user = owner[arg_use]

    # each function's memories, numbered in first-access order
    mem = np.flatnonzero(((opcode_id == LOAD) | (opcode_id == STORE))
                         & (t.op_array[mod] >= 0))
    array_id = np.full(N, -1, dtype=np.int64)
    arrays_of: list[list] = [[] for _ in funcs]
    if len(mem):
        n_names = len(t.array_names)
        pairs, first, inverse = np.unique(
            op_fpos[mem] * n_names + t.op_array[mod[mem]],
            return_index=True, return_inverse=True)
        by = np.lexsort((first, pairs // n_names))
        fpos = pairs[by] // n_names
        rank = np.empty(len(pairs), dtype=np.int64)
        rank[by] = np.arange(len(pairs)) - np.searchsorted(fpos, fpos)
        array_id[mem] = rank[inverse.reshape(-1)]
        for f, a in zip(fpos.tolist(), (pairs[by] % n_names).tolist()):
            arrays_of[f].append(t.array_names[a])
    special = np.flatnonzero(np.isin(opcode_id, (CALL, READ_PORT, WRITE_PORT,
                                                 RET)))
    int64 = np.int64
    tables = {}
    for f, (lo, hi) in enumerate(zip(offsets[:-1].tolist(),
                                     offsets[1:].tolist())):
        func = funcs[f]
        n = hi - lo
        ids = uid[lo:hi]
        p_lo, p_hi = prod_indptr[lo], prod_indptr[hi]
        u_lo, u_hi = user_indptr[lo], user_indptr[hi]

        pipelined = np.zeros(n, dtype=bool)
        loops = {}
        for name, loop in func.loops.items():
            members = np.sort(gpos[loop.members] - lo)
            members.setflags(write=False)
            loops[name] = members
            if loop.pipelined:
                pipelined[members] = True

        call_pos, call_callee = [], []
        port_ops: dict = {}
        ret_src, ret_wires = [], []
        for g in special[(special >= lo) & (special < hi)].tolist():
            op = int(mod[g])
            oid = opcode_id[g]
            if oid == CALL:
                call_pos.append(g - lo)
                call_callee.append(t.attr(op, "callee"))
            elif oid == READ_PORT or oid == WRITE_PORT:
                port_ops.setdefault(t.attr(op, "port"), []).append(g - lo)
            elif n_operands[g]:  # ret
                v = int(t.use_val[ptr[op]])
                if t.val_kind[v] == RESULT:
                    ret_src.append(int(gpos[t.val_producer[v]]) - lo)
                    ret_wires.append(max(1, int(t.val_width[v])))

        a_lo, a_hi = arg_base[f], arg_base[f + 1]
        port_indptr, port_pos = [0], []
        for a in func.args.tolist():
            port_pos.extend(port_ops.get(t.value_name(a), ()))
            port_indptr.append(len(port_pos))
        g_lo, g_hi = arg_user_indptr[a_lo], arg_user_indptr[a_hi]

        tables[func.name] = OpTable(
            ir=t,
            name=func.name,
            uid=ids,
            pos_of=dict(zip(ids.tolist(), range(n))),
            opcode_id=opcode_id[lo:hi],
            width=width[lo:hi],
            result_width=result_width[lo:hi],
            wire_cap=caps[lo:hi],
            n_operands=n_operands[lo:hi],
            specs=specs[lo:hi],
            delay_ns=delay_ns[lo:hi],
            latency=latency[lo:hi],
            resources=resources[lo:hi],
            prod_indptr=prod_indptr[lo:hi + 1] - p_lo,
            prod_pos=prod_pos[p_lo:p_hi] - lo,
            prod_uses=prod_uses[p_lo:p_hi],
            user_indptr=user_indptr[lo:hi + 1] - u_lo,
            user_pos=user_pos[u_lo:u_hi] - lo,
            array_id=array_id[lo:hi],
            arrays=tuple(arrays_of[f]),
            pipelined=pipelined,
            loops=loops,
            call_pos=_frozen(call_pos, int64),
            call_callee=tuple(call_callee),
            arg_width=t.val_width[func.args],
            arg_user_indptr=arg_user_indptr[a_lo:a_hi + 1] - g_lo,
            arg_user_pos=arg_user[g_lo:g_hi] - lo,
            port_indptr=_frozen(port_indptr, int64),
            port_pos=_frozen(port_pos, int64),
            ret_src=_frozen(ret_src, int64),
            ret_wires=_frozen(ret_wires, int64),
        )
    return tables


def _distinct_pairs(owner: np.ndarray, producer: np.ndarray, n: int):
    """CSR of each owner's distinct producers in first-operand order,
    with the number of operands each one feeds."""
    key = owner * n + producer
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = sorted_key[1:] != sorted_key[:-1]
    starts = np.flatnonzero(first)
    uses = np.diff(np.append(starts, len(key)))
    # back to operand order: the first operand of each pair decides
    made = np.argsort(order[starts], kind="stable")
    pairs = sorted_key[starts][made]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // max(n, 1), minlength=n), out=indptr[1:])
    return indptr, pairs % max(n, 1), uses[made]
