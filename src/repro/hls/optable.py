"""One verified function lowered once into read-only arrays.

Every reader after IR verification — scheduling, binding, the register
count of the reports, the dependency graph and the feature snapshot —
reads a function's operations through its :class:`OpTable`: flat NumPy
arrays indexed by *op position* (the operation's index in
``func.operations``).  :func:`lower_function` walks the IR objects
exactly once and characterizes each operation exactly once
(one :meth:`~repro.hls.opchar.OperatorLibrary.spec_for` per op), so no
reader downstream touches an :class:`~repro.ir.operation.Operation`
again.  The table holds nothing the IR does not: it is built from the
final, verified IR of one synthesis and lives inside that synthesis'
schedule, never beyond it.

The paper's wire-count rule (edge weights, Section III-A2) is stated
once here, at the width level (:func:`wire_cap`): RTL elaboration
applies it to objects, the lowering stores it per operation for the
graph's array build.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.hls.opchar import OperatorLibrary
from repro.ir.function import Function
from repro.ir.opcodes import OPCODES, opcode_index

#: opcode names by opcode id (the feature one-hot index)
OPCODE_NAMES = tuple(info.name for info in OPCODES)
_OPCODE_ID = {name: i for i, name in enumerate(OPCODE_NAMES)}
LOAD, STORE, CALL = (opcode_index(name) for name in ("load", "store", "call"))
READ_PORT, WRITE_PORT = opcode_index("read_port"), opcode_index("write_port")
#: opcodes whose attributes or operands the lowering reads one by one
_SPECIAL = frozenset({LOAD, STORE, CALL, READ_PORT, WRITE_PORT,
                      opcode_index("ret")})
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


def freeze_arrays(obj) -> None:
    """Make every ndarray attribute of ``obj`` read-only."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


@dataclass(frozen=True, eq=False)
class OpTable:
    """The operations of one function as read-only arrays.

    Every per-op array is indexed by op position.  CSR pairs
    (``*_indptr``, ``*_pos``) list positions: entries of op (or
    argument) ``i`` are ``pos[indptr[i]:indptr[i+1]]``.  ``eq=False``:
    tables compare by identity.
    """

    #: the lowered function (identity: readers check they got its table)
    function: Function
    uid: np.ndarray              # int [n]
    #: op uid -> position
    pos_of: dict
    opcode_id: np.ndarray        # int [n], index into OPCODE_NAMES
    #: :meth:`Operation.bitwidth`: result width, else widest operand
    width: np.ndarray            # int [n]
    result_width: np.ndarray     # int [n], -1 for ops without a result
    wire_cap: np.ndarray         # int [n], :func:`wire_cap` of each op
    n_operands: np.ndarray       # int [n]
    #: the one characterization of each op
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
    #: per use) and the read_port/write_port ops naming it
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
    def name(self) -> str:
        return self.function.name

    @property
    def n(self) -> int:
        return len(self.uid)

    def opcode(self, pos: int) -> str:
        return OPCODE_NAMES[self.opcode_id[pos]]


def lower_function(func: Function, library: OperatorLibrary) -> OpTable:
    """Lower ``func`` (verified IR) into its :class:`OpTable`.

    One pass over the operations; each is characterized exactly once.
    """
    ops = func.operations
    n = len(ops)
    uids = [op.uid for op in ops]
    pos_of = dict(zip(uids, range(n)))
    specs = tuple(map(library.spec_for, ops))
    opcode_id = [_OPCODE_ID[op.opcode] for op in ops]
    operands = [op.operands for op in ops]
    result_width = [-1 if r is None else r.type.bitwidth()
                    for r in (op.result for op in ops)]
    # Operation.bitwidth: the result's width, else the widest operand
    width = np.array(result_width, dtype=np.int64)
    for i in np.flatnonzero(width <= 0).tolist():
        width[i] = max([v.type.bitwidth() for v in operands[i]], default=0)

    # every (consumer, producer) operand pair, in operand order
    owner, producer = [], []
    for i, values in enumerate(operands):
        for value in values:
            op = value.producer
            if op is not None:
                owner.append(i)
                producer.append(pos_of[op.uid])
    prod_indptr, prod_pos, prod_uses = _distinct_pairs(owner, producer, n)
    # users are the transpose: each op's consumers, in position order
    by_producer = np.argsort(prod_pos, kind="stable")
    user_pos = np.repeat(np.arange(n), np.diff(prod_indptr))[by_producer]
    user_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(prod_pos, minlength=n), out=user_indptr[1:])

    array_id = np.full(n, -1, dtype=np.int64)
    arrays: dict[str, int] = {}
    call_pos, call_callee = [], []
    port_ops: dict[str, list[int]] = {}
    ret_src, ret_wires = [], []
    for i in [i for i, oid in enumerate(opcode_id) if oid in _SPECIAL]:
        op = ops[i]
        oid = opcode_id[i]
        if oid == LOAD or oid == STORE:
            array = op.attrs.get("array")
            if array:
                array_id[i] = arrays.setdefault(array, len(arrays))
        elif oid == CALL:
            call_pos.append(i)
            call_callee.append(op.attrs.get("callee"))
        elif oid == READ_PORT or oid == WRITE_PORT:
            port_ops.setdefault(op.attrs.get("port"), []).append(i)
        elif op.operands and op.operands[0].producer is not None:  # ret
            ret_src.append(pos_of[op.operands[0].producer.uid])
            ret_wires.append(max(1, op.operands[0].bitwidth()))

    # spec columns, gathered from the distinct specs (the library hands
    # out one object per characterization): each op's code is the
    # position of the first op with its spec
    first_with: dict[int, int] = {}
    spec_code = np.array(list(map(first_with.setdefault, map(id, specs),
                                  itertools.count())), dtype=np.int64)
    firsts, spec_code = np.unique(spec_code, return_inverse=True)
    distinct = [specs[i] for i in firsts.tolist()]
    delay_ns = np.array([sp.delay_ns for sp in distinct],
                        dtype=np.float64)[spec_code]
    latency = np.array([sp.latency_cycles for sp in distinct],
                       dtype=np.int64)[spec_code]
    resources = np.array([(sp.lut, sp.ff, sp.dsp, sp.bram)
                          for sp in distinct],
                         dtype=np.int64).reshape(-1, 4)[spec_code]

    # the wire rule per distinct (opcode, result width) pair
    opcode_id = np.array(opcode_id, dtype=np.int64)
    result_width = np.array(result_width, dtype=np.int64)
    kinds, kind_of = np.unique(opcode_id * _WIDTH_KEY + (result_width + 1),
                               return_inverse=True)
    caps = np.array([
        wire_cap(OPCODE_NAMES[k // _WIDTH_KEY],
                 None if k % _WIDTH_KEY == 0 else k % _WIDTH_KEY - 1)
        for k in kinds.tolist()
    ], dtype=np.int64)[kind_of.reshape(-1)]

    pipelined = np.zeros(n, dtype=bool)
    loops = {}
    for name, loop in func.loops.items():
        members = np.sort(np.fromiter(map(pos_of.__getitem__, loop.op_uids),
                                      dtype=np.int64,
                                      count=len(loop.op_uids)))
        members.setflags(write=False)
        loops[name] = members
        if loop.pipelined:
            pipelined[members] = True

    arg_user_indptr, arg_user_pos = [0], []
    port_indptr, port_pos = [0], []
    for arg in func.arguments:
        arg_user_pos.extend(pos_of[u.uid] for u in arg.users
                            if u.parent is func)
        arg_user_indptr.append(len(arg_user_pos))
        port_pos.extend(port_ops.get(arg.name, ()))
        port_indptr.append(len(port_pos))

    int64 = np.int64
    return OpTable(
        function=func,
        uid=_frozen(uids, int64),
        pos_of=pos_of,
        opcode_id=opcode_id,
        width=width,
        result_width=result_width,
        wire_cap=caps,
        n_operands=_frozen([len(values) for values in operands], int64),
        specs=specs,
        delay_ns=delay_ns,
        latency=latency,
        resources=resources,
        prod_indptr=prod_indptr,
        prod_pos=prod_pos,
        prod_uses=prod_uses,
        user_indptr=user_indptr,
        user_pos=user_pos,
        array_id=array_id,
        arrays=tuple(arrays),
        pipelined=pipelined,
        loops=loops,
        call_pos=_frozen(call_pos, int64),
        call_callee=tuple(call_callee),
        arg_width=_frozen([a.bitwidth() for a in func.arguments], int64),
        arg_user_indptr=_frozen(arg_user_indptr, int64),
        arg_user_pos=_frozen(arg_user_pos, int64),
        port_indptr=_frozen(port_indptr, int64),
        port_pos=_frozen(port_pos, int64),
        ret_src=_frozen(ret_src, int64),
        ret_wires=_frozen(ret_wires, int64),
    )


def _distinct_pairs(owner: list[int], producer: list[int], n: int):
    """CSR of each owner's distinct producers in first-operand order,
    with the number of operands each one feeds."""
    owner = np.array(owner, dtype=np.int64)
    producer = np.array(producer, dtype=np.int64)
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
