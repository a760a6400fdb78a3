"""The design as one module-wide columnar IR.

``synthesize`` lowers the untouched source module once into a
:class:`ModuleTable` and runs every front-end step — directives, the
optimization passes, verification — as a function from one table to the
next (:mod:`repro.hls.frontend`).  Operations, values and uses are rows:

* **ops** — uid, opcode id, function, result value, alive flag and the
  attribute columns the transforms write (memory array, inlining and
  unrolling provenance); names and source locations are lists;
* **values** — kind (operation result, argument or constant), bit
  width, producing op and declaring function; types, names and constant
  payloads are lists;
* **uses** — one row per operand, grouped by op in operand order
  (``op_use_ptr`` is the CSR pointer), with the value it reads and the
  time the use was made.  A value's ``users`` are its live uses in time
  order: a re-pointed use takes a new time, so it joins the *end* of its
  new value's users, as :meth:`~repro.ir.operation.Operation.replace_operand`
  appends it.

A table is never modified once built: its arrays are read-only and a
transform returns a new table that shares every column it did not
change.  Removed operations stay as dead rows (``op_alive`` false) that
no function order lists.  The IR objects of a table are built only when
a reader asks for them (:meth:`ModuleTable.module`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import attrgetter

import numpy as np

from repro.errors import IRError, VerificationError
from repro.ir.function import ArrayDecl, Function, Loop
from repro.ir.module import Module
from repro.ir.opcodes import OPCODES
from repro.ir.operation import Operation
from repro.ir.value import Value

#: value kinds
RESULT, ARGUMENT, CONSTANT = 0, 1, 2

#: opcode names by opcode id (the feature one-hot index)
OPCODE_NAMES = tuple(info.name for info in OPCODES)
OPCODE_ID = {name: i for i, name in enumerate(OPCODE_NAMES)}

_EMPTY = np.zeros(0, dtype=np.int64)
#: the attributes of an op without any (never modified)
_NO_ATTRS: dict = {}
#: a default of -1 for ``map(dict.get, keys, _NONE)``
_NONE = repeat(-1)
(_UID, _OPCODE, _NAME, _LOC, _ATTRS, _RESULT, _OPERANDS, _USERS, _TYPE,
 _CONSTANT, _LINE) = map(attrgetter, (
    "uid", "opcode", "name", "loc", "attrs", "result", "operands", "users",
    "type", "constant", "line"))


def freeze_arrays(obj) -> None:
    """Make every ndarray attribute of ``obj`` read-only."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` of every pair."""
    total = int(counts.sum())
    if not total:
        return _EMPTY
    ends = np.cumsum(counts)
    return (np.arange(total, dtype=np.int64)
            + np.repeat(starts - (ends - counts), counts))


def evolve(rec, **changes):
    """``rec`` with ``changes``: :func:`dataclasses.replace` for the
    frozen records and tables, without re-running their ``__init__``
    (new arrays are made read-only here; a table's materialized objects
    are not carried over)."""
    new = object.__new__(type(rec))
    state = {**rec.__dict__, **changes}
    if "_module" in state:
        state["_module"] = None
    for value in changes.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    new.__dict__.update(state)
    return new


@dataclass(frozen=True, eq=False)
class LoopRec:
    """One loop: metadata, directive state and member ops (op ids)."""

    name: str
    trip_count: int
    depth: int
    members: np.ndarray
    unroll_factor: int = 1
    pipelined: bool = False
    initiation_interval: int = 1
    parent: str | None = None

    def __post_init__(self) -> None:
        self.members.setflags(write=False)


@dataclass(frozen=True, eq=False)
class FuncRec:
    """One function: its arguments (value ids), arrays, loops, callees
    and its ops (op ids) in function order.  ``fid`` indexes
    :attr:`ModuleTable.fnames`."""

    fid: int
    name: str
    is_top: bool
    inline: bool
    args: np.ndarray
    arrays: dict
    loops: dict
    callees: tuple
    order: np.ndarray

    def __post_init__(self) -> None:
        freeze_arrays(self)


#: the integer columns of each row kind, packed into one ``[rows, k]``
#: array per kind (``ops``, ``vals``, ``uses``) so a transform adds a
#: block of rows in one step; the table exposes each column as a
#: read-only view named ``op_uid``, ``val_kind``, ``use_time``...
OP_COLUMNS = (
    "uid", "opcode", "func", "result", "base", "array", "inl_from",
    "call_site", "grp", "grp_uid", "replica", "unroll_of", "file", "line",
)
VAL_COLUMNS = ("kind", "width", "producer", "owner")
USE_COLUMNS = ("op", "val", "time")
#: column name -> (matrix, index)
COLUMNS = {
    f"{prefix}_{name}": (matrix, i)
    for matrix, prefix, names in (("ops", "op", OP_COLUMNS),
                                  ("vals", "val", VAL_COLUMNS),
                                  ("uses", "use", USE_COLUMNS))
    for i, name in enumerate(names)
}
#: the per-row Python lists of each row kind
OP_LISTS = ("op_name", "op_loc")
VAL_LISTS = ("val_type", "val_name", "val_const", "val_class")


@dataclass(eq=False)
class ModuleTable:
    """A whole design as columns (see the module docstring).

    Attribute columns: ``op_base`` indexes ``base_attrs``, the source
    op's attributes, which a table never changes; ``op_array`` (index
    into ``array_names``, -1 none) is the op's memory; ``op_inl_from``
    (fid) and ``op_call_site`` (uid) record inlining; ``op_grp`` (index
    into ``group_names``) with ``op_grp_uid``, ``op_replica`` and
    ``op_unroll_of`` record unrolling.  -1 means "not set".
    """

    name: str
    top: str | None
    functions: dict
    fnames: list
    array_names: list
    group_names: list
    file_names: list
    base_attrs: list
    #: ``[n_ops, len(OP_COLUMNS)]``
    ops: np.ndarray
    op_alive: np.ndarray
    op_name: list
    op_loc: list
    op_use_ptr: np.ndarray
    #: ``[n_values, len(VAL_COLUMNS)]``
    vals: np.ndarray
    val_type: list
    #: None: a result's name is its op's, a constant's ``c<value>``
    val_name: list
    val_const: list
    val_class: list
    #: ``[n_uses, len(USE_COLUMNS)]``
    uses: np.ndarray
    #: next use time
    clock: int
    _module: Module | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        freeze_arrays(self)

    def __getstate__(self) -> dict:
        # the IR objects rebuild from the columns
        return {**vars(self), "_module": None}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        freeze_arrays(self)

    # ------------------------------------------------------------------
    def module_order(self) -> np.ndarray:
        """Op ids of every live op, function by function."""
        orders = [f.order for f in self.functions.values()]
        return np.concatenate(orders) if orders else _EMPTY

    def next_uid(self) -> int:
        """One above the largest uid of a live op (the fresh-uid base)."""
        order = self.module_order()
        return int(self.op_uid[order].max()) + 1 if len(order) else 0

    def n_ops(self) -> int:
        """Number of live ops."""
        return sum(len(f.order) for f in self.functions.values())

    def op_rows(self, uids) -> np.ndarray:
        """The row of the live op with each uid in ``uids``, as
        :meth:`~repro.ir.module.Module.op_by_uid` finds it (the last in
        module order when a uid repeats); :class:`IRError` for a uid no
        live op has."""
        order = self.module_order()
        ids = self.op_uid[order]
        by_uid = np.argsort(ids, kind="stable")
        uids = np.asarray(uids, dtype=np.int64)
        at = np.searchsorted(ids, uids, side="right", sorter=by_uid) - 1
        found = at >= 0
        found[found] = ids[by_uid[at[found]]] == uids[found]
        if not found.all():
            raise IRError(f"no operation with uid {int(uids[~found][0])} "
                          f"in module {self.name}")
        return order[by_uid[at]]

    def attr(self, op: int, key: str, default=None):
        """An attribute no transform writes (e.g. ``callee``, ``port``,
        ``reduce``), read from the op's source attributes."""
        return self.base_attrs[self.op_base[op]].get(key, default)

    def value_name(self, value: int) -> str:
        name = self.val_name[value]
        if name is not None:
            return name
        if self.val_kind[value] == RESULT:
            return self.op_name[self.val_producer[value]]
        return f"c{self.val_const[value]}"

    def module(self) -> Module:
        """The IR objects of this table, built on the first call."""
        if self._module is None:
            self._module = _materialize(self)
        return self._module


def _column(matrix: str, i: int) -> property:
    return property(lambda self: getattr(self, matrix)[:, i])


for _name, (_matrix, _i) in COLUMNS.items():
    setattr(ModuleTable, _name, _column(_matrix, _i))


# ----------------------------------------------------------------------
# lowering the source objects
# ----------------------------------------------------------------------
def lower_module(module: Module) -> ModuleTable:
    """Lower ``module`` into a :class:`ModuleTable`.

    Reads ``module`` and copies everything mutable (attributes, array
    declarations, loops), so nothing done to the table or to its
    materialized objects can reach the source.  Users outside the module
    are dropped, as :meth:`Module.copy` drops them.
    """
    functions = list(module.functions.values())
    ops = [op for f in functions for op in f.operations]
    n = len(ops)
    sizes = [len(f.operations) for f in functions]

    vals: list[Value] = []
    owner: list[int] = []
    index: dict[int, int] = {}
    args_of = []
    for fid, func in enumerate(functions):
        ids = []
        for arg in func.arguments:
            if id(arg) not in index:
                index[id(arg)] = len(vals)
                vals.append(arg)
                owner.append(fid)
            ids.append(index[id(arg)])
        args_of.append(ids)
    n_args = len(vals)

    results = list(map(_RESULT, ops))
    with_result = [i for i, r in enumerate(results) if r is not None]
    k = len(with_result)
    op_result = np.full(n, -1, dtype=np.int64)
    op_result[with_result] = np.arange(n_args, n_args + k)
    vals.extend(results[i] for i in with_result)
    for v, x in zip(map(id, vals[n_args:]), range(n_args, n_args + k)):
        index.setdefault(v, x)
    owner.extend([-1] * k)
    val_producer = [-1] * n_args + with_result

    operands = list(map(_OPERANDS, ops))
    counts = np.array(list(map(len, operands)), dtype=np.int64)
    flat = [v for vs in operands for v in vs]
    use_val = np.array(list(map(index.get, map(id, flat), _NONE)),
                       dtype=np.int64)
    # constants (and values from outside the module), numbered in the
    # order they are first read
    unseen = np.flatnonzero(use_val < 0).tolist()
    if unseen:
        objs = list(map(flat.__getitem__, unseen))
        first = {id(v): v for v in reversed(objs)}
        ids = list(dict.fromkeys(map(id, objs)))
        index.update(zip(ids, range(len(vals), len(vals) + len(ids))))
        vals.extend(map(first.__getitem__, ids))
        owner.extend([-1] * len(ids))
        val_producer.extend([-1] * len(ids))
        use_val[unseen] = list(map(index.__getitem__, map(id, objs)))
    use_op = np.repeat(np.arange(n, dtype=np.int64), counts)
    use_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=use_ptr[1:])

    nv = len(vals)
    consts = list(map(_CONSTANT, vals))
    val_kind = np.full(nv, ARGUMENT, dtype=np.int8)
    val_kind[n_args:n_args + k] = RESULT
    rest = [c is not None for c in consts[n_args + k:]]
    val_kind[n_args + k:][np.array(rest, dtype=bool)] = CONSTANT
    types = list(map(_TYPE, vals))

    use_time = _source_use_times(vals, ops, operands, use_op, use_val)

    locs = list(map(_LOC, ops))
    file_ids: dict[str, int] = {}
    op_file = [file_ids.setdefault(loc.file, len(file_ids)) for loc in locs]
    attrs = [dict(a) if a else _NO_ATTRS for a in map(_ATTRS, ops)]
    array_ids: dict = {}
    op_array = np.full(n, -1, dtype=np.int64)
    for i, a in enumerate(attrs):
        if a:
            array = a.get("array")
            if array:
                op_array[i] = array_ids.setdefault(array, len(array_ids))

    uids = list(map(_UID, ops))
    starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    records = {}
    for fid, func in enumerate(functions):
        first, last = int(starts[fid]), int(starts[fid + 1])
        if func.loops:
            by_uid = dict(zip(uids[first:last], range(first, last)))
        loops = {}
        for name, lp in func.loops.items():
            stale = lp.op_uids - by_uid.keys()
            if stale:
                raise VerificationError(
                    f"{func.name}: loop {lp.name!r} references "
                    f"{len(stale)} removed operations")
            members = np.array(list(map(by_uid.__getitem__, lp.op_uids)),
                               dtype=np.int64)
            loops[name] = LoopRec(
                lp.name, lp.trip_count, lp.depth, members, lp.unroll_factor,
                lp.pipelined, lp.initiation_interval, lp.parent)
        records[func.name] = FuncRec(
            fid=fid, name=func.name, is_top=func.is_top, inline=func.inline,
            args=np.array(args_of[fid], dtype=np.int64),
            arrays={k: ArrayDecl(d.name, d.type, d.partition)
                    for k, d in func.arrays.items()},
            loops=loops, callees=tuple(func.callees),
            order=np.arange(first, last, dtype=np.int64),
        )

    ops_matrix = np.full((n, len(OP_COLUMNS)), -1, dtype=np.int64)
    for name, column in (
            ("uid", uids),
            ("opcode", list(map(OPCODE_ID.__getitem__, map(_OPCODE, ops)))),
            ("func", np.repeat(np.arange(len(functions)), sizes)),
            ("result", op_result), ("base", np.arange(n)),
            ("array", op_array), ("file", op_file),
            ("line", list(map(_LINE, locs)))):
        ops_matrix[:, OP_COLUMNS.index(name)] = column
    vals_matrix = np.empty((nv, len(VAL_COLUMNS)), dtype=np.int64)
    vals_matrix[:, 0] = val_kind
    vals_matrix[:, 1] = [t.bitwidth() for t in types]
    vals_matrix[:, 2] = val_producer
    vals_matrix[:, 3] = owner
    return ModuleTable(
        name=module.name,
        top=module._top,
        functions=records,
        fnames=[f.name for f in functions],
        array_names=list(array_ids),
        group_names=[],
        file_names=list(file_ids),
        base_attrs=attrs,
        ops=ops_matrix,
        op_alive=np.ones(n, dtype=bool),
        op_name=list(map(_NAME, ops)),
        op_loc=locs,
        op_use_ptr=use_ptr,
        vals=vals_matrix,
        val_type=types,
        val_name=list(map(_NAME, vals)),
        val_const=consts,
        val_class=list(map(type, vals)),
        uses=np.stack([use_op, use_val, use_time], axis=1),
        clock=len(use_val),
    )


def _source_use_times(vals, ops, operands, use_op, use_val) -> np.ndarray:
    """Use times that reproduce every value's ``users`` order.

    Uses are numbered op by op; a value whose users are listed out of
    that order (or list ops outside the module, which are dropped) gets
    its uses' numbers permuted into the listed order.  The web must be
    consistent: each value lists each of its users once per operand slot
    that reads it.
    """
    times = np.arange(len(use_val), dtype=np.int64)
    users = list(map(_USERS, vals))
    by_value = np.argsort(use_val, kind="stable")
    op_of_use = [op for op, vs in zip(ops, operands) for _ in vs]
    expected = list(map(op_of_use.__getitem__, by_value.tolist()))
    counts = np.bincount(use_val, minlength=len(vals))
    if (list(map(len, users)) == counts.tolist()
            and [u for us in users for u in us] == expected):
        return times
    starts = np.concatenate(([0], np.cumsum(counts)))
    odd = [v for v, us in enumerate(users)
           if us != expected[starts[v]:starts[v + 1]]]
    op_index = dict(zip(map(id, ops), range(len(ops))))
    for v in odd:
        uses = by_value[starts[v]:starts[v + 1]]
        order = [op_index[id(u)] for u in users[v] if id(u) in op_index]
        if sorted(use_op[uses].tolist()) != sorted(order):
            raise VerificationError(
                f"value {vals[v].name!r}: users do not match its uses "
                "(def-use web corrupt)")
        pending: dict[int, list[int]] = {}
        for u in uses.tolist():   # ascending: operand order per op
            pending.setdefault(int(use_op[u]), []).append(u)
        slots = [pending[o].pop(0) for o in order]
        times[slots] = np.sort(times[uses])
    return times


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def verify_table(t: ModuleTable) -> ModuleTable:
    """Raise :class:`VerificationError` on any structural violation, as
    :func:`repro.ir.verify.verify_module` does on objects; returns
    ``t``.  Uses and users are one set of rows here, so the def-use web
    cannot disagree with itself and is not checked."""
    if t.top is None:
        raise IRError(f"module {t.name} has no top function")
    order = t.module_order()
    pos = np.full(len(t.op_uid), -1, dtype=np.int64)
    pos[order] = np.arange(len(order))
    fid_of = {f.fid: f for f in t.functions.values()}
    uids = t.op_uid[order]
    funcs = t.op_func[order]
    by = np.lexsort((uids, funcs))
    if ((funcs[by][1:] == funcs[by][:-1])
            & (uids[by][1:] == uids[by][:-1])).any():
        for func in t.functions.values():
            seen = set()
            for op, uid in zip(func.order.tolist(),
                               t.op_uid[func.order].tolist()):
                if uid in seen:
                    raise VerificationError(
                        f"{func.name}: duplicate operation uid {uid} "
                        f"({t.op_name[op]})")
                seen.add(uid)

    uses = ranges(t.op_use_ptr[order], np.diff(t.op_use_ptr)[order])
    user = t.use_op[uses]
    val = t.use_val[uses]
    kind = t.val_kind[val]
    func = t.op_func[user]
    producer = t.val_producer[val]
    own_arg = (kind == ARGUMENT) & (t.val_owner[val] == func)
    orphan = (kind != CONSTANT) & ~own_arg & (producer < 0)
    late = (kind == RESULT) & ~orphan
    late[late] = ~((pos[producer[late]] >= 0)
                   & (t.op_func[producer[late]] == func[late])
                   & (pos[producer[late]] < pos[user[late]]))
    bad = np.flatnonzero(orphan | late)
    if len(bad):
        k = int(bad[0])
        fname = fid_of[int(func[k])].name
        op_name = t.op_name[int(user[k])]
        name = t.value_name(int(val[k]))
        if orphan[k]:
            raise VerificationError(
                f"{fname}: operand {name!r} of {op_name} has no producer "
                "and is neither constant nor argument")
        raise VerificationError(
            f"{fname}: {op_name} uses {name!r} before its producer "
            f"{t.op_name[int(producer[k])]} (dataflow order violated)")

    for fn in t.functions.values():
        _verify_loops(t, fn, pos)
    for fn in t.functions.values():
        for callee in fn.callees:
            if callee not in t.functions:
                raise VerificationError(
                    f"{fn.name} calls unknown function {callee!r}")
    call = OPCODE_ID["call"]
    for fn in t.functions.values():
        for op in fn.order[t.op_opcode[fn.order] == call].tolist():
            callee = t.attr(op, "callee")
            if callee not in t.functions:
                raise VerificationError(
                    f"{fn.name}: call {t.op_name[op]} targets unknown "
                    f"function {callee!r}")
    return t


def _verify_loops(t: ModuleTable, func: FuncRec, pos: np.ndarray) -> None:
    for loop in func.loops.values():
        members = loop.members
        stale = (pos[members] < 0) | (t.op_func[members] != func.fid)
        if stale.any():
            raise VerificationError(
                f"{func.name}: loop {loop.name!r} references "
                f"{len(np.unique(members[stale]))} removed operations")
        if loop.parent is not None:
            if loop.parent not in func.loops:
                raise VerificationError(
                    f"{func.name}: loop {loop.name!r} has unknown parent "
                    f"{loop.parent!r}")
            parent = func.loops[loop.parent]
            if not np.isin(members, parent.members).all():
                raise VerificationError(
                    f"{func.name}: loop {loop.name!r} is not nested inside "
                    f"its parent {loop.parent!r}")
            if parent.depth >= loop.depth:
                raise VerificationError(
                    f"{func.name}: loop {loop.name!r} depth {loop.depth} not "
                    f"greater than parent depth {parent.depth}")


# ----------------------------------------------------------------------
# materialization
# ----------------------------------------------------------------------
def _materialize(t: ModuleTable) -> Module:
    """New IR objects for ``t``: functions, loops, array declarations,
    operations and values, with each value's ``users`` in use-time
    order.  Nothing is shared with any other module."""
    module = Module(t.name)
    module._top = t.top
    order = t.module_order()
    ptr = t.op_use_ptr
    uses = ranges(ptr[order], ptr[order + 1] - ptr[order])
    results = t.op_result[order]
    args = [f.args for f in t.functions.values()]
    needed = np.unique(np.concatenate(
        [t.use_val[uses], results[results >= 0], *args]))

    made: list = [None] * len(t.vals)
    kind, producer = t.val_kind.tolist(), t.val_producer.tolist()
    names, consts = t.val_name, t.val_const
    for v in needed.tolist():
        obj = made[v] = object.__new__(t.val_class[v])
        obj.type = t.val_type[v]
        name = names[v]
        if name is None:
            name = t.op_name[producer[v]] if kind[v] == RESULT \
                else f"c{consts[v]}"
        obj.name = name
        obj.producer = None
        obj.constant = consts[v]
        obj.users = []

    uid = t.op_uid.tolist()
    opcode = t.op_opcode.tolist()
    result = t.op_result.tolist()
    bounds = ptr.tolist()
    operand_objects = list(map(made.__getitem__, t.use_val.tolist()))
    attrs = _attr_dicts(t)
    objects: list = [None] * len(uid)
    for name, rec in t.functions.items():
        fn = Function(rec.name, is_top=rec.is_top)
        fn.arguments = list(map(made.__getitem__, rec.args.tolist()))
        fn.arrays = {k: replace(d) for k, d in rec.arrays.items()}
        fn.loops = {
            k: Loop(lp.name, lp.trip_count, lp.depth,
                    set(t.op_uid[lp.members].tolist()), lp.unroll_factor,
                    lp.pipelined, lp.initiation_interval, lp.parent)
            for k, lp in rec.loops.items()
        }
        fn.callees = list(rec.callees)
        fn.inline = rec.inline
        by_uid = fn._ops_by_uid
        for i in rec.order.tolist():
            op = objects[i] = object.__new__(Operation)
            op.uid = uid[i]
            op.opcode = OPCODE_NAMES[opcode[i]]
            op.name = t.op_name[i]
            op.loc = t.op_loc[i]
            op.attrs = attrs(i)
            op.operands = operand_objects[bounds[i]:bounds[i + 1]]
            op.parent = fn
            op.result = None
            if result[i] >= 0:
                op.result = made[result[i]]
                op.result.producer = op
            by_uid[op.uid] = op
        fn.operations = list(map(objects.__getitem__, rec.order.tolist()))
        module.functions[name] = fn

    # every live op is in a function order, so live uses are exactly
    # the operands built above
    live = uses[np.lexsort((t.use_time[uses], t.use_val[uses]))]
    for v, o in zip(t.use_val[live].tolist(), t.use_op[live].tolist()):
        made[v].users.append(objects[o])
    return module


def _attr_dicts(t: ModuleTable):
    """``attrs(i)``: the attribute dict of op ``i`` — its source
    attributes, then the keys the transforms set, in the order they
    first set them."""
    base_of = t.op_base.tolist()
    inl_from = t.op_inl_from.tolist()
    call_site = t.op_call_site.tolist()
    array_of = t.op_array.tolist()
    grp = t.op_grp.tolist()
    grp_uid = t.op_grp_uid.tolist()
    replica = t.op_replica.tolist()
    unroll_of = t.op_unroll_of.tolist()

    plain = ((t.op_inl_from < 0) & (t.op_grp < 0) & (t.op_replica < 0)
             & (t.op_unroll_of < 0)).tolist()

    def attrs(i: int) -> dict:
        base = t.base_attrs[base_of[i]]
        out = dict(base)
        if plain[i] and array_of[i] < 0:
            return out
        if inl_from[i] >= 0:
            out["inlined_from"] = t.fnames[inl_from[i]]
            out["call_site"] = call_site[i]
        array = array_of[i]
        if array >= 0 and base.get("array") != t.array_names[array]:
            out["array"] = t.array_names[array]
        if grp[i] >= 0:
            out["unroll_group"] = f"{t.group_names[grp[i]]}{grp_uid[i]}"
        if replica[i] >= 0:
            out["replica_index"] = replica[i]
        if unroll_of[i] >= 0:
            out["unroll_of"] = unroll_of[i]
        return out

    return attrs
