"""The synthesis front end over the table IR.

Array partitioning, directive marks (pipelining, unroll factors,
inlining), inlining, unrolling, constant folding, dead-code elimination
and bitwidth reduction, each a function from one
:class:`~repro.hls.tableir.ModuleTable` to the next.  Each runs once for
the whole module and reproduces its object counterpart
(:mod:`repro.hls.transforms`, :mod:`repro.ir.passes`) exactly: the same
operations in the same order under the same uids, names, attributes and
locations, the same loops and arrays, the same constants shared or new,
and every value's ``users`` in the same order.  The object versions stay
as the reference the parity tests compare against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import DirectiveError, HLSError, IRError
from repro.hls.directives import DirectiveSet
from repro.hls.tableir import (
    ARGUMENT,
    COLUMNS,
    CONSTANT,
    OP_COLUMNS,
    OP_LISTS,
    OPCODE_ID,
    RESULT,
    VAL_COLUMNS,
    VAL_LISTS,
    LoopRec,
    ModuleTable,
    evolve,
    ranges,
)
from repro.ir.passes import _FOLDABLE, _SIDE_EFFECT_OPCODES
from repro.ir.types import IntType
from repro.ir.value import Constant, Value

CALL, RET = OPCODE_ID["call"], OPCODE_ID["ret"]
LOAD, STORE = OPCODE_ID["load"], OPCODE_ID["store"]
_SIDE_EFFECTS = np.array([name in _SIDE_EFFECT_OPCODES for name in OPCODE_ID])
_FOLD_IDS = np.array([name in _FOLDABLE for name in OPCODE_ID])
_FOLDS = {OPCODE_ID[name]: fold for name, fold in _FOLDABLE.items()}
#: bitwidth-reduction rule of each opcode (see ``_bounds``)
_BOUND_RULE = np.zeros(len(OPCODE_ID), dtype=np.int64)
for _rule, _names in enumerate((
        ("add", "sub"), ("mul",), ("mac",),
        ("and", "or", "xor", "sdiv", "udiv", "srem", "urem"),
        ("lshr", "ashr")), start=1):
    for _name in _names:
        _BOUND_RULE[OPCODE_ID[_name]] = _rule

_UID, _OPCODE, _FUNC, _RESULT, _BASE, _GRP, _GRP_UID, _REPLICA = (
    OP_COLUMNS.index(name) for name in ("uid", "opcode", "func", "result",
                                        "base", "grp", "grp_uid", "replica"))
_KIND, _WIDTH, _PRODUCER, _OWNER = (
    VAL_COLUMNS.index(name) for name in ("kind", "width", "producer", "owner"))
_INTERNED = ("fnames", "array_names", "group_names")
_ARRAYS = ("ops", "vals", "uses", "op_alive", "op_use_ptr")


class _Edit:
    """A working copy of a table: each array or list is copied on first
    write; arrays grow in place (with spare capacity) when rows are
    appended; :meth:`done` freezes the result into a new table."""

    def __init__(self, t: ModuleTable) -> None:
        self.t = t
        self.cols = {name: getattr(t, name) for name in (
            *OP_LISTS, *VAL_LISTS, *_INTERNED)}
        #: arrays: a buffer each, of which the first ``rows`` are in use
        self.bufs = {name: getattr(t, name) for name in _ARRAYS}
        self.rows = {name: len(self.bufs[name]) for name in _ARRAYS}
        self.owned: set[str] = set()
        self.functions = dict(t.functions)
        self.clock = t.clock

    def _array(self, name: str) -> np.ndarray:
        return self.bufs[name][:self.rows[name]]

    def __getitem__(self, name: str):
        """A column (a view into its row kind's matrix), array or list."""
        if name in COLUMNS:
            matrix, i = COLUMNS[name]
            return self._array(matrix)[:, i]
        if name in self.bufs:
            return self._array(name)
        return self.cols[name]

    def w(self, name: str):
        """Column, array or list ``name``, writable."""
        matrix, i = COLUMNS.get(name, (name, None))
        if matrix in self.bufs:
            if matrix not in self.owned:
                self.bufs[matrix] = self._array(matrix).copy()
                self.owned.add(matrix)
            array = self._array(matrix)
            return array if i is None else array[:, i]
        if matrix not in self.owned:
            self.cols[matrix] = list(self.cols[matrix])
            self.owned.add(matrix)
        return self.cols[matrix]

    def append(self, name: str, rows) -> None:
        """Append rows to the array ``name`` (a matrix or a 1-D array)."""
        buf = self.bufs[name]
        n = self.rows[name]
        need = n + len(rows)
        if name not in self.owned or need > len(buf):
            grown = np.empty((max(need, 2 * n),) + buf.shape[1:],
                             dtype=buf.dtype)
            grown[:n] = buf[:n]
            self.bufs[name] = buf = grown
            self.owned.add(name)
        buf[n:need] = rows
        self.rows[name] = need

    def intern(self, kind: str, name) -> int:
        if name in self.cols[kind]:
            return self.cols[kind].index(name)
        names = self.w(kind)
        names.append(name)
        return len(names) - 1

    def times(self, n: int) -> np.ndarray:
        """``n`` fresh use times."""
        out = np.arange(self.clock, self.clock + n, dtype=np.int64)
        self.clock += n
        return out

    def repoint(self, ops, old, new) -> None:
        """Each op's uses of ``old`` now read ``new`` (aligned arrays, in
        the order :meth:`Operation.replace_operand` would be called):
        the re-pointed uses take fresh times."""
        ptr = self["op_use_ptr"]
        ops = np.asarray(ops, dtype=np.int64)
        counts = ptr[ops + 1] - ptr[ops]
        uses = ranges(ptr[ops], counts)
        call = np.repeat(np.arange(len(ops)), counts)
        use_val = self.w("use_val")
        hit = use_val[uses] == np.asarray(old, dtype=np.int64)[call]
        uses, call = uses[hit], call[hit]
        use_val[uses] = np.asarray(new, dtype=np.int64)[call]
        self.w("use_time")[uses] = self.times(len(uses))

    def user_ops(self, value: int) -> np.ndarray:
        """Distinct live ops using ``value``, in ``users`` order."""
        use_val = self["use_val"]
        uses = np.flatnonzero(use_val == value)
        ops = self["use_op"][uses]
        live = self["op_alive"][ops]
        uses, ops = uses[live], ops[live]
        ops = ops[np.argsort(self["use_time"][uses], kind="stable")]
        _, first = np.unique(ops, return_index=True)
        return ops[np.sort(first)]

    def add_constants(self, types, widths, values) -> np.ndarray:
        """New :class:`Constant` values; returns their ids."""
        first = len(self["vals"])
        k = len(values)
        rows = np.full((k, len(VAL_COLUMNS)), -1, dtype=np.int64)
        rows[:, _KIND] = CONSTANT
        rows[:, _WIDTH] = widths
        self.append("vals", rows)
        for name, column in (("val_type", types), ("val_name", [None] * k),
                             ("val_const", values),
                             ("val_class", [Constant] * k)):
            self.w(name).extend(column)
        return np.arange(first, first + k, dtype=np.int64)

    def kill(self, ops) -> None:
        """Remove ops from their functions and loops."""
        ops = np.asarray(ops, dtype=np.int64)
        if not len(ops):
            return
        self.w("op_alive")[ops] = False
        alive = self["op_alive"]
        for fid in np.unique(self["op_func"][ops]).tolist():
            name = self["fnames"][fid]
            func = self.functions[name]
            self.functions[name] = evolve(
                func, order=func.order[alive[func.order]],
                loops={k: evolve(lp, members=lp.members[alive[lp.members]])
                       for k, lp in func.loops.items()})

    def done(self) -> ModuleTable:
        arrays = {}
        for name in _ARRAYS:
            array = self.bufs[name]
            if len(array) != self.rows[name]:   # drop the spare capacity
                array = array[:self.rows[name]].copy()
            arrays[name] = array
        return evolve(self.t, functions=self.functions, clock=self.clock,
                      **self.cols, **arrays)


# ----------------------------------------------------------------------
# cloning (shared by inlining and unrolling)
# ----------------------------------------------------------------------
class _Clones:
    """``reps`` copies of the ops ``body`` (in order), appended as op
    ids ``first + r * B + j`` with results ``val_first + r * K +
    rank[j]``.  :meth:`commit` writes the rows once the caller has
    decided what each copied use reads."""

    def __init__(self, ed: _Edit, body: np.ndarray, reps: int) -> None:
        self.ed, self.body, self.reps = ed, body, reps
        B = len(body)
        n_ops = ed.rows["ops"]
        self.first = n_ops
        self.ids = np.arange(n_ops, n_ops + reps * B,
                             dtype=np.int64).reshape(reps, B)
        #: the body's op rows
        self.rows = ed["ops"][body]
        self.has_result = self.rows[:, _RESULT] >= 0
        K = int(self.has_result.sum())
        self.val_first = ed.rows["vals"]
        rank = np.cumsum(self.has_result) - 1
        self.results = np.where(
            self.has_result,
            self.val_first + np.arange(reps)[:, None] * K + rank, -1)
        ptr = ed["op_use_ptr"]
        self.counts = ptr[body + 1] - ptr[body]
        #: the body's uses (use rows), their op (body index) and values
        self.uses = ranges(ptr[body], self.counts)
        self.owner = np.repeat(np.arange(B, dtype=np.int64), self.counts)
        self.values = ed["use_val"][self.uses]
        # body index of each used value's producer, -1 outside the body
        # (the extra last slot serves values without a producer, -1)
        where = np.full(n_ops + 1, -1, dtype=np.int64)
        where[body] = np.arange(B)
        self.source = where[ed["val_producer"][self.values]]

    def mapped_values(self) -> np.ndarray:
        """``[reps, U]``: each copy's operands, with values produced in
        the body read from the same copy."""
        inside = self.source >= 0
        out = np.repeat(self.values[None, :], self.reps, axis=0)
        out[:, inside] = self.results[:, self.source[inside]]
        return out

    def commit(self, fid: int, uid0: int, suffixes, use_vals, use_times,
               **columns):
        """Append the copies; ``columns`` overrides op columns of every
        copy (by :data:`OP_COLUMNS` name)."""
        ed, body, reps = self.ed, self.body, self.reps
        B = len(body)
        n = reps * B
        rows = np.tile(self.rows, (reps, 1))
        rows[:, _UID] = uid0 + np.arange(n, dtype=np.int64)
        rows[:, _FUNC] = fid
        rows[:, _RESULT] = self.results.ravel()
        for name, column in columns.items():
            rows[:, OP_COLUMNS.index(name)] = column
        ed.append("ops", rows)
        ed.append("op_alive", np.ones(n, dtype=bool))
        counts = np.tile(self.counts, reps)
        ed.append("op_use_ptr", ed["op_use_ptr"][-1] + np.cumsum(counts))
        at = body.tolist()
        names = list(map(ed["op_name"].__getitem__, at))
        ed.w("op_name").extend([name + suffix for suffix in suffixes
                                for name in names])
        ed.w("op_loc").extend(list(map(ed["op_loc"].__getitem__, at))
                              * reps)

        src = self.rows[self.has_result, _RESULT]
        k = len(src) * reps
        rows = np.tile(ed["vals"][src], (reps, 1))
        rows[:, _KIND] = RESULT
        rows[:, _PRODUCER] = self.ids[:, self.has_result].ravel()
        rows[:, _OWNER] = -1
        ed.append("vals", rows)
        ed.w("val_type").extend(
            list(map(ed["val_type"].__getitem__, src.tolist())) * reps)
        ed.w("val_name").extend([None] * k)
        ed.w("val_const").extend([None] * k)
        ed.w("val_class").extend([Value] * k)

        uses = np.empty((int(counts.sum()), 3), dtype=np.int64)
        uses[:, 0] = np.repeat(self.ids.ravel(), counts)
        uses[:, 1] = np.asarray(use_vals).ravel()
        uses[:, 2] = np.asarray(use_times).ravel()
        ed.append("uses", uses)


# ----------------------------------------------------------------------
# directives
# ----------------------------------------------------------------------
def apply_directives(t: ModuleTable, directives: DirectiveSet
                     ) -> tuple[ModuleTable, dict]:
    """The table form of :func:`repro.hls.transforms.apply_directives`:
    validate, partition, mark, inline, unroll.  Returns the new table
    and the transform summary."""
    directives.validate(t)
    t = partition_arrays(t, directives)
    t = mark_directives(t, directives)
    uid = t.next_uid()
    t, inlined, uid = inline_functions(t, uid)
    t, unrolled, uid = unroll_loops(t, uid)
    return t, {
        "directives": directives.n_directives(),
        "inlined_ops": inlined,
        "unrolled_ops": unrolled,
        "partitioned_arrays": len(directives.partitions),
        "pipelined_loops": len(directives.pipelines),
    }


def partition_arrays(t: ModuleTable, directives: DirectiveSet
                     ) -> ModuleTable:
    """Record each partition factor on its array declaration."""
    arrays: dict[str, dict] = {}
    for d in directives.partitions:
        func = t.functions.get(d.function)
        if func is None:
            raise DirectiveError(f"array_partition: no function {d.function!r}")
        decls = arrays.setdefault(d.function, dict(func.arrays))
        decl = decls.get(d.array)
        if decl is None:
            raise DirectiveError(
                f"array_partition: no array {d.array!r} in {d.function!r}")
        factor = d.factor if d.factor else decl.type.length
        decls[d.array] = type(decl)(decl.name, decl.type,
                                    min(factor, decl.type.length))
    return _with_functions(t, {
        name: evolve(t.functions[name], arrays=decls)
        for name, decls in arrays.items()})


def mark_directives(t: ModuleTable, directives: DirectiveSet
                    ) -> ModuleTable:
    """Mark loops (unroll factor, pipeline and II) and functions
    (inline); the marks travel with inlined copies."""
    marks: dict[tuple[str, str], dict] = {}
    for d in directives.unrolls:
        marks.setdefault((d.function, d.loop), {})["unroll_factor"] = (
            d.factor if d.factor
            else t.functions[d.function].loops[d.loop].trip_count)
    for d in directives.pipelines:
        marks.setdefault((d.function, d.loop), {}).update(
            pipelined=True, initiation_interval=d.ii)
    changes: dict[str, dict] = {}
    for (fname, lname), mark in marks.items():
        func = t.functions[fname]
        loops = changes.setdefault(fname, {}).setdefault(
            "loops", dict(func.loops))
        loops[lname] = evolve(loops[lname], **mark)
    for d in directives.inlines:
        changes.setdefault(d.function, {})["inline"] = True
    return _with_functions(t, {
        name: evolve(t.functions[name], **change)
        for name, change in changes.items()})


def _with_functions(t: ModuleTable, changed: dict) -> ModuleTable:
    if not changed:
        return t
    return evolve(t, functions={name: changed.get(name, func)
                                 for name, func in t.functions.items()})


# ----------------------------------------------------------------------
# inlining
# ----------------------------------------------------------------------
def _call_order(functions: dict, targets: set[str]) -> list[str]:
    """Inline targets callee-first (leaf functions before callers)."""
    order: list[str] = []
    visiting: set[str] = set()
    done: set[str] = set()

    def visit(name: str) -> None:
        if name in done:
            return
        if name in visiting:
            raise HLSError(f"recursive inlining cycle through {name!r}")
        visiting.add(name)
        for callee in functions[name].callees:
            if callee in targets:
                visit(callee)
        visiting.discard(name)
        done.add(name)
        if name in targets:
            order.append(name)

    for name in sorted(targets):
        visit(name)
    return order


def inline_functions(t: ModuleTable, uid: int
                     ) -> tuple[ModuleTable, int, int]:
    """Inline every function marked inline into each caller, callee
    first, and drop the functions left without callers.  Copies take
    uids from ``uid`` on; returns the table, the ops added and the next
    free uid."""
    targets = {f.name for f in t.functions.values()
               if f.inline and not f.is_top}
    if not targets:
        return t, 0, uid
    ed = _Edit(t)
    base_attrs = t.base_attrs
    added = 0
    for name in _call_order(ed.functions, targets):
        site = 0
        for caller_name in list(ed.functions):
            if caller_name == name:
                continue
            order = ed.functions[caller_name].order
            calls = order[ed["op_opcode"][order] == CALL]
            calls = [c for c, b in zip(calls.tolist(),
                                       ed["op_base"][calls].tolist())
                     if base_attrs[b].get("callee") == name]
            for call in calls:
                n, uid = _inline_call(ed, caller_name, call, name, site, uid)
                added += n
                site += 1
            if calls:
                caller = ed.functions[caller_name]
                callees = [c for c in caller.callees if c != name]
                callees.extend(c for c in ed.functions[name].callees
                               if c not in callees)
                ed.functions[caller_name] = evolve(
                    caller, callees=tuple(callees))

    still_called = set()
    for func in ed.functions.values():
        if func.name not in targets:
            still_called.update(func.callees)
    for name in sorted(targets):
        if name not in still_called:
            func = ed.functions.pop(name)
            ed.w("op_alive")[func.order] = False
    return ed.done(), added, uid


def _inline_call(ed: _Edit, caller_name: str, call: int, callee_name: str,
                 site: int, uid: int) -> tuple[int, int]:
    """Inline ``callee_name`` at op ``call``; returns (ops added, next
    uid)."""
    caller = ed.functions[caller_name]
    callee = ed.functions[callee_name]
    ptr = ed["op_use_ptr"]
    actuals = ed["use_val"][ptr[call]:ptr[call + 1]]
    call_name = ed["op_name"][call]
    if len(actuals) != len(callee.args):
        raise HLSError(
            f"call {call_name} passes {len(actuals)} args but "
            f"{callee.name} declares {len(callee.args)}")
    prefix = f"{callee.name}.{site}."

    arrays = dict(caller.arrays)
    rename: dict[int, int] = {}
    for decl in callee.arrays.values():
        new_name = prefix + decl.name
        if new_name in arrays:
            raise IRError(
                f"array {new_name!r} already declared in {caller.name}")
        arrays[new_name] = type(decl)(new_name, decl.type,
                                      partition=decl.partition)
        if decl.name in ed["array_names"]:
            rename[ed["array_names"].index(decl.name)] = \
                ed.intern("array_names", new_name)
    caller_loops = sorted(
        (lp for lp in caller.loops.values() if call in lp.members),
        key=lambda lp: lp.depth)

    body = callee.order
    clones = _Clones(ed, body, 1)
    values = clones.mapped_values()
    # the callee's arguments read the call's operands
    is_arg = ((ed["val_kind"][clones.values] == ARGUMENT)
              & (ed["val_owner"][clones.values] == callee.fid))
    if is_arg.any():
        slot = {v: i for i, v in enumerate(callee.args.tolist())}
        values[0, is_arg] = actuals[
            [slot[v] for v in clones.values[is_arg].tolist()]]
    array = ed["op_array"][body].copy()
    for old, new in rename.items():
        array[ed["op_array"][body] == old] = new
    clones.commit(caller.fid, uid, [f"@{site}"], values,
                  ed.times(len(clones.uses)), array=array,
                  inl_from=callee.fid, call_site=ed["op_uid"][call])
    ids = clones.ids[0]
    uid += len(body)

    loops = dict(caller.loops)
    shift = len(caller_loops)
    member = np.zeros(len(ed["ops"]), dtype=bool)
    for loop in callee.loops.values():
        name = prefix + loop.name
        if name in loops:
            raise IRError(f"loop {name!r} already declared in {caller.name}")
        member[:] = False
        member[loop.members] = True
        where = member[body]
        loops[name] = LoopRec(
            name, loop.trip_count, loop.depth + shift, ids[where],
            loop.unroll_factor, loop.pipelined, loop.initiation_interval,
            prefix + loop.parent if loop.parent
            else (caller_loops[-1].name if caller_loops else None))

    is_ret = ed["op_opcode"][ids] == RET
    spliced = ids[~is_ret]
    ret_value = None
    for r in ids[is_ret].tolist():
        operands = ed["use_val"][_operand_slice(ed, r)]
        if len(operands):
            ret_value = int(operands[0])
    ed.w("op_alive")[ids[is_ret]] = False
    for lp in caller_loops:
        loops[lp.name] = evolve(
            loops[lp.name], members=np.concatenate([loops[lp.name].members,
                                                    spliced]))

    result = int(ed["op_result"][call])
    if result >= 0:
        users = ed.user_ops(result)
        if len(users):
            if ret_value is None:
                raise HLSError(
                    f"{callee.name} returns no value but result of "
                    f"{call_name} is used")
            ed.repoint(users, np.full(len(users), result),
                       np.full(len(users), ret_value))

    ed.w("op_alive")[call] = False
    loops = {k: evolve(lp, members=lp.members[lp.members != call])
             if call in lp.members else lp for k, lp in loops.items()}
    position = int(np.flatnonzero(caller.order == call)[0])
    ed.functions[caller_name] = evolve(
        caller, arrays=arrays, loops=loops,
        order=np.concatenate([caller.order[:position], spliced,
                              caller.order[position + 1:]]))
    return len(spliced), uid


def _operand_slice(ed: _Edit, op: int) -> slice:
    """The use rows of op ``op``."""
    ptr = ed["op_use_ptr"]
    return slice(ptr[op], ptr[op + 1])


# ----------------------------------------------------------------------
# unrolling
# ----------------------------------------------------------------------
def unroll_loops(t: ModuleTable, uid: int) -> tuple[ModuleTable, int, int]:
    """Unroll every loop marked with a factor, innermost first per
    function.  Copies take uids from ``uid`` on; returns the table, the
    ops added and the next free uid."""
    ed = _Edit(t)
    added = 0
    for fname in list(ed.functions):
        pending = [lp for lp in ed.functions[fname].loops.values()
                   if lp.unroll_factor != 1]
        pending.sort(key=lambda lp: (-lp.depth, lp.name))
        for pend in pending:
            func = ed.functions[fname]
            loop = func.loops[pend.name]
            factor = loop.unroll_factor
            ed.functions[fname] = evolve(func, loops={
                **func.loops, pend.name: evolve(loop, unroll_factor=1)})
            n, uid = _unroll(ed, fname, pend.name, factor, uid)
            added += n
    return ed.done(), added, uid


def _accumulator_slot(ed: _Edit, op: int, in_body: np.ndarray) -> int:
    """Operand slot carrying op ``op``'s reduction accumulator."""
    operands = ed["use_val"][_operand_slice(ed, op)]
    attrs = ed.t.base_attrs[ed["op_base"][op]]
    if "acc_index" in attrs:
        index = attrs["acc_index"]
        if not 0 <= index < len(operands):
            raise HLSError(
                f"{ed['op_name'][op]}: acc_index {index} out of range "
                f"({len(operands)} operands)")
        return index
    for i, v in enumerate(operands.tolist()):
        producer = ed["val_producer"][v]
        if ed["val_kind"][v] != RESULT or not in_body[producer]:
            return i
    raise HLSError(
        f"{ed['op_name'][op]} is marked reduce but every operand is "
        "loop-internal")


def _unroll(ed: _Edit, fname: str, loop_name: str, factor: int,
            uid: int) -> tuple[int, int]:
    """Replicate ``loop_name``'s body ``factor - 1`` times after it."""
    func = ed.functions[fname]
    if loop_name not in func.loops:
        raise HLSError(f"no loop {loop_name!r} in function {func.name}")
    loop = func.loops[loop_name]
    if factor == 0 or factor >= loop.trip_count:
        factor = loop.trip_count
    if factor <= 1:
        return 0, uid
    trips = max(1, math.ceil(loop.trip_count / factor))
    n_ops = len(ed["ops"])
    in_body = np.zeros(n_ops, dtype=bool)
    in_body[loop.members] = True
    body = func.order[in_body[func.order]]
    if not len(body):
        ed.functions[fname] = evolve(func, loops={
            **func.loops, loop_name: evolve(loop, trip_count=trips)})
        return 0, uid
    B = len(body)
    ancestors = [k for k, anc in func.loops.items()
                 if anc.name != loop_name
                 and int(in_body[anc.members].sum()) == B]
    inner = [lp for lp in func.loops.values()
             if lp.name != loop_name and len(lp.members)
             and in_body[lp.members].all()]

    # replica 0 (the body itself) joins its group unless already in one
    ops = ed["ops"][body]
    uids = ops[:, _UID]
    base = [ed.t.base_attrs[b] for b in ops[:, _BASE].tolist()]
    group = ed.intern("group_names", f"{func.name}:{loop_name}:")
    fresh_group = [g < 0 and "unroll_group" not in a
                   for g, a in zip(ops[:, _GRP].tolist(), base)]
    fresh_replica = [r < 0 and "replica_index" not in a
                     for r, a in zip(ops[:, _REPLICA].tolist(), base)]
    if any(fresh_group) or any(fresh_replica):
        rows = ed.w("ops")
        grouped = body[fresh_group]
        rows[grouped, _GRP] = group
        rows[grouped, _GRP_UID] = uids[fresh_group]
        rows[body[fresh_replica], _REPLICA] = 0
    chained = [j for j, a in enumerate(base) if a.get("reduce")
               and ops[j, _RESULT] >= 0]

    R = factor - 1
    clones = _Clones(ed, body, R)
    values = clones.mapped_values()
    U = len(clones.uses)
    step = 3 * U + 1
    times = ed.clock + np.arange(R)[:, None] * step + np.arange(U)
    block = ed.clock + np.arange(R) * step  # each replica's first time

    # constant load/store indices address element index + r
    kinds = ed["val_kind"]
    consts = ed["val_const"]
    use_val = ed["use_val"]
    ptr = ed["op_use_ptr"]
    shift_of = np.full(B, -1, dtype=np.int64)
    opcode = ops[:, _OPCODE].tolist()
    for j, oid in enumerate(opcode):
        if oid != LOAD and oid != STORE:
            continue
        op = int(body[j])
        for v in use_val[ptr[op] + (oid == STORE):ptr[op + 1]].tolist():
            if kinds[v] == CONSTANT and isinstance(consts[v], int):
                shift_of[j] = v
                break
    shifted = np.flatnonzero(shift_of >= 0)
    src = shift_of[shifted]
    if len(shifted):
        # the new constants follow the copies' results
        new = (clones.val_first + int((clones.results >= 0).sum())
               + np.arange(R * len(shifted))).reshape(R, len(shifted))
        col = np.full(B, -1, dtype=np.int64)
        col[shifted] = np.arange(len(shifted))
        cols = np.flatnonzero(clones.values == shift_of[clones.owner])
        values[:, cols] = new[:, col[clones.owner[cols]]]
        times[:, cols] = block[:, None] + U + np.arange(len(cols))

    # reduction accumulators chain serially across replicas
    if chained:
        chained = np.array(chained, dtype=np.int64)
        start = np.concatenate(([0], np.cumsum(clones.counts)))
        slot = np.array([_accumulator_slot(ed, int(body[j]), in_body)
                         for j in chained.tolist()], dtype=np.int64)
        prev = np.vstack([ops[chained, _RESULT][None, :],
                          clones.results[:-1, chained]])
        old = values[:, start[chained] + slot]
        owner_col = np.full(B, -1, dtype=np.int64)
        owner_col[chained] = np.arange(len(chained))
        mine = owner_col[clones.owner]
        cols = np.flatnonzero(mine >= 0)
        hit = values[:, cols] == old[:, mine[cols]]
        rr, cc = np.nonzero(hit)
        cc = cols[cc]
        values[rr, cc] = prev[rr, mine[cc]]
        row_first = np.searchsorted(rr, np.arange(R))
        times[rr, cc] = (block[rr] + 2 * U + np.arange(len(rr))
                         - row_first[rr])
    ed.clock += R * step

    clones.commit(func.fid, uid, [f"#u{r}" for r in range(1, R + 1)],
                  values, times, grp=group, grp_uid=np.tile(uids, R),
                  replica=np.repeat(np.arange(1, R + 1), B),
                  unroll_of=np.tile(uids, R))
    if len(shifted):
        ed.add_constants(
            list(map(ed["val_type"].__getitem__, src.tolist())) * R,
            np.tile(ed["val_width"][src], R),
            [consts[v] + r for r in range(1, R + 1) for v in src.tolist()])
    uid += R * B
    ids = clones.ids
    flat = ids.ravel()

    loops = dict(func.loops)
    for name in [loop_name, *ancestors]:
        loops[name] = evolve(loops[name], members=np.concatenate(
            [loops[name].members, flat]))
    if inner:
        where = np.full(n_ops, -1, dtype=np.int64)
        where[body] = np.arange(B)
    for r in range(1, R + 1):
        for lp in inner:
            name = f"{lp.name}#u{r}"
            if name in loops:
                raise IRError(f"loop {name!r} already declared in {func.name}")
            loops[name] = LoopRec(
                name, lp.trip_count, lp.depth, ids[r - 1, where[lp.members]],
                lp.unroll_factor, lp.pipelined, lp.initiation_interval,
                lp.parent)

    # consumers outside the loop read the last replica's accumulator
    if len(chained):
        members = np.zeros(len(ed["ops"]), dtype=bool)
        members[loops[loop_name].members] = True
        results = ops[chained, _RESULT]
        rank = np.full(len(ed["vals"]), -1, dtype=np.int64)
        rank[results] = np.arange(len(chained))
        uses = np.flatnonzero(rank[ed["use_val"]] >= 0)
        user = ed["use_op"][uses]
        keep = ed["op_alive"][user] & ~members[user]
        uses, user = uses[keep], user[keep]
        if len(uses):
            which = rank[ed["use_val"][uses]]
            order = np.lexsort((ed["use_time"][uses], which))
            pairs = user[order] * len(chained) + which[order]
            _, first = np.unique(pairs, return_index=True)
            first = order[np.sort(first)]
            which = which[first]
            ed.repoint(user[first], results[which],
                       clones.results[-1, chained[which]])

    loops[loop_name] = evolve(loops[loop_name], trip_count=trips,
                              unroll_factor=1)
    at = int(np.flatnonzero(func.order == body[-1])[0]) + 1
    ed.functions[fname] = evolve(
        func, loops=loops,
        order=np.concatenate([func.order[:at], flat, func.order[at:]]))
    return R * B, uid


# ----------------------------------------------------------------------
# front-end passes
# ----------------------------------------------------------------------
def run_frontend_passes(t: ModuleTable) -> tuple[ModuleTable, dict]:
    """Constant folding, dead-code elimination and bitwidth reduction
    over the whole module, as :func:`repro.ir.passes.run_default_pipeline`
    runs them per function (the passes of one function never touch
    another's ops, and the second DCE of that pipeline finds nothing:
    bitwidth reduction changes types only).  Returns the table and the
    ``folded`` / ``dce_removed`` / ``narrowed`` counts."""
    t, folded = constant_fold(t)
    t, removed = dead_code_elimination(t)
    t, narrowed = bitwidth_reduction(t)
    return t, {"folded": folded, "dce_removed": removed,
               "narrowed": narrowed}


def constant_fold(t: ModuleTable) -> tuple[ModuleTable, int]:
    """Replace ops whose two operands are constants by a new constant,
    in op order (a folded result can make a later op foldable)."""
    order = t.module_order()
    ptr = t.op_use_ptr
    foldable = _FOLD_IDS[t.op_opcode[order]] & (t.op_result[order] >= 0) \
        & (ptr[order + 1] - ptr[order] == 2)
    ops = order[foldable]
    a = t.use_val[ptr[ops]]
    b = t.use_val[ptr[ops] + 1]
    # ops that may fold: both operands constant or results of ops that
    # may fold
    maybe = np.zeros(len(t.vals), dtype=bool)
    maybe[t.val_kind == CONSTANT] = True
    while True:
        could = maybe[a] & maybe[b]
        grown = t.op_result[ops[could]]
        if maybe[grown].all():
            break
        maybe[grown] = True
    candidates = ops[could]
    if not len(candidates):
        return t, 0
    # fold in op order; a folded result reads as its constant from then
    # on (every use of it is re-pointed)
    kind = t.val_kind
    const_of: dict[int, int] = {}   # folded result -> its constant
    values: list = []               # payload of each new constant
    folded, results = [], []
    for op in candidates.tolist():
        x, y = (const_of.get(v, v) for v in t.use_val[ptr[op]:ptr[op] + 2]
                .tolist())
        payload = []
        for v in (x, y):
            if v < 0:
                payload.append(values[-v - 1])
            elif kind[v] == CONSTANT:
                payload.append(t.val_const[v])
        if len(payload) != 2:
            continue
        try:
            value = _FOLDS[int(t.op_opcode[op])](*payload)
        except (TypeError, ValueError):
            continue
        values.append(value)
        result = int(t.op_result[op])
        const_of[result] = -len(values)   # placeholder id, set below
        folded.append(op)
        results.append(result)
    if not folded:
        return t, 0
    ed = _Edit(t)
    results = np.array(results, dtype=np.int64)
    consts = ed.add_constants([t.val_type[v] for v in results.tolist()],
                              t.val_width[results], values)
    # every live user of each folded result, in fold order then users
    # order, re-pointed to the result's constant
    rank = np.full(len(t.vals), -1, dtype=np.int64)
    rank[results] = np.arange(len(results))
    uses = np.flatnonzero(rank[t.use_val] >= 0)
    uses = uses[t.op_alive[t.use_op[uses]]]
    uses = uses[np.lexsort((t.use_time[uses], rank[t.use_val[uses]]))]
    pairs = t.use_op[uses] * len(results) + rank[t.use_val[uses]]
    _, first = np.unique(pairs, return_index=True)
    first = np.sort(first)
    which = rank[t.use_val[uses[first]]]
    ed.repoint(t.use_op[uses[first]], results[which], consts[which])
    ed.kill(folded)
    return ed.done(), len(folded)


def dead_code_elimination(t: ModuleTable) -> tuple[ModuleTable, int]:
    """Remove pure ops whose results nothing uses, until none is left."""
    alive = t.op_alive.copy()
    removable = ~_SIDE_EFFECTS[t.op_opcode] & (t.op_result >= 0)
    dead_total = []
    while True:
        used = np.zeros(len(t.val_kind), dtype=bool)
        used[t.use_val[alive[t.use_op]]] = True
        dead = np.flatnonzero(alive & removable)
        dead = dead[~used[t.op_result[dead]]]
        if not len(dead):
            break
        alive[dead] = False
        dead_total.append(dead)
    if not dead_total:
        return t, 0
    ed = _Edit(t)
    dead = np.concatenate(dead_total)
    ed.kill(dead)
    return ed.done(), len(dead)


def bitwidth_reduction(t: ModuleTable) -> tuple[ModuleTable, int]:
    """Narrow integer results to the bits their operands can produce.

    Op by op, a narrowed result narrows the bound of every later op
    reading it; the sweep below repeats the whole-module rule until no
    width changes, which reaches the same widths (ops read only values
    defined before them)."""
    order = t.module_order()
    rule = _BOUND_RULE[t.op_opcode[order]]
    result = t.op_result[order]
    cand = (rule > 0) & (result >= 0)
    types = t.val_type
    cand[cand] = [type(types[v]) is IntType for v in result[cand].tolist()]
    ops = order[cand]
    if not len(ops):
        return t, 0
    rule = rule[cand]
    result = result[cand]
    ptr = t.op_use_ptr
    counts = ptr[ops + 1] - ptr[ops]
    slots = np.full((len(ops), 3), -1, dtype=np.int64)
    for s in range(3):
        has = counts > s
        slots[has, s] = t.use_val[ptr[ops[has]] + s]
    width0 = t.val_width[result]
    widths = t.val_width.copy()
    while True:
        w = np.where(slots >= 0, widths[np.maximum(slots, 0)], 0)
        bound = _bounds(rule, w)
        new = np.where((bound > 0) & (bound < width0), bound, width0)
        if np.array_equal(new, widths[result]):
            break
        widths[result] = new
    narrowed = np.flatnonzero(widths[result] < width0)
    if not len(narrowed):
        return t, 0
    ed = _Edit(t)
    types = ed.w("val_type")
    cache: dict = {}
    for v, bits in zip(result[narrowed].tolist(),
                       widths[result[narrowed]].tolist()):
        key = (bits, types[v].signed)
        types[v] = cache.get(key) or cache.setdefault(key, IntType(*key))
    ed.w("val_width")[result[narrowed]] = widths[result[narrowed]]
    return ed.done(), len(narrowed)


def _bounds(rule: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`repro.ir.passes._max_result_bits` per op (0 = unknown)
    from ``[n, 3]`` operand widths (0 for a missing operand): only
    positive widths count."""
    pos = w > 0
    widest = w.max(axis=1)
    two = w.sum(axis=1) - w.min(axis=1)   # the two widest
    first = np.where(pos[:, 0], w[:, 0], np.where(pos[:, 1], w[:, 1],
                                                  w[:, 2]))
    last = np.where(pos[:, 2], w[:, 2], np.where(pos[:, 1], w[:, 1],
                                                 w[:, 0]))
    bound = np.choose(rule - 1, (widest + 1, two,
                                 np.maximum(two, last) + 1, widest, first))
    return np.where(widest > 0, bound, 0)
