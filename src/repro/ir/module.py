"""Module: a whole design (a set of functions with one top)."""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Iterable, Iterator

from repro.errors import IRError
from repro.ir.function import Function
from repro.ir.operation import Operation
from repro.ir.value import Value


class Module:
    """A complete design: functions plus the designated top function.

    The paper combines several Rosetta applications under a single top
    function to fill the device; a module models exactly that unit — the
    thing one C-to-FPGA flow run consumes.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self._top: str | None = None
        #: lazily built uid -> Operation map; every hit is validated
        #: against the op's owning function, so transforms that add or
        #: remove operations can never be served a stale entry
        self._op_index: dict[int, Operation] | None = None

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise IRError(f"function {func.name!r} already in module {self.name}")
        self.functions[func.name] = func
        if func.is_top:
            if self._top is not None and self._top != func.name:
                raise IRError(
                    f"module {self.name} already has top {self._top!r}; "
                    f"cannot add second top {func.name!r}"
                )
            self._top = func.name
        return func

    @property
    def top(self) -> Function:
        if self._top is None:
            raise IRError(f"module {self.name} has no top function")
        return self.functions[self._top]

    def set_top(self, name: str) -> None:
        if name not in self.functions:
            raise IRError(f"cannot set top: no function {name!r} in {self.name}")
        if self._top is not None:
            self.functions[self._top].is_top = False
        self._top = name
        self.functions[name].is_top = True

    def function(self, name: str) -> Function:
        if name not in self.functions:
            raise IRError(f"no function {name!r} in module {self.name}")
        return self.functions[name]

    def iter_all_ops(self) -> Iterable[Operation]:
        """Iterate over every operation in every function."""
        for func in self.functions.values():
            yield from func.operations

    def n_ops(self) -> int:
        return sum(f.n_ops() for f in self.functions.values())

    def fresh_uids(self) -> Iterator[int]:
        """Uids for operations a transform adds to this module.

        Counts up from the largest uid in the module, so added
        operations never collide with existing ones, whatever the
        global build counter did since this module was built.
        """
        top = max((op.uid for op in self.iter_all_ops()), default=-1)
        return itertools.count(top + 1)

    def copy(self) -> "Module":
        """Structural copy that shares no mutable IR object with this one.

        Functions, loops, array declarations, operations and values
        (arguments and constants included) are all new objects, so
        transforming the copy leaves this module untouched.  Operation
        uids, names and attributes, operand order and the order of every
        value's ``users`` are kept.  Users outside the module, such as the
        operations of a function an earlier inlining dissolved, are
        dropped.
        """
        values: dict[int, Value] = {}  # id(original) -> copy
        copied: dict[int, Operation] = {}  # id(original) -> copy
        originals: list[Value] = []

        def value(v: Value) -> Value:
            new = values.get(id(v))
            if new is None:
                new = object.__new__(type(v))
                new.type = v.type
                new.name = v.name
                new.producer = None
                new.constant = v.constant
                values[id(v)] = new
                originals.append(v)
            return new

        clone = Module(self.name)
        clone._top = self._top
        for name, func in self.functions.items():
            fn = Function(func.name, is_top=func.is_top)
            fn.arguments = [value(a) for a in func.arguments]
            fn.arrays = {k: replace(d) for k, d in func.arrays.items()}
            fn.loops = {
                k: replace(lp, op_uids=set(lp.op_uids))
                for k, lp in func.loops.items()
            }
            fn.callees = list(func.callees)
            fn.inline = func.inline
            for op in func.operations:
                new = object.__new__(Operation)
                new.uid = op.uid
                new.opcode = op.opcode
                new.name = op.name
                new.loc = op.loc
                new.attrs = dict(op.attrs)
                new.operands = [value(v) for v in op.operands]
                new.parent = fn
                new.result = None
                if op.result is not None:
                    new.result = value(op.result)
                    new.result.producer = new
                copied[id(op)] = new
                fn.operations.append(new)
                fn._ops_by_uid[new.uid] = new
            clone.functions[name] = fn
        for v in originals:
            values[id(v)].users = [
                copied[id(u)] for u in v.users if id(u) in copied
            ]
        return clone

    def op_by_uid(self, uid: int) -> Operation:
        """O(1) lookup of an operation by uid, module-wide.

        Backed by a cached uid -> op map so per-node lookups (dataset
        assembly, source-region aggregation over every prediction) do
        not re-scan the function list each call.  A cache hit is only
        trusted when the operation is still registered with its owning
        function (``Function.remove`` detaches ``op.parent``) AND that
        function is still in this module (inlining deletes whole
        functions without per-op removal), so transforms can never be
        served a stale entry; any miss or stale hit rebuilds the map.
        """
        index = self._op_index
        if index is not None:
            op = index.get(uid)
            if (op is not None and op.parent is not None
                    and self.functions.get(op.parent.name) is op.parent
                    and op.parent.has_op(uid) and op.parent.op(uid) is op):
                return op
        index = {op.uid: op for op in self.iter_all_ops()}
        self._op_index = index
        if uid not in index:
            raise IRError(
                f"no operation with uid {uid} in module {self.name}"
            )
        return index[uid]

    def find_op(self, uid: int) -> Operation:
        return self.op_by_uid(uid)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Module({self.name}: {len(self.functions)} functions, "
            f"{self.n_ops()} ops)"
        )
