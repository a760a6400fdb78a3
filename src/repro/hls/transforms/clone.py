"""Operation cloning with value remapping (shared by inline and unroll)."""

from __future__ import annotations

from typing import Callable, Iterator

from repro.ir.operation import Operation
from repro.ir.types import VOID
from repro.ir.value import Value


def clone_operation(
    op: Operation,
    value_map: dict[int, Value],
    *,
    uid: int,
    name_suffix: str = "",
    extra_attrs: dict | None = None,
) -> Operation:
    """Clone ``op`` under ``uid``, remapping operands through ``value_map``.

    ``value_map`` maps ``id(original value) -> replacement value``; any
    operand not in the map (constants, arguments, values defined outside
    the cloned region) is shared with the original.  The clone's result is
    registered in ``value_map`` so later clones can consume it.
    """
    operands = [value_map.get(id(v), v) for v in op.operands]
    attrs = dict(op.attrs)
    if extra_attrs:
        attrs.update(extra_attrs)
    clone = Operation(
        op.opcode,
        operands,
        op.result.type if op.result is not None else VOID,
        name=op.name + name_suffix,
        loc=op.loc,
        attrs=attrs,
        uid=uid,
    )
    if op.result is not None and clone.result is not None:
        value_map[id(op.result)] = clone.result
    return clone


def clone_region(
    ops: list[Operation],
    value_map: dict[int, Value],
    *,
    uids: Iterator[int],
    name_suffix: str = "",
    attr_fn: Callable[[Operation], dict] | None = None,
) -> list[Operation]:
    """Clone an ordered op region, threading ``value_map`` through it.

    Clones take their uids from ``uids`` in region order (see
    :meth:`repro.ir.module.Module.fresh_uids`).
    """
    clones = []
    for op in ops:
        extra = attr_fn(op) if attr_fn else None
        clones.append(
            clone_operation(op, value_map, uid=next(uids),
                            name_suffix=name_suffix, extra_attrs=extra)
        )
    return clones
