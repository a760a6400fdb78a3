"""Structural verifier for IR modules.

The HLS transforms (inlining, unrolling) rewrite the IR aggressively; the
verifier catches def-use or loop bookkeeping corruption early instead of
as bogus features downstream.  Synthesis verifies its table IR with
:func:`repro.hls.tableir.verify_table`; this object form verifies IR
built by hand and the reference front end.
"""

from __future__ import annotations

from repro.errors import VerificationError
from repro.ir.function import Function
from repro.ir.module import Module


def verify_function(func: Function) -> None:
    """Raise :class:`VerificationError` on any structural violation."""
    seen_uids: set[int] = set()
    defined: set[int] = set()  # value ids defined so far
    arg_ids = {id(a) for a in func.arguments}

    for op in func.operations:
        if op.uid in seen_uids:
            raise VerificationError(
                f"{func.name}: duplicate operation uid {op.uid} ({op.name})"
            )
        seen_uids.add(op.uid)

        if op.parent is not func:
            raise VerificationError(
                f"{func.name}: operation {op.name} has wrong parent "
                f"{op.parent.name if op.parent else None!r}"
            )

        for operand in op.operands:
            if operand.is_constant or id(operand) in arg_ids:
                continue
            producer = operand.producer
            if producer is None:
                raise VerificationError(
                    f"{func.name}: operand {operand.name!r} of {op.name} has "
                    "no producer and is neither constant nor argument"
                )
            if id(operand) not in defined:
                raise VerificationError(
                    f"{func.name}: {op.name} uses {operand.name!r} before "
                    f"its producer {producer.name} (dataflow order violated)"
                )
            if op not in operand.users:
                raise VerificationError(
                    f"{func.name}: {op.name} missing from users of "
                    f"{operand.name!r} (def-use web corrupt)"
                )

        if op.result is not None:
            if op.result.producer is not op:
                raise VerificationError(
                    f"{func.name}: result of {op.name} does not point back "
                    "to its producer"
                )
            defined.add(id(op.result))

    _verify_loops(func, seen_uids)


def _verify_loops(func: Function, op_uids: set[int]) -> None:
    for loop in func.loops.values():
        stale = loop.op_uids - op_uids
        if stale:
            raise VerificationError(
                f"{func.name}: loop {loop.name!r} references "
                f"{len(stale)} removed operations"
            )
        if loop.parent is not None:
            if loop.parent not in func.loops:
                raise VerificationError(
                    f"{func.name}: loop {loop.name!r} has unknown parent "
                    f"{loop.parent!r}"
                )
            parent = func.loops[loop.parent]
            if not loop.op_uids <= parent.op_uids:
                raise VerificationError(
                    f"{func.name}: loop {loop.name!r} is not nested inside "
                    f"its parent {loop.parent!r}"
                )
            if parent.depth >= loop.depth:
                raise VerificationError(
                    f"{func.name}: loop {loop.name!r} depth {loop.depth} not "
                    f"greater than parent depth {parent.depth}"
                )


def verify_module(module: Module) -> None:
    """Verify every function plus module-level invariants."""
    module.top  # raises IRError if there is no top
    for func in module.functions.values():
        verify_function(func)
        for callee in func.callees:
            if callee not in module.functions:
                raise VerificationError(
                    f"{func.name} calls unknown function {callee!r}"
                )
    for func in module.functions.values():
        for op in func.ops_of("call"):
            callee = op.attrs.get("callee")
            if callee not in module.functions:
                raise VerificationError(
                    f"{func.name}: call {op.name} targets unknown function "
                    f"{callee!r}"
                )
