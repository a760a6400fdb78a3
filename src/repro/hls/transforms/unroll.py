"""Loop unrolling.

Section III-C1 of the paper hinges on unrolling behaviour: "When a loop is
unrolled, multiple copies of the same operation will be generated and
mapped to different hardware units" — in Face Detection an unrolled loop
yields 625 replicas spread over the device, whose marginal members must be
filtered from the dataset.

This transform replicates the loop body ``factor`` times.  Every member of
a replica group (the original plus its copies) carries an ``unroll_group``
attribute; the dataset filter and the feature extractor's replica logic key
off it.  Operations marked ``reduce`` are chained serially across replicas
(accumulator pattern); everything else shares its out-of-body operands,
which reproduces the fan-out amplification that makes unrolled designs
congested.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.errors import HLSError
from repro.hls.transforms.clone import clone_region
from repro.ir.function import Function, Loop
from repro.ir.module import Module
from repro.ir.operation import Operation
from repro.ir.value import Constant, Value


def _body_in_order(func: Function, loop: Loop) -> list[Operation]:
    return [op for op in func.operations if op.uid in loop.op_uids]


def _find_accumulator_index(op: Operation, body_uids: set[int]) -> int:
    """Operand slot carrying the reduction accumulator.

    Explicit ``acc_index`` attribute wins; otherwise the first operand not
    produced inside the loop body (the classic init-value slot).
    """
    if "acc_index" in op.attrs:
        index = op.attrs["acc_index"]
        if not 0 <= index < len(op.operands):
            raise HLSError(
                f"{op.name}: acc_index {index} out of range "
                f"({len(op.operands)} operands)"
            )
        return index
    for i, operand in enumerate(op.operands):
        producer = operand.producer
        if producer is None or producer.uid not in body_uids:
            return i
    raise HLSError(
        f"{op.name} is marked reduce but every operand is loop-internal"
    )


def unroll_loop(func: Function, loop_name: str, factor: int = 0, *,
                uids: Iterator[int]) -> int:
    """Unroll ``loop_name`` in ``func`` by ``factor`` (0 = complete).

    Returns the number of replica operations added.  The loop's trip count
    is divided by the factor; replica groups are recorded on each member's
    attributes.  Replicas take their uids from ``uids``, which must not
    collide with any uid of the module ``func`` belongs to (pass that
    module's :meth:`~repro.ir.module.Module.fresh_uids`).
    """
    if loop_name not in func.loops:
        raise HLSError(f"no loop {loop_name!r} in function {func.name}")
    loop = func.loops[loop_name]
    if factor == 0 or factor >= loop.trip_count:
        factor = loop.trip_count
    if factor <= 1:
        return 0

    body = _body_in_order(func, loop)
    if not body:
        loop.trip_count = max(1, math.ceil(loop.trip_count / factor))
        return 0
    body_uids = {op.uid for op in body}

    ancestors = [
        anc for anc in func.loops.values()
        if anc.name != loop_name and body_uids <= anc.op_uids
    ]
    inner_loops = [
        inner for inner in func.loops.values()
        if inner.name != loop_name and inner.op_uids and inner.op_uids <= body_uids
    ]

    group_of = {
        op.uid: f"{func.name}:{loop_name}:{op.uid}" for op in body
    }
    for op in body:
        op.attrs.setdefault("unroll_group", group_of[op.uid])
        op.attrs.setdefault("replica_index", 0)

    reduce_last: dict[int, Value] = {
        op.uid: op.result for op in body
        if op.attrs.get("reduce") and op.result is not None
    }

    insert_pos = func.index_of(body[-1]) + 1
    added = 0
    for r in range(1, factor):
        value_map: dict[int, Value] = {}

        def attr_fn(op: Operation, _r=r) -> dict:
            return {
                "unroll_group": group_of[op.uid],
                "replica_index": _r,
                "unroll_of": op.uid,
            }

        clones = clone_region(body, value_map, uids=uids,
                              name_suffix=f"#u{r}", attr_fn=attr_fn)

        # Induction-variable substitution: replica r of a memory access
        # with a compile-time index addresses element (index + r), like
        # real unrolled code (a[i+0], a[i+1], ...).  Without this every
        # replica would hit the same bank, which is neither legal HLS
        # output nor realistic wiring.
        for clone in clones:
            if clone.opcode not in ("load", "store"):
                continue
            index_slots = (
                range(len(clone.operands)) if clone.opcode == "load"
                else range(1, len(clone.operands))
            )
            for slot in index_slots:
                operand = clone.operands[slot]
                if operand.is_constant and isinstance(operand.constant, int):
                    shifted = Constant(operand.type, operand.constant + r)
                    clone.replace_operand(operand, shifted)
                    break

        # Chain reduction accumulators serially across replicas.
        for orig, clone in zip(body, clones):
            if orig.uid not in reduce_last:
                continue
            acc_slot = _find_accumulator_index(orig, body_uids)
            clone.replace_operand(clone.operands[acc_slot], reduce_last[orig.uid])
            reduce_last[orig.uid] = clone.result

        uid_map = {orig.uid: clone.uid for orig, clone in zip(body, clones)}
        for clone in clones:
            func.insert_at(insert_pos, clone)
            insert_pos += 1
            loop.op_uids.add(clone.uid)
            for anc in ancestors:
                anc.op_uids.add(clone.uid)
        added += len(clones)

        for inner in inner_loops:
            func.declare_loop(
                Loop(
                    name=f"{inner.name}#u{r}",
                    trip_count=inner.trip_count,
                    depth=inner.depth,
                    op_uids={uid_map[u] for u in inner.op_uids},
                    unroll_factor=inner.unroll_factor,
                    pipelined=inner.pipelined,
                    initiation_interval=inner.initiation_interval,
                    parent=inner.parent,
                )
            )

    # Downstream consumers of a reduction must read the *final* replica's
    # value (the fully-accumulated result), not the first partial sum.
    for orig in body:
        if orig.uid not in reduce_last or orig.result is None:
            continue
        final_value = reduce_last[orig.uid]
        if final_value is orig.result:
            continue
        for user in list(orig.result.users):
            if user.uid not in loop.op_uids:
                user.replace_operand(orig.result, final_value)

    loop.trip_count = max(1, math.ceil(loop.trip_count / factor))
    loop.unroll_factor = 1
    return added


def apply_unrolls(module: Module, *,
                  uids: Iterator[int] | None = None) -> int:
    """Perform every pending unroll recorded on loop metadata.

    Loops are processed innermost-first so that unrolling an outer loop
    replicates already-unrolled inner bodies, matching HLS semantics.
    Replicas take their uids from ``uids`` (default:
    :meth:`Module.fresh_uids`).
    """
    if uids is None:
        uids = module.fresh_uids()
    added = 0
    for func in list(module.functions.values()):
        pending = [lp for lp in func.loops.values() if lp.unroll_factor != 1]
        pending.sort(key=lambda lp: (-lp.depth, lp.name))
        for loop in pending:
            factor = loop.unroll_factor
            loop.unroll_factor = 1
            added += unroll_loop(func, loop.name, factor, uids=uids)
    return added
