"""Function inlining.

Inlining is the pivotal directive of the paper's case study: the baseline
Face Detection inlines the cascade-classifier functions, which "increases
the complexity in C synthesis and generates a larger design" and creates
the congestion hotspot; the first resolution step removes the inlining.

Semantics: for every call site of a function marked ``inline``, the callee
body is cloned into the caller (arguments bound to call operands, arrays
and loops copied under prefixed names), and the call is deleted.  Cloned
operations keep the *callee's* source locations so congestion still maps
back to the right source lines, plus provenance attributes.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import HLSError
from repro.hls.transforms.clone import clone_region
from repro.ir.function import ArrayDecl, Function, Loop
from repro.ir.module import Module
from repro.ir.operation import Operation
from repro.ir.value import Value


def _call_order(module: Module, targets: set[str]) -> list[str]:
    """Inline-targets sorted callee-first (leaf functions before callers)."""
    order: list[str] = []
    visiting: set[str] = set()
    done: set[str] = set()

    def visit(name: str) -> None:
        if name in done:
            return
        if name in visiting:
            raise HLSError(f"recursive inlining cycle through {name!r}")
        visiting.add(name)
        for callee in module.functions[name].callees:
            if callee in targets:
                visit(callee)
        visiting.discard(name)
        done.add(name)
        if name in targets:
            order.append(name)

    # sorted: set iteration order is hash-randomized across processes,
    # and inlining order determines op-uid order -> placement -> results
    for name in sorted(targets):
        visit(name)
    return order


def _inline_one_call(caller: Function, call: Operation, callee: Function,
                     site_index: int, uids: Iterator[int]) -> int:
    """Inline ``callee`` at ``call`` inside ``caller``; return ops added."""
    if len(call.operands) != len(callee.arguments):
        raise HLSError(
            f"call {call.name} passes {len(call.operands)} args but "
            f"{callee.name} declares {len(callee.arguments)}"
        )
    prefix = f"{callee.name}.{site_index}."

    value_map: dict[int, Value] = {}
    for arg, actual in zip(callee.arguments, call.operands):
        value_map[id(arg)] = actual

    # Copy array declarations under prefixed names.
    array_rename: dict[str, str] = {}
    for decl in callee.arrays.values():
        new_name = prefix + decl.name
        array_rename[decl.name] = new_name
        caller.declare_array(
            ArrayDecl(new_name, decl.type, partition=decl.partition)
        )

    caller_loops = caller.loops_of(call)

    def attr_fn(op: Operation) -> dict:
        extra = {
            "inlined_from": callee.name,
            "call_site": call.uid,
        }
        array = op.attrs.get("array")
        if array in array_rename:
            extra["array"] = array_rename[array]
        return extra

    body = list(callee.operations)
    clones = clone_region(body, value_map, uids=uids,
                          name_suffix=f"@{site_index}", attr_fn=attr_fn)
    uid_map = {orig.uid: clone.uid for orig, clone in zip(body, clones)}

    # Copy loop metadata under prefixed names, remapping membership and
    # shifting depth below the caller loops that contain the call site.
    depth_shift = len(caller_loops)
    for loop in callee.loops.values():
        caller.declare_loop(
            Loop(
                name=prefix + loop.name,
                trip_count=loop.trip_count,
                depth=loop.depth + depth_shift,
                op_uids={uid_map[u] for u in loop.op_uids if u in uid_map},
                unroll_factor=loop.unroll_factor,
                pipelined=loop.pipelined,
                initiation_interval=loop.initiation_interval,
                parent=(prefix + loop.parent) if loop.parent
                else (caller_loops[-1].name if caller_loops else None),
            )
        )

    # Splice clones in at the call position.
    position = caller.operations.index(call)
    ret_value = None
    spliced: list[Operation] = []
    for clone in clones:
        if clone.opcode == "ret":
            if clone.operands:
                ret_value = clone.operands[0]
            clone.detach()
            continue
        spliced.append(clone)

    for loop in caller_loops:
        loop.op_uids.update(c.uid for c in spliced)

    # Replace uses of the call result by the callee's return value.
    if call.result is not None and call.result.users:
        if ret_value is None:
            raise HLSError(
                f"{callee.name} returns no value but result of {call.name} is used"
            )
        for user in list(call.result.users):
            user.replace_operand(call.result, ret_value)

    caller.remove(call)
    # Insert clones where the call was (keeps dataflow order: every operand
    # of the clones is defined earlier — callee bodies are self-contained).
    for offset, clone in enumerate(spliced):
        caller.insert_at(position + offset, clone)
    return len(spliced)


def inline_functions(module: Module, targets: set[str] | None = None, *,
                     uids: Iterator[int] | None = None) -> int:
    """Inline every function in ``targets`` (default: all marked inline).

    Returns the total number of operations added to callers.  Functions
    left without callers (and not top) are removed from the module, like
    Vivado HLS dissolving fully-inlined functions.  Clones take their
    uids from ``uids`` (default: :meth:`Module.fresh_uids`).
    """
    if targets is None:
        targets = {
            f.name for f in module.functions.values() if f.inline and not f.is_top
        }
    if not targets:
        return 0
    for name in targets:
        if name not in module.functions:
            raise HLSError(f"cannot inline unknown function {name!r}")
        if module.functions[name].is_top:
            raise HLSError("cannot inline the top function")

    if uids is None:
        uids = module.fresh_uids()
    added = 0
    for name in _call_order(module, set(targets)):
        callee = module.functions[name]
        site_index = 0
        for caller in list(module.functions.values()):
            if caller.name == name:
                continue
            calls = [
                op for op in caller.ops_of("call")
                if op.attrs.get("callee") == name
            ]
            for call in calls:
                added += _inline_one_call(caller, call, callee, site_index,
                                          uids)
                site_index += 1
            if calls:
                caller.callees = [c for c in caller.callees if c != name]
                caller.callees.extend(
                    c for c in callee.callees if c not in caller.callees
                )

    # Drop fully-inlined functions that nothing references any more.
    still_called = set()
    for func in module.functions.values():
        if func.name in targets:
            continue
        still_called.update(func.callees)
    for name in sorted(targets):
        if name not in still_called:
            del module.functions[name]
    return added
