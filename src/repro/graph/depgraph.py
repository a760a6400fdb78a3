"""The operation dependency graph (paper Section III-A2).

"A dependency graph is constructed by storing each operation as one node
and connecting dependent operations.  The edge weight is measured by
counting the number of wires for each connection."  Three refinements from
the paper are implemented:

* **wire-count edge weights** — a consumer taking 8 of a 32-bit value
  contributes weight 8 (:func:`repro.rtl.generate.consumed_bits`);
* **shared-module merging (Fig. 4)** — operations bound to the same RTL
  module are replaced by one combined node, with edges redirected;
* **port nodes** — function-interface nodes "indicate which operators are
  connected to the same I/O port".

Cross-function (call) connectivity is wired through the call node, so a
non-inlined design still exposes its interconnection structure.

:func:`build_dependency_graph` walks the module once into per-node
successor maps, relabels merged nodes onto the node they are kept as,
and returns the frozen :class:`~repro.graph.snapshot.GraphStructure`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FeatureError, IRError
from repro.graph.snapshot import GraphStructure, dedup_sorted_keys
from repro.hls.binding import FunctionBinding
from repro.ir.module import Module
from repro.ir.opcodes import opcode_index
from repro.rtl.generate import consumed_bits


def build_dependency_graph(
    module: Module,
    bindings: dict[str, FunctionBinding] | None = None,
    *,
    merge_shared: bool = True,
) -> GraphStructure:
    """Build the design-level dependency graph.

    Node ids number the operations in module order, then one port node
    per function argument.  ``bindings`` enables Fig.-4 merging of
    operations that share an RTL module; pass ``None`` (or
    ``merge_shared=False``) for the unmerged graph used by the sharing
    ablation.  Bindings must bind exactly the operations of ``module``,
    which holds for ``hls.module`` with ``hls.bindings``; anything else
    (typically the pre-HLS ``design.module``) raises
    :class:`~repro.errors.IRError`.
    """
    functions = list(module.functions.values())
    ops = []
    node_of_op: dict[int, int] = {}
    for func in functions:
        for op in func.operations:
            if op.uid not in node_of_op:
                node_of_op[op.uid] = len(ops)
                ops.append(op)

    if bindings is not None:
        bound = {uid for b in bindings.values() for uid in b.fu_of_op}
        held = node_of_op.keys()
        if bound != held:
            raise IRError(
                f"bindings do not match module {module.name!r}: "
                f"{len(bound - held)} bound uids are not in it and "
                f"{len(held - bound)} of its operations are unbound; "
                "pass the synthesized module (hls.module) with its bindings"
            )

    def node_for(uid: int) -> int:
        node = node_of_op.get(uid)
        if node is None:
            raise FeatureError(f"op uid {uid} not in dependency graph")
        return node

    n_ports = sum(len(func.arguments) for func in functions)
    # successor -> wires per node, in first-connection order: the edge
    # order every float sum downstream follows
    succ: list[dict[int, int] | None] = [
        {} for _ in range(len(ops) + n_ports)
    ]

    # Def-use edges with wire-count weights.
    for func in functions:
        for op in func.operations:
            for operand in op.operands:
                producer = operand.producer
                if producer is not None:
                    _link(succ, node_for(producer.uid), node_for(op.uid),
                          consumed_bits(operand, op))

    # Cross-function connectivity through call nodes.
    for func in functions:
        for call in func.ops_of("call"):
            callee = module.functions.get(call.attrs.get("callee"))
            if callee is None:
                continue
            call_node = node_for(call.uid)
            for arg in callee.arguments[:len(call.operands)]:
                for user in arg.users:
                    if user.parent is callee:
                        _link(succ, call_node, node_for(user.uid),
                              consumed_bits(arg, user))
            for ret in callee.ops_of("ret"):
                if ret.operands:
                    producer = ret.operands[0].producer
                    if producer is not None:
                        _link(succ, node_for(producer.uid), call_node,
                              max(1, ret.operands[0].bitwidth()))

    # Port nodes for function interfaces.
    port_function: list[str] = []
    for func in functions:
        for arg in func.arguments:
            port = len(ops) + len(port_function)
            port_function.append(func.name)
            width = max(1, arg.bitwidth())
            for user in arg.users:
                if user.parent is func:
                    _link(succ, port, node_for(user.uid),
                          consumed_bits(arg, user))
            for op in func.operations:
                if op.attrs.get("port") == arg.name:
                    if op.opcode == "read_port":
                        _link(succ, port, node_for(op.uid), width)
                    elif op.opcode == "write_port":
                        _link(succ, node_for(op.uid), port, width)

    # Fig. 4: merge operations sharing one RTL module.
    bitwidth = [op.bitwidth() for op in ops] + [0] * n_ports
    if merge_shared and bindings:
        _merge_shared_units(succ, bitwidth, node_of_op, bindings)
    return _compile(ops, port_function, succ, bitwidth, node_of_op)


def _link(succ, src: int, dst: int, wires: int) -> None:
    """Add (or widen) the edge ``src -> dst``; self-loops drop."""
    if src != dst:
        out = succ[src]
        out[dst] = out.get(dst, 0) + wires


def _merge_shared_units(succ, bitwidth, node_of_op, bindings) -> None:
    """Merge each shared unit's operations into its lowest node id.

    "The original nodes are removed and corresponding edges are
    redirected to the combined node."  Members merge one at a time in
    id order: a redirected edge widens an existing edge in place or
    joins the end of its source's successor list, parallel edges sum
    and self-loops drop.  ``succ`` loses the merged nodes (``None``)
    and ``node_of_op`` maps every member to the kept node.  Every
    operation is bound to one unit, so the groups are disjoint.
    """
    preds: list[set[int]] | None = None
    for binding in bindings.values():
        for group in binding.shared_groups():
            nodes = sorted({node_of_op[uid] for uid in group})
            if len(nodes) < 2:
                continue
            if preds is None:
                preds = [set() for _ in succ]
                for src, out in enumerate(succ):
                    for dst in out:
                        preds[dst].add(src)
            keep = nodes[0]
            for other in nodes[1:]:
                # every predecessor has its own successor list, so the
                # order they are visited in changes no edge order
                for src in preds[other]:
                    wires = succ[src].pop(other)
                    if src != keep:
                        _link(succ, src, keep, wires)
                        preds[keep].add(src)
                for dst, wires in succ[other].items():
                    preds[dst].discard(other)
                    if dst != keep:
                        _link(succ, keep, dst, wires)
                        preds[dst].add(keep)
                succ[other] = None
            for uid in group:
                node_of_op[uid] = keep
            bitwidth[keep] = max(bitwidth[node] for node in nodes)


def _compile(ops, port_function, succ, bitwidth,
             node_of_op) -> GraphStructure:
    """The kept nodes, in id order, and their edges as arrays."""
    n_ops = len(ops)
    kept = [node for node, out in enumerate(succ) if out is not None]
    n = len(kept)
    node_ids = np.array(kept, dtype=np.int64)
    row_of = {node: row for row, node in enumerate(kept)}
    is_port = node_ids >= n_ops

    fid_of: dict[str, int] = {}
    func_id = np.empty(n, dtype=np.int64)
    opcode_id = np.full(n, -1, dtype=np.int64)
    rep_uid = np.full(n, -1, dtype=np.int64)
    for row, node in enumerate(kept):
        if node < n_ops:
            op = ops[node]
            fname = op.parent.name if op.parent else ""
            opcode_id[row] = opcode_index(op.opcode)
            rep_uid[row] = op.uid
        else:
            fname = port_function[node - n_ops]
        func_id[row] = fid_of.setdefault(fname, len(fid_of))

    e_src = np.repeat(np.arange(n, dtype=np.int64),
                      [len(succ[node]) for node in kept])
    e_dst = np.array([row_of[dst] for node in kept for dst in succ[node]],
                     dtype=np.int64)
    # Undirected unique-neighbour CSR: both edge directions, dedup via a
    # combined (row, neighbour) key, so parallel opposite-direction
    # edges collapse to one undirected neighbour.
    key = dedup_sorted_keys(np.concatenate([e_src * n + e_dst,
                                            e_dst * n + e_src]))
    return GraphStructure(
        n=n,
        node_ids=node_ids,
        row_of=row_of,
        is_port=is_port,
        op_rows=np.flatnonzero(~is_port),
        opcode_id=opcode_id,
        bitwidth=np.array([bitwidth[node] for node in kept],
                          dtype=np.float64),
        rep_uid=rep_uid,
        func_names=tuple(fid_of),
        func_id=func_id,
        e_src=e_src,
        e_dst=e_dst,
        e_w=np.array([w for node in kept for w in succ[node].values()],
                     dtype=np.float64),
        out_indptr=_indptr(e_src, n),
        out_edge=np.argsort(e_src, kind="stable"),
        in_indptr=_indptr(e_dst, n),
        in_edge=np.argsort(e_dst, kind="stable"),
        und_indptr=_indptr(key // n, n),
        und_nbr=key % n,
        node_of_op=node_of_op,
    )


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of entries sorted by ``rows``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr
