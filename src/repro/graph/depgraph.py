"""The operation dependency graph (paper Section III-A2).

"A dependency graph is constructed by storing each operation as one node
and connecting dependent operations.  The edge weight is measured by
counting the number of wires for each connection."  Three refinements from
the paper are implemented:

* **wire-count edge weights** — a consumer taking 8 of a 32-bit value
  contributes weight 8 (:func:`repro.hls.optable.wire_cap`);
* **shared-module merging (Fig. 4)** — operations bound to the same RTL
  module are replaced by one combined node, with edges redirected;
* **port nodes** — function-interface nodes "indicate which operators are
  connected to the same I/O port".

Cross-function (call) connectivity is wired through the call node, so a
non-inlined design still exposes its interconnection structure.

:func:`build_dependency_graph` reads the
:class:`~repro.hls.optable.OpTable` of each function of an HLS result
(the one its binding was made from), lists every connection as arrays
in the order the paper's walk makes them — def-use, then calls, then
ports — sums parallel connections into one edge placed where it was
first made, merges shared units over the few nodes they touch, and
returns the frozen :class:`~repro.graph.snapshot.GraphStructure`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import IRError
from repro.graph.snapshot import GraphStructure, dedup_sorted_keys
from repro.hls.optable import READ_PORT, WRITE_PORT, connection_wires
from repro.hls.tableir import ranges

if TYPE_CHECKING:
    from repro.hls.synthesis import HLSResult


def build_dependency_graph(
    hls: HLSResult, *, merge_shared: bool = True,
) -> GraphStructure:
    """Build the design-level dependency graph of a synthesized design.

    Node ids number the operations in module order, then one port node
    per function argument.  The result brings its op tables and, for
    the Fig.-4 merge of operations that share an RTL module, its
    bindings, so no IR object is built; ``merge_shared=False`` gives the
    unmerged graph of the sharing ablation.
    """
    tables = [hls.schedule.for_function(name).table
              for name in hls.ir.functions]

    def joined(column: str) -> np.ndarray:
        """A per-op (or per-argument) column over the whole module."""
        return np.concatenate([getattr(t, column) for t in tables] + [_EMPTY])

    sizes = [t.n for t in tables]
    offset = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    n_ops = int(offset[-1])
    uid = joined("uid")
    node_of_op = dict(zip(uid.tolist(), range(n_ops)))
    if len(node_of_op) != n_ops:
        raise IRError(f"module {hls.ir.name!r} repeats operation uids "
                      "across functions")
    # argument ``a`` (functions in module order, then argument order) is
    # port node ``n_ops + a``
    arg_base = np.concatenate(
        ([0], np.cumsum([len(t.arg_width) for t in tables], dtype=np.int64)))
    n_ports = int(arg_base[-1])
    n_nodes = n_ops + n_ports
    opcode_id = joined("opcode_id")
    wire_cap = joined("wire_cap")
    arg_width = joined("arg_width")
    user_start, user_count, user_node = _joined_csr(
        tables, offset, "arg_user_indptr", "arg_user_pos")
    edges = _Edges()

    # Def-use edges with wire-count weights.
    _, prod_count, producer = _joined_csr(tables, offset, "prod_indptr",
                                          "prod_pos")
    owner = np.repeat(np.arange(n_ops), prod_count)
    edges.add(producer, owner, joined("prod_uses") * connection_wires(
        joined("result_width")[producer], wire_cap[owner]))

    # Cross-function connectivity through call nodes: call by call, the
    # users of each passed argument, then the callee's returns.
    index = {t.name: i for i, t in enumerate(tables)}
    calls = [(o + pos, index[name])
             for t, o in zip(tables, offset.tolist())
             for pos, name in zip(t.call_pos.tolist(), t.call_callee)
             if name in index]
    call_node, callee = np.array(calls, dtype=np.int64).reshape(-1, 2).T
    n_args = np.minimum(arg_base[callee + 1] - arg_base[callee],
                        joined("n_operands")[call_node])
    arg = ranges(arg_base[callee], n_args)
    use_arg = np.repeat(arg, user_count[arg])
    use_call = np.repeat(np.repeat(np.arange(len(calls)), n_args),
                         user_count[arg])
    passed = user_node[ranges(user_start[arg], user_count[arg])]
    ret_start, ret_count, ret_node = _joined_csr(tables, offset, None,
                                                 "ret_src")
    ret = ranges(ret_start[callee], ret_count[callee])
    ret_call = np.repeat(np.arange(len(calls)), ret_count[callee])
    edges.add(np.concatenate([call_node[use_call], ret_node[ret]]),
              np.concatenate([passed, call_node[ret_call]]),
              np.concatenate([connection_wires(arg_width[use_arg],
                                               wire_cap[passed]),
                              joined("ret_wires")[ret]]),
              made=np.concatenate([use_call * 2, ret_call * 2 + 1]))

    # Port nodes for function interfaces: port by port, the argument's
    # users, then the read_port/write_port ops naming it.
    use_port = np.repeat(np.arange(n_ports), user_count)
    _, port_count, port_op = _joined_csr(tables, offset, "port_indptr",
                                         "port_pos")
    op_port = np.repeat(np.arange(n_ports), port_count)
    read = opcode_id[port_op] == READ_PORT
    keep = read | (opcode_id[port_op] == WRITE_PORT)
    read, op_port, port_op = read[keep], op_port[keep], port_op[keep]
    edges.add(np.concatenate([n_ops + use_port,
                              np.where(read, n_ops + op_port, port_op)]),
              np.concatenate([user_node,
                              np.where(read, port_op, n_ops + op_port)]),
              np.concatenate([connection_wires(arg_width[use_port],
                                               wire_cap[user_node]),
                              np.maximum(1, arg_width[op_port])]),
              made=np.concatenate([use_port * 2, op_port * 2 + 1]))

    e_src, e_dst, e_w = edges.collapse(n_nodes)
    bitwidth = np.concatenate(
        [t.width for t in tables] + [np.zeros(n_ports, dtype=np.int64)])
    removed = _EMPTY
    if merge_shared:
        groups = _shared_groups(tables, offset, hls.bindings)
        if groups:
            e_src, e_dst, e_w, removed = _merge_shared_units(
                e_src, e_dst, e_w, groups, bitwidth, n_nodes)
            for nodes in groups:
                keep = nodes[0]
                for node in nodes[1:]:
                    node_of_op[int(uid[node])] = keep

    alive = np.ones(n_nodes, dtype=bool)
    alive[removed] = False
    func_ids = np.arange(len(tables))
    func_of_node = np.concatenate([np.repeat(func_ids, sizes),
                                   np.repeat(func_ids, np.diff(arg_base))])
    return _compile(
        kept=np.flatnonzero(alive), n_ops=n_ops, opcode_id=opcode_id,
        uid=uid, bitwidth=bitwidth, func_of_node=func_of_node,
        names=[t.name for t in tables], edges=(e_src, e_dst, e_w),
        node_of_op=node_of_op,
    )


_EMPTY = np.zeros(0, dtype=np.int64)


def _joined_csr(tables, offset, indptr: str | None, pos: str):
    """The per-table CSR ``indptr``/``pos`` of op positions as one
    module-wide CSR of node ids (one row per table when ``indptr`` is
    None): each row's start and count, and the nodes."""
    if indptr is None:
        counts = np.array([len(getattr(t, pos)) for t in tables],
                          dtype=np.int64)
    else:
        counts = np.concatenate(
            [np.diff(getattr(t, indptr)) for t in tables] + [_EMPTY])
    nodes = np.concatenate([o + getattr(t, pos) for t, o in
                            zip(tables, offset.tolist())] + [_EMPTY])
    return np.cumsum(counts) - counts, counts, nodes


class _Edges:
    """Connections in the order they are made; :meth:`collapse` turns
    them into one edge per (source, target)."""

    def __init__(self) -> None:
        self.src: list[np.ndarray] = []
        self.dst: list[np.ndarray] = []
        self.w: list[np.ndarray] = []

    def add(self, src, dst, wires, made=None) -> None:
        """Add a batch of connections, made in the order of ``made``
        (ties in batch order), else in batch order."""
        if made is not None:
            order = np.argsort(made, kind="stable")
            src, dst, wires = src[order], dst[order], wires[order]
        self.src.append(src)
        self.dst.append(dst)
        self.w.append(wires)

    def collapse(self, n_nodes: int):
        """``(src, dst, wires)`` edges grouped by source node.

        Parallel connections sum into one edge, and each source lists
        its edges in the order each was first made; self-loops drop.
        """
        src = np.concatenate(self.src + [_EMPTY])
        dst = np.concatenate(self.dst + [_EMPTY])
        w = np.concatenate(self.w + [_EMPTY])
        loop = src == dst
        if loop.any():
            src, dst, w = src[~loop], dst[~loop], w[~loop]
        if not len(src):
            return _EMPTY, _EMPTY, _EMPTY
        key = src * n_nodes + dst
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        wires = np.add.reduceat(w[order], first)
        made = order[first]
        key = key[first]
        src, dst = key // n_nodes, key % n_nodes
        by_source = np.lexsort((made, src))
        return src[by_source], dst[by_source], wires[by_source]


def _shared_groups(tables, offset, bindings) -> list[list[int]]:
    """Node ids of each shared unit's operations (ascending), in
    binding and unit order: the Fig.-4 merge groups."""
    node_base = {t.name: int(o) for t, o in zip(tables, offset)}
    groups = []
    for binding in bindings.values():
        fu = binding.fu_of_pos
        pos = np.flatnonzero(np.bincount(fu)[fu] > 1)
        pos = pos[np.argsort(fu[pos], kind="stable")]
        cuts = np.flatnonzero(np.diff(fu[pos])) + 1
        base = node_base[binding.function]
        groups += [(base + members).tolist()
                   for members in np.split(pos, cuts) if len(members)]
    return groups


def _link(succ, src: int, dst: int, wires: int) -> None:
    """Add (or widen) the edge ``src -> dst``; self-loops drop."""
    if src != dst:
        out = succ[src]
        out[dst] = out.get(dst, 0) + wires


def _merge_shared_units(e_src, e_dst, e_w, groups, bitwidth, n_nodes):
    """Merge each shared unit's operations into its lowest node id.

    "The original nodes are removed and corresponding edges are
    redirected to the combined node."  Members merge one at a time in
    id order: a redirected edge widens an existing edge in place or
    joins the end of its source's successor list, parallel edges sum
    and self-loops drop.  Only the members and their predecessors get
    successor maps; every other node keeps its edges as they are.
    Every operation is bound to one unit, so the groups are disjoint.
    Returns the edges (grouped by source) and the removed node ids;
    ``bitwidth`` takes each kept node's widest member.
    """
    members = np.zeros(n_nodes, dtype=bool)
    members[[node for nodes in groups for node in nodes]] = True
    into = members[e_dst]
    touched = members.copy()
    touched[e_src[into]] = True
    indptr = _indptr(e_src, n_nodes).tolist()
    dsts, weights = e_dst.tolist(), e_w.tolist()
    succ: dict[int, dict | None] = {}
    for node in np.flatnonzero(touched).tolist():
        lo, hi = indptr[node], indptr[node + 1]
        succ[node] = dict(zip(dsts[lo:hi], weights[lo:hi]))
    preds: dict[int, set[int]] = {
        node: set() for node in np.flatnonzero(members).tolist()}
    for src, dst in zip(e_src[into].tolist(), e_dst[into].tolist()):
        preds[dst].add(src)

    removed = []
    for nodes in groups:
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
                if dst in preds:
                    preds[dst].discard(other)
                if dst != keep:
                    _link(succ, keep, dst, wires)
                    if dst in preds:
                        preds[dst].add(keep)
            succ[other] = None
            removed.append(other)
        bitwidth[keep] = max(bitwidth[node] for node in nodes)

    rest = ~touched[e_src]
    out = [(src, dst, w) for src, succs in succ.items() if succs
           for dst, w in succs.items()]
    src = np.concatenate([e_src[rest], np.array([e[0] for e in out],
                                                dtype=np.int64)])
    dst = np.concatenate([e_dst[rest], np.array([e[1] for e in out],
                                                dtype=np.int64)])
    w = np.concatenate([e_w[rest], np.array([e[2] for e in out],
                                            dtype=np.int64)])
    by_source = np.argsort(src, kind="stable")
    return (src[by_source], dst[by_source], w[by_source],
            np.array(removed, dtype=np.int64))


def _compile(*, kept, n_ops, opcode_id, uid, bitwidth, func_of_node, names,
             edges, node_of_op) -> GraphStructure:
    """The kept nodes, in id order, and their edges as arrays."""
    n = len(kept)
    row_of_node = np.full(len(func_of_node), -1, dtype=np.int64)
    row_of_node[kept] = np.arange(n)
    is_port = kept >= n_ops
    ops = kept[~is_port]
    n_op_rows = len(ops)

    opcode = np.full(n, -1, dtype=np.int64)
    opcode[:n_op_rows] = opcode_id[ops]
    rep_uid = np.full(n, -1, dtype=np.int64)
    rep_uid[:n_op_rows] = uid[ops]
    # function ids by first appearance in row order: op rows run
    # function by function, port rows follow
    func_rows = func_of_node[kept]
    fid_of = np.full(len(names), -1, dtype=np.int64)
    order = []
    with_ops = np.bincount(func_rows[:n_op_rows], minlength=len(names))
    for f in np.flatnonzero(with_ops).tolist() + \
            func_rows[n_op_rows:].tolist():
        if fid_of[f] < 0:
            fid_of[f] = len(order)
            order.append(names[f])

    e_src = row_of_node[edges[0]]
    e_dst = row_of_node[edges[1]]
    # Undirected unique-neighbour CSR: both edge directions, dedup via a
    # combined (row, neighbour) key, so parallel opposite-direction
    # edges collapse to one undirected neighbour.
    key = dedup_sorted_keys(np.concatenate([e_src * n + e_dst,
                                            e_dst * n + e_src]))
    return GraphStructure(
        n=n,
        node_ids=kept.astype(np.int64),
        row_of=dict(zip(kept.tolist(), range(n))),
        is_port=is_port,
        op_rows=np.flatnonzero(~is_port),
        opcode_id=opcode,
        bitwidth=bitwidth[kept].astype(np.float64),
        rep_uid=rep_uid,
        func_names=tuple(order),
        func_id=fid_of[func_rows],
        e_src=e_src,
        e_dst=e_dst,
        e_w=edges[2].astype(np.float64),
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
