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
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.errors import FeatureError, IRError
from repro.graph.snapshot import GraphStructure, structure_from_graph
from repro.hls.binding import FunctionBinding
from repro.ir.module import Module
from repro.ir.operation import Operation
from repro.rtl.generate import consumed_bits


@dataclass
class NodeInfo:
    """Payload of one dependency-graph node."""

    node_id: int
    kind: str                      # "op" or "port"
    op_uids: tuple[int, ...] = ()  # members (several after merging)
    opcode: str = ""
    bitwidth: int = 0
    function: str = ""
    port_name: str = ""

    @property
    def is_port(self) -> bool:
        return self.kind == "port"


class DependencyGraph:
    """Directed operation graph with wire-count edge weights."""

    def __init__(self) -> None:
        self.g = nx.DiGraph()
        self.node_of_op: dict[int, int] = {}
        self._next_id = 0
        # Mutations bump ``_version``; derived views (undirected graph,
        # CSR structure, feature snapshot) remember the version they
        # were built at and rebuild lazily when stale.  Construction
        # therefore never pays per-call invalidation work — ``freeze()``
        # builds everything once when the graph is complete.
        self._version = 0
        self._undirected_cache: nx.Graph | None = None
        self._undirected_version = -1
        self._structure: GraphStructure | None = None
        self._structure_version = -1
        #: (version, hls, GraphSnapshot) written by compile_snapshot
        self._snapshot_slot: tuple | None = None

    # ------------------------------------------------------------------
    # pickling: derived caches are either bulky (the undirected copy)
    # or hold foreign objects (the snapshot slot keeps the HLSResult it
    # was compiled against alive); both rebuild cheaply, so neither
    # rides along in flow/stage cache pickles.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_undirected_cache"] = None
        state["_undirected_version"] = -1
        state["_snapshot_slot"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # defaults for pickles written before the snapshot engine
        self.__dict__.setdefault("_version", 0)
        self.__dict__.setdefault("_undirected_cache", None)
        self.__dict__.setdefault("_undirected_version", -1)
        self.__dict__.setdefault("_structure", None)
        self.__dict__.setdefault("_structure_version", -1)
        self.__dict__.setdefault("_snapshot_slot", None)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_node(self, info: NodeInfo) -> int:
        self.g.add_node(info.node_id, info=info)
        self._version += 1
        return info.node_id

    def add_op_node(self, op: Operation) -> int:
        if op.uid in self.node_of_op:
            return self.node_of_op[op.uid]
        node_id = self._next_id
        self._next_id += 1
        info = NodeInfo(
            node_id=node_id,
            kind="op",
            op_uids=(op.uid,),
            opcode=op.opcode,
            bitwidth=op.bitwidth(),
            function=op.parent.name if op.parent else "",
        )
        self._new_node(info)
        self.node_of_op[op.uid] = node_id
        return node_id

    def add_port_node(self, function: str, port_name: str) -> int:
        node_id = self._next_id
        self._next_id += 1
        info = NodeInfo(
            node_id=node_id,
            kind="port",
            function=function,
            port_name=port_name,
        )
        self._new_node(info)
        return node_id

    def add_edge(self, src: int, dst: int, wires: int) -> None:
        """Add (or widen) a directed edge carrying ``wires`` wires."""
        if src == dst:
            return
        if self.g.has_edge(src, dst):
            self.g[src][dst]["weight"] += wires
            self.g[src][dst]["count"] += 1
        else:
            self.g.add_edge(src, dst, weight=wires, count=1)
        self._version += 1

    # ------------------------------------------------------------------
    # freezing / derived views
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter; derived views are valid for one version."""
        return self._version

    def freeze(self) -> "DependencyGraph":
        """Build-complete hook: construct the CSR
        :class:`~repro.graph.snapshot.GraphStructure` once.

        The undirected networkx copy is NOT built here — only the
        pinned per-node reference path (``two_hop_neighborhood``) reads
        it, and it materializes lazily on first use; production
        consumers read the CSR structure.  Idempotent; further mutation
        is still allowed (derived views rebuild lazily), but the
        intended protocol is build -> freeze -> query.
        :func:`build_dependency_graph` calls this before returning."""
        self.structure()
        return self

    def _undirected(self) -> nx.Graph:
        if (self._undirected_cache is None
                or self._undirected_version != self._version):
            self._undirected_cache = self.g.to_undirected(as_view=False)
            self._undirected_version = self._version
        return self._undirected_cache

    def structure(self) -> GraphStructure:
        """The frozen CSR compilation of this graph (lazily rebuilt)."""
        if self._structure is None or self._structure_version != self._version:
            self._structure = structure_from_graph(self)
            self._structure_version = self._version
        return self._structure

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def info(self, node_id: int) -> NodeInfo:
        return self.g.nodes[node_id]["info"]

    def node_for(self, op_uid: int) -> int:
        if op_uid not in self.node_of_op:
            raise FeatureError(f"op uid {op_uid} not in dependency graph")
        return self.node_of_op[op_uid]

    def n_nodes(self) -> int:
        return self.g.number_of_nodes()

    def n_edges(self) -> int:
        return self.g.number_of_edges()

    def op_nodes(self) -> list[int]:
        return [n for n in self.g.nodes if self.info(n).kind == "op"]

    def port_nodes(self) -> list[int]:
        return [n for n in self.g.nodes if self.info(n).kind == "port"]

    def predecessors(self, node_id: int) -> list[int]:
        return list(self.g.predecessors(node_id))

    def successors(self, node_id: int) -> list[int]:
        return list(self.g.successors(node_id))

    def neighbors(self, node_id: int) -> list[int]:
        """One-hop neighbours (predecessors + successors, dedup)."""
        seen = dict.fromkeys(self.g.predecessors(node_id))
        seen.update(dict.fromkeys(self.g.successors(node_id)))
        return list(seen)

    def fan_in(self, node_id: int) -> int:
        return sum(d["weight"] for _, _, d in self.g.in_edges(node_id, data=True))

    def fan_out(self, node_id: int) -> int:
        return sum(d["weight"] for _, _, d in self.g.out_edges(node_id, data=True))

    def in_edge_weights(self, node_id: int) -> list[int]:
        return [d["weight"] for _, _, d in self.g.in_edges(node_id, data=True)]

    def out_edge_weights(self, node_id: int) -> list[int]:
        return [d["weight"] for _, _, d in self.g.out_edges(node_id, data=True)]

    def two_hop_neighborhood(self, node_id: int) -> set[int]:
        """Nodes within two undirected hops (excluding the node itself)."""
        und = self._undirected()
        result: set[int] = set()
        for n1 in und.neighbors(node_id):
            result.add(n1)
            result.update(und.neighbors(n1))
        result.discard(node_id)
        return result

    # ------------------------------------------------------------------
    # shared-module merging (paper Fig. 4)
    # ------------------------------------------------------------------
    def merge_nodes(self, node_ids: list[int]) -> int:
        """Merge ``node_ids`` into one combined node; return its id.

        "The original nodes are removed and corresponding edges are
        redirected to the combined node."  Edge weights of parallel edges
        accumulate; self-loops created by the merge are dropped.
        """
        if len(node_ids) < 2:
            return node_ids[0] if node_ids else -1
        infos = [self.info(n) for n in node_ids]
        if any(i.is_port for i in infos):
            raise FeatureError("cannot merge port nodes")
        keep = node_ids[0]
        merged_uids: list[int] = []
        for info in infos:
            merged_uids.extend(info.op_uids)
        for other in node_ids[1:]:
            for pred, _, data in list(self.g.in_edges(other, data=True)):
                if pred != keep:
                    self.add_edge(pred, keep, data["weight"])
            for _, succ, data in list(self.g.out_edges(other, data=True)):
                if succ != keep:
                    self.add_edge(keep, succ, data["weight"])
            self.g.remove_node(other)
        info = self.info(keep)
        new_info = NodeInfo(
            node_id=keep,
            kind="op",
            op_uids=tuple(merged_uids),
            opcode=info.opcode,
            bitwidth=max(i.bitwidth for i in infos),
            function=info.function,
        )
        self.g.nodes[keep]["info"] = new_info
        for uid in merged_uids:
            self.node_of_op[uid] = keep
        self._version += 1
        return keep


def build_dependency_graph(
    module: Module,
    bindings: dict[str, FunctionBinding] | None = None,
    *,
    merge_shared: bool = True,
) -> DependencyGraph:
    """Build the design-level dependency graph.

    ``bindings`` enables Fig.-4 merging of operations that share an RTL
    module; pass ``None`` (or ``merge_shared=False``) for the unmerged
    graph used by the sharing ablation.  Bindings must bind exactly the
    operations of ``module``, which holds for ``hls.module`` with
    ``hls.bindings``; anything else (typically the pre-HLS
    ``design.module``) raises :class:`~repro.errors.IRError`.
    """
    graph = DependencyGraph()

    # Nodes for every operation.
    for func in module.functions.values():
        for op in func.operations:
            graph.add_op_node(op)

    if bindings is not None:
        bound = {uid for b in bindings.values() for uid in b.fu_of_op}
        held = graph.node_of_op.keys()
        if bound != held:
            raise IRError(
                f"bindings do not match module {module.name!r}: "
                f"{len(bound - held)} bound uids are not in it and "
                f"{len(held - bound)} of its operations are unbound; "
                "pass the synthesized module (hls.module) with its bindings"
            )

    # Def-use edges with wire-count weights.
    for func in module.functions.values():
        for op in func.operations:
            for operand in op.operands:
                producer = operand.producer
                if producer is None:
                    continue
                graph.add_edge(
                    graph.node_for(producer.uid),
                    graph.node_for(op.uid),
                    consumed_bits(operand, op),
                )

    # Cross-function connectivity through call nodes.
    for func in module.functions.values():
        for call in func.ops_of("call"):
            callee = module.functions.get(call.attrs.get("callee"))
            if callee is None:
                continue
            call_node = graph.node_for(call.uid)
            for i, operand in enumerate(call.operands):
                if i >= len(callee.arguments):
                    break
                arg = callee.arguments[i]
                for user in arg.users:
                    if user.parent is callee:
                        graph.add_edge(
                            call_node,
                            graph.node_for(user.uid),
                            consumed_bits(arg, user),
                        )
            for ret in callee.ops_of("ret"):
                if ret.operands:
                    producer = ret.operands[0].producer
                    if producer is not None:
                        graph.add_edge(
                            graph.node_for(producer.uid),
                            call_node,
                            max(1, ret.operands[0].bitwidth()),
                        )

    # Port nodes for function interfaces.
    for func in module.functions.values():
        for arg in func.arguments:
            port = graph.add_port_node(func.name, arg.name)
            width = max(1, arg.bitwidth())
            for user in arg.users:
                if user.parent is func:
                    graph.add_edge(port, graph.node_for(user.uid),
                                   consumed_bits(arg, user))
            for op in func.operations:
                if op.attrs.get("port") == arg.name:
                    if op.opcode == "read_port":
                        graph.add_edge(port, graph.node_for(op.uid), width)
                    elif op.opcode == "write_port":
                        graph.add_edge(graph.node_for(op.uid), port, width)

    # Fig. 4: merge operations sharing one RTL module.
    if merge_shared and bindings:
        for binding in bindings.values():
            for group in binding.shared_groups():
                nodes = sorted({graph.node_for(uid) for uid in group})
                if len(nodes) > 1:
                    graph.merge_nodes(nodes)

    return graph.freeze()
