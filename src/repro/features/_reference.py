"""The pinned per-node reference feature extractor.

This is the original one-node-at-a-time implementation of the paper's
Section III-B feature extraction, preserved verbatim (mirroring
:mod:`repro.impl._reference` for place-and-route).  The production
extractor in :mod:`repro.features.extract` computes the same
[n_nodes, 302] matrix as whole-graph batched NumPy over a
:class:`~repro.graph.snapshot.GraphSnapshot`;
``tests/features/test_vectorized_equivalence.py`` pins the two against
each other to <= 1e-9 on every paper combination, directive variants and
hand-built graphs with merged shared-unit nodes and port nodes.

The extractor reads :class:`ReferenceGraph`, a networkx view built from
the frozen graph's arrays that answers the per-node queries (``info``,
predecessors, successors, edge weights, two-hop neighbourhoods) the
original code was written against.  This is the only module that uses
networkx, and it imports it on first use, so the runtime needs only
NumPy.

Do not optimize this module — its value is being the slow, obviously
faithful transcription of Table II that the fast path is measured
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FeatureError
from repro.features.registry import N_FEATURES, feature_index
from repro.fpga.device import Device
from repro.graph.snapshot import GraphStructure
from repro.hls.opchar import RESOURCE_KINDS
from repro.hls.synthesis import HLSResult
from repro.ir.opcodes import opcode_index, opcode_names

_EPS = 1e-9


@dataclass
class NodeInfo:
    """Payload of one dependency-graph node."""

    node_id: int
    kind: str                      # "op" or "port"
    op_uids: tuple[int, ...] = ()  # members (several after merging)
    opcode: str = ""
    bitwidth: int = 0
    function: str = ""

    @property
    def is_port(self) -> bool:
        return self.kind == "port"


class ReferenceGraph:
    """networkx view of a frozen dependency graph with the per-node
    queries of the reference extractor.  Edges keep the graph's
    per-source order."""

    def __init__(self, graph: GraphStructure) -> None:
        import networkx as nx

        members: dict[int, list[int]] = {}
        for uid, node in graph.node_of_op.items():
            members.setdefault(node, []).append(uid)
        names = opcode_names()
        ids = graph.node_ids.tolist()
        self.g = nx.DiGraph()
        for row, node_id in enumerate(ids):
            function = graph.func_names[graph.func_id[row]]
            if graph.is_port[row]:
                info = NodeInfo(node_id, "port", function=function)
            else:
                rep = int(graph.rep_uid[row])
                others = sorted(set(members[node_id]) - {rep})
                info = NodeInfo(
                    node_id, "op", op_uids=(rep, *others),
                    opcode=names[graph.opcode_id[row]],
                    bitwidth=int(graph.bitwidth[row]), function=function,
                )
            self.g.add_node(node_id, info=info)
        for src, dst, wires in zip(graph.e_src.tolist(),
                                   graph.e_dst.tolist(),
                                   graph.e_w.tolist()):
            self.g.add_edge(ids[src], ids[dst], weight=int(wires))
        self.und = nx.Graph(self.g)

    def info(self, node_id: int) -> NodeInfo:
        return self.g.nodes[node_id]["info"]

    def op_nodes(self) -> list[int]:
        return [n for n in self.g.nodes if not self.info(n).is_port]

    def predecessors(self, node_id: int) -> list[int]:
        return list(self.g.predecessors(node_id))

    def successors(self, node_id: int) -> list[int]:
        return list(self.g.successors(node_id))

    def neighbors(self, node_id: int) -> list[int]:
        """One-hop neighbours (predecessors + successors, dedup)."""
        seen = dict.fromkeys(self.g.predecessors(node_id))
        seen.update(dict.fromkeys(self.g.successors(node_id)))
        return list(seen)

    def in_edge_weights(self, node_id: int) -> list[int]:
        return [d["weight"] for _, _, d in self.g.in_edges(node_id, data=True)]

    def out_edge_weights(self, node_id: int) -> list[int]:
        return [d["weight"] for _, _, d in self.g.out_edges(node_id, data=True)]

    def two_hop_neighborhood(self, node_id: int) -> set[int]:
        """Nodes within two undirected hops (excluding the node itself)."""
        result: set[int] = set()
        for n1 in self.und.neighbors(node_id):
            result.add(n1)
            result.update(self.und.neighbors(n1))
        result.discard(node_id)
        return result


@dataclass(frozen=True)
class _NodeResources:
    """Per-node resource usage vector in RESOURCE_KINDS order."""

    usage: tuple[float, float, float, float]

    def of(self, kind_idx: int) -> float:
        return self.usage[kind_idx]


class ReferenceFeatureExtractor:
    """Computes feature vectors one dependency-graph node at a time."""

    def __init__(
        self,
        hls: HLSResult,
        graph: GraphStructure,
        device: Device,
    ) -> None:
        self.hls = hls
        self.graph = ReferenceGraph(graph)
        self.device = device
        self.device_totals = device.totals()
        self._device_vec = np.array(
            [max(1, self.device_totals[kind]) for kind in RESOURCE_KINDS],
            dtype=np.float64,
        )
        self._resources: dict[int, np.ndarray] = {}
        self._two_hop_cache: dict[int, set[int]] = {}
        self._precompute_node_resources()

    # ------------------------------------------------------------------
    # precomputation
    # ------------------------------------------------------------------
    def _precompute_node_resources(self) -> None:
        """Resource usage per node: the bound unit's spec, counted once."""
        for node_id in self.graph.g.nodes:
            info = self.graph.info(node_id)
            if info.is_port:
                self._resources[node_id] = np.zeros(4)
                continue
            rep_uid = info.op_uids[0]
            func_name = info.function
            binding = self.hls.bindings.get(func_name)
            if binding is None:
                raise FeatureError(f"no binding for function {func_name!r}")
            unit = binding.unit_of(rep_uid)
            res = unit.spec.resources()
            self._resources[node_id] = np.array(
                [res[kind] for kind in RESOURCE_KINDS], dtype=np.float64
            )

    def _node_resources(self, node_id: int) -> np.ndarray:
        return self._resources[node_id]

    def _two_hop(self, node_id: int) -> set[int]:
        if node_id not in self._two_hop_cache:
            self._two_hop_cache[node_id] = self.graph.two_hop_neighborhood(
                node_id
            )
        return self._two_hop_cache[node_id]

    # ------------------------------------------------------------------
    # ΔTcs
    # ------------------------------------------------------------------
    def _delta_tcs(self, src: int, dst: int) -> float:
        """ΔTcs between two adjacent nodes (1 across function borders)."""
        src_info = self.graph.info(src)
        dst_info = self.graph.info(dst)
        if src_info.is_port or dst_info.is_port:
            return 1.0
        if src_info.function != dst_info.function:
            return 1.0
        sched = self.hls.schedule.for_function(src_info.function)
        s_uid, d_uid = src_info.op_uids[0], dst_info.op_uids[0]
        if not (sched.has_op(s_uid) and sched.has_op(d_uid)):
            return 1.0
        return float(sched.delta_tcs(s_uid, d_uid))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def extract(self, node_id: int) -> np.ndarray:
        """302-entry feature vector for ``node_id``."""
        info = self.graph.info(node_id)
        if info.is_port:
            raise FeatureError("features are extracted for op nodes only")
        vec = np.zeros(N_FEATURES, dtype=np.float64)
        self._fill_bitwidth(vec, info)
        self._fill_interconnection(vec, node_id)
        self._fill_resources(vec, node_id, info)
        self._fill_timing(vec, info)
        self._fill_resource_dt(vec, node_id)
        self._fill_optype(vec, node_id, info)
        self._fill_global(vec, info)
        return vec

    def extract_all(self) -> tuple[list[int], np.ndarray]:
        """Feature matrix for every op node: (node ids, [n, 302])."""
        nodes = self.graph.op_nodes()
        matrix = np.zeros((len(nodes), N_FEATURES), dtype=np.float64)
        for i, node_id in enumerate(nodes):
            matrix[i] = self.extract(node_id)
        return nodes, matrix

    # ------------------------------------------------------------------
    # category fillers
    # ------------------------------------------------------------------
    def _fill_bitwidth(self, vec: np.ndarray, info: NodeInfo) -> None:
        vec[feature_index("bitwidth")] = info.bitwidth

    # -- interconnection ------------------------------------------------
    def _fill_interconnection(self, vec: np.ndarray, node_id: int) -> None:
        g = self.graph

        def fill(hop: str, fan_in, fan_out, n_pred, n_succ, n_neigh,
                 max_edge, max_in, max_out) -> None:
            vec[feature_index(f"ic_{hop}_fan_in")] = fan_in
            vec[feature_index(f"ic_{hop}_fan_out")] = fan_out
            vec[feature_index(f"ic_{hop}_fan_total")] = fan_in + fan_out
            vec[feature_index(f"ic_{hop}_n_pred")] = n_pred
            vec[feature_index(f"ic_{hop}_n_succ")] = n_succ
            vec[feature_index(f"ic_{hop}_n_neigh")] = n_neigh
            vec[feature_index(f"ic_{hop}_max_edge_wires")] = max_edge
            vec[feature_index(f"ic_{hop}_max_in_edge_pct_fan_in")] = (
                max_in / (fan_in + _EPS)
            )
            vec[feature_index(f"ic_{hop}_max_out_edge_pct_fan_out")] = (
                max_out / (fan_out + _EPS)
            )

        in_w = g.in_edge_weights(node_id)
        out_w = g.out_edge_weights(node_id)
        fan_in, fan_out = sum(in_w), sum(out_w)
        max_in = max(in_w, default=0)
        max_out = max(out_w, default=0)
        fill(
            "1hop", fan_in, fan_out,
            len(g.predecessors(node_id)), len(g.successors(node_id)),
            len(g.neighbors(node_id)),
            max(max_in, max_out), max_in, max_out,
        )

        # Two-hop: the same metrics over the ball of radius 1 around the
        # node (edges incident to the node or its direct neighbours).
        ball = {node_id, *g.neighbors(node_id)}
        fan_in2 = fan_out2 = 0
        max_in2 = max_out2 = 0
        preds2: set[int] = set()
        succs2: set[int] = set()
        for member in ball:
            for w in g.in_edge_weights(member):
                fan_in2 += w
                max_in2 = max(max_in2, w)
            for w in g.out_edge_weights(member):
                fan_out2 += w
                max_out2 = max(max_out2, w)
            preds2.update(g.predecessors(member))
            succs2.update(g.successors(member))
        preds2.discard(node_id)
        succs2.discard(node_id)
        fill(
            "2hop", fan_in2, fan_out2, len(preds2), len(succs2),
            len(self._two_hop(node_id)),
            max(max_in2, max_out2), max_in2, max_out2,
        )

    # -- resource ---------------------------------------------------------
    def _hop_sets(self, node_id: int):
        g = self.graph
        preds1 = set(g.predecessors(node_id))
        succs1 = set(g.successors(node_id))
        preds2 = set(preds1)
        for p in preds1:
            preds2.update(g.predecessors(p))
        succs2 = set(succs1)
        for s in succs1:
            succs2.update(g.successors(s))
        preds2.discard(node_id)
        succs2.discard(node_id)
        return preds1, succs1, preds2, succs2

    def _fill_resources(self, vec, node_id: int, info: NodeInfo) -> None:
        self_res = self._node_resources(node_id)
        fop = self.hls.reports.get(info.function)
        fop_vec = np.array(
            [max(1.0, fop.resources.get(kind, 0)) for kind in RESOURCE_KINDS]
        ) if fop else np.ones(4)

        preds1, succs1, preds2, succs2 = self._hop_sets(node_id)

        def sum_res(nodes: set[int]) -> np.ndarray:
            total = np.zeros(4)
            for n in nodes:
                total += self._node_resources(n)
            return total

        sums = {
            "1hop": (sum_res(preds1), sum_res(succs1), preds1 | succs1),
            "2hop": (sum_res(preds2), sum_res(succs2), preds2 | succs2),
        }

        for k_idx, kind in enumerate(RESOURCE_KINDS):
            k = kind.lower()
            vec[feature_index(f"res_{k}_usage")] = self_res[k_idx]
            vec[feature_index(f"res_{k}_util_device")] = (
                self_res[k_idx] / self._device_vec[k_idx]
            )
            vec[feature_index(f"res_{k}_util_function")] = (
                self_res[k_idx] / fop_vec[k_idx]
            )
            for hop, (pred_sum, succ_sum, neigh) in sums.items():
                neigh_vals = [self._node_resources(n)[k_idx] for n in neigh]
                neigh_total = sum(neigh_vals)
                max_neigh = max(neigh_vals, default=0.0)
                vec[feature_index(f"res_{k}_{hop}_pred_usage")] = pred_sum[k_idx]
                vec[feature_index(f"res_{k}_{hop}_succ_usage")] = succ_sum[k_idx]
                vec[feature_index(f"res_{k}_{hop}_neigh_usage")] = neigh_total
                vec[feature_index(f"res_{k}_{hop}_pred_util_device")] = (
                    pred_sum[k_idx] / self._device_vec[k_idx]
                )
                vec[feature_index(f"res_{k}_{hop}_succ_util_device")] = (
                    succ_sum[k_idx] / self._device_vec[k_idx]
                )
                vec[feature_index(f"res_{k}_{hop}_neigh_util_device")] = (
                    neigh_total / self._device_vec[k_idx]
                )
                vec[feature_index(f"res_{k}_{hop}_max_neigh_usage")] = max_neigh
                vec[feature_index(f"res_{k}_{hop}_max_neigh_usage_pct")] = (
                    max_neigh / (neigh_total + _EPS)
                )

    # -- timing -----------------------------------------------------------
    def _fill_timing(self, vec, info: NodeInfo) -> None:
        rep_uid = info.op_uids[0]
        func = self.hls.module.functions[info.function]
        op = func.op(rep_uid)
        spec = self.hls.library.spec_for(op)
        sched = self.hls.schedule.for_function(info.function)
        vec[feature_index("timing_delay_ns")] = spec.delay_ns
        vec[feature_index("timing_latency_cycles")] = (
            sched.end_of(rep_uid) - sched.start_of(rep_uid)
        )

    # -- #Resource/dTcs -----------------------------------------------------
    def _fill_resource_dt(self, vec, node_id: int) -> None:
        g = self.graph

        def accumulate(pairs):
            """pairs: iterable of (neighbor node, ΔTcs along the path)."""
            usage = np.zeros(4)
            for n, dt in pairs:
                usage += self._node_resources(n) / max(1.0, dt)
            return usage

        preds1 = [(p, self._delta_tcs(p, node_id)) for p in g.predecessors(node_id)]
        succs1 = [(s, self._delta_tcs(node_id, s)) for s in g.successors(node_id)]

        preds2 = list(preds1)
        for p, dt in preds1:
            for pp in g.predecessors(p):
                preds2.append((pp, dt + self._delta_tcs(pp, p)))
        succs2 = list(succs1)
        for s, dt in succs1:
            for ss in g.successors(s):
                succs2.append((ss, dt + self._delta_tcs(s, ss)))

        for hop, preds, succs in (
            ("1hop", preds1, succs1), ("2hop", preds2, succs2)
        ):
            pred_usage = accumulate(preds)
            succ_usage = accumulate(succs)
            for k_idx, kind in enumerate(RESOURCE_KINDS):
                k = kind.lower()
                vec[feature_index(f"rdt_{k}_{hop}_pred_usage_dt")] = (
                    pred_usage[k_idx]
                )
                vec[feature_index(f"rdt_{k}_{hop}_succ_usage_dt")] = (
                    succ_usage[k_idx]
                )
                vec[feature_index(f"rdt_{k}_{hop}_total_usage_dt")] = (
                    pred_usage[k_idx] + succ_usage[k_idx]
                )
                vec[feature_index(f"rdt_{k}_{hop}_pred_util_dt")] = (
                    pred_usage[k_idx] / self._device_vec[k_idx]
                )
                vec[feature_index(f"rdt_{k}_{hop}_succ_util_dt")] = (
                    succ_usage[k_idx] / self._device_vec[k_idx]
                )
                vec[feature_index(f"rdt_{k}_{hop}_total_util_dt")] = (
                    (pred_usage[k_idx] + succ_usage[k_idx])
                    / self._device_vec[k_idx]
                )

    # -- operator type ------------------------------------------------------
    def _fill_optype(self, vec, node_id: int, info: NodeInfo) -> None:
        base_self = feature_index(f"optype_is_{opcode_names()[0]}")
        base_neigh = feature_index(f"optype_neigh_{opcode_names()[0]}")
        vec[base_self + opcode_index(info.opcode)] = 1.0
        for n in self.graph.neighbors(node_id):
            n_info = self.graph.info(n)
            if not n_info.is_port:
                vec[base_neigh + opcode_index(n_info.opcode)] += 1.0

    # -- global ---------------------------------------------------------------
    def _fill_global(self, vec, info: NodeInfo) -> None:
        top_name = self.hls.module.top.name
        ftop = self.hls.reports[top_name]
        fop = self.hls.reports[info.function]

        ftop_res = ftop.hierarchical_resources
        fop_res = fop.resources
        for k_idx, kind in enumerate(RESOURCE_KINDS):
            k = kind.lower()
            vec[feature_index(f"global_ftop_{k}")] = ftop_res.get(kind, 0)
            vec[feature_index(f"global_ftop_{k}_util")] = (
                ftop_res.get(kind, 0) / self._device_vec[k_idx]
            )
            vec[feature_index(f"global_fop_{k}")] = fop_res.get(kind, 0)
            vec[feature_index(f"global_fop_{k}_util")] = (
                fop_res.get(kind, 0) / self._device_vec[k_idx]
            )
            vec[feature_index(f"global_fop_{k}_pct_of_top")] = (
                fop_res.get(kind, 0) / (ftop_res.get(kind, 0) + _EPS)
            )

        vec[feature_index("global_ftop_target_clock_ns")] = ftop.target_clock_ns
        vec[feature_index("global_ftop_clock_uncertainty_ns")] = (
            ftop.clock_uncertainty_ns
        )
        vec[feature_index("global_ftop_estimated_clock_ns")] = (
            ftop.estimated_clock_ns
        )
        vec[feature_index("global_fop_target_clock_ns")] = fop.target_clock_ns
        vec[feature_index("global_fop_clock_uncertainty_ns")] = (
            fop.clock_uncertainty_ns
        )
        vec[feature_index("global_fop_estimated_clock_ns")] = (
            fop.estimated_clock_ns
        )

        vec[feature_index("global_ftop_latency")] = ftop.latency_cycles
        vec[feature_index("global_fop_latency")] = fop.latency_cycles
        vec[feature_index("global_fop_latency_pct_of_top")] = (
            fop.latency_cycles / (ftop.latency_cycles + _EPS)
        )

        for scope, report in (("fop", fop), ("ftop", ftop)):
            mem = report.memories
            vec[feature_index(f"global_{scope}_mem_words")] = mem.words
            vec[feature_index(f"global_{scope}_mem_banks")] = mem.banks
            vec[feature_index(f"global_{scope}_mem_bits")] = mem.bits
            vec[feature_index(f"global_{scope}_mem_primitives")] = mem.primitives
            mux = report.muxes
            vec[feature_index(f"global_{scope}_mux_count")] = mux.count
            vec[feature_index(f"global_{scope}_mux_lut")] = mux.lut
            vec[feature_index(f"global_{scope}_mux_mean_inputs")] = (
                mux.mean_inputs
            )
            vec[feature_index(f"global_{scope}_mux_mean_bitwidth")] = (
                mux.mean_bitwidth
            )
