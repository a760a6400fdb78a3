"""The dependency graph as read-only NumPy arrays, and its HLS snapshot.

The per-request hot path of the prediction phase is computing the
302-entry feature vectors (paper Section III-B) for every operation
node.  The graph and everything the features read about it are flat
NumPy arrays, so feature extraction is whole-graph batch math:

* :class:`GraphStructure` — the dependency graph itself, as
  :func:`~repro.graph.depgraph.build_dependency_graph` returns it: node
  order, port mask, opcode/bitwidth/function-id vectors, CSR
  in/out/undirected adjacency with wire weights and the op-uid -> node
  map.  Every array is read-only and the dataclass is frozen, so a
  built graph never changes and nothing derived from it can go stale.
* :class:`GraphSnapshot` — the structure plus everything feature
  extraction reads from the HLS result: the per-node resource matrix
  ``[n, 4]``, operator delay/latency vectors, per-edge ΔTcs and the
  per-function report tables behind the global-information features.
  Compiled by :func:`compile_snapshot` and memoized on the HLS result
  per graph.

All arrays index nodes by *row* (position in ``node_ids``), never by the
original graph node id — ids are non-contiguous after Fig.-4 merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FeatureError
from repro.hls.opchar import RESOURCE_KINDS
from repro.hls.tableir import freeze_arrays


@dataclass(frozen=True, eq=False)
class GraphStructure:
    """The frozen dependency graph (no HLS inputs).

    ``eq=False``: identity comparison/hashing — an auto-generated
    ``__eq__`` over ndarray fields would raise on comparison.
    """

    n: int
    #: node ids in node order (row -> id): ops, then ports
    node_ids: np.ndarray
    #: node id -> row
    row_of: dict
    is_port: np.ndarray          # bool [n]
    op_rows: np.ndarray          # int [n_ops], rows of op nodes in order
    opcode_id: np.ndarray        # int [n], -1 for port nodes
    bitwidth: np.ndarray         # float [n], 0 for port nodes
    rep_uid: np.ndarray          # int [n], representative op uid, -1 ports
    func_names: tuple
    func_id: np.ndarray          # int [n]
    #: directed edges (rows) with wire-count weights, grouped by source
    e_src: np.ndarray
    e_dst: np.ndarray
    e_w: np.ndarray              # float [E]
    #: out-adjacency CSR: edges with src == i are
    #: ``out_edge[out_indptr[i]:out_indptr[i+1]]`` (edge indices)
    out_indptr: np.ndarray
    out_edge: np.ndarray
    #: in-adjacency CSR over edge indices, grouped by dst
    in_indptr: np.ndarray
    in_edge: np.ndarray
    #: unique undirected neighbours CSR (rows)
    und_indptr: np.ndarray
    und_nbr: np.ndarray
    #: op uid -> node id; the members of a merged node share its id
    node_of_op: dict

    def __post_init__(self) -> None:
        freeze_arrays(self)

    def n_nodes(self) -> int:
        return self.n

    def n_edges(self) -> int:
        return len(self.e_src)

    def node_for(self, op_uid: int) -> int:
        """The node id of operation ``op_uid``."""
        node = self.node_of_op.get(op_uid)
        if node is None:
            raise FeatureError(f"op uid {op_uid} not in dependency graph")
        return node

    def rep_uids(self, nodes) -> list[int]:
        """Representative op uid of each op node id in ``nodes``; the
        op behind it gives the node's function, opcode and source."""
        return self.rep_uid[[self.row_of[n] for n in nodes]].tolist()

    def out_counts(self) -> np.ndarray:
        return self.out_indptr[1:] - self.out_indptr[:-1]

    def in_counts(self) -> np.ndarray:
        return self.in_indptr[1:] - self.in_indptr[:-1]

    def und_counts(self) -> np.ndarray:
        return self.und_indptr[1:] - self.und_indptr[:-1]


def dedup_sorted_keys(key: np.ndarray) -> np.ndarray:
    """Sort ``key`` in place and drop duplicates.

    One in-place sort plus an adjacent-difference pass — an order of
    magnitude faster than ``np.unique``'s integer hash path at the
    packed-pair-key sizes the graph/feature layers produce.  Shared by
    the graph build's undirected adjacency and the extraction engine's
    set-union dedup (``repro.features.extract``).
    """
    if len(key):
        key.sort()
        keep = np.empty(len(key), dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    return key


@dataclass(frozen=True, eq=False)
class GraphSnapshot:
    """A :class:`GraphStructure` plus every HLS-derived array feature
    extraction consumes: the batched extraction engine reads only this
    object (plus the device totals) — zero per-node Python.

    ``eq=False`` for the same reason as :class:`GraphStructure`:
    snapshots compare (and hash) by identity.
    """

    structure: GraphStructure
    #: bound unit footprint per node in RESOURCE_KINDS order (0 ports)
    resources: np.ndarray        # float [n, 4]
    delay_ns: np.ndarray         # float [n]
    latency_cycles: np.ndarray   # float [n]
    #: ΔTcs per directed edge, aligned with ``structure.e_src``
    edge_dt: np.ndarray          # float [E]
    #: per-function report tables (rows follow ``structure.func_names``)
    fop_res: np.ndarray          # float [nf, 4]
    fop_vec: np.ndarray          # float [nf, 4] = max(1, fop_res); ones w/o report
    fop_clocks: np.ndarray       # float [nf, 3] target/uncertainty/estimated
    fop_latency: np.ndarray      # float [nf]
    fop_mem: np.ndarray          # float [nf, 4] words/banks/bits/primitives
    fop_mux: np.ndarray          # float [nf, 4] count/lut/mean_in/mean_bw
    #: top-function constants
    ftop_res: np.ndarray         # float [4] hierarchical resources
    ftop_clocks: np.ndarray      # float [3]
    ftop_latency: float
    ftop_mem: np.ndarray         # float [4]
    ftop_mux: np.ndarray         # float [4]
    #: per-device-fingerprint memo of extracted feature matrices
    #: (written by the extraction engine; excluded from identity)
    matrix_cache: dict = field(default_factory=dict, compare=False,
                               repr=False)


def _snapshot_from_structure(s: GraphStructure, hls) -> GraphSnapshot:
    n = s.n
    resources = np.zeros((n, 4), dtype=np.float64)
    delay_ns = np.zeros(n, dtype=np.float64)
    start = np.zeros(n, dtype=np.int64)
    end = np.zeros(n, dtype=np.int64)

    # Op node ids number the operations in module order, so a node's
    # op position is its id minus its function's first id.
    base: dict[str, int] = {}
    first = 0
    for fname in hls.ir.functions:
        base[fname] = first
        first += hls.schedule.for_function(fname).table.n
    for fid, fname in enumerate(s.func_names):
        rows = np.flatnonzero((s.func_id == fid) & ~s.is_port)
        if not len(rows):
            continue
        binding = hls.bindings.get(fname)
        if binding is None:
            raise FeatureError(f"no binding for function {fname!r}")
        sched = hls.schedule.for_function(fname)
        table = sched.table
        pos = s.node_ids[rows] - base[fname]
        # The reference extractor fails loudly (KeyError in its timing
        # filler) when an op node is missing from the schedule; fail
        # just as loudly — a snapshot must never serve another
        # function's timing/ΔTcs features.
        if (pos.min() < 0 or pos.max() >= table.n
                or not np.array_equal(table.uid[pos], s.rep_uid[rows])):
            raise FeatureError(
                f"graph nodes of function {fname!r} are not the "
                f"operations it was scheduled with"
            )
        resources[rows] = binding.unit_resources[binding.fu_of_pos[pos]]
        delay_ns[rows] = table.delay_ns[pos]
        start[rows] = sched.start[pos]
        end[rows] = sched.end[pos]
    latency = (end - start).astype(np.float64)

    # ΔTcs per edge, fully vectorized (paper: 1 across function borders
    # and port nodes, else the control-state distance
    # max(1, start(dst) - end(src)); every op node is scheduled — the
    # node pass above enforces it).
    src, dst = s.e_src, s.e_dst
    valid = (
        ~s.is_port[src] & ~s.is_port[dst]
        & (s.func_id[src] == s.func_id[dst])
    )
    edge_dt = np.ones(len(src), dtype=np.float64)
    edge_dt[valid] = np.maximum(
        1, start[dst[valid]] - end[src[valid]]).astype(np.float64)

    # Per-function report tables for the global-information category.
    nf = len(s.func_names)
    fop_res = np.zeros((nf, 4), dtype=np.float64)
    fop_vec = np.ones((nf, 4), dtype=np.float64)
    fop_clocks = np.zeros((nf, 3), dtype=np.float64)
    fop_latency = np.zeros(nf, dtype=np.float64)
    fop_mem = np.zeros((nf, 4), dtype=np.float64)
    fop_mux = np.zeros((nf, 4), dtype=np.float64)
    for fid, fname in enumerate(s.func_names):
        report = hls.reports.get(fname)
        if report is None:
            # The reference extractor fails loudly (_fill_global) when
            # an op node's function has no report; mirror that.  A
            # function contributing only port nodes is never read by
            # _fill_global, so it may stay zero-filled.
            if np.any((s.func_id == fid) & ~s.is_port):
                raise FeatureError(f"no report for function {fname!r}")
            continue
        res = report.resources
        for k, kind in enumerate(RESOURCE_KINDS):
            fop_res[fid, k] = res.get(kind, 0)
            fop_vec[fid, k] = max(1.0, res.get(kind, 0))
        fop_clocks[fid] = (report.target_clock_ns,
                           report.clock_uncertainty_ns,
                           report.estimated_clock_ns)
        fop_latency[fid] = report.latency_cycles
        mem, mux = report.memories, report.muxes
        fop_mem[fid] = (mem.words, mem.banks, mem.bits, mem.primitives)
        fop_mux[fid] = (mux.count, mux.lut, mux.mean_inputs,
                        mux.mean_bitwidth)

    ftop = hls.top_report
    ftop_res = np.array(
        [ftop.hierarchical_resources.get(kind, 0) for kind in RESOURCE_KINDS],
        dtype=np.float64,
    )
    ftop_clocks = np.array(
        [ftop.target_clock_ns, ftop.clock_uncertainty_ns,
         ftop.estimated_clock_ns], dtype=np.float64,
    )
    ftop_mem = np.array(
        [ftop.memories.words, ftop.memories.banks, ftop.memories.bits,
         ftop.memories.primitives], dtype=np.float64,
    )
    ftop_mux = np.array(
        [ftop.muxes.count, ftop.muxes.lut, ftop.muxes.mean_inputs,
         ftop.muxes.mean_bitwidth], dtype=np.float64,
    )

    return GraphSnapshot(
        structure=s,
        resources=resources,
        delay_ns=delay_ns,
        latency_cycles=latency,
        edge_dt=edge_dt,
        fop_res=fop_res,
        fop_vec=fop_vec,
        fop_clocks=fop_clocks,
        fop_latency=fop_latency,
        fop_mem=fop_mem,
        fop_mux=fop_mux,
        ftop_res=ftop_res,
        ftop_clocks=ftop_clocks,
        ftop_latency=float(ftop.latency_cycles),
        ftop_mem=ftop_mem,
        ftop_mux=ftop_mux,
    )


def compile_snapshot(graph: GraphStructure, hls) -> GraphSnapshot:
    """The :class:`GraphSnapshot` of ``graph`` against ``hls``.

    Memoized on the HLS result per graph identity: repeated feature
    extractions over the same artifacts — the serving steady state —
    reuse one compilation.  The result holds the memo and the graph
    holds nothing back, so the two never form a reference cycle.
    """
    memo = hls.snapshot_memo
    if memo is not None and memo[0] is graph:
        return memo[1]
    snapshot = _snapshot_from_structure(graph, hls)
    hls.snapshot_memo = (graph, snapshot)
    return snapshot
