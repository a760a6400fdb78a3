"""Whole-graph vectorized feature extraction (paper Section III-B).

The per-node reference implementation (pinned in
:mod:`repro.features._reference`) walks a networkx view of the graph
once per node — O(n · d²) Python.  This module computes the identical
``[n_nodes, 302]`` matrix in a single batched pass over a
:class:`~repro.graph.snapshot.GraphSnapshot`:

* fan-in/out, degree and max-edge statistics via ``bincount`` /
  ``maximum.reduceat`` over the CSR edge arrays;
* one- and two-hop neighbourhood sums as segmented reductions;
* two-hop *set* semantics (the reference unions Python sets before
  summing) via pair expansion: enumerate (node, neighbour-of-neighbour)
  pairs with CSR gathers, dedup with one sort over packed keys, then
  segment-sum — no per-node work at any size;
* except through hubs for the two-hop pred/succ/neighbour *counts*: a
  node whose list is longer than both 64 and the bitset row width is
  one bitset row, ORed into every row that reaches it, so a load read
  by d unrolled replicas costs d bitset ORs instead of d² pairs.  Only
  these integer counts take that path; every float statistic keeps the
  pair expansion and its summation order;
* two-hop *path* semantics (the #Resource/ΔTcs category accumulates per
  path, not per unique node) via the same expansion without the dedup;
* opcode one-hots and neighbour opcode counts as index scatters;
* global/per-function features as table gathers through the function-id
  vector, written with the registry's precomputed index arrays — no
  f-string ``feature_index`` lookups anywhere on the hot path.

Equivalence with the reference is pinned to <= 1e-9 by
``tests/features/test_vectorized_equivalence.py`` across all paper
combinations, directive variants, merged shared-unit nodes and port
nodes, and by ``tests/features/test_hub_counts.py`` on hand-built hubs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FeatureError
from repro.features.registry import INDEX_TABLES, N_FEATURES
from repro.fpga.device import Device, device_fingerprint
from repro.graph.snapshot import (
    GraphSnapshot,
    GraphStructure,
    compile_snapshot,
    dedup_sorted_keys,
)
from repro.hls.opchar import RESOURCE_KINDS
from repro.hls.synthesis import HLSResult

_EPS = 1e-9


# ----------------------------------------------------------------------
# segmented primitives
# ----------------------------------------------------------------------
def _segment_sum(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum ``values`` grouped by ``rows`` (any order) into ``[n, ...]``."""
    if values.ndim == 1:
        return np.bincount(rows, weights=values, minlength=n)
    out = np.empty((n, values.shape[1]), dtype=np.float64)
    for c in range(values.shape[1]):
        out[:, c] = np.bincount(rows, weights=values[:, c], minlength=n)
    return out


def _segment_max(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Max of ``values`` grouped by ``rows``, which must be sorted; 0 for
    empty groups (the reference uses ``max(..., default=0)``
    throughout).  A maximum is exact in any order, so one ``reduceat``
    over each run of equal rows gives the per-element scatter's result."""
    shape = (n,) if values.ndim == 1 else (n, values.shape[1])
    out = np.zeros(shape, dtype=np.float64)
    if len(rows):
        starts = _run_starts(rows)
        out[rows[starts]] = np.maximum.reduceat(values, starts, axis=0)
    return out


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in the non-empty ``rows``."""
    return np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))


def _expand(g_rows: np.ndarray, g_vals: np.ndarray,
            h_indptr: np.ndarray, h_vals: np.ndarray,
            with_positions: bool = False):
    """Two-hop pair expansion.

    For every flattened one-hop pair ``(g_rows[a], g_vals[a])``, emit the
    pairs ``(g_rows[a], k)`` for each ``k`` adjacent to ``g_vals[a]`` in
    the CSR ``(h_indptr, h_vals)``.  Returns ``(pair_rows, pair_vals)``;
    with ``with_positions=True`` it additionally returns ``(a_of_pair,
    b_of_pair)`` — the originating one-hop pair index and the CSR
    position of the second hop, which only the ΔTcs path accumulation
    needs (the set-union call sites skip that allocation).
    """
    counts = (h_indptr[1:] - h_indptr[:-1])[g_vals]
    pair_rows = np.repeat(g_rows, counts)
    total = int(counts.sum())
    cum = np.concatenate(([0], np.cumsum(counts)))
    b_of_pair = (np.repeat(h_indptr[g_vals], counts)
                 + (np.arange(total) - np.repeat(cum[:-1], counts)))
    if not with_positions:
        return pair_rows, h_vals[b_of_pair]
    a_of_pair = np.repeat(np.arange(len(g_vals)), counts)
    return pair_rows, h_vals[b_of_pair], a_of_pair, b_of_pair


def _unique_pairs(rows: np.ndarray, vals: np.ndarray, n: int):
    """Dedup (row, val) pairs and drop the diagonal (val == row) — the
    vectorized equivalent of building per-node Python sets and
    ``discard``-ing the node itself.

    The sort-based packed-key dedup (shared with the CSR compilation)
    also leaves the pairs grouped by row for the segmented reductions
    downstream.
    """
    key = dedup_sorted_keys(rows * np.int64(n) + vals)
    urows, uvals = key // n, key % n
    diag = urows != uvals
    return urows[diag], uvals[diag]


#: A two-hop count expands a node's list once for every neighbour that
#: reaches it, so a broadcast node (one load read by every replica of an
#: unrolled loop) costs the square of its degree in pairs.  A node whose
#: list is longer than both this floor and the bitset row width
#: ``(n + 63) // 64`` is a hub: ORing its bitset row into a row touches
#: fewer words than the pairs it replaces.  The floor keeps graphs with
#: no list longer than 64 entries on the pair path alone.
_HUB_MIN_DEGREE = 64


def _bit(k: np.ndarray) -> np.ndarray:
    """Each node's bit within its 64-bit word of a bitset row."""
    return np.left_shift(np.uint64(1), (k & 63).astype(np.uint64))


def _two_hop_counts(h_rows: np.ndarray, h_indptr: np.ndarray,
                    h_vals: np.ndarray, und_rows: np.ndarray,
                    und_nbr: np.ndarray, n: int) -> np.ndarray:
    """Per row ``r``, the size of ``h(r) ∪ h(u) for u ∈ N(r)``, minus
    ``r`` itself: the two-hop ``n_pred``/``n_succ``/``n_neigh`` counts,
    with ``h`` the predecessor, successor or undirected CSR flattened to
    ``(h_rows, h_vals)`` and ``N`` the undirected one.

    Pairs through non-hub neighbours are expanded and deduplicated as
    every other two-hop set is.  A hub's list is one bitset row instead:
    each row ORs the rows of the hubs it reaches and clears its own bit,
    and its count is the bitset's popcount plus its pairs the bitset
    does not already hold.  Counts are integers, so they are exactly the
    all-pairs counts.
    """
    width = (n + 63) // 64
    hub = h_indptr[1:] - h_indptr[:-1] > max(_HUB_MIN_DEGREE, width)
    via_hub = hub[und_nbr]
    any_hub = bool(via_hub.any())
    g_rows, g_vals = und_rows, und_nbr
    if any_hub:
        g_rows, g_vals = und_rows[~via_hub], und_nbr[~via_hub]
    two_rows, two_vals = _expand(g_rows, g_vals, h_indptr, h_vals)
    pair_rows, pair_vals = _unique_pairs(
        np.concatenate([h_rows, two_rows]),
        np.concatenate([h_vals, two_vals]), n,
    )
    if not any_hub:
        return np.bincount(pair_rows, minlength=n)

    # one bitset row per hub: bit k is set when k is on the hub's list
    n_hubs = int(hub.sum())
    hub_slot = np.full(n, -1)
    hub_slot[hub] = np.arange(n_hubs)
    on_hub = hub[h_rows]
    members = h_vals[on_hub]
    hub_bits = np.zeros((n_hubs, width), dtype=np.uint64)
    np.bitwise_or.at(hub_bits, (hub_slot[h_rows[on_hub]], members >> 6),
                     _bit(members))
    # every row that reaches a hub ORs its bitset (und_rows is sorted)
    hub_rows = und_rows[via_hub]
    starts = _run_starts(hub_rows)
    reach = hub_rows[starts]
    bits = np.bitwise_or.reduceat(hub_bits[hub_slot[und_nbr[via_hub]]],
                                  starts, axis=0)
    bits[np.arange(len(reach)), reach >> 6] &= ~_bit(reach)

    # a pair counts unless its row's bitset already holds it
    row_slot = np.full(n, -1)
    row_slot[reach] = np.arange(len(reach))
    held = row_slot[pair_rows] >= 0
    k = pair_vals[held]
    held[held] = (bits[row_slot[pair_rows[held]], k >> 6] & _bit(k)) != 0
    counts = np.bincount(pair_rows[~held], minlength=n)
    counts[reach] += np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    return counts


# ----------------------------------------------------------------------
# the batched engine
# ----------------------------------------------------------------------
def _compute_matrix(snap: GraphSnapshot, device_vec: np.ndarray):
    """(op node ids, [n_ops, 302] matrix) for one compiled snapshot."""
    T = INDEX_TABLES
    s = snap.structure
    n = s.n
    res = snap.resources
    M = np.zeros((n, N_FEATURES), dtype=np.float64)
    kinds = tuple(kind.lower() for kind in RESOURCE_KINDS)

    # flattened CSR neighbour lists (rows aligned with vals)
    in_counts = s.in_counts()
    out_counts = s.out_counts()
    und_counts = s.und_counts()
    in_rows = np.repeat(np.arange(n), in_counts)
    out_rows = np.repeat(np.arange(n), out_counts)
    und_rows = np.repeat(np.arange(n), und_counts)
    in_nbr = s.e_src[s.in_edge]
    out_nbr = s.e_dst[s.out_edge]
    in_dt = snap.edge_dt[s.in_edge]
    out_dt = snap.edge_dt[s.out_edge]
    # predecessor/successor CSRs keyed by node (indptr reuse, vals above)
    in_indptr, out_indptr, und_indptr = s.in_indptr, s.out_indptr, s.und_indptr

    # -- bitwidth --------------------------------------------------------
    M[:, T.bitwidth] = s.bitwidth

    # -- interconnection, 1 hop -----------------------------------------
    fan_in = _segment_sum(s.e_dst, s.e_w, n)
    fan_out = _segment_sum(s.e_src, s.e_w, n)
    # edges are grouped by source; in_edge lists them grouped by target
    max_in = _segment_max(in_rows, s.e_w[s.in_edge], n)
    max_out = _segment_max(s.e_src, s.e_w, n)
    ic1 = T.ic["1hop"]
    M[:, ic1["fan_in"]] = fan_in
    M[:, ic1["fan_out"]] = fan_out
    M[:, ic1["fan_total"]] = fan_in + fan_out
    M[:, ic1["n_pred"]] = in_counts
    M[:, ic1["n_succ"]] = out_counts
    M[:, ic1["n_neigh"]] = und_counts
    M[:, ic1["max_edge_wires"]] = np.maximum(max_in, max_out)
    M[:, ic1["max_in_edge_pct_fan_in"]] = max_in / (fan_in + _EPS)
    M[:, ic1["max_out_edge_pct_fan_out"]] = max_out / (fan_out + _EPS)

    # -- interconnection, 2 hop -----------------------------------------
    # Ball of radius 1: the node plus its undirected neighbours; fan and
    # max-edge stats accumulate per member, pred/succ sets dedup.
    und_nbr = s.und_nbr
    fan_in2 = fan_in + _segment_sum(und_rows, fan_in[und_nbr], n)
    fan_out2 = fan_out + _segment_sum(und_rows, fan_out[und_nbr], n)
    max_in2 = np.maximum(max_in, _segment_max(und_rows, max_in[und_nbr], n))
    max_out2 = np.maximum(max_out, _segment_max(und_rows, max_out[und_nbr], n))

    n_pred2 = _two_hop_counts(in_rows, in_indptr, in_nbr,
                              und_rows, und_nbr, n)
    n_succ2 = _two_hop_counts(out_rows, out_indptr, out_nbr,
                              und_rows, und_nbr, n)
    n_neigh2 = _two_hop_counts(und_rows, und_indptr, und_nbr,
                               und_rows, und_nbr, n)
    ic2 = T.ic["2hop"]
    M[:, ic2["fan_in"]] = fan_in2
    M[:, ic2["fan_out"]] = fan_out2
    M[:, ic2["fan_total"]] = fan_in2 + fan_out2
    M[:, ic2["n_pred"]] = n_pred2
    M[:, ic2["n_succ"]] = n_succ2
    M[:, ic2["n_neigh"]] = n_neigh2
    M[:, ic2["max_edge_wires"]] = np.maximum(max_in2, max_out2)
    M[:, ic2["max_in_edge_pct_fan_in"]] = max_in2 / (fan_in2 + _EPS)
    M[:, ic2["max_out_edge_pct_fan_out"]] = max_out2 / (fan_out2 + _EPS)

    # -- resources -------------------------------------------------------
    fop_vec_node = snap.fop_vec[s.func_id]          # [n, 4]
    pred1_sum = _segment_sum(in_rows, res[in_nbr], n)
    succ1_sum = _segment_sum(out_rows, res[out_nbr], n)
    neigh1_sum = _segment_sum(und_rows, res[und_nbr], n)
    neigh1_max = _segment_max(und_rows, res[und_nbr], n)

    # 2-hop set semantics: preds ∪ preds-of-preds (minus the node), the
    # successor mirror, and their union for the neighbourhood stats.
    pp = _expand(in_rows, in_nbr, in_indptr, in_nbr)
    rp2_rows, rp2_vals = _unique_pairs(
        np.concatenate([in_rows, pp[0]]),
        np.concatenate([in_nbr, pp[1]]), n,
    )
    ss = _expand(out_rows, out_nbr, out_indptr, out_nbr)
    rs2_rows, rs2_vals = _unique_pairs(
        np.concatenate([out_rows, ss[0]]),
        np.concatenate([out_nbr, ss[1]]), n,
    )
    rn2_rows, rn2_vals = _unique_pairs(
        np.concatenate([rp2_rows, rs2_rows]),
        np.concatenate([rp2_vals, rs2_vals]), n,
    )
    pred2_sum = _segment_sum(rp2_rows, res[rp2_vals], n)
    succ2_sum = _segment_sum(rs2_rows, res[rs2_vals], n)
    neigh2_sum = _segment_sum(rn2_rows, res[rn2_vals], n)
    neigh2_max = _segment_max(rn2_rows, res[rn2_vals], n)

    hop_stats = {
        "1hop": (pred1_sum, succ1_sum, neigh1_sum, neigh1_max),
        "2hop": (pred2_sum, succ2_sum, neigh2_sum, neigh2_max),
    }
    for k, kind in enumerate(kinds):
        sk = T.res_self[kind]
        M[:, sk["usage"]] = res[:, k]
        M[:, sk["util_device"]] = res[:, k] / device_vec[k]
        M[:, sk["util_function"]] = res[:, k] / fop_vec_node[:, k]
        for hop, (p_sum, s_sum, nb_sum, nb_max) in hop_stats.items():
            hk = T.res_hop[kind][hop]
            M[:, hk["pred_usage"]] = p_sum[:, k]
            M[:, hk["succ_usage"]] = s_sum[:, k]
            M[:, hk["neigh_usage"]] = nb_sum[:, k]
            M[:, hk["pred_util_device"]] = p_sum[:, k] / device_vec[k]
            M[:, hk["succ_util_device"]] = s_sum[:, k] / device_vec[k]
            M[:, hk["neigh_util_device"]] = nb_sum[:, k] / device_vec[k]
            M[:, hk["max_neigh_usage"]] = nb_max[:, k]
            M[:, hk["max_neigh_usage_pct"]] = (
                nb_max[:, k] / (nb_sum[:, k] + _EPS)
            )

    # -- timing ----------------------------------------------------------
    M[:, T.timing["delay_ns"]] = snap.delay_ns
    M[:, T.timing["latency_cycles"]] = snap.latency_cycles

    # -- #Resource/ΔTcs ---------------------------------------------------
    # Path semantics: every two-hop *path* contributes, divided by the
    # accumulated control-state distance along it (no dedup).
    in_contrib = res[in_nbr] / np.maximum(1.0, in_dt)[:, None]
    out_contrib = res[out_nbr] / np.maximum(1.0, out_dt)[:, None]
    rdt_pred1 = _segment_sum(in_rows, in_contrib, n)
    rdt_succ1 = _segment_sum(out_rows, out_contrib, n)

    ppd_rows, ppd_vals, ppd_a, ppd_b = _expand(
        in_rows, in_nbr, in_indptr, in_nbr, with_positions=True
    )
    ppd_dt = in_dt[ppd_a] + in_dt[ppd_b]
    rdt_pred2 = rdt_pred1 + _segment_sum(
        ppd_rows, res[ppd_vals] / np.maximum(1.0, ppd_dt)[:, None], n
    )
    ssd_rows, ssd_vals, ssd_a, ssd_b = _expand(
        out_rows, out_nbr, out_indptr, out_nbr, with_positions=True
    )
    ssd_dt = out_dt[ssd_a] + out_dt[ssd_b]
    rdt_succ2 = rdt_succ1 + _segment_sum(
        ssd_rows, res[ssd_vals] / np.maximum(1.0, ssd_dt)[:, None], n
    )

    rdt_stats = {"1hop": (rdt_pred1, rdt_succ1),
                 "2hop": (rdt_pred2, rdt_succ2)}
    for k, kind in enumerate(kinds):
        for hop, (p_usage, s_usage) in rdt_stats.items():
            rk = T.rdt[kind][hop]
            M[:, rk["pred_usage_dt"]] = p_usage[:, k]
            M[:, rk["succ_usage_dt"]] = s_usage[:, k]
            M[:, rk["total_usage_dt"]] = p_usage[:, k] + s_usage[:, k]
            M[:, rk["pred_util_dt"]] = p_usage[:, k] / device_vec[k]
            M[:, rk["succ_util_dt"]] = s_usage[:, k] / device_vec[k]
            M[:, rk["total_util_dt"]] = (
                (p_usage[:, k] + s_usage[:, k]) / device_vec[k]
            )

    # -- operator type ---------------------------------------------------
    op_rows = s.op_rows
    M[op_rows, T.optype_is_base + s.opcode_id[op_rows]] = 1.0
    nbr_is_op = ~s.is_port[und_nbr]
    np.add.at(
        M,
        (und_rows[nbr_is_op],
         T.optype_neigh_base + s.opcode_id[und_nbr[nbr_is_op]]),
        1.0,
    )

    # -- global information ----------------------------------------------
    fid = s.func_id
    M[:, T.g_ftop_res] = snap.ftop_res
    M[:, T.g_ftop_res_util] = snap.ftop_res / device_vec
    M[:, T.g_fop_res] = snap.fop_res[fid]
    M[:, T.g_fop_res_util] = snap.fop_res[fid] / device_vec
    M[:, T.g_fop_res_pct] = snap.fop_res[fid] / (snap.ftop_res + _EPS)
    M[:, T.g_ftop_clocks] = snap.ftop_clocks
    M[:, T.g_fop_clocks] = snap.fop_clocks[fid]
    M[:, T.g_latency[0]] = snap.ftop_latency
    M[:, T.g_latency[1]] = snap.fop_latency[fid]
    M[:, T.g_latency[2]] = snap.fop_latency[fid] / (snap.ftop_latency + _EPS)
    M[:, T.g_ftop_mem] = snap.ftop_mem
    M[:, T.g_fop_mem] = snap.fop_mem[fid]
    M[:, T.g_ftop_mux] = snap.ftop_mux
    M[:, T.g_fop_mux] = snap.fop_mux[fid]

    node_ids = tuple(int(i) for i in s.node_ids[op_rows])
    # port nodes are numbered after every op node, so the op rows are
    # the matrix's leading rows: a view, not a second matrix
    return node_ids, M[:len(op_rows)]


class FeatureExtractor:
    """Computes feature vectors for dependency-graph nodes.

    Drop-in replacement for the pinned per-node reference: same
    constructor, same :meth:`extract` / :meth:`extract_all` contract,
    but all computation happens as one whole-graph batch over the
    compiled :class:`~repro.graph.snapshot.GraphSnapshot`.  The
    extracted matrix is memoized on the snapshot per device
    fingerprint (and returned read-only), so the serving steady state —
    many requests against one design — pays for extraction once.
    """

    def __init__(
        self,
        hls: HLSResult,
        graph: GraphStructure,
        device: Device,
    ) -> None:
        self.hls = hls
        self.graph = graph
        self.device = device
        self.device_totals = device.totals()
        self._device_vec = np.array(
            [max(1, self.device_totals[kind]) for kind in RESOURCE_KINDS],
            dtype=np.float64,
        )
        self.snapshot = compile_snapshot(graph, hls)
        self._device_key = device_fingerprint(device)

    # ------------------------------------------------------------------
    def extract_all(self) -> tuple[list[int], np.ndarray]:
        """Feature matrix for every op node: (node ids, [n, 302]).

        The matrix is computed once per (snapshot, device) and shared
        read-only between calls; callers needing a mutable copy should
        ``.copy()`` it.
        """
        snapshot = self.snapshot
        cached = snapshot.matrix_cache.get(self._device_key)
        if cached is None:
            nodes, X = _compute_matrix(snapshot, self._device_vec)
            X.setflags(write=False)
            cached = (nodes, X)
            snapshot.matrix_cache[self._device_key] = cached
        nodes, X = cached
        return list(nodes), X

    def extract(self, node_id: int) -> np.ndarray:
        """302-entry feature vector for ``node_id``."""
        graph = self.graph
        row = graph.row_of.get(node_id)
        if row is None:
            raise FeatureError(f"node {node_id} not in dependency graph")
        if graph.is_port[row]:
            raise FeatureError("features are extracted for op nodes only")
        _, X = self.extract_all()
        return X[np.searchsorted(graph.op_rows, row)].copy()
