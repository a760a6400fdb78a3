"""Simulated-annealing placement.

Places every cluster on a device site of its kind, minimizing wire-length
weighted by net width (wires), which is exactly the demand the router
turns into congestion.  The initial placement fills CLB sites from the
die center outward in elaboration order: related logic starts clustered,
and the congestion "hot middle / cool margin" distribution of the
paper's Fig. 5 emerges from center-packed placements.

The annealer is vectorized: cluster positions, per-net pin indices and
per-net bounding-box costs live in NumPy arrays, and each temperature
sweep proposes and evaluates its whole move batch in bulk before a
sequential conflict-free acceptance pass.  A proposal's cost delta reads
arrays precomputed per (cluster, net) incidence: a 2-pin net's cost
after the swap is the distance from the partner's position to the net's
other endpoint, and a multi-pin net's is the bounding box of its padded
pin row with the swapped ids substituted.  Costs are integer-valued, so
the batched sums equal the one-at-a-time ones exactly.  The original
one-move-at-a-time loop survives as
:class:`repro.impl._reference.ReferenceAnnealer` and the equivalence
tests assert this implementation places at least as well under the same
seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PlacementError
from repro.fpga.device import Device
from repro.impl.packing import Packing
from repro.rtl.netlist import Netlist
from repro.util.rng import ensure_rng

#: Nets with more pins than this are sampled down for cost evaluation.
_MAX_COST_PINS = 48

#: temperature steps (sweeps) of each placement effort
EFFORT_SWEEPS = {"fast": 18, "normal": 36, "high": 72}

#: moves per cluster per temperature step
MOVES_PER_CLUSTER = 1.0
#: acceptance probability of a mean uphill move at the first temperature
INITIAL_ACCEPT_PROB = 0.8
#: temperature factor per sweep
COOLING = 0.92


def check_effort(effort: str) -> None:
    """:class:`PlacementError` unless ``effort`` names a schedule of
    :data:`EFFORT_SWEEPS`."""
    if effort not in EFFORT_SWEEPS:
        raise PlacementError(
            f"unknown placement effort {effort!r}; expected one of "
            f"{list(EFFORT_SWEEPS)}"
        )


@dataclass
class PlacementOptions:
    """Effort/seed knobs for the annealer."""

    effort: str = "normal"            # a key of EFFORT_SWEEPS
    seed: int = 0

    def __post_init__(self) -> None:
        check_effort(self.effort)

    @property
    def n_sweeps(self) -> int:
        return EFFORT_SWEEPS[self.effort]


@dataclass
class Placement:
    """Cluster positions plus lookup helpers."""

    device: Device
    #: cluster id -> (x, y)
    positions: dict[int, tuple[int, int]] = field(default_factory=dict)
    cost: float = 0.0
    initial_cost: float = 0.0
    n_moves: int = 0
    n_accepted: int = 0
    #: dense cluster-id domain (``packing.n_clusters()``); ``None`` for
    #: hand-built placements that never went through the annealer
    n_clusters: int | None = None

    def tiles_of_cell(self, packing: Packing, cell_id: int) -> list[tuple[int, int]]:
        """Every tile holding a piece of ``cell_id``."""
        return [
            self.positions[cid]
            for cid in packing.clusters_of_cell.get(cell_id, [])
        ]

    def coordinate_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(xs, ys)`` arrays indexed by cluster id (dense, int64).

        Sized by the packing's cluster-id domain (``n_clusters``) — the
        same dense domain the annealer's write-back assumes — and filled
        in bulk.  A position key outside that domain is a corrupted
        placement and raises :class:`PlacementError` instead of silently
        mis-sizing the arrays.
        """
        n = self.n_clusters
        if n is None:
            n = (max(self.positions) + 1) if self.positions else 0
        if not self.positions:
            return (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
        cids = np.fromiter(self.positions.keys(), dtype=np.int64,
                           count=len(self.positions))
        coords = np.fromiter(
            (v for xy in self.positions.values() for v in xy),
            dtype=np.int64, count=2 * len(self.positions),
        )
        if int(cids.min()) < 0 or int(cids.max()) >= n:
            raise PlacementError(
                f"placement holds cluster id {int(cids.max())} outside the "
                f"dense id domain [0, {n})"
            )
        xs = np.zeros(n, dtype=np.int64)
        ys = np.zeros(n, dtype=np.int64)
        xs[cids] = coords[0::2]
        ys[cids] = coords[1::2]
        return xs, ys


class Annealer:
    """Swap simulated annealing over tile sites, batched per sweep.

    ``sweep_chunks`` (class level, overridable for experiments) is the
    number of proposal batches per temperature sweep.  More chunks
    refresh deltas more often and track the one-move-at-a-time reference
    more closely, at a higher fixed cost per sweep.

    The annealer targets quality *parity* with the loop reference (the
    congestion distributions every paper table is calibrated against),
    not maximal quality: the result is the best state the cooling
    schedule visits.  A markedly better placer would erase the very
    hotspots the paper predicts.

    Connectivity is precomputed once: a cluster -> incident-nets CSR
    list, the other endpoint of every (cluster, 2-pin net) incidence, and
    the multi-pin nets' pins as a matrix of rows padded by repeating
    each row's first pin (which leaves its bounding box unchanged).
    """

    sweep_chunks: int = 10
    #: proposals used to estimate the starting temperature
    temp_probe: int = 128

    def __init__(
        self,
        netlist: Netlist,
        packing: Packing,
        device: Device,
        options: PlacementOptions | None = None,
    ) -> None:
        self.netlist = netlist
        self.packing = packing
        self.device = device
        self.options = options or PlacementOptions()
        self.rng = ensure_rng(self.options.seed)

        # Net pins in cluster space (deduplicated, possibly sampled).
        self._net_pins: list[list[int]] = []
        self._net_width: list[int] = []
        for net in netlist.nets:
            pins = []
            seen = set()
            for cell_id in net.endpoints():
                cid = packing.primary_cluster.get(cell_id)
                if cid is not None and cid not in seen:
                    seen.add(cid)
                    pins.append(cid)
            if len(pins) > _MAX_COST_PINS:
                step = len(pins) / _MAX_COST_PINS
                pins = [pins[int(i * step)] for i in range(_MAX_COST_PINS)]
            if len(pins) >= 2:
                self._net_pins.append(pins)
                self._net_width.append(net.width)

        # Chain nets keep multi-cluster cells together.
        for cell_id, cids in packing.clusters_of_cell.items():
            if len(cids) > 1:
                for a, b in zip(cids, cids[1:]):
                    self._net_pins.append([a, b])
                    self._net_width.append(4)

        self._fixed: set[int] = set(packing.port_cluster.values())

        # -- dense array views of the same connectivity ----------------
        self._n_clusters = packing.n_clusters()
        self._n_nets = len(self._net_pins)
        lens = np.fromiter(map(len, self._net_pins), dtype=np.int64,
                           count=self._n_nets)
        self._net_ptr = np.zeros(self._n_nets + 1, dtype=np.int64)
        np.cumsum(lens, out=self._net_ptr[1:])
        self._pins_flat = np.fromiter(
            itertools.chain.from_iterable(self._net_pins), dtype=np.int64,
            count=int(self._net_ptr[-1]),
        )
        self._net_width_arr = np.asarray(self._net_width, dtype=np.float64)
        starts = self._net_ptr[:-1]
        # every net has at least two pins, so these reads are valid
        self._net_p0 = self._pins_flat[starts]
        self._net_p1 = self._pins_flat[starts + 1]
        # cluster -> incident nets in CSR form (an incidence is one
        # (cluster, net) pair, in net order per cluster)
        self._cl_deg = np.bincount(self._pins_flat,
                                   minlength=self._n_clusters)
        self._cl_ptr = np.zeros(self._n_clusters + 1, dtype=np.int64)
        np.cumsum(self._cl_deg, out=self._cl_ptr[1:])
        order = np.argsort(self._pins_flat, kind="stable")
        pin_net = np.repeat(np.arange(self._n_nets, dtype=np.int64), lens)
        self._cl_nets = pin_net[order]
        # per incidence: the other endpoint of a 2-pin net (the cluster
        # itself for a multi-pin net, whose cost comes from its row)
        pin_other = np.where(
            lens[pin_net] == 2,
            self._net_p0[pin_net] + self._net_p1[pin_net] - self._pins_flat,
            self._pins_flat,
        )
        self._inc_other = pin_other[order]
        # multi-pin nets: net -> row of a pin matrix padded with each
        # row's first pin; -1 marks a 2-pin net
        multi = np.flatnonzero(lens > 2)
        self._net_row = np.full(self._n_nets, -1, dtype=np.int64)
        self._net_row[multi] = np.arange(multi.size)
        cols = np.arange(int(lens[multi].max()) if multi.size else 0)
        self._multi_pins = self._pins_flat[
            starts[multi, None]
            + np.where(cols < lens[multi, None], cols, 0)
        ]

    # ------------------------------------------------------------------
    def place(self) -> Placement:
        """Initial placement plus annealing refinement."""
        placement = self._initial_placement()
        self._anneal(placement)
        return placement

    # ------------------------------------------------------------------
    def _initial_placement(self) -> Placement:
        """Center-out fill of each kind's sites in elaboration order."""
        device = self.device
        placement = Placement(device=device, n_clusters=self._n_clusters)

        center = np.array([device.n_cols / 2.0, device.n_rows / 2.0])

        def center_order(sites):
            """``sites`` by squared distance from the die center, ties in
            enumeration order (a stable sort)."""
            offset = np.array(sites, dtype=np.float64).reshape(-1, 2) - center
            key = offset[:, 0] ** 2 + offset[:, 1] ** 2
            return [sites[i] for i in np.argsort(key, kind="stable").tolist()]

        site_pools = {
            "clb": center_order(device.clb_sites()),
            "dsp": center_order(device.dsp_sites()),
            "bram": center_order(device.bram_sites()),
        }
        cursors = {kind: 0 for kind in site_pools}
        # BRAM tiles host two RAMB18 each.
        bram_slots: dict[tuple[int, int], int] = {}

        # Fixed I/O ports along the left edge, spread vertically.
        port_clusters = sorted(self._fixed)
        for i, cid in enumerate(port_clusters):
            y = int((i + 1) * device.n_rows / (len(port_clusters) + 1))
            placement.positions[cid] = (0, min(device.n_rows - 1, y))

        for cluster in self.packing.clusters:
            if cluster.cluster_id in self._fixed:
                continue
            pool = site_pools[cluster.kind]
            cursor = cursors[cluster.kind]
            if cluster.kind == "bram":
                placed = False
                while cursor < len(pool):
                    site = pool[cursor]
                    used = bram_slots.get(site, 0)
                    if used < 2:
                        bram_slots[site] = used + 1
                        placement.positions[cluster.cluster_id] = site
                        placed = True
                        break
                    cursor += 1
                cursors[cluster.kind] = cursor
                if not placed:
                    raise PlacementError("out of BRAM sites during placement")
                continue
            if cursor >= len(pool):
                raise PlacementError(
                    f"out of {cluster.kind} sites during placement"
                )
            placement.positions[cluster.cluster_id] = pool[cursor]
            cursors[cluster.kind] = cursor + 1
        xs, ys = placement.coordinate_arrays()
        placement.cost = float(self._net_costs(xs, ys).sum())
        placement.initial_cost = placement.cost
        return placement

    # ------------------------------------------------------------------
    def _net_costs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Per-net half-perimeter wirelength cost, all nets at once."""
        px = xs[self._pins_flat]
        py = ys[self._pins_flat]
        starts = self._net_ptr[:-1]
        dx = np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
        dy = np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts)
        return self._net_width_arr * (dx + dy)

    @staticmethod
    def _row_costs(
        rows: np.ndarray, width: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """``width[i]`` times the half perimeter of padded pin row
        ``rows[i]`` (one row of cluster ids per net)."""
        px = xs[rows]
        py = ys[rows]
        return width * (px.max(axis=1) - px.min(axis=1)
                        + py.max(axis=1) - py.min(axis=1))

    def _net_costs_subset(
        self, nets: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """Exact current cost of just ``nets``: endpoint distance for
        2-pin nets, padded-row bounding box for multi-pin nets."""
        width = self._net_width_arr[nets]
        u = self._net_p0[nets]
        v = self._net_p1[nets]
        costs = width * (np.abs(xs[u] - xs[v]) + np.abs(ys[u] - ys[v]))
        rows = self._net_row[nets]
        multi = np.flatnonzero(rows >= 0)
        if multi.size:
            costs[multi] = self._row_costs(
                self._multi_pins[rows[multi]], width[multi], xs, ys
            )
        return costs

    def _batch_swap_deltas(
        self,
        a: np.ndarray,
        b: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        net_cost: np.ndarray,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Cost delta of swapping ``a[i] <-> b[i]``, for every proposal.

        All proposals are evaluated against the *current* placement.  Both
        swap ends form one list (``a ++ b``, each moving to its partner
        ``b ++ a``) whose incidences come from the cluster->nets CSR.  A
        2-pin net costs the distance from the partner's position to the
        other endpoint (the mover's own position when that endpoint *is*
        the partner); a multi-pin net costs the bounding box of its
        padded pin row with the two swapped ids exchanged.

        Returns ``(deltas, (prop_e, net_e, after_e))`` where the second
        element lists every evaluated (proposal, net) pair with its
        post-swap cost — the caller reuses these to update ``net_cost``
        incrementally for the proposals it applies.
        """
        n_props = a.size
        ends = np.concatenate((a, b))
        deg = self._cl_deg[ends]
        total = int(deg.sum())
        if total == 0:
            return np.zeros(n_props, dtype=np.float64), (
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64))
        end_e = np.repeat(np.arange(2 * n_props), deg)
        first = self._cl_ptr[ends] - (np.cumsum(deg) - deg)
        inc = np.arange(total) + first[end_e]
        net_e = self._cl_nets[inc]
        mover = ends[end_e]
        dest = np.concatenate((b, a))[end_e]
        other = self._inc_other[inc]
        other = np.where(other == dest, mover, other)
        width = self._net_width_arr[net_e]
        after_e = width * (np.abs(xs[dest] - xs[other])
                           + np.abs(ys[dest] - ys[other]))

        # A net incident to BOTH swap ends appears twice here, but a
        # swap permutes that net's own pin positions, so its before and
        # after costs are equal and the duplicate contributes zero —
        # no deduplication pass is needed.
        rows = self._net_row[net_e]
        multi = np.flatnonzero(rows >= 0)
        if multi.size:
            pins = self._multi_pins[rows[multi]]
            mv = mover[multi, None]
            ds = dest[multi, None]
            pins = np.where(pins == mv, ds, np.where(pins == ds, mv, pins))
            after_e[multi] = self._row_costs(pins, width[multi], xs, ys)

        prop_e = end_e % n_props
        deltas = np.bincount(
            prop_e, weights=after_e - net_cost[net_e], minlength=n_props
        )
        return deltas, (prop_e, net_e, after_e)

    # ------------------------------------------------------------------
    def _anneal(self, placement: Placement) -> None:
        options = self.options
        movable = [
            c.cluster_id for c in self.packing.clusters
            if c.cluster_id not in self._fixed
        ]
        if len(movable) < 2:
            return
        by_kind: dict[str, list[int]] = {}
        for cid in movable:
            by_kind.setdefault(self.packing.clusters[cid].kind, []).append(cid)
        pools = [np.asarray(v, dtype=np.int64)
                 for v in by_kind.values() if len(v) >= 2]
        if not pools:
            return
        pool_sizes = np.array([p.size for p in pools], dtype=np.int64)
        pool_ptr = np.zeros(len(pools) + 1, dtype=np.int64)
        np.cumsum(pool_sizes, out=pool_ptr[1:])
        pools_flat = np.concatenate(pools)

        rng = self.rng

        def propose(n: int) -> tuple[np.ndarray, np.ndarray]:
            """``n`` random same-kind swap proposals (like the loop
            reference: kind first, then two members of that pool)."""
            kidx = rng.integers(0, len(pools), size=n)
            ra = rng.integers(0, pool_sizes[kidx])
            rb = rng.integers(0, pool_sizes[kidx])
            a = pools_flat[pool_ptr[kidx] + ra]
            b = pools_flat[pool_ptr[kidx] + rb]
            valid = a != b
            return a[valid], b[valid]

        xs, ys = placement.coordinate_arrays()
        net_cost = self._net_costs(xs, ys)

        # Estimate the initial temperature from a batch of random deltas.
        a0, b0 = propose(min(self.temp_probe, len(movable)))
        d0 = np.abs(self._batch_swap_deltas(a0, b0, xs, ys, net_cost)[0])
        mean_delta = float(d0.mean()) if d0.size else 1.0
        temp = max(
            1e-6,
            -mean_delta / math.log(max(1e-9, INITIAL_ACCEPT_PROB)),
        )

        best_cost = float(net_cost.sum())
        best_xs, best_ys = xs.copy(), ys.copy()
        # cluster c moved in the current chunk iff stamp[c] == chunk_no
        stamp = [0] * self._n_clusters
        chunk_no = 0

        def run_chunk(
            a: np.ndarray, b: np.ndarray, chunk_temp: float
        ) -> tuple[int, int]:
            """Evaluate one proposal chunk against the current state and
            apply the conflict-free accepted swaps.

            Returns ``(applied, consumed)``.  Accepted proposals whose
            clusters already moved this chunk are dropped — their deltas
            went stale — and dropped proposals do not count as consumed
            moves, so the sweep re-proposes them: designs with fewer
            clusters (higher collision rates) must not silently receive
            fewer effective moves per sweep than the sequential
            reference, or they anneal systematically worse.
            """
            nonlocal chunk_no
            if a.size == 0:
                return 0, 0
            chunk_no += 1
            deltas, (prop_e, net_e, after_e) = self._batch_swap_deltas(
                a, b, xs, ys, net_cost
            )
            unif = rng.random(a.size)
            accept = (deltas <= 0) | (
                unif < np.exp(-np.maximum(deltas, 0.0) / chunk_temp)
            )
            # Sequential first-come acceptance: a cluster moves at most
            # once per chunk so every applied delta was evaluated
            # against positions that are still current.  Plain-python
            # lists: NumPy scalar indexing would dominate this loop.
            a_list = a.tolist()
            b_list = b.tolist()
            chosen: list[int] = []
            dropped = 0
            for i in np.flatnonzero(accept).tolist():
                ai = a_list[i]
                bi = b_list[i]
                if stamp[ai] == chunk_no or stamp[bi] == chunk_no:
                    dropped += 1
                    continue
                stamp[ai] = stamp[bi] = chunk_no
                chosen.append(i)
            consumed = int(a.size) - dropped
            if not chosen:
                return 0, consumed
            idx = np.asarray(chosen, dtype=np.int64)
            aa, bb = a[idx], b[idx]
            tmp = xs[aa].copy()
            xs[aa] = xs[bb]
            xs[bb] = tmp
            tmp = ys[aa].copy()
            ys[aa] = ys[bb]
            ys[bb] = tmp

            # Incremental net-cost update: applied swaps are
            # cluster-disjoint, so a net touched by exactly one of them
            # now costs its precomputed after value; a net touched more
            # than once (by several applied swaps, or by both ends of
            # one) is then recomputed exactly.
            applied_mask = np.zeros(a.size, dtype=bool)
            applied_mask[idx] = True
            emask = applied_mask[prop_e]
            nets_app = net_e[emask]
            net_cost[nets_app] = after_e[emask]
            shared = np.flatnonzero(
                np.bincount(nets_app, minlength=self._n_nets) > 1
            )
            if shared.size:
                net_cost[shared] = self._net_costs_subset(shared, xs, ys)
            return idx.size, consumed

        n_moves = max(1, int(MOVES_PER_CLUSTER * len(movable)))
        chunk = max(32, -(-n_moves // self.sweep_chunks))
        for _ in range(options.n_sweeps):
            applied = 0
            done = 0
            # Cap proposal rounds so a pathological all-collision sweep
            # still terminates.
            for _ in range(4 * self.sweep_chunks):
                if done >= n_moves:
                    break
                a, b = propose(min(chunk, n_moves - done))
                placement.n_moves += int(a.size)
                n_applied, consumed = run_chunk(a, b, temp)
                done += max(consumed, 1)
                applied += n_applied
                placement.n_accepted += n_applied
            # net costs are integer-valued, so this sum is exact
            cost = float(net_cost.sum())
            if cost < best_cost:
                best_cost = cost
                best_xs, best_ys = xs.copy(), ys.copy()
            temp *= COOLING
            if applied == 0 and temp < 1e-3:
                break

        # Keep the best placement seen (never worse than the initial).
        placement.positions.update(
            enumerate(zip(best_xs.tolist(), best_ys.tolist()))
        )
        placement.cost = float(self._net_costs(best_xs, best_ys).sum())


def place_netlist(
    netlist: Netlist,
    packing: Packing,
    device: Device,
    options: PlacementOptions | None = None,
) -> Placement:
    """Pack-aware SA placement of ``netlist`` on ``device``."""
    return Annealer(netlist, packing, device, options).place()
