"""Loop-based reference implementations of the place-and-route hot path.

The production :mod:`repro.impl.placement` and :mod:`repro.impl.routing`
are vectorized (NumPy bulk operations, incremental cost bookkeeping).
This module preserves the original per-move / per-net Python loops as an
executable specification:

* :class:`ReferenceAnnealer` — the pre-vectorization simulated annealer
  (dict positions, full net-cost rescans per swap).
* :func:`reference_route` — the pre-vectorization router (O(n^2) Python
  Prim, per-edge slice accumulation, O(r^2) roll-based smear).
* :class:`ReferenceTimingAnalyzer` — the original STA, which scores
  every net's bounding box in one Python loop.

The seeded-equivalence tests assert that the vectorized router matches
:func:`reference_route` numerically, that the vectorized placer reaches
a final cost no worse than :class:`ReferenceAnnealer` under the same
seed, and that :class:`~repro.impl.timing.TimingAnalyzer` reports
exactly what :class:`ReferenceTimingAnalyzer` does.  Keep this module
loop-based on purpose; do not "optimize" it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fpga.device import Device
from repro.impl.packing import Packing
from repro.impl.placement import (
    COOLING,
    INITIAL_ACCEPT_PROB,
    MOVES_PER_CLUSTER,
    Annealer,
    Placement,
)
from repro.impl.routing import (
    PIN_BREAKOUT,
    CongestionMap,
    GlobalRouter,
    RoutingOptions,
)
from repro.impl.timing import TimingAnalyzer, TimingReport
from repro.rtl.netlist import Netlist


class ReferenceAnnealer(Annealer):
    """The original swap/relocate annealer, one Python-evaluated move at
    a time.  Shares net extraction and the initial placement with the
    vectorized :class:`~repro.impl.placement.Annealer`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._nets_of_cluster: dict[int, list[int]] = {}
        for net_id, pins in enumerate(self._net_pins):
            for cid in pins:
                self._nets_of_cluster.setdefault(cid, []).append(net_id)

    def place(self) -> Placement:
        placement = self._initial_placement()
        self._anneal_loops(placement)
        return placement

    # -- original per-move machinery -----------------------------------
    def _net_cost(self, placement: Placement, net_id: int) -> float:
        pins = self._net_pins[net_id]
        pos = placement.positions
        xs_min = ys_min = 10 ** 9
        xs_max = ys_max = -(10 ** 9)
        for cid in pins:
            x, y = pos[cid]
            if x < xs_min:
                xs_min = x
            if x > xs_max:
                xs_max = x
            if y < ys_min:
                ys_min = y
            if y > ys_max:
                ys_max = y
        return self._net_width[net_id] * (
            (xs_max - xs_min) + (ys_max - ys_min)
        )

    def _total_cost_loops(self, placement: Placement) -> float:
        return float(
            sum(self._net_cost(placement, i) for i in range(len(self._net_pins)))
        )

    def _anneal_loops(self, placement: Placement) -> None:
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

        rng = self.rng
        # Estimate the initial temperature from random move deltas.
        deltas = []
        for _ in range(min(100, len(movable))):
            a, b = self._pick_pair(by_kind, rng)
            if a is None:
                continue
            deltas.append(abs(self._swap_delta(placement, a, b)))
        mean_delta = (sum(deltas) / len(deltas)) if deltas else 1.0
        temp = max(
            1e-6,
            -mean_delta / math.log(max(1e-9, INITIAL_ACCEPT_PROB)),
        )

        n_moves = max(1, int(MOVES_PER_CLUSTER * len(movable)))
        for _ in range(options.n_sweeps):
            accepted = 0
            for _ in range(n_moves):
                a, b = self._pick_pair(by_kind, rng)
                if a is None:
                    continue
                delta = self._swap_delta(placement, a, b)
                placement.n_moves += 1
                if delta <= 0 or rng.random() < math.exp(-delta / temp):
                    self._apply_swap(placement, a, b)
                    placement.cost += delta
                    placement.n_accepted += 1
                    accepted += 1
            temp *= COOLING
            if accepted == 0 and temp < 1e-3:
                break
        # Re-sync accumulated float error.
        placement.cost = self._total_cost_loops(placement)

    def _pick_pair(self, by_kind, rng):
        kinds = [k for k, v in by_kind.items() if len(v) >= 2]
        if not kinds:
            return None, None
        kind = kinds[int(rng.integers(len(kinds)))]
        pool = by_kind[kind]
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        if a == b:
            return None, None
        return a, b

    def _swap_delta(self, placement: Placement, a: int, b: int) -> float:
        nets = set(self._nets_of_cluster.get(a, ()))
        nets.update(self._nets_of_cluster.get(b, ()))
        before = sum(self._net_cost(placement, n) for n in nets)
        self._apply_swap(placement, a, b)
        after = sum(self._net_cost(placement, n) for n in nets)
        self._apply_swap(placement, a, b)
        return after - before

    @staticmethod
    def _apply_swap(placement: Placement, a: int, b: int) -> None:
        pos = placement.positions
        pos[a], pos[b] = pos[b], pos[a]


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------
def _reference_spanning_edges(pins: list[tuple[int, int]]):
    """Original O(n^2) pure-Python Prim over Manhattan distances."""
    n = len(pins)
    if n == 2:
        return [(pins[0], pins[1])]
    in_tree = [False] * n
    dist = [10 ** 9] * n
    parent = [0] * n
    in_tree[0] = True
    for j in range(1, n):
        dist[j] = abs(pins[j][0] - pins[0][0]) + abs(pins[j][1] - pins[0][1])
    edges = []
    for _ in range(n - 1):
        best, best_d = -1, 10 ** 9
        for j in range(n):
            if not in_tree[j] and dist[j] < best_d:
                best, best_d = j, dist[j]
        in_tree[best] = True
        edges.append((pins[parent[best]], pins[best]))
        for j in range(n):
            if not in_tree[j]:
                d = abs(pins[j][0] - pins[best][0]) + abs(
                    pins[j][1] - pins[best][1]
                )
                if d < dist[j]:
                    dist[j] = d
                    parent[j] = best
    return edges


def _reference_add_edge_demand(v_demand, h_demand, x1, y1, x2, y2, width):
    """Original one-edge bounding-box demand spread."""
    xa, xb = (x1, x2) if x1 <= x2 else (x2, x1)
    ya, yb = (y1, y2) if y1 <= y2 else (y2, y1)
    n_rows = yb - ya + 1
    n_cols = xb - xa + 1
    if xb > xa:
        h_demand[ya:yb + 1, xa:xb + 1] += width / n_rows
    if yb > ya:
        v_demand[ya:yb + 1, xa:xb + 1] += width / n_cols


def _reference_box_smear(grid: np.ndarray, radius: int) -> np.ndarray:
    """Original O(r^2) roll-based diamond blur (wraparound boundaries)."""
    if radius <= 0:
        return grid
    acc = np.zeros_like(grid)
    count = 0
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if abs(dx) + abs(dy) > radius:
                continue
            shifted = np.roll(np.roll(grid, dy, axis=0), dx, axis=1)
            acc += shifted
            count += 1
    return acc / count


def reference_route(
    netlist: Netlist,
    packing: Packing,
    placement: Placement,
    device: Device,
    options: RoutingOptions | None = None,
) -> CongestionMap:
    """The original per-net loop router, preserved verbatim."""
    options = options or RoutingOptions()
    router = GlobalRouter(device, options)
    rows, cols = device.shape
    v_demand = np.zeros((rows, cols), dtype=np.float64)
    h_demand = np.zeros((rows, cols), dtype=np.float64)
    pin_wires = np.zeros((rows, cols), dtype=np.float64)

    for net in netlist.nets:
        pins, hub_scale = router._net_positions(net, packing, placement)
        if not pins:
            continue
        for (x, y) in pins:
            pin_wires[y, x] += net.width * hub_scale
        if len(pins) == 1:
            continue
        width = net.width * hub_scale
        for (x1, y1), (x2, y2) in _reference_spanning_edges(pins):
            _reference_add_edge_demand(
                v_demand, h_demand, x1, y1, x2, y2, width
            )

    v_demand += PIN_BREAKOUT * pin_wires
    h_demand += PIN_BREAKOUT * pin_wires

    if options.smear > 0:
        v_demand = _reference_box_smear(v_demand, options.smear)
        h_demand = _reference_box_smear(h_demand, options.smear)

    return CongestionMap(device, v_demand, h_demand)


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------
class ReferenceTimingAnalyzer(TimingAnalyzer):
    """The original STA: every net's bounding box, one net at a time."""

    def analyze(
        self,
        netlist: Netlist,
        packing: Packing,
        placement: Placement,
        congestion: CongestionMap,
        *,
        logic_delay_ns: float,
        target_period_ns: float,
        uncertainty_ns: float,
    ) -> TimingReport:
        worst_wire = 0.0
        avg_cong = 0.5 * (congestion.vertical + congestion.horizontal)
        for net in netlist.nets:
            pins = []
            seen = set()
            for cell_id in net.endpoints():
                cid = packing.primary_cluster.get(cell_id)
                if cid is None:
                    continue
                pos = placement.positions.get(cid)
                if pos is not None and pos not in seen:
                    seen.add(pos)
                    pins.append(pos)
            if len(pins) < 2:
                continue
            xs = [p[0] for p in pins]
            ys = [p[1] for p in pins]
            x1, x2 = min(xs), max(xs)
            y1, y2 = min(ys), max(ys)
            dist = (x2 - x1) + (y2 - y1)
            if dist == 0:
                continue
            region = avg_cong[y1:y2 + 1, x1:x2 + 1]
            cong = 0.6 * float(region.max()) + 0.4 * float(region.mean())
            delay = self.wire_delay(dist, cong)
            if delay > worst_wire:
                worst_wire = delay

        achieved = logic_delay_ns + worst_wire + uncertainty_ns
        achieved = max(achieved, 1e-3)
        return TimingReport(
            target_period_ns=target_period_ns,
            achieved_period_ns=achieved,
            logic_delay_ns=logic_delay_ns,
            worst_wire_delay_ns=worst_wire,
            uncertainty_ns=uncertainty_ns,
        )
