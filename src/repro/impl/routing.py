"""Probabilistic global routing and congestion-map extraction.

This stage produces the quantity the whole paper revolves around: per-tile
**vertical and horizontal routing-resource utilization** ("congestion
level denotes the percentage of routing resources used in corresponding
tiles", Section II).  Demand is estimated with classic probabilistic
global routing: every net is decomposed into a rectilinear spanning tree
and each tree edge spreads its wire demand over the two L-shaped routes
between its endpoints with equal probability; a local breakout term adds
pin-proportional demand at every cluster tile.  Utilization is demand
divided by the device's per-tile track capacity.

The router is vectorized: all spanning-tree edges of all nets are
collected first and their bounding-box demand lands in one
``np.add.at`` pass over 2-D difference arrays (integrated by a double
cumsum), the Prim spanning tree runs on NumPy distance rows, and the
detour smear is a cumsum box filter per diamond row.  The original
per-net loops live on in :mod:`repro.impl._reference` and the
equivalence tests pin this implementation to them within 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.fpga.device import Device
from repro.impl.packing import Packing
from repro.impl.placement import Placement
from repro.rtl.netlist import Netlist

#: Fraction of a tile's pin wires added as local routing demand.
PIN_BREAKOUT = 0.55

#: Multi-pin nets with more pins than this are spanning-tree'd on a sample.
_MAX_TREE_PINS = 40

#: Below this pin count the pure-Python Prim beats NumPy call overhead.
_SMALL_NET_PINS = 8


@dataclass
class RoutingOptions:
    """Router knobs (kept stable across the reproduction)."""

    #: extra smear radius (tiles) emulating detour diversity
    smear: int = 1

    def cache_key(self) -> tuple:
        """Every value the routed congestion depends on — flow caches
        must include this or a future routing change would silently
        serve stale results."""
        return (PIN_BREAKOUT, self.smear)


class CongestionMap:
    """Vertical/horizontal congestion per tile, in percent.

    Arrays are indexed ``[row (y), col (x)]`` like the device shape.
    """

    def __init__(self, device: Device, v_demand: np.ndarray,
                 h_demand: np.ndarray) -> None:
        if v_demand.shape != device.shape or h_demand.shape != device.shape:
            raise RoutingError("demand arrays must match the device shape")
        self.device = device
        self.v_demand = v_demand
        self.h_demand = h_demand
        self.vertical = 100.0 * v_demand / device.v_tracks
        self.horizontal = 100.0 * h_demand / device.h_tracks

    # ------------------------------------------------------------------
    @property
    def average(self) -> np.ndarray:
        """Per-tile mean of vertical and horizontal congestion.

        This is the paper's "Avg. (V, H)" metric: "the mean value of the
        two metrics for each CLB".
        """
        return 0.5 * (self.vertical + self.horizontal)

    def at(self, x: int, y: int) -> tuple[float, float]:
        """(vertical %, horizontal %) of tile ``(x, y)``."""
        self.device.check_coords(x, y)
        return float(self.vertical[y, x]), float(self.horizontal[y, x])

    def max_vertical(self) -> float:
        return float(self.vertical.max())

    def max_horizontal(self) -> float:
        return float(self.horizontal.max())

    def max_congestion(self) -> float:
        return max(self.max_vertical(), self.max_horizontal())

    def mean_vertical(self) -> float:
        return float(self.vertical.mean())

    def mean_horizontal(self) -> float:
        return float(self.horizontal.mean())

    def n_congested(self, threshold: float = 100.0) -> int:
        """Tiles whose V or H utilization exceeds ``threshold`` percent.

        Table VI reports "#Congested CLBs (> 100%)" — this metric.
        """
        over = (self.vertical > threshold) | (self.horizontal > threshold)
        return int(over.sum())

    def margin_center_stats(self, fraction: float = 0.12) -> dict[str, float]:
        """Mean vertical congestion at the die margin vs the center.

        Quantifies Fig. 5: "lower congestion metrics are distributed at
        the margin of the device compared to the higher values in the
        middle of FPGA".  On devices so small (or ``fraction`` so large)
        that the margin ring swallows every tile, the empty center
        reports 0.0 instead of a mean-of-empty-slice NaN.
        """
        margin_mask = np.zeros(self.device.shape, dtype=bool)
        mx = max(1, int(round(self.device.n_cols * fraction)))
        my = max(1, int(round(self.device.n_rows * fraction)))
        margin_mask[:my, :] = True
        margin_mask[-my:, :] = True
        margin_mask[:, :mx] = True
        margin_mask[:, -mx:] = True
        center = ~margin_mask

        def masked_mean(grid: np.ndarray, mask: np.ndarray) -> float:
            return float(grid[mask].mean()) if mask.any() else 0.0

        return {
            "margin_mean_v": masked_mean(self.vertical, margin_mask),
            "center_mean_v": masked_mean(self.vertical, center),
            "margin_mean_h": masked_mean(self.horizontal, margin_mask),
            "center_mean_h": masked_mean(self.horizontal, center),
        }

    # ------------------------------------------------------------------
    def render_ascii(self, metric: str = "average", width: int | None = None) -> str:
        """Coarse ASCII heat map (the library's Fig. 1 / Fig. 6 stand-in)."""
        grid = {
            "vertical": self.vertical,
            "horizontal": self.horizontal,
            "average": self.average,
        }.get(metric)
        if grid is None:
            raise RoutingError(f"unknown metric {metric!r}")
        shades = " .:-=+*#%@"
        rows, cols = grid.shape
        step_x = max(1, cols // (width or 64))
        step_y = max(1, rows // 32)
        lines = [f"congestion map ({metric}), peak {grid.max():.1f}%"]
        for y in range(0, rows, step_y):
            row = grid[y:y + step_y]
            line = []
            for x in range(0, cols, step_x):
                block = row[:, x:x + step_x]
                level = float(block.mean())
                idx = min(len(shades) - 1, int(level / 20.0))
                line.append(shades[idx])
            lines.append("".join(line))
        return "\n".join(lines)


class GlobalRouter:
    """Probabilistic congestion estimator over placed netlists."""

    def __init__(self, device: Device, options: RoutingOptions | None = None) -> None:
        self.device = device
        self.options = options or RoutingOptions()

    # ------------------------------------------------------------------
    def route(
        self,
        netlist: Netlist,
        packing: Packing,
        placement: Placement,
    ) -> CongestionMap:
        """Estimate per-tile V/H routing demand for the placed design."""
        rows, cols = self.device.shape

        # Collect every tree edge and pin tile first; demand lands in
        # bulk afterwards.
        edges_x1: list[int] = []
        edges_y1: list[int] = []
        edges_x2: list[int] = []
        edges_y2: list[int] = []
        edges_w: list[float] = []
        pin_x: list[int] = []
        pin_y: list[int] = []
        pin_w: list[float] = []

        for net in netlist.nets:
            pins, hub_scale = self._net_positions(net, packing, placement)
            if not pins:
                continue
            width = net.width * hub_scale
            for (x, y) in pins:
                pin_x.append(x)
                pin_y.append(y)
                pin_w.append(width)
            if len(pins) == 1:
                continue
            for (x1, y1), (x2, y2) in self._spanning_edges(pins):
                edges_x1.append(x1)
                edges_y1.append(y1)
                edges_x2.append(x2)
                edges_y2.append(y2)
                edges_w.append(width)

        v_demand, h_demand = _bulk_edge_demand(
            (rows, cols), edges_x1, edges_y1, edges_x2, edges_y2, edges_w
        )

        # Local breakout demand: wires entering/leaving each tile.
        pin_wires = np.zeros((rows, cols), dtype=np.float64)
        if pin_x:
            np.add.at(
                pin_wires,
                (np.asarray(pin_y), np.asarray(pin_x)),
                np.asarray(pin_w),
            )
        v_demand += PIN_BREAKOUT * pin_wires
        h_demand += PIN_BREAKOUT * pin_wires

        if self.options.smear > 0:
            v_demand = _box_smear(v_demand, self.options.smear)
            h_demand = _box_smear(h_demand, self.options.smear)

        return CongestionMap(self.device, v_demand, h_demand)

    # ------------------------------------------------------------------
    def _net_positions(self, net, packing, placement):
        """Distinct pin tiles plus a hub compensation factor.

        Very-high-fanout nets (control, shared-buffer reads) are sampled
        down to :data:`_MAX_TREE_PINS` for tree construction; the dropped
        branches still consume wires, so the demand of the sampled tree is
        scaled up by half the fanout ratio (the other half is absorbed by
        trunk sharing on a real route).
        """
        positions = []
        seen = set()
        for cell_id in net.endpoints():
            cid = packing.primary_cluster.get(cell_id)
            if cid is None:
                continue
            pos = placement.positions.get(cid)
            if pos is not None and pos not in seen:
                seen.add(pos)
                positions.append(pos)
        hub_scale = 1.0
        if len(positions) > _MAX_TREE_PINS:
            ratio = len(positions) / _MAX_TREE_PINS
            hub_scale = 1.0 + 0.5 * (ratio - 1.0)
            step = len(positions) / _MAX_TREE_PINS
            positions = [positions[int(i * step)] for i in range(_MAX_TREE_PINS)]
        return positions, hub_scale

    @staticmethod
    def _spanning_edges(pins: list[tuple[int, int]]):
        """Prim spanning tree over pins in Manhattan distance.

        Tie-breaking (lowest index wins, strict-improvement parent
        updates) matches the loop reference exactly, so both produce the
        same tree; larger nets run the inner relaxation on NumPy rows.
        """
        n = len(pins)
        if n == 2:
            return [(pins[0], pins[1])]
        if n <= _SMALL_NET_PINS:
            return _prim_small(pins)
        xs = np.fromiter((p[0] for p in pins), dtype=np.int64, count=n)
        ys = np.fromiter((p[1] for p in pins), dtype=np.int64, count=n)
        inf = np.int64(10 ** 9)
        dist = np.abs(xs - xs[0]) + np.abs(ys - ys[0])
        parent = np.zeros(n, dtype=np.int64)
        in_tree = np.zeros(n, dtype=bool)
        in_tree[0] = True
        dist[0] = inf
        edges = []
        for _ in range(n - 1):
            best = int(np.argmin(dist))
            in_tree[best] = True
            edges.append((pins[parent[best]], pins[best]))
            nd = np.abs(xs - xs[best]) + np.abs(ys - ys[best])
            improve = (nd < dist) & ~in_tree
            dist[improve] = nd[improve]
            parent[improve] = best
            dist[best] = inf
        return edges

    @staticmethod
    def _add_edge_demand(v_demand, h_demand, x1, y1, x2, y2, width) -> None:
        """Spread one tree edge's demand over its bounding box.

        RISA-style probabilistic routing: the edge consumes ``dx`` tile
        units of horizontal wiring and ``dy`` units of vertical wiring,
        distributed uniformly over the rows/columns of the bounding box
        (every monotone route is equally likely).  Degenerate (flat)
        edges reduce to a single row/column.
        """
        xa, xb = (x1, x2) if x1 <= x2 else (x2, x1)
        ya, yb = (y1, y2) if y1 <= y2 else (y2, y1)
        n_rows = yb - ya + 1
        n_cols = xb - xa + 1
        if xb > xa:
            h_demand[ya:yb + 1, xa:xb + 1] += width / n_rows
        if yb > ya:
            v_demand[ya:yb + 1, xa:xb + 1] += width / n_cols


def _prim_small(pins: list[tuple[int, int]]):
    """Loop Prim for tiny nets (NumPy overhead exceeds the n^2 work)."""
    n = len(pins)
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


def _bulk_edge_demand(
    shape: tuple[int, int],
    x1, y1, x2, y2, w,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate every edge's bounding-box demand in one pass.

    Each edge adds ``w / n_rows`` horizontal demand (resp. ``w / n_cols``
    vertical) over its bounding box.  Rectangle sums become four corner
    deltas on an (R+1, C+1) difference array via ``np.add.at``; a double
    cumsum integrates them back into dense demand grids.
    """
    rows, cols = shape
    v_demand = np.zeros((rows, cols), dtype=np.float64)
    h_demand = np.zeros((rows, cols), dtype=np.float64)
    if not x1:
        return v_demand, h_demand
    ax1 = np.asarray(x1, dtype=np.int64)
    ay1 = np.asarray(y1, dtype=np.int64)
    ax2 = np.asarray(x2, dtype=np.int64)
    ay2 = np.asarray(y2, dtype=np.int64)
    aw = np.asarray(w, dtype=np.float64)
    xa = np.minimum(ax1, ax2)
    xb = np.maximum(ax1, ax2)
    ya = np.minimum(ay1, ay2)
    yb = np.maximum(ay1, ay2)

    def rect_sum(sel: np.ndarray, values: np.ndarray) -> np.ndarray:
        diff = np.zeros((rows + 1, cols + 1), dtype=np.float64)
        sya, syb = ya[sel], yb[sel]
        sxa, sxb = xa[sel], xb[sel]
        sv = values[sel]
        np.add.at(diff, (sya, sxa), sv)
        np.add.at(diff, (sya, sxb + 1), -sv)
        np.add.at(diff, (syb + 1, sxa), -sv)
        np.add.at(diff, (syb + 1, sxb + 1), sv)
        return diff.cumsum(axis=0).cumsum(axis=1)[:rows, :cols]

    h_sel = xb > xa
    if h_sel.any():
        h_demand = rect_sum(h_sel, aw / (yb - ya + 1))
    v_sel = yb > ya
    if v_sel.any():
        v_demand = rect_sum(v_sel, aw / (xb - xa + 1))
    return v_demand, h_demand


def _box_smear(grid: np.ndarray, radius: int) -> np.ndarray:
    """Diamond box blur preserving total demand (models detour diversity).

    Equivalent to summing all ``|dx| + |dy| <= radius`` rolls of the
    grid, but each diamond row collapses into a wrapped running-window
    sum over a cumsum — O(r) passes instead of O(r^2) shifted copies.
    """
    if radius <= 0:
        return grid
    rows, cols = grid.shape
    acc = np.zeros_like(grid)
    count = 0
    for dy in range(-radius, radius + 1):
        half = radius - abs(dy)
        g = np.roll(grid, dy, axis=0)
        window = 2 * half + 1
        if half == 0:
            acc += g
        elif half >= cols:
            # Degenerate tiny grids: the window wraps more than once.
            for dx in range(-half, half + 1):
                acc += np.roll(g, dx, axis=1)
        else:
            pad = np.concatenate([g[:, cols - half:], g, g[:, :half]], axis=1)
            cs = np.cumsum(pad, axis=1)
            sums = cs[:, window - 1:window - 1 + cols].copy()
            sums[:, 1:] -= cs[:, :cols - 1]
            acc += sums
        count += window
    return acc / count


def route_design(
    netlist: Netlist,
    packing: Packing,
    placement: Placement,
    device: Device,
    options: RoutingOptions | None = None,
) -> CongestionMap:
    """Convenience wrapper around :class:`GlobalRouter`."""
    return GlobalRouter(device, options).route(netlist, packing, placement)
