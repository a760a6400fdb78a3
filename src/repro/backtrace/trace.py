"""Back-tracing: per-CLB congestion metrics to IR operations.

Reproduces the paper's Fig. 3 flow.  In the original, Tcl scripts walk
Vivado's database: per-CLB congestion and coordinates -> cells in the CLB
-> net names of cell output pins -> HDL signals -> HLS-generated naming ->
IR operations.  In this library the netlist keeps explicit provenance
(cell -> op uids, cluster -> cells, placement -> tiles), so the same walk
runs in both directions:

* forward: tile -> clusters -> cells -> operations (``ops_in_tile``);
* backward: operation -> cells (one per function instance) -> tiles ->
  congestion label (``label_operations``).

An operation instantiated several times (a callee with many call sites, a
replica of an unrolled loop) yields one labelled sample per instance,
which is precisely the replica population Section III-C1 filters.

The backward walk is array code: the labels are columns gathered through
a cell -> cluster CSR and the placement's coordinate arrays, and the
operations are read from the synthesized table IR.  The object walk it
replaces is kept as the oracle in :mod:`repro.backtrace._reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from repro.errors import BacktraceError
from repro.hls.synthesis import HLSResult
from repro.hls.tableir import freeze_arrays
from repro.impl.packing import Packing
from repro.impl.placement import Placement
from repro.impl.routing import CongestionMap
from repro.ir.operation import Operation
from repro.rtl.netlist import Netlist


@dataclass(frozen=True, eq=False)
class BacktraceResult:
    """Every label of one implemented design, one read-only array per
    field.

    Label ``i`` is operation ``op_uid[i]`` as implemented by netlist cell
    ``cell[i]`` (one cell per function instance; the cell names the
    instance): the mean vertical and horizontal congestion over the
    tiles holding the cell, and whether at least half of those tiles lie
    at the device margin.  Labels are in module op order, then in the
    order of each op's cells.  ``eq=False``: results compare by
    identity.
    """

    op_uid: np.ndarray       # int [n]
    cell: np.ndarray         # int [n]
    vertical: np.ndarray     # float [n]
    horizontal: np.ndarray   # float [n]
    at_margin: np.ndarray    # bool [n]

    def __post_init__(self) -> None:
        freeze_arrays(self)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        freeze_arrays(self)

    def n_samples(self) -> int:
        return len(self.op_uid)

    @property
    def average(self) -> np.ndarray:
        """The paper's Avg. (V, H) metric of every label."""
        return 0.5 * (self.vertical + self.horizontal)

    def label_of(self, op_uid: int) -> int:
        """Index of an op's single label (raises if the op has none or
        several instances)."""
        rows = np.flatnonzero(self.op_uid == op_uid)
        if not len(rows):
            raise BacktraceError(f"no congestion label for op uid {op_uid}")
        if len(rows) > 1:
            raise BacktraceError(
                f"op uid {op_uid} has {len(rows)} instances; "
                "select its labels by cell"
            )
        return int(rows[0])


def _csr(lists) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, flat)`` of a sequence of int sequences."""
    lists = list(lists)
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    flat = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                       count=int(counts.sum()))
    return counts, flat


def _tile_means(values: np.ndarray, starts: np.ndarray,
                counts: np.ndarray) -> np.ndarray:
    """Mean of each run ``values[start:start + count]``, summed left to
    right as Python's ``sum`` does (a pairwise reduction could change
    the last bit of a long run)."""
    total = values[starts]
    for j in range(1, int(counts.max(initial=1))):
        more = np.flatnonzero(counts > j)
        total[more] += values[starts[more] + j]
    return total / counts


class Backtracer:
    """Bidirectional congestion <-> IR mapping for one implementation."""

    def __init__(
        self,
        hls: HLSResult,
        netlist: Netlist,
        packing: Packing,
        placement: Placement,
        congestion: CongestionMap,
    ) -> None:
        self.hls = hls
        self.netlist = netlist
        self.packing = packing
        self.placement = placement
        self.congestion = congestion

    # ------------------------------------------------------------------
    # backward: operations -> labels
    # ------------------------------------------------------------------
    @staticmethod
    def _window_mean(grid, radius: int):
        """Box-filtered copy of a congestion grid (label smoothing).

        Vivado's congestion levels are reported over windowed regions, not
        single INT tiles; a small window average reproduces that and keeps
        labels a function of the *region* an operation's wiring occupies.
        """
        if radius <= 0:
            return grid
        padded = np.pad(grid, radius, mode="edge")
        out = np.zeros_like(grid)
        count = (2 * radius + 1) ** 2
        rows, cols = grid.shape
        for dy in range(2 * radius + 1):
            for dx in range(2 * radius + 1):
                out += padded[dy:dy + rows, dx:dx + cols]
        return out / count

    def label_operations(self, *, window_radius: int = 2) -> BacktraceResult:
        """Produce one label per (operation, instance)."""
        t = self.hls.ir
        uids = t.op_uid[t.module_order()]
        n_cells, cell = _csr(map(self.netlist.cells_of_op.get, uids.tolist(),
                                 repeat(())))
        n_tiles, cluster = _csr(map(self.packing.clusters_of_cell.get,
                                    cell.tolist(), repeat(())))
        traced = n_tiles > 0
        if not traced.any():
            raise BacktraceError("no operation could be traced to a tile")
        xs, ys = self.placement.coordinate_arrays()
        x, y = xs[cluster], ys[cluster]
        starts = (np.cumsum(n_tiles) - n_tiles)[traced]
        n_tiles = n_tiles[traced]
        grids = (self.congestion.vertical, self.congestion.horizontal)
        vertical, horizontal = (
            _tile_means(self._window_mean(grid, window_radius)[y, x], starts,
                        n_tiles)
            for grid in grids
        )
        margin = self.congestion.device.margin_mask()[y, x]
        n_margin = np.add.reduceat(margin.astype(np.int64), starts)
        return BacktraceResult(
            op_uid=np.repeat(uids, n_cells)[traced],
            cell=cell[traced],
            vertical=vertical,
            horizontal=horizontal,
            at_margin=n_margin * 2 >= n_tiles,
        )

    # ------------------------------------------------------------------
    # forward: tile -> operations
    # ------------------------------------------------------------------
    def ops_in_tile(self, x: int, y: int) -> list[Operation]:
        """IR operations implemented (at least partly) in tile ``(x, y)``.

        Reads the synthesized IR as objects, which builds them on the
        first call."""
        self.congestion.device.check_coords(x, y)
        cell_ids: set[int] = set()
        for cluster in self.packing.clusters:
            if self.placement.positions.get(cluster.cluster_id) == (x, y):
                cell_ids.update(cluster.cells)
        module = self.hls.module
        ops: list[Operation] = []
        seen: set[int] = set()
        for cell_id in sorted(cell_ids):
            for uid in self.netlist.cell(cell_id).op_uids:
                if uid not in seen:
                    seen.add(uid)
                    ops.append(module.find_op(uid))
        return ops

    def hottest_tiles(self, n: int = 10, metric: str = "average"):
        """The ``n`` most congested tiles as (x, y, value) triples."""
        grid = {
            "vertical": self.congestion.vertical,
            "horizontal": self.congestion.horizontal,
            "average": self.congestion.average,
        }.get(metric)
        if grid is None:
            raise BacktraceError(f"unknown metric {metric!r}")
        flat = grid.ravel()
        order = flat.argsort()[::-1][:n]
        cols = grid.shape[1]
        return [
            (int(i % cols), int(i // cols), float(flat[i])) for i in order
        ]

    # ------------------------------------------------------------------
    # source-level aggregation (the paper's headline capability)
    # ------------------------------------------------------------------
    def congestion_by_source_line(
        self, result: BacktraceResult | None = None
    ) -> dict[tuple[str, int], dict[str, float]]:
        """Aggregate labels per source location.

        Returns ``(file, line) -> {vertical, horizontal, average, samples}``
        using the max over samples (the congested region is what matters).
        """
        result = result or self.label_operations()
        t = self.hls.ir
        rows = t.op_rows(result.op_uid)
        by_line: dict[tuple[str, int], dict[str, float]] = {}
        for file, line, v, h, avg in zip(
                t.op_file[rows].tolist(), t.op_line[rows].tolist(),
                result.vertical.tolist(), result.horizontal.tolist(),
                result.average.tolist()):
            entry = by_line.setdefault(
                (t.file_names[file], line),
                {"vertical": 0.0, "horizontal": 0.0, "average": 0.0,
                 "samples": 0},
            )
            entry["vertical"] = max(entry["vertical"], v)
            entry["horizontal"] = max(entry["horizontal"], h)
            entry["average"] = max(entry["average"], avg)
            entry["samples"] += 1
        return by_line
