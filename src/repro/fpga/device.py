"""FPGA device model: a Zynq XC7Z020-class column-based fabric.

The paper targets a Zynq XC7Z020 (53,200 LUT / 106,400 FF / 220 DSP48 /
280 RAMB18) and measures congestion per tile as "the percentage of routing
resources used in corresponding tiles", split into vertical and horizontal
directions.  This model captures what the labels and features depend on:

* a 2D grid of tiles with 7-series-style resource columns (CLB fabric
  interleaved with DSP and BRAM columns);
* per-tile site capacities (LUT/FF per CLB tile, DSP and RAMB18 sites);
* per-tile routing-track capacities in the vertical and horizontal
  directions, against which the global router computes utilization %.

Coordinates are ``(col, row)`` == ``(x, y)``; ``x`` indexes columns
(horizontal position), ``y`` rows (vertical position).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.errors import DeviceError


class TileType(Enum):
    CLB = "clb"
    DSP = "dsp"
    BRAM = "bram"


@dataclass(frozen=True)
class TileCapacity:
    """Placeable resources of one tile."""

    lut: int = 0
    ff: int = 0
    dsp: int = 0
    bram18: int = 0


@dataclass
class Device:
    """A column-based FPGA fabric."""

    name: str
    n_cols: int
    n_rows: int
    #: tile type per column
    column_types: list[TileType]
    #: CLB tile capacity (7-series CLB = 2 slices = 8 LUT / 16 FF)
    clb_lut: int = 8
    clb_ff: int = 16
    #: a DSP site occupies this many rows of its column
    dsp_rows_per_site: int = 2
    #: a BRAM (RAMB18 pair) site occupies this many rows of its column
    bram_rows_per_site: int = 2
    #: routing tracks per tile boundary (7-series INT tiles carry a few
    #: hundred wires per direction; horizontal is scarcer, matching the
    #: paper's higher horizontal congestion).  Calibrated so the
    #: reference-quality placements of the paper combos reproduce the
    #: paper's congestion regime (horizontal peaks above 100%).
    v_tracks: int = 480
    h_tracks: int = 400
    _type_grid: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if len(self.column_types) != self.n_cols:
            raise DeviceError(
                f"{len(self.column_types)} column types for {self.n_cols} columns"
            )
        if self.n_cols < 2 or self.n_rows < 2:
            raise DeviceError("device must be at least 2x2 tiles")
        codes = np.array(
            [list(TileType).index(t) for t in self.column_types], dtype=np.int8
        )
        self._type_grid = np.broadcast_to(
            codes[np.newaxis, :], (self.n_rows, self.n_cols)
        )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) — the numpy array orientation used by maps."""
        return (self.n_rows, self.n_cols)

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x < self.n_cols and 0 <= y < self.n_rows

    def check_coords(self, x: int, y: int) -> None:
        if not self.contains(x, y):
            raise DeviceError(
                f"tile ({x}, {y}) outside device {self.n_cols}x{self.n_rows}"
            )

    def tile_type(self, x: int, y: int) -> TileType:
        self.check_coords(x, y)
        return self.column_types[x]

    def capacity(self, x: int, y: int) -> TileCapacity:
        """Site capacity of tile ``(x, y)``."""
        ttype = self.tile_type(x, y)
        if ttype is TileType.CLB:
            return TileCapacity(lut=self.clb_lut, ff=self.clb_ff)
        if ttype is TileType.DSP:
            has_site = y % self.dsp_rows_per_site == 0
            return TileCapacity(dsp=1 if has_site else 0)
        has_site = y % self.bram_rows_per_site == 0
        return TileCapacity(bram18=2 if has_site else 0)

    # ------------------------------------------------------------------
    # site enumeration
    # ------------------------------------------------------------------
    def sites(self, ttype: TileType) -> list[tuple[int, int]]:
        """All (x, y) tiles offering at least one site of ``ttype``.

        Column-major, rows ascending — the enumeration order the placer
        depends on.  Computed directly from the column layout instead of
        querying ``capacity`` per tile (this sits on the placement hot
        path).
        """
        if ttype is TileType.CLB:
            step = 1
        elif ttype is TileType.DSP:
            step = self.dsp_rows_per_site
        else:
            step = self.bram_rows_per_site
        return [
            (x, y)
            for x in range(self.n_cols)
            if self.column_types[x] is ttype
            for y in range(0, self.n_rows, step)
        ]

    def clb_sites(self) -> list[tuple[int, int]]:
        return self.sites(TileType.CLB)

    def dsp_sites(self) -> list[tuple[int, int]]:
        return self.sites(TileType.DSP)

    def bram_sites(self) -> list[tuple[int, int]]:
        return self.sites(TileType.BRAM)

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, int]:
        """Device-wide resource totals, keyed like RESOURCE_KINDS.

        Column-analytic: every tile in a column follows the column
        type's capacity pattern, so one pass over the columns replaces
        the per-tile ``capacity()`` sweep — this sits on the serving
        hot path (FeatureExtractor construction calls it per
        extraction) where the old cols x rows Python loop cost ~6k
        calls a request.
        """
        lut = ff = dsp = bram = 0
        # a site every `step` rows starting at row 0 -> ceil(rows/step)
        dsp_sites = -(-self.n_rows // self.dsp_rows_per_site)
        bram_sites = -(-self.n_rows // self.bram_rows_per_site)
        for ttype in self.column_types:
            if ttype is TileType.CLB:
                lut += self.clb_lut * self.n_rows
                ff += self.clb_ff * self.n_rows
            elif ttype is TileType.DSP:
                dsp += dsp_sites
            else:
                bram += 2 * bram_sites
        return {"LUT": lut, "FF": ff, "DSP": dsp, "BRAM": bram}

    def is_margin(self, x: int, y: int, fraction: float = 0.12) -> bool:
        """True if the tile lies in the outer ``fraction`` ring of the die.

        Figure 5 of the paper shows lower congestion "at the margin of the
        device compared to the higher values in the middle"; the dataset
        filter uses this predicate to identify marginal replicas.
        """
        self.check_coords(x, y)
        mx, my = self._margin_widths(fraction)
        return (
            x < mx or x >= self.n_cols - mx or y < my or y >= self.n_rows - my
        )

    def margin_mask(self, fraction: float = 0.12) -> np.ndarray:
        """:meth:`is_margin` of every tile, as a bool array indexed
        ``[y, x]``."""
        mx, my = self._margin_widths(fraction)
        cols = np.arange(self.n_cols)
        rows = np.arange(self.n_rows)
        return (((rows < my) | (rows >= self.n_rows - my))[:, None]
                | ((cols < mx) | (cols >= self.n_cols - mx))[None, :])

    def _margin_widths(self, fraction: float) -> tuple[int, int]:
        """Columns and rows of the margin ring at ``fraction``."""
        return (max(1, int(round(self.n_cols * fraction))),
                max(1, int(round(self.n_rows * fraction))))


def device_fingerprint(device: Device) -> tuple:
    """Every device parameter a flow result depends on.

    Used to key cross-process caches: two devices with the same name
    but different calibration (track counts, grid, column layout) must
    never share cached flow artifacts.
    """
    return (
        device.name, device.n_cols, device.n_rows,
        tuple(t.value for t in device.column_types),
        device.clb_lut, device.clb_ff,
        device.dsp_rows_per_site, device.bram_rows_per_site,
        device.v_tracks, device.h_tracks,
    )


def _build_columns(n_cols: int, dsp_cols: tuple[int, ...],
                   bram_cols: tuple[int, ...]) -> list[TileType]:
    columns = []
    for x in range(n_cols):
        if x in dsp_cols:
            columns.append(TileType.DSP)
        elif x in bram_cols:
            columns.append(TileType.BRAM)
        else:
            columns.append(TileType.CLB)
    return columns


def xc7z020(scale: float = 1.0) -> Device:
    """Device model approximating the Zynq XC7Z020 fabric.

    ``scale`` shrinks the grid (used by fast tests); 1.0 yields a fabric
    with roughly 42k LUTs, 208 DSP sites and 288 RAMB18 — the same order
    as the real part, with the same columnar layout.
    """
    if scale <= 0:
        raise DeviceError(f"scale must be positive, got {scale}")
    n_cols = max(10, int(round(62 * scale)))
    n_rows = max(10, int(round(96 * scale)))
    spread = max(3, n_cols // 5)
    dsp_cols = tuple(
        min(n_cols - 2, spread + i * spread) for i in range(4)
    )
    bram_candidates = tuple(
        min(n_cols - 1, spread // 2 + i * spread) for i in range(3)
    )
    bram_cols = tuple(c for c in bram_candidates if c not in dsp_cols)
    return Device(
        name=f"xc7z020-sim-{scale:g}",
        n_cols=n_cols,
        n_rows=n_rows,
        column_types=_build_columns(n_cols, dsp_cols, bram_cols),
    )


def small_test_device() -> Device:
    """A 16x20 fabric for unit tests (fast to place and route)."""
    return Device(
        name="test-16x20",
        n_cols=16,
        n_rows=20,
        column_types=_build_columns(16, dsp_cols=(5, 11), bram_cols=(2, 8, 14)),
    )
