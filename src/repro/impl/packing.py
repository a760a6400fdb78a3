"""Packing: RTL cells into placeable tile-sized clusters.

Placement works on *clusters*: units that occupy exactly one device tile.
CLB clusters hold up to one tile's worth of LUT/FF (large cells are split
across several clusters, small cells of the same instance are packed
together, mirroring slice packing); DSP and BRAM cells claim DSP/BRAM
sites.  The cluster <-> cell mapping is what lets back-tracing walk from a
congested tile to the IR operations placed in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ImplementationError
from repro.fpga.device import Device
from repro.rtl.netlist import Netlist

CLUSTER_KINDS = ("clb", "dsp", "bram")


@dataclass
class Cluster:
    """One placeable unit occupying a single tile."""

    cluster_id: int
    kind: str
    cells: list[int] = field(default_factory=list)
    lut: int = 0
    ff: int = 0
    dsp: int = 0
    bram18: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CLUSTER_KINDS:
            raise ImplementationError(f"unknown cluster kind {self.kind!r}")


@dataclass
class Packing:
    """Packing result: clusters plus cell <-> cluster maps."""

    clusters: list[Cluster] = field(default_factory=list)
    #: every cluster holding (part of) the cell
    clusters_of_cell: dict[int, list[int]] = field(default_factory=dict)
    #: representative cluster for net connectivity
    primary_cluster: dict[int, int] = field(default_factory=dict)
    #: port cell id -> pseudo cluster id (fixed I/O positions)
    port_cluster: dict[int, int] = field(default_factory=dict)

    def n_clusters(self) -> int:
        return len(self.clusters)

    def demand_summary(self) -> dict[str, int]:
        return {
            "clb": sum(1 for c in self.clusters if c.kind == "clb"),
            "dsp": sum(c.dsp for c in self.clusters),
            "bram": sum(c.bram18 for c in self.clusters),
        }


class Packer:
    """Greedy in-order packer."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self.lut_cap = device.clb_lut
        self.ff_cap = device.clb_ff

    def pack(self, netlist: Netlist) -> Packing:
        """Pack every placeable cell of ``netlist``."""
        packing = Packing()
        open_cluster: dict[str, Cluster] = {}

        def new_cluster(kind: str) -> Cluster:
            cluster = Cluster(cluster_id=len(packing.clusters), kind=kind)
            packing.clusters.append(cluster)
            return cluster

        def attach(cell_id: int, cluster: Cluster) -> None:
            if cell_id not in cluster.cells:
                cluster.cells.append(cell_id)
            packing.clusters_of_cell.setdefault(cell_id, []).append(
                cluster.cluster_id
            )
            packing.primary_cluster.setdefault(cell_id, cluster.cluster_id)

        for cell in netlist.cells:
            if cell.kind == "port":
                cluster = new_cluster("clb")  # position fixed by the placer
                attach(cell.cell_id, cluster)
                packing.port_cluster[cell.cell_id] = cluster.cluster_id
                continue
            if not cell.is_placeable:
                continue

            # DSP portions claim DSP sites, one cluster per block.
            for _ in range(cell.dsp):
                cluster = new_cluster("dsp")
                cluster.dsp += 1
                attach(cell.cell_id, cluster)
            for _ in range(cell.bram18):
                cluster = new_cluster("bram")
                cluster.bram18 += 1
                attach(cell.cell_id, cluster)

            lut, ff = cell.lut, cell.ff
            if lut == 0 and ff == 0:
                continue
            # Large cells claim dedicated tiles for all but their last
            # tile's worth; the remainder shares an open cluster with
            # neighbours from the same instance (slice packing).
            n_tiles = max(
                math.ceil(lut / self.lut_cap), math.ceil(ff / self.ff_cap)
            )
            for _ in range(max(0, n_tiles - 1)):
                cluster = new_cluster("clb")
                take_lut = min(self.lut_cap, lut)
                take_ff = min(self.ff_cap, ff)
                cluster.lut = take_lut
                cluster.ff = take_ff
                lut -= take_lut
                ff -= take_ff
                attach(cell.cell_id, cluster)
            if lut > 0 or ff > 0:
                key = cell.instance
                cluster = open_cluster.get(key)
                if (
                    cluster is None
                    or cluster.lut + lut > self.lut_cap
                    or cluster.ff + ff > self.ff_cap
                ):
                    cluster = new_cluster("clb")
                    open_cluster[key] = cluster
                cluster.lut += min(lut, self.lut_cap)
                cluster.ff += min(ff, self.ff_cap)
                attach(cell.cell_id, cluster)

        self._check_fit(packing)
        return packing

    def _check_fit(self, packing: Packing) -> None:
        demand = packing.demand_summary()
        n_clb_sites = len(self.device.clb_sites())
        n_dsp_sites = len(self.device.dsp_sites())
        n_bram_tiles = len(self.device.bram_sites()) * 2
        if demand["clb"] > n_clb_sites:
            raise ImplementationError(
                f"design needs {demand['clb']} CLB tiles but device has "
                f"{n_clb_sites}"
            )
        if demand["dsp"] > n_dsp_sites:
            raise ImplementationError(
                f"design needs {demand['dsp']} DSP sites but device has "
                f"{n_dsp_sites}"
            )
        if demand["bram"] > n_bram_tiles:
            raise ImplementationError(
                f"design needs {demand['bram']} RAMB18 but device has "
                f"{n_bram_tiles}"
            )


def pack_netlist(netlist: Netlist, device: Device) -> Packing:
    """Convenience wrapper around :class:`Packer`."""
    return Packer(device).pack(netlist)
