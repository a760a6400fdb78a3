"""Implementation flow: packing, placement, routing, congestion, timing."""

from repro.impl.packing import (
    CLUSTER_KINDS,
    Cluster,
    Packing,
    Packer,
    pack_netlist,
)
from repro.impl.placement import (
    PlacementOptions,
    Placement,
    Annealer,
    place_netlist,
)
from repro.impl.routing import (
    RoutingOptions,
    CongestionMap,
    GlobalRouter,
    route_design,
)
from repro.impl.timing import TimingReport, TimingAnalyzer

__all__ = [
    "CLUSTER_KINDS", "Cluster", "Packing", "Packer", "pack_netlist",
    "PlacementOptions", "Placement", "Annealer", "place_netlist",
    "RoutingOptions", "CongestionMap", "GlobalRouter", "route_design",
    "TimingReport", "TimingAnalyzer",
]
