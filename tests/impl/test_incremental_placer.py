"""Annealer trajectory pins, placement legality and coordinate arrays.

The final placement of two kernels is pinned to recorded constants
(cost, move counts and a digest of every position).  The paper tables
are calibrated on this exact annealing trajectory, so any change to move
evaluation, acceptance or bookkeeping that alters it must show up here,
not as drift in the congestion regimes.
"""

import hashlib

import pytest

from repro.errors import PlacementError
from repro.fpga import xc7z020
from repro.hls import synthesize
from repro.impl import Annealer, Placement, PlacementOptions, pack_netlist
from repro.kernels import build_kernel
from repro.rtl import generate_netlist

SCALE = 0.3
#: (cost, n_moves, n_accepted, SHA-256 of sorted positions) of the
#: effort="fast", seed-0 placement at SCALE, per kernel
TRAJECTORY_PINS = {
    "optical_flow": (
        32266.0, 6367, 4062,
        "f21637f972f781bbb5b610e7d0e790e846f1c371f6f3f19add02ecfb120cdd19",
    ),
    "spam_filter": (
        10824.0, 3179, 1286,
        "318c353aead5671e988f5165ecc5bb788c09d886d20eba41026d9cdaff558c2c",
    ),
}


def _implement(name, scale=SCALE):
    design = build_kernel(name, scale=scale)
    hls = synthesize(design.module, design.directives)
    netlist = generate_netlist(hls)
    device = xc7z020()
    return netlist, pack_netlist(netlist, device), device


@pytest.fixture(scope="module")
def spam_impl():
    return _implement("spam_filter")


@pytest.fixture(scope="module")
def flow_impl():
    return _implement("optical_flow")


# -- trajectory pins ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(TRAJECTORY_PINS))
def test_annealer_trajectory_is_pinned(name, spam_impl, flow_impl):
    netlist, packing, device = (
        spam_impl if name == "spam_filter" else flow_impl
    )
    placement = Annealer(
        netlist, packing, device, PlacementOptions(effort="fast", seed=0),
    ).place()
    digest = hashlib.sha256(
        repr(sorted(placement.positions.items())).encode()
    ).hexdigest()
    assert (placement.cost, placement.n_moves, placement.n_accepted,
            digest) == TRAJECTORY_PINS[name]


# -- legality ------------------------------------------------------------

def test_placement_is_legal(flow_impl):
    """One cluster per CLB or DSP site and at most two RAMB18 per BRAM
    tile, on a real kernel."""
    netlist, packing, device = flow_impl
    placement = Annealer(
        netlist, packing, device, PlacementOptions(effort="fast", seed=0),
    ).place()
    assert len(placement.positions) == packing.n_clusters()
    occupancy: dict[tuple, list] = {}
    for cluster in packing.clusters:
        x, y = placement.positions[cluster.cluster_id]
        assert device.contains(x, y)
        capacity = device.capacity(x, y)
        if cluster.kind == "dsp":
            assert capacity.dsp >= 1
        elif cluster.kind == "bram":
            assert capacity.bram18 >= 1
        else:
            assert capacity.lut > 0
        occupancy.setdefault((cluster.kind, x, y), []).append(
            cluster.cluster_id
        )
    for (kind, _, _), members in occupancy.items():
        assert len(members) <= (2 if kind == "bram" else 1)


# -- coordinate arrays ---------------------------------------------------

def test_coordinate_arrays_sized_by_cluster_domain(spam_impl):
    netlist, packing, device = spam_impl
    placement = Annealer(netlist, packing, device,
                         PlacementOptions(effort="fast")).place()
    xs, ys = placement.coordinate_arrays()
    assert xs.shape == ys.shape == (packing.n_clusters(),)


def test_coordinate_arrays_rejects_out_of_domain_ids():
    device = xc7z020()
    placement = Placement(device=device, positions={0: (1, 1), 7: (2, 2)},
                          n_clusters=4)
    with pytest.raises(PlacementError, match="outside the dense id"):
        placement.coordinate_arrays()


def test_coordinate_arrays_falls_back_without_domain():
    device = xc7z020()
    placement = Placement(device=device, positions={0: (1, 1), 3: (5, 4)})
    xs, ys = placement.coordinate_arrays()
    assert xs.shape == (4,)
    assert (int(xs[3]), int(ys[3])) == (5, 4)
