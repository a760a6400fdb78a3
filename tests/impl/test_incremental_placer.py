"""Annealer trajectory pins, swap deltas, legality and coordinate arrays.

The final placement of three kernels is pinned to recorded constants
(cost, move counts and a digest of every position).  The paper tables
are calibrated on this exact annealing trajectory, so any change to move
evaluation, acceptance or bookkeeping that alters it must show up here,
not as drift in the congestion regimes.  The swap-delta kernel is also
checked directly against its definition, so a wrong delta is caught
where it is computed.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.errors import PlacementError
from repro.fpga import xc7z020
from repro.hls import synthesize
from repro.impl import Annealer, Placement, PlacementOptions, pack_netlist
from repro.kernels import build_kernel
from repro.rtl import generate_netlist

SCALE = 0.3
#: (scale, cost, n_moves, n_accepted, SHA-256 of sorted positions) of
#: the effort="fast", seed-0 placement, per kernel.  The two SCALE pins
#: have 3 and 9 multi-pin nets; full-scale face_detection has 173 among
#: 4,447 nets over 3,042 movable clusters, so it pins the multi-pin
#: path at the size the paper flows run.
TRAJECTORY_PINS = {
    "face_detection": (
        1.0, 1065131.0, 92415, 32806,
        "82a1378c253c443a87084b87a1696f79a00401f5bc3398ddf636f2eff86eeec9",
    ),
    "optical_flow": (
        SCALE, 32266.0, 6367, 4062,
        "f21637f972f781bbb5b610e7d0e790e846f1c371f6f3f19add02ecfb120cdd19",
    ),
    "spam_filter": (
        SCALE, 10824.0, 3179, 1286,
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
    scale, *pin = TRAJECTORY_PINS[name]
    netlist, packing, device = {
        "spam_filter": spam_impl, "optical_flow": flow_impl,
    }.get(name) or _implement(name, scale)
    placement = Annealer(
        netlist, packing, device, PlacementOptions(effort="fast", seed=0),
    ).place()
    digest = hashlib.sha256(
        repr(sorted(placement.positions.items())).encode()
    ).hexdigest()
    assert [placement.cost, placement.n_moves, placement.n_accepted,
            digest] == pin


# -- swap deltas -----------------------------------------------------------

def _proposals(annealer, rng, n_random=200, n_shared=24):
    """Seeded same-kind swap pairs: random ones, then pairs whose two
    ends share a 2-pin net, then pairs that share a multi-pin net."""
    kind = {c.cluster_id: c.kind for c in annealer.packing.clusters
            if c.cluster_id not in annealer._fixed}
    members = {}
    for cid, k in kind.items():
        members.setdefault(k, []).append(cid)
    pools = [v for v in members.values() if len(v) >= 2]
    pairs = [tuple(rng.choice(pools[rng.integers(len(pools))], 2,
                              replace=False))
             for _ in range(n_random)]
    for two_pin in (True, False):
        shared = [
            (p, q) for pins in annealer._net_pins
            if (len(pins) == 2) == two_pin
            for p, q in itertools.combinations(pins, 2)
            if p in kind and kind.get(q) == kind[p]
        ]
        pairs += [shared[i] for i in
                  rng.choice(len(shared), n_shared, replace=False)]
    return np.asarray(pairs, dtype=np.int64).T


def test_swap_deltas_match_the_cost_definition(flow_impl):
    """Every delta equals the full cost after actually swapping minus the
    cost before, and each proposal reports exactly the nets of its two
    ends with their cost after the swap.  Costs are integer-valued, so
    equality is exact."""
    netlist, packing, device = flow_impl
    annealer = Annealer(netlist, packing, device,
                        PlacementOptions(effort="fast", seed=0))
    xs, ys = annealer._initial_placement().coordinate_arrays()
    net_cost = annealer._net_costs(xs, ys)
    a, b = _proposals(annealer, np.random.default_rng(7))
    deltas, (prop_e, net_e, after_e) = annealer._batch_swap_deltas(
        a, b, xs, ys, net_cost)
    assert deltas.shape == a.shape
    for i in range(a.size):
        sx, sy = xs.copy(), ys.copy()
        sx[[a[i], b[i]]] = sx[[b[i], a[i]]]
        sy[[a[i], b[i]]] = sy[[b[i], a[i]]]
        swapped = annealer._net_costs(sx, sy)
        assert deltas[i] == swapped.sum() - net_cost.sum(), (a[i], b[i])
        mine = prop_e == i
        assert np.array_equal(after_e[mine], swapped[net_e[mine]])
        assert sorted(net_e[mine].tolist()) == sorted(
            n for n, pins in enumerate(annealer._net_pins)
            for c in (a[i], b[i]) if c in pins
        )


def test_net_cost_subset_matches_full_costs(flow_impl):
    netlist, packing, device = flow_impl
    annealer = Annealer(netlist, packing, device,
                        PlacementOptions(effort="fast", seed=0))
    xs, ys = annealer.place().coordinate_arrays()
    lens = np.array([len(p) for p in annealer._net_pins])
    nets = np.unique(np.concatenate([
        np.random.default_rng(3).choice(lens.size, 60),
        np.flatnonzero(lens > 2),
    ]))
    assert np.array_equal(annealer._net_costs_subset(nets, xs, ys),
                          annealer._net_costs(xs, ys)[nets])


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
