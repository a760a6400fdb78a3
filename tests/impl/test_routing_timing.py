import numpy as np
import pytest

from repro.errors import RoutingError
from repro.fpga import small_test_device
from repro.impl import (
    CongestionMap,
    GlobalRouter,
    PlacementOptions,
    TimingAnalyzer,
    pack_netlist,
    place_netlist,
    route_design,
)
from repro.rtl import Netlist


def placed_toy(n=16, width=8):
    dev = small_test_device()
    nl = Netlist("toy")
    cells = [nl.add_cell(f"c{i}", "fu", lut=4, ff=4) for i in range(n)]
    for i in range(n - 1):
        nl.add_net(f"n{i}", cells[i].cell_id, [cells[i + 1].cell_id], width)
    packing = pack_netlist(nl, dev)
    placement = place_netlist(nl, packing, dev, PlacementOptions(seed=0))
    return dev, nl, packing, placement


def test_congestion_map_shapes_and_ranges():
    dev, nl, packing, placement = placed_toy()
    cm = route_design(nl, packing, placement, dev)
    assert cm.vertical.shape == dev.shape
    assert cm.horizontal.shape == dev.shape
    assert cm.max_vertical() >= 0
    assert np.all(cm.vertical >= 0)
    v, h = cm.at(1, 1)
    assert v >= 0 and h >= 0


def test_average_map_is_mean_of_directions():
    dev, nl, packing, placement = placed_toy()
    cm = route_design(nl, packing, placement, dev)
    assert np.allclose(cm.average, 0.5 * (cm.vertical + cm.horizontal))


def test_wider_nets_create_more_demand():
    dev, nl8, pk8, pl8 = placed_toy(width=4)
    _, nl32, pk32, pl32 = placed_toy(width=32)
    cm8 = route_design(nl8, pk8, pl8, dev)
    cm32 = route_design(nl32, pk32, pl32, dev)
    assert cm32.v_demand.sum() > cm8.v_demand.sum()


def test_flat_edge_demand_stays_on_one_row():
    dev = small_test_device()
    v = np.zeros(dev.shape)
    h = np.zeros(dev.shape)
    GlobalRouter._add_edge_demand(v, h, 2, 5, 9, 5, 10)
    assert h[5, 2:10].sum() == pytest.approx(80.0)
    assert v.sum() == 0


def test_bbox_edge_demand_conserved():
    dev = small_test_device()
    v = np.zeros(dev.shape)
    h = np.zeros(dev.shape)
    GlobalRouter._add_edge_demand(v, h, 1, 1, 6, 9, 12)
    # horizontal demand: width x (columns traversed), spread over rows
    assert h.sum() == pytest.approx(6 * 12)
    assert v.sum() == pytest.approx(9 * 12)
    # demand confined to the bounding box
    assert h[0, :].sum() == 0 and h[:, 0].sum() == 0


def test_spanning_edges_connect_all_pins():
    pins = [(0, 0), (5, 1), (2, 7), (9, 9), (3, 3)]
    edges = GlobalRouter._spanning_edges(pins)
    assert len(edges) == len(pins) - 1
    seen = {pins[0]}
    for a, b in edges:
        assert a in seen or b in seen
        seen.update([a, b])
    assert seen == set(pins)


def test_congested_count_threshold():
    dev = small_test_device()
    v = np.zeros(dev.shape)
    h = np.zeros(dev.shape)
    v[3, 3] = dev.v_tracks * 1.5  # 150%
    cm = CongestionMap(dev, v, h)
    assert cm.n_congested(100.0) == 1
    assert cm.n_congested(200.0) == 0


def test_congestion_map_validates_shape():
    dev = small_test_device()
    with pytest.raises(RoutingError):
        CongestionMap(dev, np.zeros((2, 2)), np.zeros(dev.shape))


def test_render_ascii_and_metrics():
    dev, nl, packing, placement = placed_toy()
    cm = route_design(nl, packing, placement, dev)
    art = cm.render_ascii("vertical")
    assert "congestion map" in art
    with pytest.raises(RoutingError):
        cm.render_ascii("diagonal")


def test_margin_center_stats_keys():
    dev, nl, packing, placement = placed_toy()
    cm = route_design(nl, packing, placement, dev)
    stats = cm.margin_center_stats()
    assert set(stats) == {
        "margin_mean_v", "center_mean_v", "margin_mean_h", "center_mean_h",
    }


def test_margin_center_stats_empty_center_is_finite():
    """A margin ring that swallows the whole die must not NaN out."""
    import warnings

    dev = small_test_device()
    v = np.full(dev.shape, 50.0)
    h = np.full(dev.shape, 30.0)
    cm = CongestionMap(dev, v * dev.v_tracks / 100.0,
                       h * dev.h_tracks / 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # RuntimeWarning -> failure
        stats = cm.margin_center_stats(fraction=0.6)
    assert all(np.isfinite(val) for val in stats.values())
    assert stats["margin_mean_v"] == pytest.approx(50.0)
    assert stats["center_mean_v"] == 0.0


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------
def test_wire_delay_monotone_in_congestion_and_distance():
    ta = TimingAnalyzer()
    assert ta.wire_delay(10, 50) < ta.wire_delay(10, 120)
    assert ta.wire_delay(5, 80) < ta.wire_delay(15, 80)
    assert ta.wire_delay(0, 200) == 0.0


def test_timing_report_fields():
    dev, nl, packing, placement = placed_toy()
    cm = route_design(nl, packing, placement, dev)
    report = TimingAnalyzer().analyze(
        nl, packing, placement, cm,
        logic_delay_ns=6.0, target_period_ns=10.0, uncertainty_ns=1.25,
    )
    assert report.achieved_period_ns >= 6.0
    assert report.wns_ns == pytest.approx(
        10.0 - report.achieved_period_ns
    )
    assert report.max_frequency_mhz == pytest.approx(
        1000.0 / report.achieved_period_ns
    )
    assert isinstance(report.meets_timing, bool)


def test_congestion_raises_achieved_period():
    dev, nl, packing, placement = placed_toy()
    cm_low = route_design(nl, packing, placement, dev)
    hot_v = cm_low.v_demand + dev.v_tracks * 1.5
    hot = CongestionMap(dev, hot_v, cm_low.h_demand + dev.h_tracks * 1.5)
    ta = TimingAnalyzer()
    rep_low = ta.analyze(nl, packing, placement, cm_low,
                         logic_delay_ns=5, target_period_ns=10,
                         uncertainty_ns=1)
    rep_hot = ta.analyze(nl, packing, placement, hot,
                         logic_delay_ns=5, target_period_ns=10,
                         uncertainty_ns=1)
    assert rep_hot.achieved_period_ns > rep_low.achieved_period_ns
