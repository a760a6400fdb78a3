import numpy as np
import pytest

from repro.backtrace import Backtracer
from repro.errors import BacktraceError
from repro.fpga import small_test_device
from repro.hls import synthesize
from repro.impl import PlacementOptions, pack_netlist, place_netlist, route_design
from repro.rtl import generate_netlist
from tests.conftest import build_tiny_module


@pytest.fixture
def traced():
    hls = synthesize(build_tiny_module())
    module = hls.module
    nl = generate_netlist(hls)
    dev = small_test_device()
    pk = pack_netlist(nl, dev)
    pl = place_netlist(nl, pk, dev, PlacementOptions(seed=0))
    cm = route_design(nl, pk, pl, dev)
    tracer = Backtracer(hls, nl, pk, pl, cm)
    return module, tracer, tracer.label_operations(), cm


def test_every_op_gets_labeled(traced):
    module, tracer, result, cm = traced
    labeled = set(result.op_uid.tolist())
    all_uids = {op.uid for op in module.iter_all_ops()}
    assert labeled == all_uids


def test_labels_in_congestion_range(traced):
    module, tracer, result, cm = traced
    hi_v = cm.vertical.max() + 1
    hi_h = cm.horizontal.max() + 1
    assert np.all((0 <= result.vertical) & (result.vertical <= hi_v))
    assert np.all((0 <= result.horizontal) & (result.horizontal <= hi_h))
    assert np.allclose(result.average,
                       0.5 * (result.vertical + result.horizontal))


def test_callee_ops_have_one_label_per_instance(traced):
    module, tracer, result, cm = traced
    square = module.functions["square"]
    mul = square.ops_of("mul")[0]
    cells = result.cell[result.op_uid == mul.uid]
    assert len(cells) == 1  # one call site -> one instance
    assert tracer.netlist.cell(int(cells[0])).instance.startswith(
        "top/square")


def test_label_of_rejects_multi_instance():
    from repro.hls import DirectiveSet

    hls = synthesize(build_tiny_module(),
                     DirectiveSet("u").unroll("top", "L", 3))
    module = hls.module
    nl = generate_netlist(hls)
    dev = small_test_device()
    pk = pack_netlist(nl, dev)
    pl = place_netlist(nl, pk, dev, PlacementOptions(seed=0))
    cm = route_design(nl, pk, pl, dev)
    result = Backtracer(hls, nl, pk, pl, cm).label_operations()
    square = module.functions["square"]
    mul = square.ops_of("mul")[0]
    assert np.count_nonzero(result.op_uid == mul.uid) == 3
    with pytest.raises(BacktraceError):
        result.label_of(mul.uid)
    top_op = module.top.operations[0]
    assert result.op_uid[result.label_of(top_op.uid)] == top_op.uid


def test_forward_trace_tile_to_ops(traced):
    module, tracer, result, cm = traced
    x, y = tracer.placement.tiles_of_cell(tracer.packing,
                                          int(result.cell[0]))[0]
    ops = tracer.ops_in_tile(x, y)
    assert any(op.uid == result.op_uid[0] for op in ops)


def test_hottest_tiles_sorted(traced):
    module, tracer, result, cm = traced
    top3 = tracer.hottest_tiles(3)
    values = [v for _, _, v in top3]
    assert values == sorted(values, reverse=True)
    with pytest.raises(BacktraceError):
        tracer.hottest_tiles(3, metric="bogus")


def test_congestion_by_source_line(traced):
    module, tracer, result, cm = traced
    by_line = tracer.congestion_by_source_line(result)
    assert by_line
    for (file, line), entry in by_line.items():
        assert file == "tiny.cpp"
        assert entry["samples"] >= 1
        assert entry["average"] <= max(
            entry["vertical"], entry["horizontal"]
        ) + 1e-9


def test_window_smoothing_reduces_extremes(traced):
    module, tracer, result, cm = traced
    sharp = tracer.label_operations(window_radius=0)
    smooth = tracer.label_operations(window_radius=3)
    assert smooth.vertical.max() <= sharp.vertical.max() + 1e-9
