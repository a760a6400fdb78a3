import pytest

from repro.errors import RTLError
from repro.rtl import Netlist


def test_add_cell_and_net():
    nl = Netlist("d")
    a = nl.add_cell("a", "fu", lut=4, op_uids=(1, 2))
    b = nl.add_cell("b", "fu", ff=8)
    net = nl.add_net("n", a.cell_id, [b.cell_id], 16)
    assert net.width == 16
    assert net.n_pins == 2
    assert nl.cells_of_op[1] == [a.cell_id]
    assert nl.n_cells() == 2 and nl.n_nets() == 1


def test_net_dedups_sinks_and_drops_self_loops():
    nl = Netlist("d")
    a = nl.add_cell("a", "fu", lut=1)
    b = nl.add_cell("b", "fu", lut=1)
    net = nl.add_net("n", a.cell_id, [b.cell_id, b.cell_id, a.cell_id], 4)
    assert net.sinks == (b.cell_id,)
    assert nl.add_net("self", a.cell_id, [a.cell_id], 4) is None


def test_net_validates_endpoints():
    nl = Netlist("d")
    a = nl.add_cell("a", "fu", lut=1)
    with pytest.raises(RTLError):
        nl.add_net("n", a.cell_id, [99], 4)
    with pytest.raises(RTLError):
        nl.add_net("n", 99, [a.cell_id], 4)


def test_cell_kind_validation():
    nl = Netlist("d")
    with pytest.raises(RTLError):
        nl.add_cell("x", "alien")


def test_port_cells_not_placeable():
    nl = Netlist("d")
    p = nl.add_cell("p", "port")
    zero = nl.add_cell("z", "fu")
    real = nl.add_cell("r", "fu", lut=1)
    assert not p.is_placeable
    assert not zero.is_placeable
    assert real.is_placeable
    assert nl.placeable_cells() == [real]
    assert nl.port_cells() == [p]


def test_stats_and_index():
    nl = Netlist("d")
    a = nl.add_cell("a", "fu", lut=2)
    b = nl.add_cell("b", "fu", ff=4)
    c = nl.add_cell("c", "mux", lut=1)
    nl.add_net("n1", a.cell_id, [b.cell_id], 8)
    nl.add_net("n2", a.cell_id, [b.cell_id, c.cell_id], 4)
    assert sum(n.width for n in nl.nets) == 12
    assert sum(n.n_pins for n in nl.nets) == 5
    index = nl.nets_of_cell()
    assert sorted(index[a.cell_id]) == [0, 1]
