from collections import Counter

from repro.hls import DirectiveSet, synthesize
from repro.rtl import generate_netlist
from repro.rtl._reference import consumed_bits
from repro.ir import Function, I32, IRBuilder, Module
from tests.conftest import build_tiny_module


def test_every_op_maps_to_cells(tiny_hls, tiny_netlist):
    module = tiny_hls.module
    for func in module.functions.values():
        for op in func.operations:
            assert op.uid in tiny_netlist.cells_of_op


def test_call_sites_create_instances():
    m = build_tiny_module()
    d = DirectiveSet("u").unroll("top", "L", 3)
    hls = synthesize(m, d)
    nl = generate_netlist(hls)
    instances = {c.instance for c in nl.cells}
    # 6-trip loop unrolled by 3 -> 3 call sites -> 3 square instances
    assert sum(1 for i in instances if i.startswith("top/square")) == 3


def test_port_cells_created_for_top_arguments(tiny_netlist):
    ports = tiny_netlist.port_cells()
    assert {p.name for p in ports} == {"port/x", "port/y"}


def test_fsm_cell_per_instance(tiny_netlist):
    kinds = Counter(c.kind for c in tiny_netlist.cells)
    instances = {c.instance for c in tiny_netlist.cells if c.kind == "fsm"}
    assert kinds["fsm"] == len(instances)


def test_value_nets_reference_source_ops(tiny_hls, tiny_netlist):
    sourced = [n for n in tiny_netlist.nets if n.source_op is not None]
    assert sourced
    module = tiny_hls.module
    for net in sourced:
        op = module.find_op(net.source_op)
        assert op.result is not None


def test_memory_nets_connect_banks(tiny_netlist):
    mem_cells = {c.cell_id for c in tiny_netlist.cells if c.kind == "mem"}
    assert mem_cells
    touching = [
        n for n in tiny_netlist.nets
        if set(n.endpoints()) & mem_cells
    ]
    assert touching


def test_consumed_bits_rules():
    m = Module("m")
    f = Function("t", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    x = b.arg("x", I32)
    t = b.trunc(x, 8)
    assert consumed_bits(x, t.producer) == 8
    z = b.zext(t, 32)
    assert consumed_bits(t, z.producer) == 8
    s = b.add(x, x)
    assert consumed_bits(x, s.producer) == 32
    narrow = b.add(t, t, width=8)
    assert consumed_bits(t, narrow.producer) == 8


def test_netlist_resource_totals_close_to_report(tiny_hls, tiny_netlist):
    lut = sum(c.lut for c in tiny_netlist.cells)
    report_total = sum(
        r.resources["LUT"] for r in tiny_hls.reports.values()
    )
    # netlist duplicates callee instances per call site, so >= report;
    # both must be positive and within an order of magnitude
    assert lut > 0
    assert lut < report_total * 20
