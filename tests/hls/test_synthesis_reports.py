from repro.hls import DirectiveSet, synthesize
from repro.ir import Function, I16, IRBuilder, IntType, Module
from repro.ir.verify import verify_module


def design():
    m = Module("m")
    g = Function("helper")
    m.add_function(g)
    gb = IRBuilder(g, "d.cpp")
    a = gb.arg("a", I16)
    s = gb.mul(a, a, width=16)
    gb.ret(s)

    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f, "d.cpp")
    x = b.arg("x", I16)
    b.array("mem", I16, (128,))
    with b.loop("L", trip_count=16, line=5):
        v = b.load("mem", [b.const(1)], line=6)
        h = b.call("helper", [v], I16, line=7).result
        acc = b.emit(
            "add", [h, b.const(0, IntType(16))], IntType(16),
            attrs={"reduce": True, "acc_index": 1}, line=8,
        ).result
        b.store("mem", acc, [b.const(2)], line=9)
    b.write_port(x, x)
    return m


def test_synthesize_produces_consistent_result():
    hls = synthesize(design())
    verify_module(hls.module)
    assert set(hls.reports) == set(hls.module.functions)
    assert hls.latency_cycles >= 16
    top = hls.top_report
    assert top.n_states >= 1
    assert top.resources["LUT"] >= 0
    assert top.target_clock_ns == 10.0


def test_hierarchical_rollup_includes_callee():
    m = design()
    hls = synthesize(m)
    top = hls.reports["top"]
    helper = hls.reports["helper"]
    for kind in ("LUT", "FF", "DSP"):
        assert top.hierarchical_resources[kind] >= top.resources[kind]
    assert (
        top.hierarchical_resources["DSP"]
        == top.resources["DSP"] + helper.hierarchical_resources["DSP"]
    )


def test_synthesize_with_directives_changes_design():
    m1 = design()
    plain = synthesize(m1)
    m2 = design()
    d = DirectiveSet("opt").inline("helper").unroll("top", "L", 4)
    d.partition("top", "mem", 4)
    opt = synthesize(m2, d)
    assert opt.latency_cycles < plain.latency_cycles
    assert opt.module.n_ops() > plain.module.n_ops()
    assert opt.transform_summary["unrolled_ops"] > 0


def test_memory_summary_in_report():
    m = design()
    hls = synthesize(m)
    mem = hls.reports["top"].memories
    assert mem.words == 128
    assert mem.banks == 1
    assert mem.primitives == 128 * 16


def test_mux_summary_counts():
    m = Module("m")
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    x = b.arg("x", I16)
    v = x
    for _ in range(5):
        v = b.mul(v, x, width=16)  # chained -> shared -> muxes
    b.write_port(x, v)
    hls = synthesize(m)
    assert hls.reports["top"].muxes.count > 0
    assert hls.total_muxes() == hls.reports["top"].muxes.count
    assert hls.reports["top"].muxes.mean_inputs > 1


def test_estimated_clock_reasonable():
    m = design()
    hls = synthesize(m)
    est = hls.reports["top"].estimated_clock_ns
    assert 0 < est <= 12.0


def test_allow_sharing_false_increases_units():
    m1, m2 = design(), design()
    shared = synthesize(m1)
    unshared = synthesize(m2, allow_sharing=False)
    n_units = lambda h: sum(len(b.units) for b in h.bindings.values())
    assert n_units(unshared) >= n_units(shared)
