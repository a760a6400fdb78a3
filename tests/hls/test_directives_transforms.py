import pytest

from repro.errors import DirectiveError, HLSError
from repro.hls import DirectiveSet, apply_directives, inline_functions, unroll_loop
from repro.ir import (
    Function,
    I16,
    IRBuilder,
    IntType,
    Module,
    verify_module,
)


def module_with_callee():
    m = Module("m")
    g = Function("leaf")
    m.add_function(g)
    gb = IRBuilder(g, "t.cpp")
    a = gb.arg("a", I16)
    bq = gb.arg("b", I16)
    s = gb.mul(a, bq, line=3)
    gb.ret(s, line=4)

    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f, "t.cpp")
    x = b.arg("x", I16)
    b.array("buf", I16, (32,))
    with b.loop("L", trip_count=8, line=10):
        v = b.load("buf", [b.const(2)], line=11)
        c = b.call("leaf", [v, x], I16, line=12).result
        acc = b.emit(
            "add", [c, b.const(0, IntType(16))], IntType(16),
            attrs={"reduce": True, "acc_index": 1}, line=13,
        ).result
        b.store("buf", acc, [b.const(3)], line=14)
    b.write_port(x, x)
    return m, f, g


def test_directive_validation_errors():
    m, f, g = module_with_callee()
    with pytest.raises(DirectiveError):
        DirectiveSet().inline("missing").validate(m)
    with pytest.raises(DirectiveError):
        DirectiveSet().unroll("top", "missing", 2).validate(m)
    with pytest.raises(DirectiveError):
        DirectiveSet().partition("top", "missing", 2).validate(m)
    with pytest.raises(DirectiveError):
        DirectiveSet().inline("top").validate(m)  # cannot inline top


def test_directive_set_builders():
    d = DirectiveSet("x").inline("f").unroll("f", "l", 4).pipeline("f", "l")
    d.partition("f", "a", 2)
    assert d.n_directives() == 4
    assert not d.is_empty()
    assert DirectiveSet().is_empty()


def test_directive_key_round_trip():
    d = DirectiveSet("x").inline("f").unroll("f", "l", 4).pipeline("f", "l", 2)
    d.partition("f", "a", 2).partition("f", "b", 0)
    key = d.to_key()
    rebuilt = DirectiveSet.from_key(key, name="rebuilt")
    assert rebuilt.to_key() == key
    assert rebuilt.n_directives() == d.n_directives()
    assert {u.loop for u in rebuilt.unrolls} == {"l"}
    # the display name is not part of the identity
    assert DirectiveSet("other").unroll("f", "l", 4).to_key() == \
        DirectiveSet("x").unroll("f", "l", 4).to_key()


def test_directive_key_is_order_canonical():
    a = (DirectiveSet("a").unroll("f", "l1", 2).unroll("f", "l0", 4)
         .inline("g").inline("f").partition("f", "z", 2)
         .partition("f", "a", 0))
    b = (DirectiveSet("b").partition("f", "a", 0).partition("f", "z", 2)
         .inline("f").inline("g").unroll("f", "l0", 4).unroll("f", "l1", 2))
    assert a.to_key() == b.to_key()
    # different factor => different key
    c = DirectiveSet("c").unroll("f", "l0", 8).unroll("f", "l1", 2)
    c.inline("g").inline("f").partition("f", "z", 2).partition("f", "a", 0)
    assert c.to_key() != a.to_key()


def test_directive_key_rejects_malformed():
    with pytest.raises(DirectiveError):
        DirectiveSet.from_key(("not-directives", (), (), (), ()))
    with pytest.raises(DirectiveError):
        DirectiveSet.from_key(("directives", (), ()))
    with pytest.raises(DirectiveError):
        DirectiveSet.from_key(("directives", (), ((("f",),),), (), ()))
    # validity constraints still apply through from_key
    with pytest.raises(DirectiveError):
        DirectiveSet.from_key(
            ("directives", (), (("f", "l", -1),), (), ())
        )


def test_directive_copy_is_independent():
    d = DirectiveSet("x").unroll("f", "l", 4)
    c = d.copy("y")
    c.unroll("f", "l2", 2)
    assert d.n_directives() == 1
    assert c.n_directives() == 2
    assert c.name == "y"


def test_inline_splices_body_and_removes_call():
    m, f, g = module_with_callee()
    added = inline_functions(m, {"leaf"})
    assert added == 1  # mul only; ret dissolves
    verify_module(m)
    assert not f.ops_of("call")
    assert "leaf" not in m.functions
    inlined = [op for op in f.operations if op.attrs.get("inlined_from") == "leaf"]
    assert len(inlined) == 1
    assert inlined[0].opcode == "mul"
    # the inlined op joined the surrounding loop
    assert inlined[0].uid in f.loops["L"].op_uids


def test_inline_keeps_callee_source_locations():
    m, f, g = module_with_callee()
    inline_functions(m, {"leaf"})
    mul = next(op for op in f.operations if op.opcode == "mul")
    assert mul.loc.line == 3  # callee line, not call-site line


def test_unroll_replicates_and_groups():
    m, f, g = module_with_callee()
    inline_functions(m, {"leaf"})
    body_size = len(f.loops["L"].op_uids)
    added = unroll_loop(f, "L", 4, uids=m.fresh_uids())
    verify_module(m)
    assert added == body_size * 3
    groups = {}
    for op in f.operations:
        grp = op.attrs.get("unroll_group")
        if grp:
            groups.setdefault(grp, []).append(op.attrs["replica_index"])
    assert groups
    for replicas in groups.values():
        assert sorted(replicas) == [0, 1, 2, 3]
    assert f.loops["L"].trip_count == 2


def test_unroll_chains_reductions_and_redirects_consumer():
    m, f, g = module_with_callee()
    inline_functions(m, {"leaf"})
    acc_ops = [op for op in f.operations if op.attrs.get("reduce")]
    assert len(acc_ops) == 1
    unroll_loop(f, "L", 0, uids=m.fresh_uids())  # complete
    verify_module(m)
    chain = [op for op in f.operations if op.attrs.get("reduce")]
    assert len(chain) == 8
    # replica r consumes replica r-1's value
    for prev, cur in zip(chain, chain[1:]):
        assert prev.result in cur.operands
    assert f.loops["L"].trip_count == 1


def test_unroll_shifts_constant_memory_indices():
    m, f, g = module_with_callee()
    unroll_loop(f, "L", 2, uids=m.fresh_uids())
    loads = f.ops_of("load")
    indices = sorted(op.operands[0].constant for op in loads)
    assert indices == [2, 3]


def test_apply_directives_full_stack():
    m, f, g = module_with_callee()
    d = DirectiveSet("opt").inline("leaf").unroll("top", "L", 2)
    d.partition("top", "buf", 4).pipeline("top", "L", 1)
    summary = apply_directives(m, d)
    verify_module(m)
    assert summary["inlined_ops"] == 1
    assert summary["unrolled_ops"] > 0
    assert f.arrays["buf"].partition == 4
    assert f.loops["L"].pipelined


def test_recursive_inline_cycle_detected():
    m = Module("m")
    a = Function("a")
    b_f = Function("b")
    m.add_function(a)
    m.add_function(b_f)
    top = Function("top", is_top=True)
    m.add_function(top)
    ab = IRBuilder(a)
    x = ab.arg("x", I16)
    ab.call("b", [x], I16)
    ab.ret(x)
    bb = IRBuilder(b_f)
    y = bb.arg("y", I16)
    bb.call("a", [y], I16)
    bb.ret(y)
    with pytest.raises(HLSError, match="recursive"):
        inline_functions(m, {"a", "b"})
