"""The table front end against the object front end, position by position.

``synthesize`` runs directives, the front-end passes and verification
over the columnar table IR; :func:`repro.hls._reference.reference_front_end`
runs them over IR objects.  For every paper variant, every kernel and
variant, and sampled directive configurations with every knob, the
materialized ``hls.module`` and the transform summary must equal the
reference: uids, names, opcodes, attributes (in key order), locations,
result types, operands (and which values are shared), every value's
``users`` in order, loops, arrays, callees and the top and inline
flags.  Directive errors must raise the same typed errors.
"""

import pytest

from repro.errors import DirectiveError, HLSError
from repro.explore.space import DirectiveSpace
from repro.hls import DirectiveSet, synthesize
from repro.hls._reference import reference_front_end
from repro.ir import Function, I16, IRBuilder, IntType, Module
from repro.kernels import STANDARD_VARIANTS
from repro.kernels.combos import KERNEL_BUILDERS, build_combined, build_kernel
from repro.kernels.face_detection import VARIANTS as FACE_VARIANTS

SCALE = 0.3

PAPER_VARIANTS = (
    ("face_detection", "baseline"),
    ("face_detection", "no_directives"),
    ("face_detection", "not_inline"),
    ("face_detection", "replicate"),
    ("digit_spam", "baseline"),
    ("bnn_render_flow", "baseline"),
    ("bnn_render_flow", "no_directives"),
)
KERNEL_VARIANTS = tuple(
    (name, variant) for name in KERNEL_BUILDERS
    for variant in (FACE_VARIANTS if name == "face_detection"
                    else STANDARD_VARIANTS))
SAMPLES = 3
SAMPLE_SEED = 5


def _value_record(v, op_key):
    return (type(v), v.type, v.name, v.constant,
            None if v.producer is None else op_key(v.producer))


def assert_same_module(got, want):
    """``got`` and ``want`` are the same IR, with values paired by the
    positions they are reached at (so shared values must be shared
    alike) and users compared by op position, in order.  Users outside
    the module (ops of functions inlining dissolved) do not count."""
    assert got.name == want.name
    assert got._top == want._top
    assert list(got.functions) == list(want.functions)
    positions = {}
    for side, module in (("got", got), ("want", want)):
        for name, func in module.functions.items():
            for i, op in enumerate(func.operations):
                positions[(side, id(op))] = (name, i)

    def key(side):
        return lambda op: positions.get((side, id(op)))

    pairs: dict[int, object] = {}
    back: dict[int, object] = {}

    def pair(a, b, where):
        assert pairs.setdefault(id(a), b) is b, where
        assert back.setdefault(id(b), a) is a, where
        assert _value_record(a, key("got")) == \
            _value_record(b, key("want")), where

    for name, f in got.functions.items():
        g = want.functions[name]
        assert (f.name, f.is_top, f.inline, f.callees) == \
            (g.name, g.is_top, g.inline, g.callees), name
        assert list(f.arrays.items()) == list(g.arrays.items()), name
        assert [vars(lp) for lp in f.loops.values()] == \
            [vars(lp) for lp in g.loops.values()], name
        assert len(f.arguments) == len(g.arguments), name
        for a, b in zip(f.arguments, g.arguments):
            pair(a, b, (name, "arg", b.name))
        assert len(f.operations) == len(g.operations), name
        for i, (a, b) in enumerate(zip(f.operations, g.operations)):
            where = (name, i, b.name)
            assert (a.uid, a.name, a.opcode, a.loc) == \
                (b.uid, b.name, b.opcode, b.loc), where
            assert list(a.attrs.items()) == list(b.attrs.items()), where
            assert a.parent is f and f.op(a.uid) is a, where
            assert len(a.operands) == len(b.operands), where
            for x, y in zip(a.operands, b.operands):
                pair(x, y, where)
            assert (a.result is None) == (b.result is None), where
            if a.result is not None:
                pair(a.result, b.result, where)
    in_got = key("got")
    in_want = key("want")
    for a_id, b in pairs.items():
        a = back[id(b)]
        assert [in_got(u) for u in a.users] == \
            [in_want(u) for u in b.users if in_want(u) is not None], \
            ("users", b.name)


def check_parity(module, directives):
    hls = synthesize(module, directives)
    want, summary = reference_front_end(module, directives)
    assert hls.transform_summary == summary
    assert_same_module(hls.module, want)
    return want


@pytest.mark.parametrize("combo,variant", PAPER_VARIANTS)
def test_paper_variants_match_the_object_front_end(combo, variant):
    design = build_combined(combo, scale=SCALE, variant=variant)
    check_parity(design.module, design.directives)


@pytest.mark.parametrize("kernel,variant", KERNEL_VARIANTS)
def test_kernels_match_the_object_front_end(kernel, variant):
    design = build_kernel(kernel, scale=SCALE, variant=variant)
    check_parity(design.module, design.directives)


@pytest.mark.parametrize("combo", ("face_detection", "digit_spam",
                                   "bnn_render_flow"))
def test_sampled_configurations_match_the_object_front_end(combo):
    design = build_combined(combo, scale=SCALE)
    space = DirectiveSpace.around(design)
    kinds = {knob.kind for knob in space.knobs}
    assert {"unroll", "partition"} <= kinds
    for config in space.sample(SAMPLES, seed=SAMPLE_SEED):
        check_parity(design.module, space.apply(config, design.directives))


def _out_of_order_users(module) -> int:
    position = {id(op): (name, i)
                for name, func in module.functions.items()
                for i, op in enumerate(func.operations)}
    count = 0
    seen = set()
    for func in module.functions.values():
        for op in func.operations:
            for v in (*op.operands, op.result):
                if v is None or id(v) in seen:
                    continue
                seen.add(id(v))
                listed = [position[id(u)] for u in v.users
                          if id(u) in position]
                count += listed != sorted(listed)
    return count


def test_out_of_order_users_are_reproduced():
    """Re-pointed uses join the end of their new value's users.  With
    ``gradient_x`` inlined into ``optical_flow_top``, its line-buffer
    loads list ``call_gradient_y`` before the inlined ops that come
    earlier in op order; the table front end lists them the same way
    (RTL orders net sinks by ``users``)."""
    design = build_combined("bnn_render_flow", scale=SCALE)
    space = DirectiveSpace.around(design)
    config = space.sample(SAMPLES, seed=SAMPLE_SEED)[1]
    want = check_parity(design.module, space.apply(config, design.directives))
    assert _out_of_order_users(want) == 4


def test_synthesis_reads_its_input_only():
    design = build_combined("digit_spam", scale=SCALE)
    hls = synthesize(design.module, design.directives)
    for func in hls.module.functions.values():
        for op in func.operations:
            op.attrs["touched"] = True
    again = synthesize(design.module, design.directives)
    assert all("touched" not in op.attrs
               for op in again.module.iter_all_ops())


def _caller_module(*, n_args=1, acc_index=1):
    m = Module("m")
    leaf = Function("leaf")
    m.add_function(leaf)
    lb = IRBuilder(leaf, "t.cpp")
    a = lb.arg("a", I16)
    lb.ret(lb.add(a, a, width=16), line=3)
    top = Function("top", is_top=True)
    m.add_function(top)
    b = IRBuilder(top, "t.cpp")
    x = b.arg("x", I16)
    b.array("buf", I16, (16,))
    with b.loop("L", trip_count=4, line=10):
        v = b.load("buf", [b.const(1)], line=11)
        c = b.call("leaf", [v] * n_args, I16, line=12).result
        acc = b.emit("add", [c, b.const(0, IntType(16))], IntType(16),
                     attrs={"reduce": True, "acc_index": acc_index},
                     line=13).result
        b.store("buf", acc, [b.const(2)], line=14)
    b.write_port(x, acc)
    return m


def _recursive_module():
    m = Module("rec")
    for name, other in (("f", "g"), ("g", "f")):
        fn = Function(name)
        m.add_function(fn)
        b = IRBuilder(fn, "r.cpp")
        a = b.arg("a", I16)
        b.ret(b.call(other, [a], I16).result)
    top = Function("top", is_top=True)
    m.add_function(top)
    b = IRBuilder(top, "r.cpp")
    x = b.arg("x", I16)
    b.write_port(x, b.call("f", [x], I16).result)
    return m


@pytest.mark.parametrize("case,error", [
    ("recursive inlining", HLSError),
    ("unknown function", DirectiveError),
    ("unknown loop", DirectiveError),
    ("call arity", HLSError),
    ("acc_index out of range", HLSError),
])
def test_directive_errors_match_the_object_front_end(case, error):
    if case == "recursive inlining":
        module = _recursive_module()
        directives = DirectiveSet().inline("f").inline("g")
    elif case == "unknown function":
        module = _caller_module()
        directives = DirectiveSet().inline("missing")
    elif case == "unknown loop":
        module = _caller_module()
        directives = DirectiveSet().unroll("top", "missing", 2)
    elif case == "call arity":
        module = _caller_module(n_args=2)
        directives = DirectiveSet().inline("leaf")
    else:
        module = _caller_module(acc_index=5)
        directives = DirectiveSet().unroll("top", "L", 2)
    with pytest.raises(error) as want:
        reference_front_end(module, directives)
    with pytest.raises(error) as got:
        synthesize(module, directives)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_small_design_with_every_directive_matches():
    module = _caller_module()
    directives = (DirectiveSet().inline("leaf").unroll("top", "L", 0)
                  .partition("top", "buf", 4).pipeline("top", "L", 2))
    check_parity(module, directives)


def test_source_users_order_is_kept():
    """A source value whose users are listed out of op order (a use
    re-pointed after the module was built) keeps that order, and users
    outside the module are dropped, as ``Module.copy`` drops them."""
    module = Module("m")
    top = Function("top", is_top=True)
    module.add_function(top)
    b = IRBuilder(top, "t.cpp")
    x = b.arg("x", I16)
    c = b.const(3, I16)
    first = b.add(c, c, width=16)
    second = b.add(x, x, width=16)
    third = b.add(second, x, width=16)
    b.write_port(x, first)
    b.write_port(x, third)
    first.producer.replace_operand(c, x)
    stray = Function("stray")
    IRBuilder(stray, "s.cpp").add(x, x, width=16)   # not in the module
    assert [u.name for u in x.users] == [
        "add1", "add1", "add2", "add", "add", "add", "add"]
    want = check_parity(module, None)
    assert [u.name for u in want.functions["top"].arguments[0].users] == [
        "add1", "add1", "add2", "add", "add"]
