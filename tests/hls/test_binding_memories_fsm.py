import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BindingError
from repro.hls import (
    Binder,
    Scheduler,
    bind_module,
    generate_fsm,
    is_shareable,
    map_array,
    map_function_memories,
    DEFAULT_LIBRARY,
)
from repro.hls.tableir import lower_module
from repro.ir import ArrayDecl, ArrayType, Function, I16, I32, IRBuilder, Module


def sequential_muls_module(n=6):
    """n multiplies forced into disjoint states by a dependence chain."""
    m = Module("m")
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    x = b.arg("x", I16)
    v = x
    for _ in range(n):
        v = b.mul(v, x, width=16)
    b.write_port(x, v)
    return m, f


def scheduled(m):
    """The top function's record in ``m``'s table IR, and the module
    schedule."""
    t = lower_module(m)
    return t.functions["top"], Scheduler().schedule_module(t)


def test_sequential_muls_share_one_unit():
    m, f = sequential_muls_module()
    top, sched = scheduled(m)
    binding = Binder().bind_function(top, sched.for_function("top"))
    mul_units = [u for u in binding.units if u.opcode == "mul"]
    assert len(mul_units) == 1
    assert mul_units[0].n_ops == 6
    assert binding.shared_groups() == [mul_units[0].op_uids]


def test_shared_units_never_overlap_in_time():
    m, f = sequential_muls_module(8)
    top, sched = scheduled(m)
    sched = sched.for_function("top")
    binding = Binder().bind_function(top, sched)
    for unit in binding.units:
        intervals = sorted(
            (sched.start_of(u),
             max(sched.start_of(u), sched.end_of(u) - 1))
            for u in unit.op_uids
        )
        for (s1, busy1), (s2, busy2) in zip(intervals, intervals[1:]):
            assert busy1 < s2, "shared unit double-booked"


def test_sharing_disabled_gives_unit_per_op():
    m, f = sequential_muls_module()
    top, sched = scheduled(m)
    binding = Binder().bind_function(
        top, sched.for_function("top"), allow_sharing=False
    )
    mul_units = [u for u in binding.units if u.opcode == "mul"]
    assert len(mul_units) == 6


def test_shared_unit_gets_input_muxes():
    m, f = sequential_muls_module()
    top, sched = scheduled(m)
    binding = Binder().bind_function(top, sched.for_function("top"))
    fu_muxes = [mx for mx in binding.muxes if mx.reason == "fu_input"]
    assert len(fu_muxes) == 2  # one per operand port
    assert all(mx.n_inputs == 6 for mx in fu_muxes)
    assert binding.mux_lut_total() > 0


def test_pipelined_ops_not_shared():
    m = Module("m")
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    x = b.arg("x", I16)
    with b.loop("L", trip_count=4):
        v = b.mul(x, x, width=16)
        b.mul(v, x, width=16)
    f.loops["L"].pipelined = True
    top, sched = scheduled(m)
    binding = Binder().bind_function(top, sched.for_function("top"))
    mul_units = [u for u in binding.units if u.opcode == "mul"]
    assert all(u.n_ops == 1 for u in mul_units)


def test_unit_of_unknown_op_raises():
    m, f = sequential_muls_module()
    top, sched = scheduled(m)
    binding = Binder().bind_function(top, sched.for_function("top"))
    with pytest.raises(BindingError):
        binding.unit_of(10**9)


def test_is_shareable_policy():
    lib = DEFAULT_LIBRARY
    assert is_shareable(lib.characterize("mul", 18))       # DSP
    assert is_shareable(lib.characterize("sdiv", 16))      # multi-cycle
    assert is_shareable(lib.characterize("fdiv", 32))      # huge
    assert not is_shareable(lib.characterize("add", 8))    # trivial


def test_every_op_is_bound():
    m, f = sequential_muls_module()
    t = lower_module(m)
    bindings = bind_module(t, Scheduler().schedule_module(t))
    for op in f.operations:
        assert bindings["top"].unit_of(op.uid) is not None


# ---------------------------------------------------------------------------
# memories
# ---------------------------------------------------------------------------
def test_map_array_bram_vs_lutram_vs_reg():
    small = ArrayDecl("s", ArrayType(I16, (16,)))           # 256b -> lutram
    big = ArrayDecl("b", ArrayType(I32, (2048,)))           # 64Kb -> bram
    regs = ArrayDecl("r", ArrayType(I16, (8,)), partition=8)
    assert map_array(small)[0].kind == "lutram"
    assert map_array(big)[0].kind == "bram"
    assert map_array(big)[0].bram18 >= 4
    reg_banks = map_array(regs)
    assert all(b.kind == "reg" for b in reg_banks)
    assert len(reg_banks) == 8


def test_map_array_partition_splits_banks():
    decl = ArrayDecl("p", ArrayType(I16, (256,)), partition=4)
    banks = map_array(decl)
    assert len(banks) == 4
    assert all(b.words == 64 for b in banks)


def test_memory_map_totals():
    m = Module("m")
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    b.array("a", I16, (64,), partition=2)
    mm = map_function_memories(f)
    assert mm.n_banks == 2
    assert mm.total_words == 64
    assert mm.total_primitives == 64 * 16


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(1, 4096),
    bits=st.integers(1, 64),
    partition=st.integers(1, 64),
)
def test_memory_mapping_conserves_words(length, bits, partition):
    """Property: banks always cover at least the declared elements."""
    from repro.ir.types import IntType

    decl = ArrayDecl("a", ArrayType(IntType(bits), (length,)),
                     partition=min(partition, length))
    banks = map_array(decl)
    assert sum(b.words for b in banks) >= length
    assert all(b.bits == bits for b in banks)


# ---------------------------------------------------------------------------
# fsm
# ---------------------------------------------------------------------------
def test_fsm_one_hot_and_binary():
    from repro.hls.scheduling import FunctionSchedule

    small = FunctionSchedule(function="f", n_states=8)
    big = FunctionSchedule(function="g", n_states=500)
    fsm_small = generate_fsm(small)
    fsm_big = generate_fsm(big)
    assert fsm_small.encoding == "one_hot" and fsm_small.ff == 8
    assert fsm_big.encoding == "binary" and fsm_big.ff == 9
