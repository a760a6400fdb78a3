import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.hls import ClockConstraint, Scheduler
from repro.hls.tableir import lower_module
from repro.ir import Function, I16, I32, IRBuilder, Module


def test_clock_constraint_validation():
    with pytest.raises(SchedulingError):
        ClockConstraint(period_ns=0)
    with pytest.raises(SchedulingError):
        ClockConstraint(period_ns=5, uncertainty_ns=5)
    assert ClockConstraint(10, 1.25).budget_ns == pytest.approx(8.75)


def simple_module():
    m = Module("m")
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    return m, f, b


def test_dependences_respected():
    m, f, b = simple_module()
    x = b.arg("x", I16)
    s = b.add(x, x)
    p = b.mul(s, s)       # multi-cycle at width 16
    q = b.add(p, s)
    sched = Scheduler().schedule_module(lower_module(m)).for_function("top")
    for op in f.operations:
        for producer in op.predecessors():
            assert sched.start_of(op.uid) >= sched.end_of(producer.uid)


def test_chaining_packs_small_ops_into_one_state():
    m, f, b = simple_module()
    x = b.arg("x", I16)
    a = b.add(x, x)
    c = b.add(a, x)
    d = b.add(c, x)
    sched = Scheduler().schedule_module(lower_module(m)).for_function("top")
    # three small adds chain into the same control state
    assert sched.start_of(a.producer.uid) == sched.start_of(d.producer.uid)


def test_chain_breaks_when_budget_exceeded():
    m, f, b = simple_module()
    x = b.arg("x", I32)
    value = x
    for _ in range(12):  # 12 x ~2ns adds cannot fit one 8.75ns state
        value = b.add(value, x)
    sched = Scheduler().schedule_module(lower_module(m)).for_function("top")
    assert sched.n_states > 1


def test_memory_port_contention_serializes():
    m, f, b = simple_module()
    x = b.arg("x", I16)
    b.array("a", I16, (64,))  # one bank, two ports
    loads = [b.load("a", [b.const(i)]) for i in range(6)]
    sched = Scheduler().schedule_module(lower_module(m)).for_function("top")
    starts = sorted(sched.start_of(v.producer.uid) for v in loads)
    # at most 2 loads per state
    from collections import Counter
    assert max(Counter(starts).values()) <= 2


def test_partitioned_memory_allows_parallel_access():
    m, f, b = simple_module()
    x = b.arg("x", I16)
    b.array("a", I16, (64,), partition=8)
    loads = [b.load("a", [b.const(i)]) for i in range(6)]
    sched = Scheduler().schedule_module(lower_module(m)).for_function("top")
    starts = {sched.start_of(v.producer.uid) for v in loads}
    assert len(starts) == 1  # all in the same state


def test_loop_latency_multiplies_by_trip_count():
    m, f, b = simple_module()
    x = b.arg("x", I16)
    with b.loop("L", trip_count=10):
        v = b.add(x, x)
        b.mul(v, v)
    sched = Scheduler().schedule_module(lower_module(m)).for_function("top")
    assert sched.latency_cycles >= 10


def test_pipelined_loop_latency_uses_ii():
    m1, f1, b1 = simple_module()
    x1 = b1.arg("x", I16)
    with b1.loop("L", trip_count=50):
        v = b1.mul(x1, x1)
        b1.mul(v, v)
    m2, f2, b2 = simple_module()
    x2 = b2.arg("x", I16)
    with b2.loop("L", trip_count=50):
        v = b2.mul(x2, x2)
        b2.mul(v, v)
    f2.loops["L"].pipelined = True
    f2.loops["L"].initiation_interval = 1
    lat_plain, lat_piped = (
        Scheduler().schedule_module(lower_module(m)).for_function("top")
        .latency_cycles for m in (m1, m2))
    assert lat_piped < lat_plain


def test_call_latency_includes_callee():
    m = Module("m")
    g = Function("leaf")
    m.add_function(g)
    gb = IRBuilder(g)
    a = gb.arg("a", I16)
    with gb.loop("L", trip_count=20):
        v = gb.mul(a, a)
    gb.ret(v)
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    x = b.arg("x", I16)
    c = b.call("leaf", [x], I16)
    sched = Scheduler().schedule_module(lower_module(m))
    leaf_latency = sched.for_function("leaf").latency_cycles
    top = sched.for_function("top")
    assert top.end_of(c.uid) - top.start_of(c.uid) >= leaf_latency


def test_delta_tcs_positive():
    m, f, b = simple_module()
    x = b.arg("x", I16)
    s = b.add(x, x)
    p = b.mul(s, s)
    sched = Scheduler().schedule_module(lower_module(m)).for_function("top")
    assert sched.delta_tcs(s.producer.uid, p.producer.uid) >= 1


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_dags_schedule_legally(data):
    """Property: any random DAG schedules with all dependences met."""
    m, f, b = simple_module()
    x = b.arg("x", I16)
    values = [x]
    n_ops = data.draw(st.integers(3, 25))
    opcode_pool = ("add", "mul", "sub", "xor", "icmp_sgt")
    for i in range(n_ops):
        op = data.draw(st.sampled_from(opcode_pool))
        a = values[data.draw(st.integers(0, len(values) - 1))]
        c = values[data.draw(st.integers(0, len(values) - 1))]
        fn = getattr(b, op)
        values.append(fn(a, c))
    sched = Scheduler().schedule_module(lower_module(m)).for_function("top")
    for op in f.operations:
        assert sched.end_of(op.uid) >= sched.start_of(op.uid)
        for producer in op.predecessors():
            assert sched.start_of(op.uid) >= sched.end_of(producer.uid)
    assert sched.n_states == 1 + max(sched.end)
