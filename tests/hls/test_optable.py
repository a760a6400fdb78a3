"""The op table: one lowering per synthesized function, read-only."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.errors import IRError
from repro.graph import build_dependency_graph, compile_snapshot
from repro.hls import DEFAULT_LIBRARY, OperatorLibrary, synthesize
from repro.hls.optable import OPCODE_NAMES, op_tables
from repro.hls.tableir import lower_module
from repro.ir import Function, I16, IRBuilder, Module
from repro.kernels.combos import build_combined


@pytest.fixture(scope="module")
def hls():
    design = build_combined("digit_spam", scale=0.3)
    return synthesize(design.module, design.directives)


def test_each_operation_is_characterized_once(monkeypatch):
    """Synthesis, the dependency graph and the feature snapshot
    characterize each distinct (opcode, width, constant-shift) kind of
    the synthesized module exactly once and never an operation object:
    every reader after the scheduler reads the op table."""
    design = build_combined("face_detection", scale=0.5)
    per_op, per_kind = [], []
    spec_of_kind = OperatorLibrary.spec_of_kind

    def counted(self, opcode, width, const_shift=False):
        per_kind.append((opcode, width, const_shift))
        return spec_of_kind(self, opcode, width, const_shift)

    monkeypatch.setattr(OperatorLibrary, "spec_for",
                        lambda self, op: per_op.append(op))
    monkeypatch.setattr(OperatorLibrary, "spec_of_kind", counted)
    result = synthesize(design.module, design.directives)
    graph = build_dependency_graph(result)
    compile_snapshot(graph, result)
    kinds = {
        (op.opcode, op.bitwidth(),
         op.opcode in ("shl", "lshr", "ashr") and len(op.operands) == 2
         and op.operands[1].is_constant)
        for func in result.module.functions.values()
        for op in func.operations}
    assert per_op == []
    assert sorted(per_kind) == sorted(kinds)


def _arrays(obj):
    return {name: value for name, value in vars(obj).items()
            if isinstance(value, np.ndarray)}


def test_tables_and_schedule_arrays_are_read_only(hls):
    for name, func in hls.module.functions.items():
        sched = hls.schedule.for_function(name)
        binding = hls.bindings[name]
        table = sched.table
        assert binding.table is table and table.is_table_of(
            hls.ir.functions[name])
        assert table.uid.tolist() == [op.uid for op in func.operations]
        arrays = {**_arrays(table), **_arrays(sched), **_arrays(binding)}
        arrays.update({f"loop {k}": v for k, v in table.loops.items()})
        assert {"uid", "start", "end", "arrival", "fu_of_pos"} <= set(arrays)
        for label, array in arrays.items():
            assert not array.flags.writeable, label
            if array.size:
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = array.flat[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.uid = table.uid.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.start = sched.start.copy()


def test_unpickled_schedule_arrays_stay_read_only(tiny_hls):
    clone = pickle.loads(pickle.dumps(tiny_hls))
    for name in clone.module.functions:
        sched = clone.schedule.for_function(name)
        assert not sched.start.flags.writeable
        assert not sched.table.prod_pos.flags.writeable
        assert not clone.bindings[name].fu_of_pos.flags.writeable


def test_table_matches_the_ir_it_was_lowered_from(hls):
    """Every column agrees with a walk over the operation objects."""
    for name, func in hls.module.functions.items():
        t = hls.schedule.for_function(name).table
        ops = func.operations
        assert t.uid.tolist() == [op.uid for op in ops]
        assert [OPCODE_NAMES[i] for i in t.opcode_id] == \
            [op.opcode for op in ops]
        assert t.width.tolist() == [op.bitwidth() for op in ops]
        assert list(t.specs) == [hls.library.spec_for(op) for op in ops]
        for i, op in enumerate(ops):
            lo, hi = t.prod_indptr[i], t.prod_indptr[i + 1]
            assert [ops[p].uid for p in t.prod_pos[lo:hi]] == \
                [p.uid for p in op.predecessors()]
            lo, hi = t.user_indptr[i], t.user_indptr[i + 1]
            assert sorted(ops[u].uid for u in t.user_pos[lo:hi]) == \
                sorted(u.uid for u in op.successors())
            if op.opcode in ("load", "store") and op.attrs.get("array"):
                assert t.arrays[t.array_id[i]] == op.attrs["array"]
            else:
                assert t.array_id[i] == -1


def test_a_value_read_across_functions_is_a_typed_error():
    """Op tables of an unverified table IR refuse an operand produced in
    another function."""
    m = Module("m")
    leaf = Function("leaf")
    m.add_function(leaf)
    lb = IRBuilder(leaf)
    made = lb.add(lb.arg("a", I16), lb.const(1, I16), width=16)
    top = Function("top", is_top=True)
    m.add_function(top)
    IRBuilder(top).add(made, made, width=16)
    with pytest.raises(IRError, match="produced outside its function"):
        op_tables(lower_module(m), DEFAULT_LIBRARY)


def test_a_module_without_operand_uses_synthesizes():
    """A module whose only operation is an operand-less ``ret`` has no
    use to read: synthesis and the graph take it like any other."""
    m = Module("m")
    top = Function("top", is_top=True)
    m.add_function(top)
    IRBuilder(top).ret()
    result = synthesize(m)
    table = result.schedule.for_function("top").table
    assert table.n == 1 and table.n_operands.tolist() == [0]
    assert [op.opcode for op in result.module.top.operations] == ["ret"]
    assert build_dependency_graph(result) is not None
