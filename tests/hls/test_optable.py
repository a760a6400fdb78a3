"""The op table: one lowering per synthesized function, read-only."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.graph import build_dependency_graph, compile_snapshot
from repro.hls import OperatorLibrary, synthesize
from repro.hls.optable import OPCODE_NAMES
from repro.kernels.combos import build_combined


@pytest.fixture(scope="module")
def hls():
    design = build_combined("digit_spam", scale=0.3)
    return synthesize(design.module, design.directives)


def test_each_operation_is_characterized_once(monkeypatch):
    """Synthesis, the dependency graph and the feature snapshot make
    exactly one spec_for call per operation of the synthesized module:
    every reader after the scheduler reads the op table."""
    design = build_combined("face_detection", scale=0.5)
    calls = []
    spec_for = OperatorLibrary.spec_for

    def counted(self, op):
        calls.append(op.uid)
        return spec_for(self, op)

    monkeypatch.setattr(OperatorLibrary, "spec_for", counted)
    result = synthesize(design.module, design.directives)
    graph = build_dependency_graph(result.module, result.bindings)
    compile_snapshot(graph, result)
    uids = [op.uid for func in result.module.functions.values()
            for op in func.operations]
    assert sorted(calls) == sorted(uids)


def _arrays(obj):
    return {name: value for name, value in vars(obj).items()
            if isinstance(value, np.ndarray)}


def test_tables_and_schedule_arrays_are_read_only(hls):
    for name, func in hls.module.functions.items():
        sched = hls.schedule.for_function(name)
        binding = hls.bindings[name]
        table = sched.table
        assert binding.table is table and table.function is func
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
