"""A label flow builds no synthesized IR.

RTL elaboration, back-tracing, dataset assembly and
``FlowContext.summary`` read the synthesized design through its table
IR, op tables and binding arrays: a full flow and its labelled samples
create no :class:`~repro.ir.operation.Operation` beyond the design
build's and never materialize ``HLSResult.module``.  (Only readers
outside the label path, such as ``Backtracer.ops_in_tile``, build it on
demand.)
"""

import gc

import pytest

from repro.dataset import dataset_from_flow
from repro.flow import FlowOptions
from repro.flow.c_to_fpga import run_flow_on_design
from repro.hls.tableir import ModuleTable
from repro.ir.operation import Operation
from repro.kernels.combos import build_combined

DESIGN = "face_detection"


def _operations() -> int:
    return sum(type(obj) is Operation for obj in gc.get_objects())


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def test_label_flow_creates_no_operations_beyond_the_design_build(
        monkeypatch, collector_off):
    def refuse(self):
        raise AssertionError("the label path materialized hls.module")

    monkeypatch.setattr(ModuleTable, "module", refuse)
    before = _operations()
    design = build_combined(DESIGN, scale=1.0)
    ctx = run_flow_on_design(design, options=FlowOptions(scale=1.0))
    dataset = dataset_from_flow(ctx)
    summary = ctx.summary()
    assert _operations() - before == design.module.n_ops()
    assert summary["ops"] == ctx.hls.ir.n_ops() > design.module.n_ops()
    assert summary["n_samples"] == ctx.labels.n_samples() \
        >= dataset.n_samples > 0
