"""The table label path against the object-walk oracles.

RTL elaboration (:mod:`repro.rtl.generate`), back-tracing
(:meth:`repro.backtrace.Backtracer.label_operations`) and sample
assembly (:func:`repro.dataset.dataset_from_flow`) read the synthesized
table IR, its op tables and the binding arrays.  The object walks they
replace are kept as oracles in :mod:`repro.rtl._reference` and
:mod:`repro.backtrace._reference`.  For the seven paper variants at
scale 1.0, and four sampled directive configurations per paper design
at scale 0.3 (sampled as ``tests/hls/test_synthesis_pins.py`` does),
plus the configuration whose values list their users out of op order
(``tests/hls/test_frontend_parity.py``; value-net sinks follow the
users order), both paths must agree exactly:

* the netlists cell for cell and net for net, and ``cells_of_op``;
* every label column, the feature matrix, both targets and every
  metadata field (``np.array_equal``).
"""

import dataclasses

import numpy as np
import pytest

from repro.backtrace._reference import (
    reference_label_operations,
    reference_samples,
)
from repro.dataset import dataset_from_flow
from repro.explore.space import DirectiveSpace
from repro.flow import FlowOptions, run_flow
from repro.flow.c_to_fpga import run_flow_on_design
from repro.kernels.combos import build_combined
from repro.rtl._reference import reference_netlist

PAPER_VARIANTS = (
    ("face_detection", "baseline"),
    ("face_detection", "no_directives"),
    ("face_detection", "not_inline"),
    ("face_detection", "replicate"),
    ("digit_spam", "baseline"),
    ("bnn_render_flow", "baseline"),
    ("bnn_render_flow", "no_directives"),
)
SAMPLED = ("face_detection", "digit_spam", "bnn_render_flow")
SAMPLES = 4
SAMPLE_SEED = 23
SAMPLE_SCALE = 0.3
#: (samples, seed, index) of the bnn_render_flow configuration in which
#: inlined line-buffer loads list their users out of op order
OUT_OF_ORDER = (3, 5, 1)

META_FIELDS = ("design", "op_uid", "instance", "function", "opcode",
               "source_file", "source_line", "unroll_group",
               "replica_index", "at_margin")


def cases():
    out = [f"{combo}/{variant}" for combo, variant in PAPER_VARIANTS]
    for combo in SAMPLED:
        out += [f"{combo}/sample{i}" for i in range(SAMPLES)]
    return out + ["bnn_render_flow/users_out_of_order"]


def implement(case: str):
    combo, variant = case.split("/")
    if variant == "users_out_of_order":
        return implement_sampled(combo, *OUT_OF_ORDER)
    if variant.startswith("sample"):
        return implement_sampled(combo, SAMPLES, SAMPLE_SEED,
                                 int(variant[len("sample"):]))
    # the paper tables' flows (default options: scale 1.0, seed 0)
    return run_flow(combo, variant)


def implement_sampled(combo: str, samples: int, seed: int, index: int):
    design = build_combined(combo, scale=SAMPLE_SCALE)
    space = DirectiveSpace.around(design)
    config = space.sample(samples, seed=seed)[index]
    design = dataclasses.replace(
        design, directives=space.apply(config, design.directives))
    return run_flow_on_design(design, options=FlowOptions(scale=SAMPLE_SCALE))


def assert_same_netlist(got, want):
    assert got.name == want.name
    for kind in ("cells", "nets"):
        a, b = getattr(got, kind), getattr(want, kind)
        first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                     None)
        assert first is None, f"{kind}[{first}]: {a[first]} != {b[first]}"
        assert len(a) == len(b), kind
    assert got.cells_of_op == want.cells_of_op


@pytest.mark.parametrize("case", cases())
def test_label_path_matches_the_object_walk(case):
    ctx = implement(case)
    assert_same_netlist(ctx.netlist, reference_netlist(ctx.hls))

    want = reference_label_operations(
        ctx.hls.module, ctx.netlist, ctx.packing, ctx.placement,
        ctx.congestion)
    got = ctx.labels
    cells = ctx.netlist.cells
    for name in ("op_uid", "vertical", "horizontal", "at_margin"):
        assert np.array_equal(
            getattr(got, name),
            np.array([getattr(label, name) for label in want.labels])), name
    assert [(cells[c].instance, cells[c].function,
             tuple(ctx.placement.tiles_of_cell(ctx.packing, c)))
            for c in got.cell.tolist()] == \
        [(label.instance, label.function, label.tiles)
         for label in want.labels]

    dataset = dataset_from_flow(ctx)
    X, y_vertical, y_horizontal, rows = reference_samples(ctx, want)
    assert np.array_equal(dataset.X, X)
    assert np.array_equal(dataset.y_vertical, y_vertical)
    assert np.array_equal(dataset.y_horizontal, y_horizontal)
    for name in META_FIELDS:
        column = getattr(dataset.meta, name)
        expected = np.array([getattr(row, name) for row in rows],
                            dtype=column.dtype)
        assert np.array_equal(column, expected), name
