import pytest

from repro.errors import ReproError
from repro.hls import synthesize
from repro.ir import verify_module
from repro.kernels import (
    KERNEL_BUILDERS,
    PAPER_COMBINATIONS,
    build_combined,
    build_face_detection,
    build_kernel,
)

SCALE = 0.2  # small designs keep kernel tests fast

ALL_KERNELS = tuple(KERNEL_BUILDERS)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_kernel_builds_and_verifies(name):
    design = build_kernel(name, scale=SCALE)
    verify_module(design.module)
    assert design.module.top is not None
    assert design.module.n_ops() > 10


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_kernel_synthesizes_both_variants(name):
    base = build_kernel(name, scale=SCALE, variant="baseline")
    plain = build_kernel(name, scale=SCALE, variant="no_directives")
    hls_base = synthesize(base.module, base.directives)
    hls_plain = synthesize(plain.module, plain.directives)
    # directives must cut latency and grow the design (the Table I shape)
    assert hls_base.latency_cycles < hls_plain.latency_cycles
    assert hls_base.module.n_ops() >= hls_plain.module.n_ops()


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_kernel_ops_have_source_locations(name):
    design = build_kernel(name, scale=SCALE)
    for op in design.module.iter_all_ops():
        assert op.loc.file.endswith(".cpp")
        assert op.loc.line > 0


def test_unknown_kernel_rejected():
    with pytest.raises(ReproError):
        build_kernel("quantum_chess")
    with pytest.raises(ReproError):
        build_combined("quantum_combo")


def test_face_detection_variants():
    baseline = build_face_detection(scale=SCALE, variant="baseline")
    not_inline = build_face_detection(scale=SCALE, variant="not_inline")
    replicate = build_face_detection(scale=SCALE, variant="replicate")
    assert baseline.directives.inlines
    assert not not_inline.directives.inlines
    rep_windows = [
        a for a in replicate.module.functions["face_detect_top"].arrays
        if a.startswith("window")
    ]
    assert len(rep_windows) > 1
    with pytest.raises(ReproError):
        build_face_detection(variant="upside_down")


def test_face_detection_unrolled_scan_creates_replica_groups():
    design = build_face_detection(scale=SCALE, variant="baseline")
    hls = synthesize(design.module, design.directives)
    top = hls.module.functions["face_detect_top"]
    groups = {}
    for op in top.operations:
        grp = op.attrs.get("unroll_group")
        if grp:
            groups.setdefault(grp, []).append(op)
    assert groups
    sizes = {len(v) for v in groups.values()}
    assert max(sizes) >= design.notes["n_scan"]


def test_paper_combinations_structure():
    assert set(PAPER_COMBINATIONS) == {
        "face_detection", "digit_spam", "bnn_render_flow",
    }
    combo = build_combined("digit_spam", scale=SCALE)
    verify_module(combo.module)
    names = set(combo.module.functions)
    assert "digit_rec_top" in names and "spam_filter_top" in names
    assert combo.module.top.name == "digit_spam_top"
    # member directives merged
    assert combo.directives.n_directives() > 0


def test_combined_synthesis_latency_sums_members():
    combo = build_combined("bnn_render_flow", scale=SCALE)
    hls = synthesize(combo.module, combo.directives)
    member_latency = max(
        hls.schedule.for_function(f).latency_cycles
        for f in ("bnn_top", "rendering_top", "optical_flow_top")
    )
    assert hls.latency_cycles >= member_latency


def test_scale_changes_size():
    small = build_kernel("bnn", scale=0.15)
    large = build_kernel("bnn", scale=0.6)
    assert large.module.n_ops() > small.module.n_ops()
