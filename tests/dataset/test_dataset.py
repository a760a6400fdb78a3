import numpy as np
import pytest

from repro.dataset import CongestionDataset, dataset_from_flow
from repro.errors import DatasetError, FlowError
from repro.features import N_FEATURES
from repro.flow import FlowOptions, FlowPipeline
from repro.kernels import build_kernel


def test_dataset_from_flow_shapes(facedet_flow):
    ds = dataset_from_flow(facedet_flow)
    assert ds.X.shape == (ds.n_samples, N_FEATURES)
    assert ds.n_samples == len(ds.meta)
    assert np.all(np.isfinite(ds.X))
    assert np.all(ds.y_vertical >= 0)


def test_dataset_average_target(facedet_flow):
    ds = dataset_from_flow(facedet_flow)
    assert np.allclose(ds.y_average, 0.5 * (ds.y_vertical + ds.y_horizontal))
    assert np.array_equal(ds.target("vertical"), ds.y_vertical)
    with pytest.raises(DatasetError):
        ds.target("diagonal")


def test_dataset_meta_provenance(facedet_flow):
    ds = dataset_from_flow(facedet_flow)
    meta = ds.meta.take(np.arange(50))
    assert set(meta.design) == {"face_detection"}
    assert np.all(meta.source_line > 0)
    for uid, opcode in zip(meta.op_uid.tolist(), meta.opcode):
        assert facedet_flow.hls.module.find_op(uid).opcode == opcode


def test_subset_and_concat(facedet_flow):
    ds = dataset_from_flow(facedet_flow)
    half = ds.subset(np.arange(ds.n_samples // 2))
    assert half.n_samples == ds.n_samples // 2
    double = half.concat(half)
    assert double.n_samples == 2 * half.n_samples
    assert np.array_equal(double.meta.instance,
                          np.concatenate([half.meta.instance] * 2))


def test_misaligned_dataset_rejected():
    with pytest.raises(DatasetError):
        CongestionDataset(
            X=np.zeros((3, N_FEATURES)),
            y_vertical=np.zeros(2),
            y_horizontal=np.zeros(3),
            meta=[None, None, None],
        )
    with pytest.raises(DatasetError):
        CongestionDataset(
            X=np.zeros((2, 5)),
            y_vertical=np.zeros(2),
            y_horizontal=np.zeros(2),
            meta=[None, None],
        )


def test_paper_dataset_builds(small_dataset):
    assert small_dataset.n_samples > 200
    designs = set(small_dataset.meta.design)
    assert designs == {"face_detection", "digit_spam", "bnn_render_flow"}


def test_marginal_filter_removes_replicas_only(small_dataset):
    mask = small_dataset.marginal_mask()
    assert all(group is not None
               for group in small_dataset.meta.unroll_group[mask])
    assert small_dataset.meta.at_margin[mask].all()


def test_marginal_filter_removes_low_labels(small_dataset):
    filtered, stats = small_dataset.filter_marginal()
    assert 0 <= stats["fraction"] < 0.5
    assert filtered.n_samples == small_dataset.n_samples - stats["removed"]
    if stats["removed"]:
        # removed samples had below-typical vertical congestion
        mask = small_dataset.marginal_mask()
        removed_mean = small_dataset.y_vertical[mask].mean()
        kept_mean = small_dataset.y_vertical[~mask].mean()
        assert removed_mean < kept_mean


def test_label_stats_keys(small_dataset):
    stats = small_dataset.label_stats()
    assert set(stats) == {"v_mean", "v_max", "h_mean", "h_max"}
    assert stats["v_max"] >= stats["v_mean"]


@pytest.mark.parametrize("until, missing", [("sta", "graph"),
                                            ("graph", "labels")])
def test_partial_flow_is_a_typed_error(until, missing):
    ctx = FlowPipeline().run(build_kernel("spam_filter", scale=0.2),
                             options=FlowOptions(scale=0.2), until=until)
    with pytest.raises(FlowError, match=f"artifact '{missing}'"):
        dataset_from_flow(ctx)
