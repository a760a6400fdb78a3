"""Parallel dataset builds and the cross-process on-disk flow cache."""

import numpy as np
import pytest

from repro.dataset import build_paper_dataset
from repro.flow import FlowOptions, run_flow
from repro.util.cache import CACHE_DIR_ENV, KeyedCache
import repro.flow.c_to_fpga as c_to_fpga
import repro.flow.pipeline as pipeline_mod
import repro.util.cache as cache_mod

#: tiny scale so these flows cost ~a second each
OPTS = dict(scale=0.16, placement_effort="fast", seed=0)


@pytest.fixture
def fresh_stores(monkeypatch):
    """Swap the process-wide memo stores for empty ones (restored after)."""
    for name in ("flow_results", "datasets"):
        monkeypatch.setitem(cache_mod._GLOBAL_STORES, name, KeyedCache())


def test_parallel_build_matches_serial():
    serial = build_paper_dataset(options=FlowOptions(**OPTS), use_cache=False)
    parallel = build_paper_dataset(
        options=FlowOptions(**OPTS), use_cache=False, n_jobs=3
    )
    assert parallel.n_samples == serial.n_samples
    assert parallel.label_stats() == serial.label_stats()
    np.testing.assert_array_equal(parallel.X, serial.X)
    np.testing.assert_array_equal(parallel.y_vertical, serial.y_vertical)
    np.testing.assert_array_equal(parallel.meta.design, serial.meta.design)


def test_flow_disk_cache_survives_process_restart(
    tmp_path, monkeypatch, fresh_stores
):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    options = FlowOptions(**OPTS)
    first = run_flow("face_detection", "baseline", options=options)

    # Simulate a fresh process: empty memo stores, and every flow stage
    # booby-trapped — a disk hit must not re-run any of them.
    monkeypatch.setitem(
        cache_mod._GLOBAL_STORES, "flow_results", KeyedCache()
    )

    def boom(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError("flow stage re-ran despite disk cache")

    for stage_fn in ("synthesize", "generate_netlist", "pack_netlist",
                     "place_netlist", "route_design"):
        monkeypatch.setattr(pipeline_mod, stage_fn, boom)

    second = run_flow("face_detection", "baseline", options=options)
    assert second.summary() == first.summary()
    assert second.congestion.max_congestion() == pytest.approx(
        first.congestion.max_congestion()
    )


def test_dataset_disk_cache_survives_process_restart(
    tmp_path, monkeypatch, fresh_stores
):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    options = FlowOptions(**OPTS)
    first = build_paper_dataset(options=options)

    for name in ("flow_results", "datasets"):
        monkeypatch.setitem(cache_mod._GLOBAL_STORES, name, KeyedCache())

    def boom(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError("flow re-ran despite dataset disk cache")

    monkeypatch.setattr(c_to_fpga, "run_flow_on_design", boom)
    second = build_paper_dataset(options=options)
    assert second.n_samples == first.n_samples
    assert second.label_stats() == first.label_stats()


def test_no_disk_cache_without_env(tmp_path, monkeypatch, fresh_stores):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    run_flow("face_detection", "baseline", options=FlowOptions(**OPTS))
    assert list(tmp_path.iterdir()) == []
