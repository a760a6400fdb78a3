"""The sharded multi-process serving pool (repro.serve.pool).

Worker processes adopt the parent's model as its packed kernels; the
parent shards, supervises and — when the pool cannot answer — falls
back to inline serving with ``degraded=True``.  Everything here runs at
tiny scale against one combo; the module-scoped fixture trains and
publishes once, and every pool's parent loads that published model.
"""

import os

import numpy as np
import pytest

from repro.dataset.build import build_paper_dataset
from repro.errors import DeadlineExceededError
from repro.flow import FlowOptions
from repro.predict.predictor import CongestionPredictor
from repro.serve import (
    CongestionService,
    ModelRegistry,
    PoolConfig,
    PoolServer,
    PredictRequest,
    ResilientCongestionServer,
    ServerConfig,
)
from repro.serve.resilience import Deadline

SCALE = 0.18
COMBOS = ("face_detection",)
DESIGNS = ("face_detection", "bnn", "spam_filter", "digit_recognition")


def _options() -> FlowOptions:
    return FlowOptions(scale=SCALE, placement_effort="fast", seed=0)


@pytest.fixture(scope="module")
def pool_env(tmp_path_factory):
    """A cache root with a trained, published gbrt model, shared by
    every pool in this module (workers inherit it via the env)."""
    root = tmp_path_factory.mktemp("pool-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    service = CongestionService(
        "gbrt", options=_options(), combos=COMBOS,
    )
    service.warm()  # trains once, publishes kernels + manifest
    # the in-process answers every pool must reproduce
    baseline = service.predict_batch(
        [PredictRequest(d) for d in DESIGNS]
    )
    yield {
        "service": service,
        "baseline": baseline,
        "registry": service.registry,
    }
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


def _pool(model: str = "gbrt", **kwargs) -> PoolServer:
    pool = kwargs.pop("pool", PoolConfig(workers=2))
    return PoolServer(
        model, options=_options(), combos=COMBOS, pool=pool, **kwargs
    )


def test_export_exists_after_warm(pool_env):
    """The published slot is exactly two files: the packed kernels and
    the manifest — no pickle, no second export."""
    registry: ModelRegistry = pool_env["registry"]
    service: CongestionService = pool_env["service"]
    manifest = registry.manifest_path("gbrt", service.dataset_fingerprint)
    key = os.path.basename(manifest).removesuffix(".model.json")
    assert sorted(n for n in os.listdir(registry.root)
                  if n.startswith(key)) == [f"{key}.kernels",
                                            f"{key}.model.json"]
    assert not [n for n in os.listdir(registry.root)
                if n.endswith((".pkl", ".npz"))]
    loaded = registry.load("gbrt", service.dataset_fingerprint)
    assert loaded.kernels["vertical"].n_features == 302


def test_pool_matches_in_process_service(pool_env):
    requests = [PredictRequest(d) for d in DESIGNS]
    with _pool() as pool:
        responses = pool.predict_batch(requests)
        stats = pool.stats()["pool"]
    assert stats["dispatched_requests"] == len(requests)
    assert stats["inline_fallbacks"] == 0
    for base, got in zip(pool_env["baseline"], responses):
        assert got.model_source == "export"
        assert not got.degraded
        assert got.predicted_max_vertical == base.predicted_max_vertical
        assert got.predicted_max_horizontal == base.predicted_max_horizontal
        assert [
            (r.source_file, r.source_line, r.vertical, r.horizontal)
            for r in got.regions
        ] == [
            (r.source_file, r.source_line, r.vertical, r.horizontal)
            for r in base.regions
        ]


def test_pool_serves_linear_kernels_bit_identically(pool_env, tmp_path):
    """The dense kernels ship to workers the same way as the trees: a
    linear pool answers exactly like the in-process linear service."""
    registry = ModelRegistry(str(tmp_path))
    in_process = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=registry,
    )
    requests = [PredictRequest(d) for d in DESIGNS]
    expected = _answers(in_process.predict_batch(requests))
    with _pool("linear", registry=registry,
               pool=PoolConfig(workers=1)) as pool:
        responses = pool.predict_batch(requests)
        stats = pool.stats()["pool"]
    assert stats["inline_fallbacks"] == 0
    assert all(r.model_source == "export" and not r.degraded
               for r in responses)
    assert _answers(responses) == expected


def test_sharding_is_deterministic_and_in_range(pool_env):
    pool = _pool()
    try:
        for design in DESIGNS:
            request = PredictRequest(design)
            shard = pool.shard_of(request)
            assert 0 <= shard < pool.pool.workers
            assert shard == pool.shard_of(request)
            # the directive override is part of the shard identity
            assert pool.shard_of(request) == pool.shard_of(
                PredictRequest(design, top=9)
            )
    finally:
        pool.close()


def test_worker_crash_restarts_and_redispatches(pool_env):
    """First dispatch survives, the second crashes the worker
    (skip=1, max=1); the parent restarts it and re-dispatches — the
    caller sees a normal, non-degraded answer."""
    config = PoolConfig(
        workers=1, restart_budget=2,
        worker_faults="pool.worker:crash:skip=1,max=1",
    )
    with _pool(pool=config) as pool:
        first = pool.predict_batch([PredictRequest("face_detection")])
        assert not first[0].degraded
        second = pool.predict_batch([PredictRequest("bnn")])
        assert not second[0].degraded
        assert second[0].model_source == "export"
        stats = pool.stats()["pool"]
    assert stats["worker_crashes"] == 1
    assert stats["worker_restarts"] == 1
    assert stats["inline_fallbacks"] == 0


def test_restart_budget_exhaustion_degrades_to_inline(pool_env):
    """A worker that always crashes exhausts the restart budget; the
    shard — and every batch after it — is served inline, degraded,
    never dropped."""
    config = PoolConfig(
        workers=1, restart_budget=1, worker_faults="pool.worker:crash",
    )
    with _pool(pool=config) as pool:
        responses = pool.predict_batch([PredictRequest("face_detection")])
        assert responses[0].degraded
        assert "inline" in responses[0].degraded_reason
        later = pool.predict_batch([PredictRequest("bnn")])
        assert later[0].degraded
        stats = pool.stats()["pool"]
    assert stats["degraded"]
    assert stats["inline_fallbacks"] >= 1
    base = pool_env["baseline"][0]
    assert responses[0].predicted_max_vertical \
        == base.predicted_max_vertical


def test_deadline_propagates_into_workers(pool_env):
    with _pool(pool=PoolConfig(workers=1)) as pool:
        pool.predict_batch([PredictRequest("face_detection")])  # arm pool
        with pytest.raises(DeadlineExceededError):
            pool.predict_batch(
                [PredictRequest("bnn", variant="no_directives")],
                deadline=Deadline.after(0.0005),
            )
        # the worker survives a blown deadline and keeps serving
        ok = pool.predict_batch([PredictRequest("bnn")])
        assert not ok[0].degraded


def test_hot_swap_broadcasts_to_workers(pool_env):
    service: CongestionService = pool_env["service"]
    registry: ModelRegistry = pool_env["registry"]
    with _pool(pool=PoolConfig(workers=1)) as pool:
        before = pool.predict_batch([PredictRequest("face_detection")])
        reloaded = registry.load("gbrt", service.dataset_fingerprint)
        generation = pool.adopt_predictor(reloaded, source="registry")
        assert generation == before[0].model_generation + 1
        after = pool.predict_batch([PredictRequest("face_detection")])
        assert after[0].model_generation == generation
        assert after[0].model_source == "export"
        assert pool.stats()["pool"]["adopt_broadcasts"] == 1


def _answers(responses) -> list[tuple]:
    return [
        (r.predicted_max_vertical, r.predicted_max_horizontal,
         [(g.source_file, g.source_line, g.vertical, g.horizontal)
          for g in r.regions])
        for r in responses
    ]


def test_hot_swap_serves_the_adopted_unpublished_model(pool_env):
    """After adopting a model the registry never saw, the workers answer
    with it — exactly as an in-process service that adopted it does —
    and not with the registry's published model."""
    service: CongestionService = pool_env["service"]
    dataset = build_paper_dataset(options=_options(), combos=COMBOS)
    # every other sample: the fixture's dataset has no marginal
    # samples, so refitting all of it would rebuild the published model
    unpublished = CongestionPredictor("gbrt", service.device).fit(
        dataset.subset(np.arange(0, dataset.n_samples, 2))
    )
    requests = [PredictRequest(d) for d in DESIGNS]
    in_process = CongestionService(
        "gbrt", options=_options(), combos=COMBOS, registry=None,
    )
    in_process.adopt_predictor(unpublished, source="memory")
    expected = _answers(in_process.predict_batch(requests))
    assert expected != _answers(pool_env["baseline"])  # a visible swap

    with _pool() as pool:
        pool.predict_batch(requests)  # workers start on the published model
        generation = pool.adopt_predictor(unpublished, source="memory")
        got = pool.predict_batch(requests)
        stats = pool.stats()["pool"]
    assert stats["inline_fallbacks"] == 0
    assert all(not r.degraded and r.model_generation == generation
               for r in got)
    assert _answers(got) == expected


def test_pool_behind_resilient_server(pool_env):
    """The existing serving edge wraps the pool unchanged: admission,
    micro-batching and close-drain all apply; closing the server stops
    the worker processes."""
    pool = _pool()
    server = ResilientCongestionServer(pool, ServerConfig(batch_max=8))
    with server:
        futures = [server.submit(PredictRequest(d)) for d in DESIGNS]
        responses = [f.result(timeout=120) for f in futures]
    assert all(r.model_source == "export" for r in responses)
    assert pool.stats()["pool"]["dispatched_requests"] == len(DESIGNS)
    assert pool.stats()["pool"]["closed"]  # server.close -> service.close
    assert not pool._procs


def test_close_is_idempotent_and_degrades_after(pool_env):
    pool = _pool(pool=PoolConfig(workers=1))
    pool.predict_batch([PredictRequest("face_detection")])
    pool.close()
    pool.close()
    # a closed pool still answers — inline, flagged degraded
    responses = pool.predict_batch([PredictRequest("face_detection")])
    assert responses[0].degraded
    assert "closed" in responses[0].degraded_reason


def test_prediction_cache_flag_disables_memoization(pool_env):
    service = CongestionService(
        "gbrt", options=_options(), combos=COMBOS,
        prediction_cache=False,
    )
    service.predict_batch([PredictRequest("face_detection")])
    service.predict_batch([PredictRequest("face_detection")])
    stats = service.stats()
    assert stats["prediction_hits"] == 0
    assert stats["prediction_misses"] == 2
