"""Model registry persistence and the prediction service."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import repro.flow.pipeline as pipeline_mod
from repro.dataset import build_paper_dataset
from repro.errors import (
    CorruptArtifactError,
    ModelRegistryError,
    ServeError,
    StaleModelError,
)
from repro.explore import DirectiveSpace
from repro.explore.session import build_design_for
from repro.features import FeatureExtractor
from repro.features.registry import registry_hash
from repro.flow import FlowOptions
from repro.fpga.device import device_fingerprint, small_test_device, xc7z020
from repro.hls.scheduling import ClockConstraint
from repro.impl.routing import RoutingOptions
from repro.kernels.combos import PAPER_COMBINATIONS, build_kernel
from repro.predict import CongestionPredictor
from repro.serve import (
    CongestionService,
    ModelRegistry,
    NetClient,
    NetServerConfig,
    PredictRequest,
    ResiliencePolicy,
    ResilientCongestionServer,
    ServerConfig,
    dataset_spec_fingerprint,
    start_net_server,
)
from repro.serve.service import measure_serving
from repro.util.cache import checksummed_pack, disk_cache_from_env

SCALE = 0.18
COMBOS = ("face_detection",)


def _options() -> FlowOptions:
    return FlowOptions(scale=SCALE, placement_effort="fast", seed=0)


@pytest.fixture(scope="module")
def trained():
    """One small linear predictor + the dataset it was trained on."""
    dataset = build_paper_dataset(options=_options(), combos=COMBOS)
    predictor = CongestionPredictor("linear").fit(dataset)
    fingerprint = dataset_spec_fingerprint(COMBOS, _options())
    return predictor, dataset, fingerprint


@pytest.fixture(scope="module")
def trained_gbrt(trained):
    """A gbrt predictor on the same dataset: serving's default model,
    whose compiled trees score every row on its own, bit-exactly."""
    _, dataset, _ = trained
    return CongestionPredictor("gbrt").fit(dataset)


@pytest.fixture(scope="module")
def trained_ann(trained):
    """An ann predictor on the same dataset (the MLP kernel's family)."""
    _, dataset, _ = trained
    return CongestionPredictor("ann").fit(dataset)


# ----------------------------------------------------------------------
# registry persistence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", ["linear", "ann", "gbrt"])
def test_round_trip_predicts_bit_identically(tmp_path, request, trained,
                                             family):
    """Every family persists as one slot of exactly two files — the
    packed kernels and the manifest — and loads back bit-identical."""
    _, dataset, fingerprint = trained
    predictor = trained[0] if family == "linear" \
        else request.getfixturevalue(f"trained_{family}")
    registry = ModelRegistry(str(tmp_path))
    manifest = registry.save(predictor, dataset_fingerprint=fingerprint)
    assert manifest.n_training_samples > 0
    assert manifest.format_version == 3
    key = os.path.basename(registry.manifest_path(family, fingerprint))
    key = key.removesuffix(".model.json")
    assert sorted(os.listdir(tmp_path)) == [f"{key}.kernels",
                                            f"{key}.model.json"]

    loaded = registry.load(family, fingerprint)
    assert loaded.n_training_samples_ == manifest.n_training_samples
    v0, h0 = predictor.predict_matrix(dataset.X)
    v1, h1 = loaded.predict_matrix(dataset.X)
    assert np.array_equal(v0, v1)
    assert np.array_equal(h0, h1)


def test_registry_rejects_format_version_mismatch(tmp_path, trained):
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    path = registry.manifest_path("linear", fingerprint)
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["format_version"] = 2
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(StaleModelError, match="format_version"):
        registry.load("linear", fingerprint)


def test_previous_format_root_is_a_plain_miss_and_retrains_once(
        tmp_path, trained):
    """A root holding only a slot of the previous format (a pickled
    predictor next to a format-2 manifest) is never read: it lists no
    entries, a load is a plain miss, and the first service trains once
    and publishes the current pair in its place, which the next service
    loads."""
    _, _, fingerprint = trained
    root = tmp_path / "models"
    root.mkdir()
    device = repr(device_fingerprint(xc7z020()))
    key = hashlib.sha256(
        f"model:v2:linear:{fingerprint}:{device}".encode()
    ).hexdigest()[:32]
    previous_manifest = {
        "model_family": "linear", "feature_registry_hash": registry_hash(),
        "dataset_fingerprint": fingerprint,
        "device_fingerprint": list(device_fingerprint(xc7z020())),
        "n_features": 302, "n_training_samples": 10,
        "created_at": "2026-10-01T00:00:00", "format_version": 2,
    }
    old_files = {f"{key}.manifest.json", f"{key}.model.pkl"}
    (root / f"{key}.manifest.json").write_text(json.dumps(previous_manifest))
    (root / f"{key}.model.pkl").write_bytes(
        checksummed_pack(pickle.dumps({"model": "previous format"})))

    registry = ModelRegistry(str(root))
    assert registry.entries() == []
    with pytest.raises(ModelRegistryError, match="no persisted") as exc:
        registry.load("linear", fingerprint)
    assert type(exc.value) is ModelRegistryError

    def service():
        return CongestionService("linear", options=_options(),
                                 combos=COMBOS, registry=str(root))

    assert service().warm() == "trained"
    assert service().warm() == "registry"
    assert not old_files & set(os.listdir(root))
    assert set(os.listdir(root)) == {
        os.path.basename(registry.kernels_path("linear", fingerprint)),
        os.path.basename(registry.manifest_path("linear", fingerprint)),
    }


def test_save_removes_only_its_own_format2_slot(tmp_path, trained):
    """A save deletes the four files of the format-2 slot it replaces
    (same family, dataset and device) and nothing else."""
    predictor, _, fingerprint = trained
    device = repr(device_fingerprint(xc7z020()))

    def format2_key(family):
        return hashlib.sha256(
            f"model:v2:{family}:{fingerprint}:{device}".encode()
        ).hexdigest()[:32]

    own = [f"{format2_key('linear')}{suffix}" for suffix in (
        ".manifest.json", ".model.pkl", ".export.npz", ".export.json")]
    other = f"{format2_key('gbrt')}.model.pkl"
    for name in own + [other]:
        (tmp_path / name).write_bytes(b"format 2")
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    assert set(os.listdir(tmp_path)) == {
        other,
        os.path.basename(registry.kernels_path("linear", fingerprint)),
        os.path.basename(registry.manifest_path("linear", fingerprint)),
    }


def test_registry_rejects_device_fingerprint_mismatch(tmp_path, trained):
    """A manifest whose recorded device fingerprint no longer matches
    the slot's device (calibration drift under a persisted model) is
    refused, never silently served."""
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    path = registry.manifest_path("linear", fingerprint)
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["device_fingerprint"][-1] = 999  # h_tracks recalibrated
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(StaleModelError, match="device_fingerprint"):
        registry.load("linear", fingerprint)
    assert registry.stats()["stale"] == 1


def test_registry_other_calibration_is_a_miss_not_stale(tmp_path, trained):
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    with pytest.raises(ModelRegistryError, match="no persisted"):
        registry.load("linear", fingerprint, device=small_test_device())
    assert registry.stats()["stale"] == 0


def test_registry_rejects_feature_registry_mismatch(tmp_path, trained):
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    path = registry.manifest_path("linear", fingerprint)
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["feature_registry_hash"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(StaleModelError, match="feature_registry_hash"):
        registry.load("linear", fingerprint)


def test_registry_slots_coexist_per_device(tmp_path, trained):
    """Two device calibrations sharing one root keep separate slots —
    neither save evicts the other."""
    predictor, dataset, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)

    other = CongestionPredictor("linear", small_test_device()).fit(dataset)
    registry.save(other, dataset_fingerprint=fingerprint)

    assert registry.stats()["entries"] == 2
    a = registry.load("linear", fingerprint)  # default xc7z020
    b = registry.load("linear", fingerprint, device=small_test_device())
    assert a.device.name != b.device.name


def test_registry_malformed_manifest_is_typed_and_quarantined(
    tmp_path, trained
):
    """A truncated/garbled manifest surfaces as a typed
    CorruptArtifactError naming the offending path — never a raw
    JSONDecodeError — and the (manifest, kernels) pair is quarantined."""
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    manifest_path = registry.manifest_path("linear", fingerprint)
    kernels_path = registry.kernels_path("linear", fingerprint)
    with open(manifest_path) as fh:
        text = fh.read()
    with open(manifest_path, "w") as fh:
        fh.write(text[: len(text) // 2])  # torn JSON

    with pytest.raises(CorruptArtifactError, match="malformed manifest") \
            as exc_info:
        registry.load("linear", fingerprint)
    assert manifest_path in str(exc_info.value)
    assert not isinstance(exc_info.value, json.JSONDecodeError)
    assert os.path.exists(manifest_path + ".quarantined")
    assert os.path.exists(kernels_path + ".quarantined")
    assert registry.stats()["quarantined"] == 2
    # the slot degraded to a plain miss, not a poisoned load
    with pytest.raises(ModelRegistryError, match="no persisted"):
        ModelRegistry(str(tmp_path)).load("linear", fingerprint)


def test_service_degrades_after_corrupt_artifact(tmp_path, trained):
    """Graceful degradation end to end: a corrupt persisted model is
    quarantined, the service retrains in place, and every response is
    flagged degraded with the reason."""
    predictor, _, fingerprint = trained
    registry = ModelRegistry(str(tmp_path))
    registry.save(predictor, dataset_fingerprint=fingerprint)
    path = registry.kernels_path("linear", fingerprint)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[-1] ^= 0xFF  # flip one payload byte: checksum must catch it
    with open(path, "wb") as fh:
        fh.write(blob)

    service = CongestionService(
        "linear", options=_options(), combos=COMBOS,
        registry=ModelRegistry(str(tmp_path)),
        resilience=ResiliencePolicy(),
    )
    assert service.warm() == "trained"  # retrained in place
    response = service.predict(PredictRequest("face_detection"))
    assert response.degraded
    assert "quarantined" in response.degraded_reason
    stats = service.stats()
    assert stats["quarantined_loads"] == 1
    assert stats["trained"] == 1
    # the retrained model was re-persisted over the quarantined slot:
    # a fresh service loads it cleanly and is NOT degraded
    fresh = CongestionService(
        "linear", options=_options(), combos=COMBOS,
        registry=ModelRegistry(str(tmp_path)),
        resilience=ResiliencePolicy(),
    )
    assert fresh.warm() == "registry"
    assert not fresh.predict(PredictRequest("face_detection")).degraded


def test_registry_missing_model(tmp_path):
    registry = ModelRegistry(str(tmp_path))
    with pytest.raises(ModelRegistryError, match="no persisted"):
        registry.load("gbrt", "deadbeef")
    assert registry.stats()["misses"] == 1


def test_registry_refuses_unfitted_save(tmp_path):
    registry = ModelRegistry(str(tmp_path))
    with pytest.raises(ModelRegistryError, match="unfitted"):
        registry.save(CongestionPredictor("linear"),
                      dataset_fingerprint="deadbeef")


def test_registry_requires_root(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    with pytest.raises(ModelRegistryError, match="no registry root"):
        ModelRegistry()


def test_dataset_fingerprint_tracks_stage_options():
    base = dataset_spec_fingerprint(COMBOS, _options())
    assert base == dataset_spec_fingerprint(COMBOS, _options())
    smeared = _options()
    smeared.routing = RoutingOptions(smear=2)
    assert dataset_spec_fingerprint(COMBOS, smeared) != base
    assert dataset_spec_fingerprint(("bnn_render_flow",), _options()) != base


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def test_service_batch_equals_per_request():
    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=None
    )
    requests = [
        PredictRequest("face_detection"),
        PredictRequest("spam_filter", top=3),
        PredictRequest("face_detection", "no_directives"),
    ]
    singles = [service.predict(r) for r in requests]
    batch = service.predict_batch(requests)
    for single, batched in zip(singles, batch):
        assert batched.batch_size == len(requests)
        assert single.n_operations == batched.n_operations
        # Semantically identical, but not bit-identical: both paths run
        # one stacked model invocation, and BLAS picks different matmul
        # kernels for a 1-request vs an n-request row count, which
        # perturbs X @ coef_ in the last ulp.
        assert single.predicted_max_vertical == pytest.approx(
            batched.predicted_max_vertical, abs=1e-9
        )
        assert [(r.source_file, r.source_line) for r in single.regions] \
            == [(r.source_file, r.source_line) for r in batched.regions]
        for s_region, b_region in zip(single.regions, batched.regions):
            assert s_region.vertical == pytest.approx(
                b_region.vertical, abs=1e-9
            )
            assert s_region.horizontal == pytest.approx(
                b_region.horizontal, abs=1e-9
            )
    stats = service.stats()
    assert stats["trained"] == 1
    assert stats["predictions"] == 2 * len(requests)


def test_service_scores_distinct_rows_bit_identically(monkeypatch,
                                                     trained_gbrt):
    """A cache entry keeps its group's distinct feature rows and each
    operation's index into them; scattered back, the answers of one
    stacked batch equal the single requests and predict_design, bit for
    bit.  The batch calls the model once, on exactly the union of its
    groups' distinct rows."""
    design = build_kernel("face_detection", scale=SCALE)
    space = DirectiveSpace.around(design)
    stock = design.directives.to_key()
    overrides = [
        key for key in dict.fromkeys(
            space.apply(c, design.directives).to_key()
            for c in space.sample(8, seed=1)
        ) if key != stock
    ][:2]
    assert len(overrides) == 2
    requests = [PredictRequest(name) for name in PAPER_COMBINATIONS] + [
        PredictRequest("face_detection", directives=key)
        for key in overrides
    ]
    singles = [_service_serving(trained_gbrt).predict(r) for r in requests]

    matrices = []
    extract_all = FeatureExtractor.extract_all

    def recorded(self):
        nodes, X = extract_all(self)
        matrices.append(X)
        return nodes, X

    scored = []
    predict_matrix = CongestionPredictor.predict_matrix

    def scoring(self, X):
        scored.append(X)
        return predict_matrix(self, X)

    service = _service_serving(trained_gbrt)
    monkeypatch.setattr(FeatureExtractor, "extract_all", recorded)
    monkeypatch.setattr(CongestionPredictor, "predict_matrix", scoring)
    batch = service.predict_batch(requests)
    monkeypatch.undo()
    assert len(matrices) == len(requests)
    assert len(scored) == 1
    assert np.array_equal(scored[0], np.vstack([
        service._feature_cache[r.group_key].rows for r in requests
    ]))

    for request, single, batched, X in zip(requests, singles, batch,
                                           matrices):
        assert replace(batched, latency_seconds=0.0, batch_size=1) \
            == replace(single, latency_seconds=0.0)
        entry = service._feature_cache[request.group_key]
        assert len(entry.rows) < len(entry.inverse) == batched.n_operations
        assert not entry.rows.flags.writeable
        assert np.array_equal(entry.rows[entry.inverse], X)

        prediction = trained_gbrt.predict_design(build_design_for(
            request.design, request.variant, SCALE, request.directives))
        assert batched.n_operations == len(prediction.node_ids)
        assert batched.predicted_max_vertical == prediction.vertical.max()
        assert batched.predicted_max_horizontal \
            == prediction.horizontal.max()
        assert batched.regions == prediction.hottest_regions(request.top)


def test_service_and_predict_design_share_the_flow_clock(monkeypatch,
                                                        trained_gbrt):
    """The service synthesizes in the flow's HLS stage, predict_design
    on its own; both read the flow clock, so with it at 8 ns they still
    give the same answer, and one the 10 ns design does not."""
    request = PredictRequest("face_detection")
    design = build_design_for(request.design, request.variant, SCALE,
                              request.directives)
    at_10ns = trained_gbrt.predict_design(design)
    monkeypatch.setattr(pipeline_mod, "FLOW_CLOCK",
                        ClockConstraint(period_ns=8.0, uncertainty_ns=1.25))
    served = _service_serving(trained_gbrt).predict(request)
    prediction = trained_gbrt.predict_design(design)
    assert served.latency_cycles \
        == prediction.hls.top_report.latency_cycles \
        != at_10ns.hls.top_report.latency_cycles
    assert served.n_operations == len(prediction.node_ids)
    assert served.predicted_max_vertical == prediction.vertical.max()
    assert served.predicted_max_horizontal == prediction.horizontal.max()
    assert served.regions == prediction.hottest_regions(request.top)


def test_service_second_instance_loads_from_registry(tmp_path):
    registry = ModelRegistry(str(tmp_path))
    first = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=registry
    )
    assert first.warm() == "trained"
    r1 = first.predict(PredictRequest("face_detection"))

    second = CongestionService(
        "linear", options=_options(), combos=COMBOS,
        registry=ModelRegistry(str(tmp_path)),
    )
    assert second.warm() == "registry"
    assert second.warm() == "memory"
    r2 = second.predict(PredictRequest("face_detection"))
    assert second.stats()["trained"] == 0
    assert r1.predicted_max_vertical == r2.predicted_max_vertical
    assert [(r.source_line, r.vertical) for r in r1.regions] == [
        (r.source_line, r.vertical) for r in r2.regions
    ]


def test_service_answers_from_registry_in_second_process(tmp_path):
    """The acceptance path: a *separate process* loads the persisted
    model (never retrains) and predicts identically."""
    registry = ModelRegistry(str(tmp_path / "models"))
    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=registry
    )
    service.warm()
    local = service.predict(PredictRequest("face_detection"))

    script = (
        "import json, sys\n"
        "from repro.flow import FlowOptions\n"
        "from repro.serve import (CongestionService, ModelRegistry,\n"
        "                         PredictRequest)\n"
        f"registry = ModelRegistry({str(tmp_path / 'models')!r})\n"
        "service = CongestionService(\n"
        f"    'linear', options=FlowOptions(scale={SCALE},\n"
        "    placement_effort='fast', seed=0),\n"
        f"    combos={COMBOS!r}, registry=registry)\n"
        "source = service.warm()\n"
        "response = service.predict(PredictRequest('face_detection'))\n"
        "print(json.dumps({\n"
        "    'source': source,\n"
        "    'trained': service.stats()['trained'],\n"
        "    'v': response.predicted_max_vertical,\n"
        "    'h': response.predicted_max_horizontal,\n"
        "    'regions': [[r.source_line, r.vertical, r.horizontal]\n"
        "                for r in response.regions],\n"
        "}))\n"
    )
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_root) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    remote = json.loads(out.stdout.strip().splitlines()[-1])
    assert remote["source"] == "registry"
    assert remote["trained"] == 0
    assert remote["v"] == local.predicted_max_vertical
    assert remote["h"] == local.predicted_max_horizontal
    assert remote["regions"] == [
        [r.source_line, r.vertical, r.horizontal] for r in local.regions
    ]


def test_service_rejects_unknown_design():
    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=None
    )
    with pytest.raises(ServeError, match="unknown design"):
        service.predict_batch([PredictRequest("not_a_design")])


def test_service_empty_batch():
    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=None
    )
    assert service.predict_batch([]) == []


def test_measure_serving_refuses_a_service_that_reuses_answers():
    """With answer reuse on, every timed request would be a dict hit."""
    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=None
    )
    with pytest.raises(ServeError, match="prediction_cache=False"):
        measure_serving(service, [PredictRequest("face_detection")])
    assert service.stats()["predictions"] == 0  # refused before any work


def _service_serving(predictor) -> CongestionService:
    service = CongestionService(
        "linear", options=_options(), combos=COMBOS, registry=None
    )
    service.adopt_predictor(predictor, source="memory")
    return service


class _ConstantModel:
    """A stand-in model whose answer cannot come from any other."""

    def predict_matrix(self, X):
        return np.full(len(X), 7.0), np.full(len(X), 3.0)


def test_service_cache_is_bounded_lru_and_off_the_stage_store(
        tmp_path, monkeypatch, trained):
    """Serving keeps one bounded LRU cache of request groups: it never
    writes the disk cache, keeps a hot group through evictions,
    recomputes an evicted group identically, and after a model swap
    reruns only the model on cached features."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    predictor, _, _ = trained
    service = _service_serving(predictor)
    service.FEATURE_CACHE_SIZE = 2
    design = build_kernel("face_detection", scale=SCALE)
    space = DirectiveSpace.around(design)
    requests = [
        PredictRequest("face_detection", directives=key)
        for key in dict.fromkeys(
            space.apply(c, design.directives).to_key()
            for c in space.sample(12, seed=0)
        )
    ][:4]
    assert len(requests) == 4
    disk = disk_cache_from_env()
    disk_before = disk.stats()["size"]

    def ask(request):
        response = service.predict(request)
        assert len(service._feature_cache) <= 2
        return replace(response, latency_seconds=0.0)

    hot, evicted = requests[:2]
    hot_answer = ask(hot)
    first = {}
    for request in requests[1:]:
        first[request] = ask(request)
        assert ask(hot) == hot_answer  # a hit: never evicted
    stats = service.stats()
    assert (stats["feature_misses"], stats["feature_hits"]) == (4, 3)
    assert list(service._feature_cache) == [requests[3].group_key,
                                            hot.group_key]

    assert ask(evicted) == first[evicted]  # recomputed exactly
    assert service.stats()["feature_misses"] == 5
    assert disk.stats()["size"] == disk_before

    hls_runs = []
    run = pipeline_mod.HLSStage.run

    def counted_run(self, ctx):
        hls_runs.append(ctx.design.name)
        return run(self, ctx)

    monkeypatch.setattr(pipeline_mod.HLSStage, "run", counted_run)
    misses = service.stats()["prediction_misses"]
    generation = service.adopt_predictor(predictor, source="memory")
    assert ask(evicted) == replace(first[evicted],
                                   model_generation=generation)
    assert service.stats()["prediction_misses"] == misses + 1

    service.adopt_predictor(_ConstantModel())
    swapped = ask(evicted)
    assert (swapped.predicted_max_vertical,
            swapped.predicted_max_horizontal) == (7.0, 3.0)
    assert service.stats()["prediction_misses"] == misses + 2
    assert not hls_runs


def test_wire_directive_override_matches_in_process(trained):
    """A directive override crosses the wire as nested JSON lists; the
    edge rebuilds the canonical key, so the answer equals the in-process
    one and a repeat in process hits the same prediction-cache slot."""
    predictor, _, _ = trained
    key = build_kernel("face_detection", scale=SCALE).directives.to_key()
    service = _service_serving(predictor)
    server = ResilientCongestionServer(service, ServerConfig())
    with start_net_server(server, NetServerConfig(watch_registry=False)) \
            as handle, NetClient(handle.host, handle.port) as client:
        remote = client.predict("face_detection", directives=key)
        stats = client.stats()
    assert stats["completed"] == 1 and stats["worker_restarts"] == 0
    local = _service_serving(predictor).predict(
        PredictRequest("face_detection", directives=key))
    assert remote["n_operations"] == local.n_operations
    assert remote["predicted_max_vertical"] == pytest.approx(
        local.predicted_max_vertical, abs=1e-6)
    assert remote["predicted_max_horizontal"] == pytest.approx(
        local.predicted_max_horizontal, abs=1e-6)
    assert len(remote["regions"]) == len(local.regions)
    for got, want in zip(remote["regions"], local.regions):
        assert got["source_line"] == want.source_line
        assert got["vertical"] == pytest.approx(want.vertical, abs=1e-6)
        assert got["horizontal"] == pytest.approx(want.horizontal, abs=1e-6)
    hits = service.stats()["prediction_hits"]
    service.predict(PredictRequest("face_detection", directives=key))
    assert service.stats()["prediction_hits"] == hits + 1


def test_wire_malformed_directive_key_is_bad_request(trained):
    predictor, _, _ = trained
    server = ResilientCongestionServer(_service_serving(predictor),
                                       ServerConfig())
    with start_net_server(server, NetServerConfig(watch_registry=False)) \
            as handle, NetClient(handle.host, handle.port) as client:
        for bad in ([["loop", 1, 4], "x"],
                    ["directives", [[["nested"]]], [], [], []],
                    ["directives", [], [["f", "loop", "four"]], [], []]):
            with pytest.raises(ServeError, match="not a directive key"):
                client.predict("face_detection", directives=bad)
        # the server is still serving, and no worker ever crashed
        assert client.predict("face_detection")["n_operations"] > 0
        stats = client.stats()
    assert stats["completed"] == 1 and stats["net"]["bad_requests"] == 3
    assert stats["worker_crashes"] == 0 and stats["worker_restarts"] == 0


# ----------------------------------------------------------------------
# distinct feature rows
# ----------------------------------------------------------------------
def _byte_rows(X):
    return {row.tobytes() for row in np.ascontiguousarray(X)}


def _assert_exact_split(X, rows, inverse):
    assert np.ascontiguousarray(rows)[inverse].tobytes() == \
        np.ascontiguousarray(X).tobytes()
    assert len(rows) == len(_byte_rows(rows)) == len(_byte_rows(X))


def _split_cases(block: int):
    """Matrices around the split's block size, with the row pairs each
    must map to one distinct row: fewer rows than one block, a partial
    last block, duplicates in different blocks, and no rows at all.
    Every non-empty one holds a -0.0/0.0 pair at rows 10 and 11."""
    rng = np.random.default_rng(3)
    for n_rows in (block // 2 + 3, 2 * block + 17, 0):
        yield rng.integers(0, 4, size=(n_rows, 7)) * 0.25, []
    # distinct rows, then one row repeated in every block and a pair on
    # each side of the first block boundary
    X = rng.normal(size=(3 * block, 7))
    X[block + 40] = X[2 * block + 40] = X[40]
    X[block] = X[block - 1]
    yield X, [(40, block + 40), (40, 2 * block + 40), (block - 1, block)]


@pytest.mark.parametrize("collide", [False, True])
def test_distinct_rows_split_is_exact(monkeypatch, collide):
    """The hash split is kept only when it reproduces the matrix byte
    for byte; a forced collision (every multiplier zero, so every row
    hashes alike) falls back to the byte sort and is just as exact,
    and a -0.0/0.0 pair stays two rows either way.  Hashing and the
    check run in blocks of rows, so the matrices straddle the block
    size."""
    from repro.serve import service as service_mod

    if collide:
        monkeypatch.setattr(service_mod, "_row_multipliers",
                            lambda n: np.zeros(n, dtype=np.uint64))
    for X, copies in _split_cases(service_mod._DISTINCT_BLOCK_ROWS):
        if len(X):
            X[10] = 0.0
            X[11] = 0.0
            X[11, 3] = -0.0
        rows, inverse = service_mod._distinct_rows(X)
        _assert_exact_split(X, rows, inverse)
        assert rows.shape == (len(_byte_rows(X)), 7)
        assert inverse.shape == (len(X),)
        assert not rows.flags.writeable
        if len(X):
            assert inverse[10] != inverse[11]
        for a, b in copies:
            assert inverse[a] == inverse[b]
        if copies:
            assert len(rows) == len(X) - len(copies)


def test_distinct_rows_checks_every_block(monkeypatch):
    """A collision that only the last block holds still falls back to
    the byte sort: the hash reads column 0 alone, which is distinct in
    every row but one in the partial last block."""
    from repro.serve import service as service_mod

    def first_column_only(n):
        multipliers = np.zeros(n, dtype=np.uint64)
        multipliers[0] = 1
        return multipliers

    monkeypatch.setattr(service_mod, "_row_multipliers", first_column_only)
    block = service_mod._DISTINCT_BLOCK_ROWS
    n_rows = 2 * block + 17
    X = np.zeros((n_rows, 5))
    X[:, 0] = np.arange(n_rows)
    X[-1, 0] = 3.0
    X[-1, 4] = 1.0            # same hash as row 3, different row
    rows, inverse = service_mod._distinct_rows(X)
    _assert_exact_split(X, rows, inverse)
    assert len(rows) == n_rows
    assert inverse[3] != inverse[-1]
