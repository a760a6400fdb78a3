"""Kill-mid-write crash safety of the persistence layer.

Each test runs a child process with a ``REPRO_FAULTS`` plan whose
``crash`` kind calls ``os._exit(70)`` at a write seam — no ``finally``
blocks, no ``atexit``, the closest a test can get to ``kill -9`` — then
verifies from the parent that the store is still *loadable*: the torn
entry is absent or quarantined, never adopted as truth.

The predictor persisted here is a tiny linear one, fitted on a few
random rows: crash safety is a property of the artifact container, not
of model quality, and this keeps the child processes fast.  (An
unfitted predictor has no kernels, and the registry refuses to save it.)
"""

import os
import subprocess
import sys

import pytest

from repro.errors import CorruptArtifactError, ModelRegistryError
from repro.predict import CongestionPredictor
from repro.serve import ModelRegistry
from repro.util.cache import DiskCache
from repro.util.faults import CRASH_EXIT_CODE

FINGERPRINT = "deadbeef" * 8


def _run_child(body: str, fault_plan: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_root) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_FAULTS"] = fault_plan
    return subprocess.run(
        [sys.executable, "-c", body], env=env,
        capture_output=True, text=True, timeout=120,
    )


#: fits the tiny linear predictor; run by the test and by its children
_TINY_PREDICTOR = """
import numpy as np
from repro.dataset.build import CongestionDataset, SampleMeta
from repro.predict import CongestionPredictor

X = np.random.default_rng(0).uniform(size=(16, 302))
text = lambda value: np.full(16, value, dtype=object)
meta = SampleMeta(text("tiny"), np.arange(16), text("top"), text("top"),
                  text("add"), text("tiny.c"), np.arange(16), text(None),
                  np.zeros(16, dtype=np.int64), np.zeros(16, dtype=bool))
predictor = CongestionPredictor("linear").fit(
    CongestionDataset(X, X[:, 0], X[:, 1], meta))
"""


def _tiny_predictor() -> CongestionPredictor:
    namespace: dict = {}
    exec(_TINY_PREDICTOR, namespace)
    return namespace["predictor"]


_SAVE_PREDICTOR = _TINY_PREDICTOR + """
from repro.serve import ModelRegistry

ModelRegistry({root!r}).save(
    predictor, dataset_fingerprint={fingerprint!r}
)
print("save returned")  # must be unreachable: the child crashed first
"""

_PUT_CACHE = """
from repro.util.cache import DiskCache

DiskCache({root!r}).put(("k",), list(range(1000)))
print("put returned")
"""


def test_crash_mid_cache_write_leaves_store_loadable(tmp_path):
    root = str(tmp_path)
    out = _run_child(_PUT_CACHE.format(root=root),
                     "cache.write.mid:crash")
    assert out.returncode == CRASH_EXIT_CODE, out.stderr
    assert "put returned" not in out.stdout

    # the half-written temp file was never published as an entry
    assert [n for n in os.listdir(root) if n.endswith(".pkl")] == []
    cache = DiskCache(root)
    assert cache.get(("k",), default="miss") == "miss"
    assert cache.stats()["quarantined"] == 0  # nothing to quarantine
    # and the slot still works
    cache.put(("k",), "rebuilt")
    assert DiskCache(root).get(("k",)) == "rebuilt"


def test_crash_mid_model_write_is_a_plain_miss(tmp_path):
    root = str(tmp_path)
    out = _run_child(
        _SAVE_PREDICTOR.format(root=root, fingerprint=FINGERPRINT),
        "registry.save.mid:crash",
    )
    assert out.returncode == CRASH_EXIT_CODE, out.stderr
    assert "save returned" not in out.stdout

    # neither half of the (kernels, manifest) pair was published
    names = os.listdir(root)
    assert [n for n in names if n.endswith(".kernels")] == []
    assert [n for n in names if n.endswith(".model.json")] == []
    registry = ModelRegistry(root)
    with pytest.raises(ModelRegistryError, match="no persisted"):
        registry.load("linear", FINGERPRINT)
    # the slot is reusable: a clean save round-trips
    registry.save(_tiny_predictor(), dataset_fingerprint=FINGERPRINT)
    assert isinstance(
        ModelRegistry(root).load("linear", FINGERPRINT),
        CongestionPredictor,
    )


def test_crash_between_model_and_manifest_is_a_plain_miss(tmp_path):
    """The kernels are written first; a crash before the manifest leaves
    orphan kernels that load treats as 'nothing persisted' (the manifest
    is the commit record)."""
    root = str(tmp_path)
    out = _run_child(
        _SAVE_PREDICTOR.format(root=root, fingerprint=FINGERPRINT),
        "registry.save.manifest:crash",
    )
    assert out.returncode == CRASH_EXIT_CODE, out.stderr

    names = os.listdir(root)
    assert [n for n in names if n.endswith(".kernels")] != []
    assert [n for n in names if n.endswith(".model.json")] == []
    registry = ModelRegistry(root)
    with pytest.raises(ModelRegistryError, match="no persisted"):
        registry.load("linear", FINGERPRINT)
    # re-saving overwrites the orphan atomically and completes the pair
    registry.save(_tiny_predictor(), dataset_fingerprint=FINGERPRINT)
    ModelRegistry(root).load("linear", FINGERPRINT)


def test_truncated_model_artifact_is_quarantined_not_adopted(tmp_path):
    """A torn artifact that somehow *was* published (e.g. torn by the
    filesystem, not by our writer) still fails its checksum on load and
    is quarantined, never deserialized."""
    root = str(tmp_path)
    registry = ModelRegistry(root)
    registry.save(_tiny_predictor(), dataset_fingerprint=FINGERPRINT)
    path = registry.kernels_path("linear", FINGERPRINT)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])

    with pytest.raises(CorruptArtifactError, match="quarantined"):
        registry.load("linear", FINGERPRINT)
    assert not os.path.exists(path)
    assert os.path.exists(path + ".quarantined")
    assert registry.stats()["quarantined"] == 2  # kernels + manifest pair
    with pytest.raises(ModelRegistryError, match="no persisted"):
        ModelRegistry(root).load("linear", FINGERPRINT)
