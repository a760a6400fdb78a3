"""Persistent storage of trained congestion predictors.

The paper's serving story ("detect congested regions ... without running
the time-consuming RTL implementation flow") only pays off if a trained
model outlives the process that trained it.  :class:`ModelRegistry`
persists a :class:`~repro.predict.CongestionPredictor` under
``REPRO_CACHE_DIR`` (or any explicit root) as one slot of exactly two
files:

* ``<key>.kernels`` — the model's NumPy kernels, both directions in
  one :func:`~repro.ml.compiled.pack_kernels` payload, inside the
  checksummed artifact container; loading decodes it with
  ``allow_pickle=False``, so a load never unpickles anything;
* ``<key>.model.json`` — the :class:`ModelManifest`, written last (it
  is the commit record), which records everything the model's validity
  depends on:

  * the **model family** (linear / ann / gbrt);
  * the **feature-registry hash** — the exact 302-feature vector layout
    the model was trained on;
  * the **dataset fingerprint** — which combos and flow options
    produced the training labels;
  * the **device fingerprint** — the fabric calibration (grid, columns,
    track counts) behind those labels.

``load`` refuses to return a model whose manifest no longer matches the
running library (:class:`~repro.errors.StaleModelError`): a recalibrated
device or a changed feature registry silently invalidates every persisted
model, exactly like the flow disk cache.  Slots written by an earlier
format version have other names, so they are never read: the first
service per root trains once and publishes the current pair, and that
save deletes the format-2 files of the same slot.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass

from repro.errors import (
    CorruptArtifactError,
    ModelRegistryError,
    StaleModelError,
)
from repro.features.registry import N_FEATURES, registry_hash
from repro.flow.pipeline import FlowOptions
from repro.fpga.device import Device, device_fingerprint, xc7z020
from repro.ml.compiled import pack_kernels, unpack_kernels
from repro.predict.predictor import CongestionPredictor
from repro.util.cache import (
    CACHE_DIR_ENV,
    atomic_checked_write,
    checked_read,
    quarantine_artifact,
    writer_tmp_path,
)
from repro.util.faults import fault_point

#: bump when the persisted predictor layout changes incompatibly
#: (v2: checksummed model artifacts; v3: NumPy kernels, not a pickle)
MANIFEST_FORMAT_VERSION = 3

#: a format-2 slot: manifest, pickled predictor and its compiled export
_FORMAT2_SUFFIXES = (".manifest.json", ".model.pkl", ".export.npz",
                     ".export.json")


def dataset_spec_fingerprint(
    combos: tuple[str, ...], options: FlowOptions
) -> str:
    """Identity of a training-dataset *specification*.

    Computable without building the dataset (the whole point of the
    registry is answering "is a model for this spec already trained?"
    cheaply).  Device calibration is deliberately excluded — it is
    validated separately via the manifest's device fingerprint, so a
    recalibration surfaces as a *stale* model, not a silent miss.
    """
    payload = ("dataset-spec", tuple(combos),
               options.cache_key("*", "baseline"))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@dataclass(frozen=True)
class ModelManifest:
    """Everything a persisted model's validity depends on."""

    model_family: str
    feature_registry_hash: str
    dataset_fingerprint: str
    device_fingerprint: tuple
    n_features: int
    n_training_samples: int
    created_at: str
    format_version: int = MANIFEST_FORMAT_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=list)

    @classmethod
    def from_json(cls, text: str) -> "ModelManifest":
        raw = json.loads(text)
        raw["device_fingerprint"] = tuple(
            tuple(v) if isinstance(v, list) else v
            for v in raw["device_fingerprint"]
        )
        return cls(**raw)


class ModelRegistry:
    """Save/load trained predictors' kernels with manifest validation."""

    def __init__(self, root: str | None = None) -> None:
        if root is None:
            cache_root = os.environ.get(CACHE_DIR_ENV, "").strip()
            if not cache_root:
                raise ModelRegistryError(
                    "no registry root: pass one explicitly or set "
                    f"{CACHE_DIR_ENV}"
                )
            root = os.path.join(cache_root, "models")
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.saves = 0
        self.quarantined = 0

    def _quarantine(self, *paths: str) -> list[str]:
        """Park corrupt artifact files so they are never re-adopted;
        returns the quarantine destinations actually written."""
        moved = []
        for path in paths:
            dest = quarantine_artifact(path)
            if dest is not None:
                moved.append(dest)
        self.quarantined += len(moved)
        return moved

    # ------------------------------------------------------------------
    def _key(self, model_family: str, dataset_fingerprint: str,
             device: Device | None = None, *,
             version: int = MANIFEST_FORMAT_VERSION) -> str:
        # Device calibration is part of the storage slot: two
        # calibrations sharing one cache root must coexist, not evict
        # each other into perpetual retrain thrashing.
        fingerprint = device_fingerprint(device or xc7z020())
        payload = f"model:v{version}:" \
                  f"{model_family}:{dataset_fingerprint}:{fingerprint!r}"
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    def _remove_format2_slot(self, model_family: str,
                             dataset_fingerprint: str,
                             device: Device | None) -> None:
        """Delete the format-2 files of this exact slot, which a saved
        format-3 model replaces: nothing reads them any more."""
        key = self._key(model_family, dataset_fingerprint, device,
                        version=2)
        for suffix in _FORMAT2_SUFFIXES:
            try:
                os.remove(os.path.join(self.root, key + suffix))
            except FileNotFoundError:
                pass

    def manifest_path(self, model_family: str, dataset_fingerprint: str,
                      device: Device | None = None) -> str:
        key = self._key(model_family, dataset_fingerprint, device)
        return os.path.join(self.root, f"{key}.model.json")

    def kernels_path(self, model_family: str, dataset_fingerprint: str,
                     device: Device | None = None) -> str:
        key = self._key(model_family, dataset_fingerprint, device)
        return os.path.join(self.root, f"{key}.kernels")

    # ------------------------------------------------------------------
    def save(
        self,
        predictor: CongestionPredictor,
        *,
        dataset_fingerprint: str,
    ) -> ModelManifest:
        """Persist a fitted predictor; returns the written manifest."""
        n_samples = getattr(predictor, "n_training_samples_", None)
        if n_samples is None or not predictor.kernels:
            raise ModelRegistryError(
                "refusing to persist an unfitted CongestionPredictor"
            )
        manifest = ModelManifest(
            model_family=predictor.model_name,
            feature_registry_hash=registry_hash(),
            dataset_fingerprint=dataset_fingerprint,
            device_fingerprint=device_fingerprint(predictor.device),
            n_features=N_FEATURES,
            n_training_samples=int(n_samples),
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        )
        family, fp = predictor.model_name, dataset_fingerprint
        dev = predictor.device
        atomic_checked_write(self.kernels_path(family, fp, dev),
                             pack_kernels(predictor.kernels),
                             site="registry.save")
        # The manifest is written *after* the kernels and stays plain,
        # human-readable JSON (truncation surfaces as a parse failure on
        # load and quarantines the pair).  A crash between the two
        # writes leaves kernels without a manifest: a plain miss.
        manifest_path = self.manifest_path(family, fp, dev)
        fault_point("registry.save.manifest")
        tmp = writer_tmp_path(manifest_path)
        try:
            with open(tmp, "w") as fh:
                fh.write(manifest.to_json() + "\n")
            os.replace(tmp, manifest_path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self._remove_format2_slot(family, fp, dev)
        self.saves += 1
        return manifest

    def artifact_version(self, model_family: str, dataset_fingerprint: str,
                         device: Device | None = None) -> tuple | None:
        """Opaque change token for the persisted (manifest, kernels) pair,
        or ``None`` when nothing is persisted.

        A re-``save`` of the same key rewrites the manifest via
        ``os.replace``, so its mtime/size pair changes atomically — the
        registry watcher behind model hot-swap polls this token instead
        of re-reading and re-validating the manifest every tick.
        """
        path = self.manifest_path(model_family, dataset_fingerprint, device)
        try:
            st = os.stat(path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    # ------------------------------------------------------------------
    def read_manifest(self, model_family: str, dataset_fingerprint: str,
                      device: Device | None = None) -> ModelManifest:
        path = self.manifest_path(model_family, dataset_fingerprint, device)
        try:
            with open(path) as fh:
                text = fh.read()
        except FileNotFoundError:
            # A never-trained calibration is a plain miss, even when
            # other calibrations' models exist in the same root —
            # StaleModelError is reserved for a manifest that no longer
            # matches the library it is being loaded into.
            self.misses += 1
            raise ModelRegistryError(
                f"no persisted {model_family!r} model for dataset "
                f"{dataset_fingerprint[:12]}... under {self.root}"
            ) from None
        try:
            return ModelManifest.from_json(text)
        except (json.JSONDecodeError, ValueError, TypeError, KeyError) \
                as exc:
            # Malformed or truncated manifest: the (manifest, kernels)
            # pair is unusable as a whole — quarantine both and raise a
            # typed error naming the offending path, never a raw
            # JSONDecodeError.
            self.misses += 1
            self._quarantine(
                path,
                self.kernels_path(model_family, dataset_fingerprint, device),
            )
            raise CorruptArtifactError(
                f"malformed manifest {path} (quarantined): {exc}"
            ) from exc

    def _validate(self, manifest: ModelManifest, device: Device) -> None:
        expected = {
            "format_version": (MANIFEST_FORMAT_VERSION,
                               manifest.format_version),
            "feature_registry_hash": (registry_hash(),
                                      manifest.feature_registry_hash),
            "n_features": (N_FEATURES, manifest.n_features),
            "device_fingerprint": (device_fingerprint(device),
                                   manifest.device_fingerprint),
        }
        mismatches = [
            f"{name}: manifest has {got!r}, library expects {want!r}"
            for name, (want, got) in expected.items() if want != got
        ]
        if mismatches:
            self.stale += 1
            raise StaleModelError(
                "persisted model is stale — " + "; ".join(mismatches)
            )

    def load(
        self,
        model_family: str,
        dataset_fingerprint: str,
        *,
        device: Device | None = None,
    ) -> CongestionPredictor:
        """Load a persisted predictor after validating its manifest.

        Raises :class:`ModelRegistryError` when nothing is persisted,
        :class:`StaleModelError` when a persisted model no longer
        matches the running library, and
        :class:`~repro.errors.CorruptArtifactError` (after quarantining
        the artifact pair) when checksum verification or decoding
        fails.  Transient I/O failures propagate as
        ``OSError`` so callers can retry them.
        """
        device = device or xc7z020()
        manifest = self.read_manifest(model_family, dataset_fingerprint,
                                      device)
        self._validate(manifest, device)
        path = self.kernels_path(model_family, dataset_fingerprint, device)
        manifest_path = self.manifest_path(model_family,
                                           dataset_fingerprint, device)
        try:
            kernels = unpack_kernels(checked_read(path, site="registry.load"))
        except FileNotFoundError:
            # manifest without kernels: a crash between the two save
            # writes cannot produce this (kernels are written first), so
            # treat the orphan manifest as corrupt state
            self.misses += 1
            self._quarantine(manifest_path)
            raise CorruptArtifactError(
                f"manifest {manifest_path} has no model artifact "
                f"{path} (manifest quarantined)"
            ) from None
        except CorruptArtifactError as exc:
            self.misses += 1
            self._quarantine(path, manifest_path)
            raise CorruptArtifactError(
                f"corrupt model artifact {path} (quarantined): {exc}"
            ) from exc
        except OSError:
            self.misses += 1
            raise  # transient I/O: retryable, nothing to quarantine
        self.hits += 1
        return CongestionPredictor.from_kernels(
            model_family, kernels, device=device,
            n_training_samples=manifest.n_training_samples,
        )

    # ------------------------------------------------------------------
    def entries(self) -> list[ModelManifest]:
        """All readable manifests under the registry root."""
        out = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".model.json"):
                continue
            try:
                with open(os.path.join(self.root, name)) as fh:
                    out.append(ModelManifest.from_json(fh.read()))
            except (OSError, ValueError, TypeError, KeyError):
                continue
        return out

    def stats(self) -> dict[str, int]:
        try:
            entries = sum(
                1 for n in os.listdir(self.root)
                if n.endswith(".model.json")
            )
        except OSError:  # registry root removed out from under us
            entries = 0
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "saves": self.saves,
            "quarantined": self.quarantined,
            "entries": entries,
        }
