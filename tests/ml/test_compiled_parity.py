"""Bit-parity of the compiled inference kernels with the estimators.

The compiled tree kernel (:mod:`repro.ml.compiled`) replaces the
per-sample ``_Node`` walk on every predict path; these tests pin the
contract that made that safe: predictions agree with the pinned
``predict_reference`` to 1e-9 (only tree summation order differs),
batch and single-row prediction are bit-identical, the dense Lasso/MLP
kernels repeat ``ScaledModel.predict`` bit for bit, and packed kernels
round-trip — including into a fresh process that never imports the
training stack.
"""

import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import CorruptArtifactError, MLError
from repro.ml import (
    DecisionTreeRegressor,
    FeatureBinner,
    GradientBoostingRegressor,
    LassoRegression,
    MLPRegressor,
    RandomForestRegressor,
)
from repro.ml.compiled import (
    LinearKernel,
    MLPKernel,
    compile_ensemble,
    compile_model,
    pack_kernels,
    shared_binning,
    unpack_kernels,
)
from repro.ml.tree import _HistogramTreeBuilder
from repro.predict import CongestionPredictor
from repro.predict.evaluate import ScaledModel

PARITY = 1e-9


def friedman(n=500, p=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, p))
    y = (
        10 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20 * (X[:, 2] - 0.5) ** 2
        + 10 * X[:, 3]
        + 5 * X[:, 4]
        + rng.normal(scale=0.3, size=n)
    )
    return X, y


# ----------------------------------------------------------------------
# estimator parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("params", [
    dict(n_estimators=60, max_depth=3),
    # the rng paths: per-stage subsampling and feature subsampling
    dict(n_estimators=40, max_depth=4, subsample=0.7, max_features=0.5),
    # the paper's tuned configuration shape
    dict(n_estimators=120, max_depth=5, learning_rate=0.08, subsample=0.8,
         max_features=0.4),
])
def test_gbrt_compiled_matches_object_walk(params):
    X, y = friedman()
    gbrt = GradientBoostingRegressor(random_state=3, **params).fit(X, y)
    compiled = gbrt.predict(X)
    reference = gbrt.predict_reference(X)
    assert gbrt._compiled is not None  # the kernel actually engaged
    assert np.max(np.abs(compiled - reference)) <= PARITY


def test_random_forest_compiled_matches_object_walk():
    """RF trees store *local* feature indices (per-tree subsets); the
    compiler must remap them to global columns."""
    X, y = friedman()
    forest = RandomForestRegressor(
        n_estimators=25, max_depth=6, max_features=0.4, random_state=1
    ).fit(X, y)
    assert np.max(
        np.abs(forest.predict(X) - forest.predict_reference(X))
    ) <= PARITY


def test_decision_tree_compiled_matches_object_walk():
    X, y = friedman(300)
    tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
    assert np.max(
        np.abs(tree.predict(X) - tree.predict_reference(X))
    ) <= PARITY


def test_batch_equals_single_row_bitwise():
    """Per-row computation is batch-independent: serving a request alone
    or inside any micro-batch gives the same bits."""
    X, y = friedman(200)
    gbrt = GradientBoostingRegressor(
        n_estimators=50, max_depth=4, subsample=0.8, random_state=0
    ).fit(X, y)
    batch = gbrt.predict(X)
    singles = np.concatenate([gbrt.predict(X[i:i + 1]) for i in range(40)])
    assert np.array_equal(batch[:40], singles)


def test_binner_small_batch_path_matches_searchsorted():
    """FeatureBinner's broadcast small-batch path is bit-identical to
    the searchsorted bulk path (and so is the compiled ensemble's)."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 11))
    binner = FeatureBinner(32).fit(X)
    bulk = binner.transform(X)  # n > 64: searchsorted
    for lo in (0, 64, 299):
        small = binner.transform(X[lo:lo + 1])  # n = 1: broadcast
        assert np.array_equal(small, bulk[lo:lo + 1])


def test_compiled_batch_is_five_times_the_object_walk():
    """The compiled batch kernel serves at least 5x the rows/s of the
    per-row ``_Node`` walk it replaced (one Python descent per tree per
    row), best of 3 on each side, on 1,024 rows of 8 features."""
    X, y = friedman(1024)
    gbrt = GradientBoostingRegressor(
        n_estimators=60, max_depth=3, random_state=0
    ).fit(X, y)

    def object_walk(rows):
        codes = gbrt._binner.transform(rows)
        out = np.full(rows.shape[0], gbrt.init_)
        for nodes in gbrt._trees:
            out += gbrt.learning_rate * _HistogramTreeBuilder.predict(
                nodes, codes
            )
        return out

    def best_of_3(predict):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            answer = predict(X)
            best = min(best, time.perf_counter() - start)
        return best, answer

    t_walk, walked = best_of_3(object_walk)
    t_batch, compiled = best_of_3(gbrt.predict)
    assert np.max(np.abs(compiled - walked)) <= PARITY
    assert t_walk / t_batch >= 5.0, (
        f"compiled batch kernel is only {t_walk / t_batch:.2f}x the "
        f"object walk (>= 5x required)"
    )


def test_compile_rejects_unfitted_and_foreign_estimators():
    with pytest.raises(MLError, match="fit"):
        GradientBoostingRegressor().compile_kernel()
    with pytest.raises(MLError, match="cannot compile|no fitted binner"):
        compile_ensemble(object())


# ----------------------------------------------------------------------
# the paper's feature matrices (all three combos)
# ----------------------------------------------------------------------
def test_parity_on_paper_dataset(small_dataset):
    """Real 302-feature rows from every paper combination, fitted per
    congestion direction — the matrices the serving pool actually sees."""
    X = small_dataset.X
    for target in ("vertical", "horizontal"):
        gbrt = GradientBoostingRegressor(
            n_estimators=40, max_depth=4, random_state=0
        ).fit(X, small_dataset.target(target))
        assert np.max(
            np.abs(gbrt.predict(X) - gbrt.predict_reference(X))
        ) <= PARITY


@pytest.mark.parametrize("estimator", [
    LassoRegression(alpha=0.05, max_iter=300),
    MLPRegressor(hidden_layer_sizes=(16, 8), max_epochs=30),
    MLPRegressor(hidden_layer_sizes=(12,), activation="tanh",
                 max_epochs=30),
], ids=["lasso", "mlp-relu", "mlp-tanh"])
def test_dense_kernels_repeat_scaled_model_bit_for_bit(estimator):
    """The linear and ann families serve through dense kernels that
    repeat ScaledModel.predict op for op: equal bits at every batch
    shape, before and after a pack round trip."""
    X, y = friedman(300)
    model = ScaledModel(estimator).fit(X, y)
    kernel = compile_model(model)
    assert isinstance(kernel, (LinearKernel, MLPKernel))
    unpacked = unpack_kernels(pack_kernels(
        {"vertical": kernel, "horizontal": kernel}
    ))["vertical"]
    for rows in (X, X[:1], X[:65]):
        assert np.array_equal(kernel.predict(rows), model.predict(rows))
        assert np.array_equal(unpacked.predict(rows), model.predict(rows))
    with pytest.raises(MLError, match="features"):
        kernel.predict(X[:, :3])


# ----------------------------------------------------------------------
# packed kernels: the one persisted and shipped model format
# ----------------------------------------------------------------------
def _fitted_pair(n=300):
    X, _ = friedman(n)
    yv = X[:, 0] * 3 + X[:, 1]
    yh = X[:, 2] * 2 - X[:, 3]
    gv = GradientBoostingRegressor(n_estimators=25, random_state=0).fit(X, yv)
    gh = GradientBoostingRegressor(n_estimators=25, random_state=0).fit(X, yh)
    return X, gv, gh


def test_export_round_trip_is_bit_identical():
    X, gv, gh = _fitted_pair()
    payload = pack_kernels({"vertical": gv.compile_kernel(),
                            "horizontal": gh.compile_kernel()})
    kernels = unpack_kernels(payload)
    assert kernels["vertical"].n_trees == 25
    assert np.array_equal(kernels["vertical"].predict(X), gv.predict(X))
    assert np.array_equal(kernels["horizontal"].predict(X), gh.predict(X))
    assert pack_kernels(kernels) == payload  # decoding loses nothing


def test_export_rejects_version_and_corruption():
    """Damaged or foreign payloads raise CorruptArtifactError, never a
    raw zip/NumPy error; the format version lives in the registry's
    manifest, whose mismatch tests/serve/test_serve.py covers."""
    _, gv, gh = _fitted_pair(120)
    kernels = {"vertical": gv.compile_kernel(),
               "horizontal": gh.compile_kernel()}
    payload = pack_kernels(kernels)
    with pytest.raises(CorruptArtifactError, match="undecodable"):
        unpack_kernels(payload[:100])  # truncated
    with pytest.raises(CorruptArtifactError, match="undecodable"):
        unpack_kernels(b"not a payload")
    with pytest.raises(CorruptArtifactError, match="cover"):
        unpack_kernels(pack_kernels({"vertical": kernels["vertical"]}))

    arrays = {f"vertical__{k}": v
              for k, v in kernels["vertical"].to_arrays().items()}
    arrays["vertical__kind"] = np.array("trees-v0")  # unknown kind
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    with pytest.raises(CorruptArtifactError, match="undecodable"):
        unpack_kernels(buffer.getvalue())

    # an object array needs pickle to load: refused, never unpickled
    buffer = io.BytesIO()
    np.savez(buffer, vertical__kind=np.array([object()], dtype=object))
    with pytest.raises(CorruptArtifactError, match="undecodable"):
        unpack_kernels(buffer.getvalue())


def test_shared_binning_detected_for_same_fit_matrix():
    X, gv, gh = _fitted_pair(150)
    kv, kh = gv.compile_kernel(), gh.compile_kernel()
    assert shared_binning(kv, kh)
    predictor = CongestionPredictor.from_kernels(
        "gbrt", {"vertical": kv, "horizontal": kh}
    )
    assert predictor._shared_bins
    v, h = predictor.predict_matrix(X)
    assert np.array_equal(v, gv.predict(X))
    assert np.array_equal(h, gh.predict(X))


LOADER = """
import json, sys
import numpy as np
from repro.ml.compiled import unpack_kernels

X = np.load(sys.argv[1])
answers = {}
for path in sys.argv[2:]:
    with open(path, "rb") as fh:
        kernels = unpack_kernels(fh.read())
    answers[path] = {d: k.predict(X).tolist() for d, k in kernels.items()}
banned = [m for m in sys.modules
          if m in ("repro.ml.tree", "repro.ml.gbrt", "repro.ml.base",
                   "repro.predict", "repro.flow", "repro.dataset")
          or m.startswith("repro.hls")]
print(json.dumps({"answers": answers, "banned": banned}))
"""


def test_export_loads_without_training_stack(tmp_path):
    """A fresh process decodes packed kernels of every family with
    repro.ml.compiled alone — no tree/GBRT modules, no flow stack, no
    unpickling — and reproduces the fitted models' answers."""
    X, gv, gh = _fitted_pair(80)
    linear = ScaledModel(LassoRegression(alpha=0.05)).fit(X, X[:, 0])
    mlp = ScaledModel(MLPRegressor(hidden_layer_sizes=(8,),
                                   max_epochs=10)).fit(X, X[:, 1])
    families = {
        "gbrt": {"vertical": gv, "horizontal": gh},
        "linear": {"vertical": linear, "horizontal": linear},
        "ann": {"vertical": mlp, "horizontal": mlp},
    }
    paths = []
    for family, models in families.items():
        kernels = {
            d: (m.compile_kernel() if family == "gbrt" else compile_model(m))
            for d, m in models.items()
        }
        path = tmp_path / f"{family}.kernels"
        path.write_bytes(pack_kernels(kernels))
        paths.append(str(path))
    x_path = str(tmp_path / "x.npy")
    np.save(x_path, X[:16])

    out = subprocess.run(
        [sys.executable, "-c", LOADER, x_path, *paths],
        capture_output=True, text=True, check=True,
    )
    payload = json.loads(out.stdout)
    assert payload["banned"] == []
    for path, (family, models) in zip(paths, families.items()):
        for direction, model in models.items():
            assert np.array_equal(
                np.asarray(payload["answers"][path][direction]),
                model.predict(X[:16]),
            ), (family, direction)
