"""Flat NumPy inference kernels: the one form a trained model is served in.

The training stack grows trees as linked lists of
:class:`~repro.ml.tree._Node` dataclasses — convenient to build, slow to
serve: every prediction re-walks (and :func:`predict_fast` re-packs)
Python objects per tree.  :func:`compile_ensemble` lowers a *fitted*
``GradientBoostingRegressor`` / ``RandomForestRegressor`` /
``DecisionTreeRegressor`` once into a :class:`CompiledEnsemble` — a
handful of contiguous NumPy arrays:

* ``feature``/``threshold``/``left``/``right`` — ``int32`` node tables
  for **all trees concatenated**, child links rewritten to global node
  ids, leaves self-looping (``left == right == self``) so traversal
  needs no leaf masking;
* ``value`` — ``float64`` node values (leaf means);
* ``roots`` — each tree's root node id;
* ``edges``/``edge_offsets`` — the quantile bin edges of the fitted
  :class:`~repro.ml.tree.FeatureBinner`, flattened, so a compiled
  ensemble can bin raw feature matrices itself.

Prediction descends **all samples × all trees simultaneously**:
``depth`` rounds of gather/compare/select pointer-chasing, then one
gather of leaf values and a single sum over the tree axis — a dozen
NumPy kernels total, independent of tree count.  Per-row computation is
independent of the batch, so batch and single-row prediction are
bit-identical; parity with the object-walk reference is pinned at
``1e-9`` by ``tests/ml/test_compiled_parity.py`` (only the summation
order over trees differs).

The scale-sensitive families get dense kernels that repeat
``ScaledModel.predict`` op for op, so their answers are bit-identical
to the fitted estimators': :class:`LinearKernel` (the scaler, then
Lasso's ``X @ coef + intercept``) and :class:`MLPKernel` (the scaler,
then the network's own standardization, layers, activation and
unscale).  :func:`compile_model` lowers a fitted ``ScaledModel`` to
the right one.

Every kernel is a set of named arrays: :func:`pack_kernels` writes one
``np.savez`` payload holding both congestion directions, and
:func:`unpack_kernels` decodes it with ``allow_pickle=False``.  The
model registry persists exactly these bytes and pool workers receive
them.  This module is deliberately importable **without the training
stack** (NumPy + :mod:`repro.errors` only; estimators are compiled
duck-typed), so the bytes decode and serve without it.
"""

from __future__ import annotations

import io

import numpy as np

from repro.errors import CorruptArtifactError, MLError

#: directions a congestion model's kernels must provide
_DIRECTIONS = ("vertical", "horizontal")


def _check_matrix(X, n_features: int) -> np.ndarray:
    """Mirror ``repro.ml.base.check_array`` without importing it."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise MLError(f"X must be 2-dimensional, got shape {X.shape}")
    if X.size == 0:
        raise MLError("X is empty")
    if not np.all(np.isfinite(X)):
        raise MLError("X contains NaN or infinite values")
    if X.shape[1] != n_features:
        raise MLError(
            f"X has {X.shape[1]} features, the model kernel expects "
            f"{n_features}"
        )
    return X


def _tree_depth(nodes) -> int:
    """Max root-to-leaf depth of one ``_Node`` list."""
    depth = 0
    stack = [(0, 0)]
    while stack:
        i, d = stack.pop()
        node = nodes[i]
        if node.feature < 0:
            depth = max(depth, d)
        else:
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return depth


class CompiledEnsemble:
    """Flat node tables + vectorized batch traversal for one regressor.

    ``prediction(x) = base + scale * sum_over_trees(leaf_value(x))`` —
    ``base``/``scale`` encode the GBRT init/learning-rate (or the
    forest's ``1/n_trees`` averaging; identity for a single tree).
    """

    kind = "trees"

    __slots__ = ("feature", "threshold", "left", "right", "value",
                 "roots", "depth", "base", "scale", "n_features",
                 "edges", "edge_offsets", "_packed", "_children",
                 "_padded")

    def __init__(self, *, feature, threshold, left, right, value, roots,
                 depth: int, base: float, scale: float,
                 edges, edge_offsets) -> None:
        self.feature = np.ascontiguousarray(feature, dtype=np.int32)
        self.threshold = np.ascontiguousarray(threshold, dtype=np.int32)
        self.left = np.ascontiguousarray(left, dtype=np.int32)
        self.right = np.ascontiguousarray(right, dtype=np.int32)
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.roots = np.ascontiguousarray(roots, dtype=np.int32)
        self.depth = int(depth)
        self.base = float(base)
        self.scale = float(scale)
        self.edges = np.ascontiguousarray(edges, dtype=np.float64)
        self.edge_offsets = np.ascontiguousarray(
            edge_offsets, dtype=np.int64
        )
        self.n_features = int(self.edge_offsets.size - 1)
        n = self.feature.size
        if not (self.threshold.size == self.left.size == self.right.size
                == self.value.size == n):
            raise MLError("compiled node tables have mismatched lengths")
        if n == 0 or self.roots.size == 0:
            raise MLError("compiled ensemble has no nodes")
        if self.depth < 0:
            raise MLError(f"negative tree depth {self.depth}")
        # Traversal-optimized derived tables (not exported; rebuilt on
        # load): (feature, threshold) packed into one int32 word and
        # the two child links interleaved flat, so each descent level
        # costs two gathers instead of five.  Bin codes are uint8, so
        # the low byte holds the threshold exactly; an arithmetic
        # right-shift recovers feature == -1 for leaves.
        self._packed = (self.feature << np.int32(8)) | self.threshold
        self._children = np.empty(2 * n, dtype=np.int32)
        self._children[0::2] = self.left
        self._children[1::2] = self.right
        self._padded = None  # lazy small-batch binning table

    # ------------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        return int(self.roots.size)

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    # ------------------------------------------------------------------
    @classmethod
    def from_node_lists(cls, specs, edges_list, *, base: float,
                        scale: float) -> "CompiledEnsemble":
        """Flatten ``[(nodes, feature_map), ...]`` into node tables.

        ``feature_map`` (or ``None`` for identity) maps a tree's local
        feature indices to global columns — random forests grow each
        tree on a feature subset and store local indices.
        """
        counts = [len(nodes) for nodes, _ in specs]
        total = sum(counts)
        feature = np.empty(total, dtype=np.int32)
        threshold = np.zeros(total, dtype=np.int32)
        left = np.empty(total, dtype=np.int32)
        right = np.empty(total, dtype=np.int32)
        value = np.empty(total, dtype=np.float64)
        roots = np.zeros(len(specs), dtype=np.int32)
        depth = 0
        offset = 0
        for t, (nodes, feat_map) in enumerate(specs):
            roots[t] = offset
            for k, node in enumerate(nodes):
                g = offset + k
                value[g] = node.value
                if node.feature < 0:
                    # leaf: self-loop, so a pointer that arrives early
                    # just stays put for the remaining rounds
                    feature[g] = -1
                    left[g] = g
                    right[g] = g
                else:
                    feature[g] = (
                        node.feature if feat_map is None
                        else feat_map[node.feature]
                    )
                    threshold[g] = node.bin_threshold
                    left[g] = offset + node.left
                    right[g] = offset + node.right
            depth = max(depth, _tree_depth(nodes))
            offset += counts[t]
        edge_offsets = np.zeros(len(edges_list) + 1, dtype=np.int64)
        edge_offsets[1:] = np.cumsum(
            [len(col) for col in edges_list], dtype=np.int64
        )
        edges = (
            np.concatenate([np.asarray(col, dtype=np.float64)
                            for col in edges_list])
            if edges_list else np.zeros(0, dtype=np.float64)
        )
        return cls(
            feature=feature, threshold=threshold, left=left, right=right,
            value=value, roots=roots, depth=depth, base=base, scale=scale,
            edges=edges, edge_offsets=edge_offsets,
        )

    # ------------------------------------------------------------------
    def bin(self, X) -> np.ndarray:
        """Quantize raw features to uint8 bin codes — bit-identical to
        the fitted :class:`~repro.ml.tree.FeatureBinner.transform`
        (same small-batch broadcast / large-batch searchsorted split)."""
        X = _check_matrix(X, self.n_features)
        if X.shape[0] <= 64:
            if self._padded is None:
                widths = np.diff(self.edge_offsets)
                width = int(widths.max()) if widths.size else 0
                padded = np.full((self.n_features, width), np.inf)
                for j in range(self.n_features):
                    lo, hi = self.edge_offsets[j], self.edge_offsets[j + 1]
                    padded[j, :hi - lo] = self.edges[lo:hi]
                self._padded = padded
            return (
                self._padded[None, :, :] <= X[:, :, None]
            ).sum(axis=2, dtype=np.uint8)
        codes = np.empty(X.shape, dtype=np.uint8)
        for j in range(self.n_features):
            lo, hi = self.edge_offsets[j], self.edge_offsets[j + 1]
            codes[:, j] = np.searchsorted(
                self.edges[lo:hi], X[:, j], side="right"
            )
        return codes

    def leaf_pointers(self, codes: np.ndarray) -> np.ndarray:
        """``[n_samples, n_trees]`` global node id of each row's leaf."""
        n = codes.shape[0]
        packed, children = self._packed, self._children
        if n == 1:
            # flat 1-D walk: same gathers, none of the 2-D broadcasting
            # overhead — single-row latency is the CLI/serving tail
            ptr = self.roots.copy()
            row = codes[0]
            for _ in range(self.depth):
                word = packed[ptr]
                code = row[word >> 8]
                go_right = code > (word & 255)
                ptr = children[ptr + ptr + go_right]
            return ptr[None, :]
        n_trees = self.roots.size
        ptr = np.broadcast_to(self.roots, (n, n_trees)).copy()
        # Gathers dominate this loop, and a flat ``take`` into the
        # raveled code matrix beats 2-D fancy indexing by ~1.6x at
        # serving shapes; reusing the three per-level temporaries
        # (word/feat/code) buys another ~10% by keeping the working set
        # out of the allocator.
        flat_codes = np.ascontiguousarray(codes).reshape(-1)
        base = (
            np.arange(n, dtype=np.int32) * codes.shape[1]
        )[:, None]
        word = np.empty((n, n_trees), dtype=np.int32)
        feat = np.empty((n, n_trees), dtype=np.int32)
        code = np.empty(n * n_trees, dtype=flat_codes.dtype)
        for _ in range(self.depth):
            packed.take(ptr.reshape(-1), out=word.reshape(-1))
            np.right_shift(word, 8, out=feat)
            # leaves carry feature == -1: the gather reads one code to
            # the left (or the matrix tail on row 0), whose value is
            # irrelevant — their self-loop children make either branch
            # a no-op, so no masking is needed
            np.add(feat, base, out=feat)
            flat_codes.take(feat.reshape(-1), out=code)
            word &= 255
            go_right = code.reshape(n, n_trees) > word
            np.add(ptr, ptr, out=ptr)
            np.add(ptr, go_right, out=ptr, casting="unsafe")
            children.take(ptr.reshape(-1), out=ptr.reshape(-1))
        return ptr

    def leaf_values(self, codes: np.ndarray) -> np.ndarray:
        """``[n_samples, n_trees]`` raw (unscaled) leaf values —
        the staged-prediction building block."""
        return self.value[self.leaf_pointers(codes)]

    def predict_codes(self, codes: np.ndarray) -> np.ndarray:
        """Predict from pre-binned uint8 codes."""
        return self.base + self.scale * self.leaf_values(codes).sum(axis=1)

    def predict(self, X) -> np.ndarray:
        """Predict from a raw float feature matrix (bins internally)."""
        return self.predict_codes(self.bin(X))

    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """All state as named arrays (see :func:`pack_kernels`)."""
        return {
            "feature": self.feature, "threshold": self.threshold,
            "left": self.left, "right": self.right, "value": self.value,
            "roots": self.roots, "edges": self.edges,
            "edge_offsets": self.edge_offsets,
            "depth": np.int64(self.depth),
            "base": np.float64(self.base),
            "scale": np.float64(self.scale),
        }

    @classmethod
    def from_arrays(cls, arrays) -> "CompiledEnsemble":
        return cls(**arrays)


def compile_ensemble(estimator) -> CompiledEnsemble:
    """Lower a fitted histogram-tree estimator to flat node tables.

    Accepts ``GradientBoostingRegressor``, ``RandomForestRegressor`` and
    ``DecisionTreeRegressor`` — duck-typed on their fitted attributes
    rather than imported classes, so this module stays loadable without
    the training stack.
    """
    binner = getattr(estimator, "_binner", None)
    if binner is None:
        raise MLError(
            f"{type(estimator).__name__} has no fitted binner; "
            f"fit the estimator before compiling"
        )
    if hasattr(estimator, "_nodes"):  # single decision tree
        specs = [(estimator._nodes, None)]
        base, scale = 0.0, 1.0
    elif hasattr(estimator, "_trees"):
        trees = estimator._trees
        if not trees:
            raise MLError("estimator has no trees to compile")
        if isinstance(trees[0], tuple):  # random forest: (feat_idx, nodes)
            specs = [(nodes, feat_idx) for feat_idx, nodes in trees]
            base, scale = 0.0, 1.0 / len(trees)
        else:  # gradient boosting: plain node lists
            specs = [(nodes, None) for nodes in trees]
            base = float(estimator.init_)
            scale = float(estimator.learning_rate)
    else:
        raise MLError(
            f"cannot compile {type(estimator).__name__}: not a "
            f"histogram-tree estimator"
        )
    return CompiledEnsemble.from_node_lists(
        specs, list(binner.edges_), base=base, scale=scale
    )


def shared_binning(a: CompiledEnsemble, b: CompiledEnsemble) -> bool:
    """True when two ensembles quantize identically, so one ``bin`` pass
    serves both.  The vertical/horizontal congestion models are fitted
    on the same feature matrix, which makes their quantile edges equal —
    binning is ~45% of batch inference, so sharing it matters."""
    return bool(
        np.array_equal(a.edge_offsets, b.edge_offsets)
        and np.array_equal(a.edges, b.edges)
    )


class LinearKernel:
    """The ``linear`` family's ``ScaledModel.predict``, op for op:
    ``((X - mean) / scale) @ coef + intercept``."""

    kind = "linear"

    def __init__(self, *, mean, scale, coef, intercept) -> None:
        self.mean = np.asarray(mean, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.coef = np.asarray(coef, dtype=np.float64)
        self.intercept = float(intercept)
        self.n_features = int(self.coef.size)

    def predict(self, X) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        return ((X - self.mean) / self.scale) @ self.coef + self.intercept

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"mean": self.mean, "scale": self.scale, "coef": self.coef,
                "intercept": np.float64(self.intercept)}

    @classmethod
    def from_arrays(cls, arrays) -> "LinearKernel":
        return cls(**arrays)


class MLPKernel:
    """The ``ann`` family's ``ScaledModel.predict``, op for op: the
    scaler, the network's own input standardization, its dense layers
    (activation between them, none after the last) and the target
    unscale."""

    kind = "mlp"

    def __init__(self, *, mean, scale, x_mean, x_std, weights, biases,
                 activation: str, y_mean, y_std) -> None:
        if activation not in ("relu", "tanh"):
            raise MLError(f"unknown MLP activation {activation!r}")
        self.mean = np.asarray(mean, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.x_mean = np.asarray(x_mean, dtype=np.float64)
        self.x_std = np.asarray(x_std, dtype=np.float64)
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.activation = activation
        self.y_mean = float(y_mean)
        self.y_std = float(y_std)
        self.n_features = int(self.weights[0].shape[0])

    def predict(self, X) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        a = ((X - self.mean) / self.scale - self.x_mean) / self.x_std
        last = len(self.weights) - 1
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            if layer == last:
                a = z
            elif self.activation == "relu":
                a = np.maximum(z, 0.0)
            else:
                a = np.tanh(z)
        return a[:, 0] * self.y_std + self.y_mean

    def to_arrays(self) -> dict[str, np.ndarray]:
        arrays = {"mean": self.mean, "scale": self.scale,
                  "x_mean": self.x_mean, "x_std": self.x_std,
                  "activation": np.array(self.activation),
                  "y_mean": np.float64(self.y_mean),
                  "y_std": np.float64(self.y_std)}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        return arrays

    @classmethod
    def from_arrays(cls, arrays) -> "MLPKernel":
        arrays = dict(arrays)
        weights, biases = [], []
        while f"w{len(weights)}" in arrays:
            biases.append(arrays.pop(f"b{len(weights)}"))
            weights.append(arrays.pop(f"w{len(weights)}"))
        return cls(weights=weights, biases=biases,
                   activation=str(arrays.pop("activation")), **arrays)


def compile_model(model):
    """Lower a fitted ``ScaledModel`` (:mod:`repro.predict.evaluate`) to
    the kernel that repeats its ``predict``: the tree estimator's own
    cached :class:`CompiledEnsemble` when there is no scaler, else a
    :class:`MLPKernel` or :class:`LinearKernel`.  Duck-typed, like
    :func:`compile_ensemble`."""
    estimator = model.estimator
    if not model.with_scaler:
        return estimator.compile_kernel()
    scaler = model._scaler
    if hasattr(estimator, "_weights"):  # MLPRegressor
        return MLPKernel(
            mean=scaler.mean_, scale=scaler.scale_,
            x_mean=estimator._x_mean, x_std=estimator._x_std,
            weights=estimator._weights, biases=estimator._biases,
            activation=estimator.activation,
            y_mean=estimator._y_mean, y_std=estimator._y_std,
        )
    if hasattr(estimator, "coef_"):  # LassoRegression / LinearRegression
        return LinearKernel(mean=scaler.mean_, scale=scaler.scale_,
                            coef=estimator.coef_,
                            intercept=estimator.intercept_)
    raise MLError(f"cannot compile {type(estimator).__name__}")


_KERNEL_TYPES = {cls.kind: cls
                 for cls in (CompiledEnsemble, LinearKernel, MLPKernel)}


def pack_kernels(kernels: dict) -> bytes:
    """Every array of every direction's kernel as one ``np.savez``
    payload; each direction also records its kernel ``kind``."""
    arrays: dict[str, np.ndarray] = {}
    for direction, kernel in kernels.items():
        arrays[f"{direction}__kind"] = np.array(kernel.kind)
        for key, value in kernel.to_arrays().items():
            arrays[f"{direction}__{key}"] = value
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def unpack_kernels(payload: bytes) -> dict:
    """Decode a :func:`pack_kernels` payload (never unpickling);
    any damage raises :class:`~repro.errors.CorruptArtifactError`."""
    try:
        grouped: dict[str, dict] = {}
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            for name in data.files:
                direction, _, key = name.partition("__")
                grouped.setdefault(direction, {})[key] = data[name]
        kernels = {
            direction: _KERNEL_TYPES[str(arrays.pop("kind"))]
            .from_arrays(arrays)
            for direction, arrays in grouped.items()
        }
    except Exception as exc:  # zip, format, key or shape damage
        raise CorruptArtifactError(
            f"undecodable model kernels: {exc!r}"
        ) from exc
    if sorted(kernels) != sorted(_DIRECTIONS):
        raise CorruptArtifactError(
            f"model kernels cover {sorted(kernels)}, expected "
            f"{sorted(_DIRECTIONS)}"
        )
    return kernels
