"""Regression trees on pre-binned (histogram) features.

Shared machinery for :class:`DecisionTreeRegressor` and the gradient
boosting ensemble: features are quantized once into at most ``n_bins``
quantile bins, then every split search is a histogram scan — the same
strategy modern GBRT implementations use, chosen here so the paper's
Table IV protocol (many fits under cross-validation and grid search) runs
in reasonable time in pure NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MLError
from repro.ml.base import BaseEstimator, RegressorMixin, check_X_y, check_array


class FeatureBinner:
    """Quantile binning of a feature matrix into uint8 codes."""

    def __init__(self, n_bins: int = 32) -> None:
        if not 2 <= n_bins <= 256:
            raise MLError(f"n_bins must be in [2, 256], got {n_bins}")
        self.n_bins = n_bins

    def fit(self, X: np.ndarray) -> "FeatureBinner":
        X = check_array(X)
        quantiles = np.linspace(0, 100, self.n_bins + 1)[1:-1]
        edges = []
        for j in range(X.shape[1]):
            col_edges = np.unique(np.percentile(X[:, j], quantiles))
            edges.append(col_edges)
        self.edges_ = edges
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise MLError(
                f"X has {X.shape[1]} features, binner fitted on "
                f"{self.n_features_in_}"
            )
        # For small batches the per-column searchsorted loop is pure
        # Python-call overhead (302 calls to bin one row), so count
        # edges by broadcasting instead: searchsorted(e, x, "right")
        # == sum(e <= x), bit-identical by definition.  Large batches
        # amortize the loop and the O(n log b) scan wins back.
        if X.shape[0] <= 64:
            padded = getattr(self, "_padded_edges", None)
            if padded is None:
                width = max(len(e) for e in self.edges_)
                padded = np.full((self.n_features_in_, width), np.inf)
                for j, col_edges in enumerate(self.edges_):
                    padded[j, :len(col_edges)] = col_edges
                self._padded_edges = padded
            return (
                padded[None, :, :] <= X[:, :, None]
            ).sum(axis=2, dtype=np.uint8)
        codes = np.empty(X.shape, dtype=np.uint8)
        for j, col_edges in enumerate(self.edges_):
            codes[:, j] = np.searchsorted(col_edges, X[:, j], side="right")
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


@dataclass
class _Node:
    """One tree node (leaf when ``feature`` is -1)."""

    feature: int = -1
    bin_threshold: int = 0
    left: int = -1
    right: int = -1
    value: float = 0.0


class _HistogramTreeBuilder:
    """Depth-first histogram tree growth.

    ``max_features`` (0, 1] subsamples candidate features per split (the
    standard GBRT speed/regularization lever); ``rng`` drives the
    sampling and must be provided when ``max_features < 1``.
    """

    def __init__(self, max_depth: int, min_samples_leaf: int,
                 min_impurity_decrease: float, n_bins: int,
                 max_features: float = 1.0, rng=None) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.n_bins = n_bins
        self.max_features = max_features
        self.rng = rng

    def build(self, codes: np.ndarray, target: np.ndarray,
              split_counts: np.ndarray | None = None) -> list[_Node]:
        """Grow a tree on binned ``codes`` fitting ``target``.

        ``split_counts`` (length n_features) is incremented at every split
        — the raw statistic behind the paper's feature importance ("the
        number of times that a feature is used as a split point").
        """
        n, p = codes.shape
        # Offset-packed codes: column j's bins live in [j*B, (j+1)*B), so
        # one bincount over the raveled slice histograms EVERY feature at
        # once — the split search below never loops features in Python
        # for the full-feature case.  Memoized per codes array: a boosting
        # fit calls build() once per stage on the SAME binned matrix, and
        # repacking [n, p] int64 every stage costs more than a tree.
        # When feature subsampling is on, _best_split packs only the
        # sampled candidate columns per node and never reads this.
        if self.max_features < 1.0 and self.rng is not None:
            codes_off = None
        else:
            if getattr(self, "_codes_off_for", None) is not codes:
                self._codes_off_for = codes
                self._codes_off = codes.astype(np.int64) \
                    + np.arange(p, dtype=np.int64) * self.n_bins
            codes_off = self._codes_off
        nodes: list[_Node] = []
        # stack entries: (node index, sample indices, depth)
        root_idx = self._new_leaf(nodes, target, np.arange(n))
        stack = [(root_idx, np.arange(n), 0)]
        while stack:
            node_idx, idx, depth = stack.pop()
            if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
                continue
            best = self._best_split(codes, target, idx, codes_off)
            if best is None:
                continue
            feature, threshold, gain = best
            if gain < self.min_impurity_decrease:
                continue
            mask = codes[idx, feature] <= threshold
            left_idx, right_idx = idx[mask], idx[~mask]
            if (len(left_idx) < self.min_samples_leaf
                    or len(right_idx) < self.min_samples_leaf):
                continue
            if split_counts is not None:
                split_counts[feature] += 1
            left = self._new_leaf(nodes, target, left_idx)
            right = self._new_leaf(nodes, target, right_idx)
            node = nodes[node_idx]
            node.feature = feature
            node.bin_threshold = threshold
            node.left = left
            node.right = right
            stack.append((left, left_idx, depth + 1))
            stack.append((right, right_idx, depth + 1))
        return nodes

    @staticmethod
    def _new_leaf(nodes: list[_Node], target: np.ndarray,
                  idx: np.ndarray) -> int:
        nodes.append(_Node(value=float(target[idx].mean())))
        return len(nodes) - 1

    def _best_split(self, codes, target, idx, codes_off=None):
        """Best (feature, bin threshold, variance gain) for a node.

        All candidate features are histogrammed in ONE ``bincount`` over
        offset-packed codes (bit-identical to the former per-feature
        scan: per (feature, bin) the contributions still accumulate in
        sample order, and the score/gain arithmetic is unchanged).  Only
        the final first-wins selection over per-feature gains remains a
        Python loop, preserving the original tie-breaking exactly.
        """
        n_node = len(idx)
        t = target[idx]
        total_sum = float(t.sum())

        B = self.n_bins
        p = codes.shape[1]
        if self.max_features < 1.0 and self.rng is not None:
            n_feat = max(1, int(round(p * self.max_features)))
            candidates = self.rng.choice(p, size=n_feat, replace=False)
            flat = (
                codes[np.ix_(idx, candidates)].astype(np.int64)
                + np.arange(n_feat, dtype=np.int64) * B
            ).ravel()
            nc = n_feat
        else:
            candidates = range(p)
            if codes_off is None:
                codes_off = codes.astype(np.int64) \
                    + np.arange(p, dtype=np.int64) * B
            flat = codes_off[idx].ravel()
            nc = p
        # Peak transient memory here is O(n_node * nc) for `flat` and
        # `weights` — ~2.4 MB per 1k samples at 302 features, fine for
        # this repo's datasets (<= ~10k samples).  If training ever
        # scales to millions of rows, chunk the candidate columns
        # (per-(feature, bin) bincount accumulation order is unchanged
        # by chunking, so results stay bit-identical).
        weights = np.repeat(t, nc)
        hist_cnt = np.bincount(flat, minlength=nc * B) \
            .astype(np.float64).reshape(nc, B)
        hist_sum = np.bincount(flat, weights=weights, minlength=nc * B) \
            .reshape(nc, B)

        cnt_left = np.cumsum(hist_cnt, axis=1)[:, :-1]
        sum_left = np.cumsum(hist_sum, axis=1)[:, :-1]
        cnt_right = n_node - cnt_left
        sum_right = total_sum - sum_left
        valid = (cnt_left >= self.min_samples_leaf) & (
            cnt_right >= self.min_samples_leaf
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(
                valid,
                sum_left ** 2 / np.maximum(cnt_left, 1)
                + sum_right ** 2 / np.maximum(cnt_right, 1),
                -np.inf,
            )
        ks = np.argmax(score, axis=1)
        # gain is the reduction of sum of squared errors; features with
        # no valid split carry -inf and can never win
        gains = (score[np.arange(nc), ks]
                 - total_sum * total_sum / n_node).tolist()
        ks = ks.tolist()

        best_gain = 0.0
        best = None
        for pos, f in enumerate(candidates):
            gain = gains[pos]
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (int(f), ks[pos], gain)
        return best

    @staticmethod
    def predict(nodes: list[_Node], codes: np.ndarray) -> np.ndarray:
        out = np.empty(codes.shape[0], dtype=np.float64)
        for i in range(codes.shape[0]):
            node = nodes[0]
            while node.feature >= 0:
                if codes[i, node.feature] <= node.bin_threshold:
                    node = nodes[node.left]
                else:
                    node = nodes[node.right]
            out[i] = node.value
        return out

    @staticmethod
    def predict_fast(nodes: list[_Node], codes: np.ndarray) -> np.ndarray:
        """Vectorized prediction (level-synchronous frontier walk)."""
        n = codes.shape[0]
        node_idx = np.zeros(n, dtype=np.int64)
        out = np.zeros(n, dtype=np.float64)
        features = np.array([nd.feature for nd in nodes], dtype=np.int64)
        thresholds = np.array([nd.bin_threshold for nd in nodes], dtype=np.int64)
        lefts = np.array([nd.left for nd in nodes], dtype=np.int64)
        rights = np.array([nd.right for nd in nodes], dtype=np.int64)
        values = np.array([nd.value for nd in nodes], dtype=np.float64)
        active = np.arange(n)
        while active.size:
            cur = node_idx[active]
            feat = features[cur]
            leaf_mask = feat < 0
            if leaf_mask.any():
                done = active[leaf_mask]
                out[done] = values[cur[leaf_mask]]
                active = active[~leaf_mask]
                if not active.size:
                    break
                cur = node_idx[active]
                feat = features[cur]
            go_left = (
                codes[active, feat] <= thresholds[cur]
            )
            node_idx[active] = np.where(go_left, lefts[cur], rights[cur])
        return out


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """Histogram-based CART regressor."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 5,
        min_impurity_decrease: float = 0.0,
        n_bins: int = 32,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.n_bins = n_bins

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        self._binner = FeatureBinner(self.n_bins).fit(X)
        codes = self._binner.transform(X)
        self.split_counts_ = np.zeros(X.shape[1], dtype=np.float64)
        builder = _HistogramTreeBuilder(
            self.max_depth, self.min_samples_leaf,
            self.min_impurity_decrease, self.n_bins,
        )
        self._nodes = builder.build(codes, y, self.split_counts_)
        self.n_features_in_ = X.shape[1]
        self._compiled = None
        self._mark_fitted()
        return self

    def compile_kernel(self):
        """Flat node-table kernel (lazy, cached until the next fit) —
        see :mod:`repro.ml.compiled`."""
        self.check_fitted()
        if getattr(self, "_compiled", None) is None:
            from repro.ml.compiled import compile_ensemble

            self._compiled = compile_ensemble(self)
        return self._compiled

    def predict(self, X) -> np.ndarray:
        self.check_fitted()
        X = check_array(X)
        codes = self._binner.transform(X)
        return self.compile_kernel().predict_codes(codes)

    def predict_reference(self, X) -> np.ndarray:
        """The pinned ``_Node``-walk prediction the compiled kernel is
        parity-tested against (``tests/ml/test_compiled_parity.py``)."""
        self.check_fitted()
        X = check_array(X)
        codes = self._binner.transform(X)
        return _HistogramTreeBuilder.predict_fast(self._nodes, codes)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Split-count importances, normalized to sum to one."""
        self.check_fitted()
        total = self.split_counts_.sum()
        if total == 0:
            return np.zeros_like(self.split_counts_)
        return self.split_counts_ / total

    @property
    def n_leaves_(self) -> int:
        self.check_fitted()
        return sum(1 for nd in self._nodes if nd.feature < 0)
