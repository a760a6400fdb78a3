"""Dataset assembly: labelled feature vectors per operation.

The paper builds its dataset from the three benchmark combinations:
"We back trace the vertical and horizontal congestion metrics per CLB to
the IR operations of each design, extract related features for each
operation and build our dataset which consists of 8111 samples totally."

One sample = one (dependency-graph node, function instance) pair: a
302-entry feature vector plus vertical / horizontal congestion labels.
Replica metadata (unroll group, replica index, margin flag) is retained
for the Section III-C1 marginal-sample filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import concurrent.futures
import multiprocessing

from repro.errors import DatasetError
from repro.features.extract import FeatureExtractor
from repro.features.registry import N_FEATURES
from repro.flow import FlowContext, FlowOptions, run_flow
from repro.kernels.combos import PAPER_COMBINATIONS
from repro.util.cache import cached_property_store, disk_cache_from_env


@dataclass(frozen=True)
class SampleMeta:
    """Provenance of one dataset sample."""

    design: str
    op_uid: int
    instance: str
    function: str
    opcode: str
    source_file: str
    source_line: int
    unroll_group: str | None
    replica_index: int
    at_margin: bool


@dataclass
class CongestionDataset:
    """Feature matrix + labels + per-sample metadata."""

    X: np.ndarray
    y_vertical: np.ndarray
    y_horizontal: np.ndarray
    meta: list[SampleMeta] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        if self.X.shape[1] != N_FEATURES:
            raise DatasetError(
                f"feature matrix has {self.X.shape[1]} columns, expected "
                f"{N_FEATURES}"
            )
        if not (len(self.y_vertical) == len(self.y_horizontal)
                == len(self.meta) == n):
            raise DatasetError("dataset arrays are misaligned")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def y_average(self) -> np.ndarray:
        """The paper's Avg. (V, H) target."""
        return 0.5 * (self.y_vertical + self.y_horizontal)

    def target(self, name: str) -> np.ndarray:
        targets = {
            "vertical": self.y_vertical,
            "horizontal": self.y_horizontal,
            "average": self.y_average,
        }
        if name not in targets:
            raise DatasetError(f"unknown target {name!r}")
        return targets[name]

    def subset(self, indices) -> "CongestionDataset":
        indices = np.asarray(indices)
        return CongestionDataset(
            X=self.X[indices],
            y_vertical=self.y_vertical[indices],
            y_horizontal=self.y_horizontal[indices],
            meta=[self.meta[int(i)] for i in indices],
        )

    def concat(self, other: "CongestionDataset") -> "CongestionDataset":
        return CongestionDataset(
            X=np.vstack([self.X, other.X]),
            y_vertical=np.concatenate([self.y_vertical, other.y_vertical]),
            y_horizontal=np.concatenate(
                [self.y_horizontal, other.y_horizontal]
            ),
            meta=[*self.meta, *other.meta],
        )

    # ------------------------------------------------------------------
    # Section III-C1: marginal-sample filtering
    # ------------------------------------------------------------------
    def marginal_mask(self) -> np.ndarray:
        """True for samples the paper's filter removes.

        A sample is *marginal* when it is a replica of an unrolled loop
        ("parts of the replicas have similar features but their labels
        vary a lot because of their different physical locations"), sits
        at the device margin, and its label falls well below its replica
        group's typical label.
        """
        group_values: dict[tuple[str, str], list[float]] = {}
        for i, meta in enumerate(self.meta):
            if meta.unroll_group is not None:
                key = (meta.design, meta.unroll_group)
                group_values.setdefault(key, []).append(
                    float(self.y_vertical[i])
                )
        medians = {
            key: float(np.median(values))
            for key, values in group_values.items()
        }
        mask = np.zeros(self.n_samples, dtype=bool)
        for i, meta in enumerate(self.meta):
            if meta.unroll_group is None or not meta.at_margin:
                continue
            median = medians[(meta.design, meta.unroll_group)]
            if self.y_vertical[i] < 0.75 * median:
                mask[i] = True
        return mask

    def filter_marginal(self) -> tuple["CongestionDataset", dict]:
        """Remove marginal samples; returns (filtered dataset, stats)."""
        mask = self.marginal_mask()
        kept = np.flatnonzero(~mask)
        stats = {
            "removed": int(mask.sum()),
            "total": self.n_samples,
            "fraction": float(mask.mean()),
        }
        return self.subset(kept), stats

    def label_stats(self) -> dict[str, float]:
        return {
            "v_mean": float(self.y_vertical.mean()),
            "v_max": float(self.y_vertical.max()),
            "h_mean": float(self.y_horizontal.mean()),
            "h_max": float(self.y_horizontal.max()),
        }


def dataset_from_flow(result: FlowContext) -> CongestionDataset:
    """Extract the labelled samples of one implemented design."""
    graph = result.graph
    extractor = FeatureExtractor(result.hls, graph, result.device)
    nodes, matrix = extractor.extract_all()

    rows: list[np.ndarray] = []
    y_v: list[float] = []
    y_h: list[float] = []
    meta: list[SampleMeta] = []
    module = result.hls.module

    for row, rep_uid in zip(matrix, graph.rep_uids(nodes)):
        labels = result.labels.by_op.get(rep_uid, [])
        if not labels:
            continue
        op = module.op_by_uid(rep_uid)
        for label in labels:
            rows.append(row)
            y_v.append(label.vertical)
            y_h.append(label.horizontal)
            meta.append(
                SampleMeta(
                    design=result.design.name,
                    op_uid=rep_uid,
                    instance=label.instance,
                    function=op.parent.name,
                    opcode=op.opcode,
                    source_file=op.loc.file,
                    source_line=op.loc.line,
                    unroll_group=op.attrs.get("unroll_group"),
                    replica_index=int(op.attrs.get("replica_index", 0)),
                    at_margin=label.at_margin,
                )
            )

    if not rows:
        raise DatasetError(
            f"flow for {result.design.name} produced no labelled samples"
        )
    return CongestionDataset(
        X=np.asarray(rows, dtype=np.float64),
        y_vertical=np.asarray(y_v, dtype=np.float64),
        y_horizontal=np.asarray(y_h, dtype=np.float64),
        meta=meta,
    )


def _combo_dataset_part(
    combo: str, options: FlowOptions, use_cache: bool, device=None
) -> CongestionDataset:
    """One combo's labelled samples (top-level so worker processes can
    import it)."""
    result = run_flow(combo, "baseline", device=device, options=options,
                      use_cache=use_cache)
    return dataset_from_flow(result)


def build_paper_dataset(
    *,
    scale: float = 1.0,
    options: FlowOptions | None = None,
    combos: tuple[str, ...] | None = None,
    use_cache: bool = True,
    n_jobs: int = 1,
    device=None,
) -> CongestionDataset:
    """Build the full dataset from the paper's benchmark combinations.

    ``n_jobs > 1`` fans the per-combo flows out over worker processes
    (``concurrent.futures``); the assembled dataset is identical to the
    serial build because every flow is seed-deterministic and parts are
    concatenated in combo order.  With ``REPRO_CACHE_DIR`` set, workers
    persist their flow results so nothing is ever implemented twice.
    """
    from repro.fpga.device import device_fingerprint, xc7z020

    options = options or FlowOptions(scale=scale)
    combos = combos or tuple(PAPER_COMBINATIONS)
    store = cached_property_store("datasets")
    # device calibration is part of the identity: labels from two
    # differently-calibrated fabrics must never share a memo slot
    key = ("paper_dataset", combos,
           device_fingerprint(device or xc7z020()),
           options.cache_key("*", "baseline"))

    def build() -> CongestionDataset:
        disk = disk_cache_from_env() if use_cache else None
        if disk is not None:
            disk_key = ("dataset", *key)
            hit = disk.get(disk_key)
            if hit is not None:
                return hit
        if n_jobs > 1 and len(combos) > 1:
            workers = min(n_jobs, len(combos))
            mp_context = (
                multiprocessing.get_context("fork")
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=mp_context
            ) as pool:
                parts = list(pool.map(
                    _combo_dataset_part, combos,
                    [options] * len(combos), [use_cache] * len(combos),
                    [device] * len(combos),
                ))
        else:
            parts = [
                _combo_dataset_part(combo, options, use_cache, device)
                for combo in combos
            ]
        dataset = parts[0]
        for part in parts[1:]:
            dataset = dataset.concat(part)
        if disk is not None:
            disk.put(disk_key, dataset)
        return dataset

    if not use_cache:
        return build()
    return store.get_or_build(key, build)
