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

from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter

import numpy as np

import concurrent.futures
import multiprocessing

from repro.errors import DatasetError
from repro.features.extract import FeatureExtractor
from repro.features.registry import N_FEATURES
from repro.flow import FlowContext, FlowOptions, run_flow
from repro.hls.tableir import OPCODE_NAMES, ranges
from repro.kernels.combos import PAPER_COMBINATIONS
from repro.util.cache import cached_property_store, disk_cache_from_env


@dataclass(frozen=True, eq=False)
class SampleMeta:
    """Provenance of a dataset's samples: one array per field, one entry
    per sample.  String fields are object arrays; ``unroll_group`` is
    None for samples outside unrolled loops.  ``eq=False``: compare the
    fields with :func:`numpy.array_equal`."""

    design: np.ndarray
    op_uid: np.ndarray
    instance: np.ndarray
    function: np.ndarray
    opcode: np.ndarray
    source_file: np.ndarray
    source_line: np.ndarray
    unroll_group: np.ndarray
    replica_index: np.ndarray
    at_margin: np.ndarray

    def __len__(self) -> int:
        return len(self.op_uid)

    def take(self, indices) -> "SampleMeta":
        """The samples at ``indices``, in that order."""
        return SampleMeta(**{f.name: getattr(self, f.name)[indices]
                             for f in fields(self)})

    def concat(self, other: "SampleMeta") -> "SampleMeta":
        return SampleMeta(**{
            f.name: np.concatenate([getattr(self, f.name),
                                    getattr(other, f.name)])
            for f in fields(self)
        })


@dataclass
class CongestionDataset:
    """Feature matrix + labels + per-sample metadata."""

    X: np.ndarray
    y_vertical: np.ndarray
    y_horizontal: np.ndarray
    meta: SampleMeta

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
            meta=self.meta.take(indices),
        )

    def concat(self, other: "CongestionDataset") -> "CongestionDataset":
        return CongestionDataset(
            X=np.vstack([self.X, other.X]),
            y_vertical=np.concatenate([self.y_vertical, other.y_vertical]),
            y_horizontal=np.concatenate(
                [self.y_horizontal, other.y_horizontal]
            ),
            meta=self.meta.concat(other.meta),
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
        meta = self.meta
        samples = list(zip(meta.design.tolist(), meta.unroll_group.tolist(),
                           meta.at_margin.tolist(), self.y_vertical.tolist()))
        group_values: dict[tuple[str, str], list[float]] = {}
        for design, group, _, y in samples:
            if group is not None:
                group_values.setdefault((design, group), []).append(y)
        medians = {
            key: float(np.median(values))
            for key, values in group_values.items()
        }
        return np.array([
            group is not None and at_margin
            and y < 0.75 * medians[(design, group)]
            for design, group, at_margin, y in samples
        ], dtype=bool)

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
    """Extract the labelled samples of one implemented design.

    One sample per (graph node, label of its representative op): the
    node's row of the memoized feature matrix, the label's congestion,
    and provenance read from the synthesized table IR.
    """
    hls = result.require("hls")
    graph = result.require("graph")
    labels = result.require("labels")
    nodes, matrix = FeatureExtractor(hls, graph, result.device).extract_all()

    # each node's labels, in label order
    rep = np.asarray(graph.rep_uids(nodes), dtype=np.int64)
    by_uid = np.argsort(labels.op_uid, kind="stable")
    uids = labels.op_uid[by_uid]
    lo = np.searchsorted(uids, rep, side="left")
    n_labels = np.searchsorted(uids, rep, side="right") - lo
    label = by_uid[ranges(lo, n_labels)]
    if not len(label):
        raise DatasetError(
            f"flow for {result.design.name} produced no labelled samples"
        )
    node = np.repeat(np.arange(len(rep)), n_labels)
    return CongestionDataset(
        X=matrix[node],
        y_vertical=labels.vertical[label],
        y_horizontal=labels.horizontal[label],
        meta=_sample_meta(result, rep[node], labels.cell[label],
                          labels.at_margin[label]),
    )


def _sample_meta(result: FlowContext, op_uid, cell, at_margin) -> SampleMeta:
    """Provenance of samples of ops ``op_uid`` implemented by ``cell``,
    read from the table IR's columns; where an unrolling column is unset
    it falls back to the op's source attributes."""
    t = result.hls.ir
    rows = t.op_rows(op_uid)
    n = len(rows)
    unroll_group = _source_attr(t, rows, "unroll_group", None)
    grp = t.op_grp[rows]
    unrolled = grp >= 0
    if unrolled.any():
        # one name per distinct (group, group uid) pair
        grp_uid = t.op_grp_uid[rows[unrolled]]
        span = int(grp_uid.max()) + 2
        keys, at = np.unique(grp[unrolled] * span + grp_uid + 1,
                             return_inverse=True)
        names = np.fromiter(
            (f"{t.group_names[k // span]}{k % span - 1}"
             for k in keys.tolist()), dtype=object, count=len(keys))
        unroll_group[unrolled] = names[at.reshape(-1)]
    replica = t.op_replica[rows]
    replica = np.where(replica >= 0, replica,
                       _source_attr(t, rows, "replica_index", 0)
                       .astype(np.int64))
    cells = result.require("netlist").cells
    return SampleMeta(
        design=np.full(n, result.design.name, dtype=object),
        op_uid=op_uid,
        instance=np.fromiter(map(attrgetter("instance"),
                                 map(cells.__getitem__, cell.tolist())),
                             dtype=object, count=n),
        function=np.array(t.fnames, dtype=object)[t.op_func[rows]],
        opcode=np.array(OPCODE_NAMES, dtype=object)[t.op_opcode[rows]],
        source_file=np.array(t.file_names, dtype=object)[t.op_file[rows]],
        source_line=t.op_line[rows],
        unroll_group=unroll_group,
        replica_index=replica,
        at_margin=at_margin,
    )


def _source_attr(t, rows, key: str, default) -> np.ndarray:
    """The source attribute ``key`` of each op in ``rows``, as an
    object array."""
    attrs = map(t.base_attrs.__getitem__, t.op_base[rows].tolist())
    return np.fromiter(map(dict.get, attrs, repeat(key), repeat(default)),
                       dtype=object, count=len(rows))


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
