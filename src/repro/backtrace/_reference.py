"""The object-walk back-tracer and sample assembly, kept as oracles.

These are the original label and dataset loops: one
:class:`OpCongestionLabel` per (operation, instance) pair, found by
walking ``hls.module`` function by function, and one sample row with one
:class:`SampleRow` of provenance per label, read from the operation
objects.  The production :meth:`repro.backtrace.Backtracer.label_operations`
and :func:`repro.dataset.dataset_from_flow` compute the same values as
columns from the synthesized table IR, the netlist, the packing and the
placement arrays; ``tests/flow/test_label_parity.py`` asserts that every
column is equal.  Do not optimize this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backtrace.trace import Backtracer
from repro.errors import BacktraceError, DatasetError
from repro.features.extract import FeatureExtractor
from repro.impl.packing import Packing
from repro.impl.placement import Placement
from repro.impl.routing import CongestionMap
from repro.ir.module import Module
from repro.rtl.netlist import Netlist


@dataclass(frozen=True)
class OpCongestionLabel:
    """Congestion label for one (operation, instance) pair."""

    op_uid: int
    instance: str
    function: str
    vertical: float
    horizontal: float
    tiles: tuple[tuple[int, int], ...]
    at_margin: bool

    @property
    def average(self) -> float:
        """The paper's Avg. (V, H) metric for this sample."""
        return 0.5 * (self.vertical + self.horizontal)


@dataclass
class ReferenceBacktraceResult:
    """All labels for one implemented design."""

    labels: list[OpCongestionLabel] = field(default_factory=list)
    #: op uid -> labels across instances
    by_op: dict[int, list[OpCongestionLabel]] = field(default_factory=dict)

    def add(self, label: OpCongestionLabel) -> None:
        self.labels.append(label)
        self.by_op.setdefault(label.op_uid, []).append(label)

    def n_samples(self) -> int:
        return len(self.labels)


def reference_label_operations(
    module: Module,
    netlist: Netlist,
    packing: Packing,
    placement: Placement,
    congestion: CongestionMap,
    *,
    window_radius: int = 2,
) -> ReferenceBacktraceResult:
    """Produce one label per (operation, instance)."""
    result = ReferenceBacktraceResult()
    device = congestion.device
    v_grid = Backtracer._window_mean(congestion.vertical, window_radius)
    h_grid = Backtracer._window_mean(congestion.horizontal, window_radius)
    for func in module.functions.values():
        for op in func.operations:
            for cell_id in netlist.cells_of_op.get(op.uid, ()):
                cell = netlist.cell(cell_id)
                tiles = placement.tiles_of_cell(packing, cell_id)
                if not tiles:
                    continue
                v = sum(v_grid[y, x] for x, y in tiles) / len(tiles)
                h = sum(h_grid[y, x] for x, y in tiles) / len(tiles)
                margin_tiles = sum(
                    1 for x, y in tiles if device.is_margin(x, y)
                )
                result.add(
                    OpCongestionLabel(
                        op_uid=op.uid,
                        instance=cell.instance,
                        function=func.name,
                        vertical=float(v),
                        horizontal=float(h),
                        tiles=tuple(tiles),
                        at_margin=margin_tiles * 2 >= len(tiles),
                    )
                )
    if not result.labels:
        raise BacktraceError("no operation could be traced to a tile")
    return result


@dataclass(frozen=True)
class SampleRow:
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


def reference_samples(result, labels: ReferenceBacktraceResult):
    """The labelled samples of one implemented flow ``result``, row by
    row: ``(X, y_vertical, y_horizontal, rows)``."""
    graph = result.graph
    extractor = FeatureExtractor(result.hls, graph, result.device)
    nodes, matrix = extractor.extract_all()

    rows: list[np.ndarray] = []
    y_v: list[float] = []
    y_h: list[float] = []
    meta: list[SampleRow] = []
    module = result.hls.module

    for row, rep_uid in zip(matrix, graph.rep_uids(nodes)):
        op_labels = labels.by_op.get(rep_uid, [])
        if not op_labels:
            continue
        op = module.op_by_uid(rep_uid)
        for label in op_labels:
            rows.append(row)
            y_v.append(label.vertical)
            y_h.append(label.horizontal)
            meta.append(
                SampleRow(
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
    return (
        np.asarray(rows, dtype=np.float64),
        np.asarray(y_v, dtype=np.float64),
        np.asarray(y_h, dtype=np.float64),
        meta,
    )
