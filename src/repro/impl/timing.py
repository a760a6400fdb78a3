"""Congestion-aware static timing analysis.

Produces the WNS / max-frequency numbers of Tables I, III and VI.  The
model: the achieved clock period is the HLS critical chained delay plus
the worst congestion-inflated wire delay among nets plus uncertainty.
Congestion hurts superlinearly once utilization approaches 100% — "wires
have to be detoured for connections, generating longer delays" (paper
Section I).

Net bounding boxes come from one ``reduceat`` pass over the placed pins,
and nets are scored longest first until even the die's peak congestion
could not make the next one the slowest.  The per-net loop survives as
:class:`repro.impl._reference.ReferenceTimingAnalyzer`; the equivalence
tests assert both produce equal reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.impl.packing import Packing
from repro.impl.placement import Placement
from repro.impl.routing import CongestionMap
from repro.rtl.netlist import Netlist


# Calibrated constants of the wire-delay model.  The penalties must not
# be negative: scoring only the nets that can set the worst delay relies
# on :meth:`TimingAnalyzer.wire_delay` never falling as congestion rises.
#: ns per tile of Manhattan distance on an uncongested route
_NS_PER_TILE = 0.042
#: congestion level (%) where detour penalties start
_PENALTY_ONSET = 70.0
#: linear penalty slope per 100% utilization above onset
_PENALTY_LINEAR = 1.1
#: superlinear penalty once utilization exceeds 100%
_PENALTY_SUPER = 3.0
_SUPER_EXPONENT = 1.6


@dataclass
class TimingReport:
    """STA summary for one implementation."""

    target_period_ns: float
    achieved_period_ns: float
    logic_delay_ns: float
    worst_wire_delay_ns: float
    uncertainty_ns: float

    @property
    def wns_ns(self) -> float:
        """Worst negative slack (negative when timing is missed)."""
        return self.target_period_ns - self.achieved_period_ns

    @property
    def max_frequency_mhz(self) -> float:
        return 1000.0 / self.achieved_period_ns

    @property
    def meets_timing(self) -> bool:
        return self.wns_ns >= 0.0


class TimingAnalyzer:
    """Computes achieved period from placement + congestion."""

    def wire_delay(self, dist: float, congestion: float) -> float:
        """Delay (ns) of a route of ``dist`` tiles under ``congestion`` %."""
        factor = 1.0
        if congestion > _PENALTY_ONSET:
            factor += _PENALTY_LINEAR * (congestion - _PENALTY_ONSET) / 100.0
        if congestion > 100.0:
            factor += _PENALTY_SUPER * (
                (congestion - 100.0) / 100.0
            ) ** _SUPER_EXPONENT
        return dist * _NS_PER_TILE * factor

    # ------------------------------------------------------------------
    def analyze(
        self,
        netlist: Netlist,
        packing: Packing,
        placement: Placement,
        congestion: CongestionMap,
        *,
        logic_delay_ns: float,
        target_period_ns: float,
        uncertainty_ns: float,
    ) -> TimingReport:
        """Full-design STA."""
        avg_cong = congestion.average
        positions = placement.positions
        primary = packing.primary_cluster
        # every net's placed primary clusters, as one flat list
        pins: list[int] = []
        starts: list[int] = []
        for net in netlist.nets:
            start = len(pins)
            for cell_id in net.endpoints():
                cid = primary.get(cell_id)
                if cid in positions:
                    pins.append(cid)
            if len(pins) > start:
                starts.append(start)
        xs, ys = placement.coordinate_arrays()
        at = np.asarray(starts, dtype=np.int64)
        px = xs[pins]
        py = ys[pins]
        boxes = np.stack([
            np.minimum.reduceat(px, at), np.maximum.reduceat(px, at),
            np.minimum.reduceat(py, at), np.maximum.reduceat(py, at),
        ], axis=1)
        span = (boxes[:, 1] - boxes[:, 0]) + (boxes[:, 3] - boxes[:, 2])
        boxes = boxes.tolist()
        # 0.6 max + 0.4 mean of a region never exceeds the die maximum,
        # and wire_delay rises with span and congestion, so once this
        # bound cannot beat the running worst, no shorter net can.  The
        # margin keeps a rounding wobble from dropping the true maximum.
        die_max = float(avg_cong.max())
        worst_wire = 0.0
        for i in np.argsort(-span, kind="stable").tolist():
            x1, x2, y1, y2 = boxes[i]
            dist = (x2 - x1) + (y2 - y1)
            if (dist == 0 or self.wire_delay(dist, die_max) * (1.0 + 1e-9)
                    < worst_wire):
                break
            region = avg_cong[y1:y2 + 1, x1:x2 + 1]
            # Detours are forced by the *worst* region the route crosses;
            # temper the max with the mean to avoid single-tile spikes.
            cong = 0.6 * float(region.max()) + 0.4 * float(region.mean())
            delay = self.wire_delay(dist, cong)
            if delay > worst_wire:
                worst_wire = delay

        achieved = logic_delay_ns + worst_wire + uncertainty_ns
        achieved = max(achieved, 1e-3)
        return TimingReport(
            target_period_ns=target_period_ns,
            achieved_period_ns=achieved,
            logic_delay_ns=logic_delay_ns,
            worst_wire_delay_ns=worst_wire,
            uncertainty_ns=uncertainty_ns,
        )
