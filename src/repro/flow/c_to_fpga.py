"""The complete C-to-FPGA flow (the paper's label-generation run).

One ``run_flow`` call is the library's equivalent of "run one time of the
complete C-to-FPGA flow to obtain the routing congestion metrics": HLS
synthesis, RTL elaboration, packing, placement, routing, timing and
back-tracing, with per-stage wall-clock accounting (the paper contrasts
the hours-long PAR against minutes of HLS and instant model inference).

The flow itself lives in :mod:`repro.flow.pipeline` as composable
:class:`~repro.flow.pipeline.Stage` objects; ``run_flow`` /
``run_flow_on_design`` here run the default pipeline end to end and
return the classic :class:`FlowResult`.

``run_flow`` is the flow's only cache.  Whole results are memoized per
(kernel, variant, device, flow options) in a process-wide store because
several tables reuse the same implementations.  When the
``REPRO_CACHE_DIR`` environment variable names a directory, results are
additionally persisted there (content-addressed pickles) so a fresh
process rebuilds nothing that an earlier one already ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backtrace.trace import BacktraceResult, Backtracer
from repro.errors import FlowError
from repro.fpga.device import Device, device_fingerprint, xc7z020
from repro.graph.snapshot import GraphStructure
from repro.hls.synthesis import HLSResult
from repro.impl.packing import Packing
from repro.impl.placement import Placement
from repro.impl.routing import CongestionMap
from repro.impl.timing import TimingReport
from repro.kernels.combos import build_combined, build_kernel
from repro.kernels.common import KernelDesign
from repro.rtl.netlist import Netlist
from repro.util.cache import cached_property_store, disk_cache_from_env

# FlowOptions moved to the pipeline module; re-exported here for
# backward compatibility (and for old on-disk pickles).
from repro.flow.pipeline import FlowContext, FlowOptions, FlowPipeline

__all__ = ["FlowOptions", "FlowResult", "run_flow", "run_flow_on_design"]


@dataclass
class FlowResult:
    """Everything one flow run produces.

    ``design.module`` is the pre-HLS source; the synthesized design that
    labels, graph and netlist refer to is ``hls``, whose ``hls.module``
    builds its IR objects from the synthesized table on first read (RTL
    elaboration already did, and a result unpickled from the disk cache
    does it again when read).
    """

    design: KernelDesign
    device: Device
    hls: HLSResult
    netlist: Netlist
    packing: Packing
    placement: Placement
    congestion: CongestionMap
    timing: TimingReport
    graph: GraphStructure
    labels: BacktraceResult
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def backtracer(self) -> Backtracer:
        return Backtracer(
            self.hls.module, self.netlist, self.packing,
            self.placement, self.congestion,
        )

    @classmethod
    def from_context(cls, ctx: FlowContext) -> "FlowResult":
        """Materialize the classic result from a completed pipeline run."""
        missing = [
            name for name in ("hls", "netlist", "packing", "placement",
                              "congestion", "timing", "graph", "labels")
            if getattr(ctx, name) is None
        ]
        if missing:
            raise FlowError(
                f"cannot build FlowResult: missing artifacts {missing} "
                f"(completed stages: {list(ctx.completed_stages)})"
            )
        return cls(
            design=ctx.design,
            device=ctx.device,
            hls=ctx.hls,
            netlist=ctx.netlist,
            packing=ctx.packing,
            placement=ctx.placement,
            congestion=ctx.congestion,
            timing=ctx.timing,
            graph=ctx.graph,
            labels=ctx.labels,
            stage_seconds=dict(ctx.stage_seconds),
        )

    def summary(self) -> dict:
        """One-line metrics used by the benchmark tables."""
        return {
            "name": self.design.name,
            "variant": self.design.variant,
            "ops": self.hls.module.n_ops(),
            "latency_cycles": self.hls.latency_cycles,
            "lut": self.hls.top_report.hierarchical_resources["LUT"],
            "wns_ns": self.timing.wns_ns,
            "fmax_mhz": self.timing.max_frequency_mhz,
            "max_v_congestion": self.congestion.max_vertical(),
            "max_h_congestion": self.congestion.max_horizontal(),
            "n_congested": self.congestion.n_congested(),
            "n_samples": self.labels.n_samples(),
            "flow_seconds": sum(self.stage_seconds.values()),
        }


def run_flow_on_design(
    design: KernelDesign,
    device: Device | None = None,
    options: FlowOptions | None = None,
) -> FlowResult:
    """Run the complete implementation flow on an already-built design.

    Wrapper over ``FlowPipeline.default().run(...)``; the design is ad
    hoc (no by-name identity), so nothing is cached.
    """
    ctx = FlowPipeline.default().run(design, device, options)
    return FlowResult.from_context(ctx)


def run_flow(
    name: str,
    variant: str = "baseline",
    *,
    device: Device | None = None,
    options: FlowOptions | None = None,
    combined: bool = True,
    use_cache: bool = True,
) -> FlowResult:
    """Build (by kernel/combination name) and implement one design."""
    options = options or FlowOptions()
    store = cached_property_store("flow_results")
    # Same shape as the disk key: `combined` and the device calibration
    # must distinguish results in-process too ("face_detection" names
    # both a kernel and a combination, and two differently-calibrated
    # devices must never share a memo slot).
    dev = device or xc7z020()
    key = ("flow", combined, *device_fingerprint(dev),
           *options.cache_key(name, variant))

    def build() -> FlowResult:
        if combined:
            design = build_combined(name, scale=options.scale, variant=variant)
        else:
            design = build_kernel(name, scale=options.scale, variant=variant)
        ctx = FlowPipeline.default().run(design, device, options)
        return FlowResult.from_context(ctx)

    if not use_cache:
        return build()

    disk = disk_cache_from_env()

    def build_and_run() -> FlowResult:
        if disk is None:
            return build()
        # The fingerprint keys every device parameter the result
        # depends on — recalibrating e.g. h_tracks must miss, not
        # serve stale congestion from an earlier calibration.
        hit = disk.get(key)
        if hit is not None:
            return hit
        result = build()
        disk.put(key, result)
        return result

    return store.get_or_build(key, build_and_run)
