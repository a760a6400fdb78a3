"""The complete C-to-FPGA flow (the paper's label-generation run).

One ``run_flow`` call is the library's equivalent of "run one time of the
complete C-to-FPGA flow to obtain the routing congestion metrics": HLS
synthesis, RTL elaboration, packing, placement, routing, timing and
back-tracing, with per-stage wall-clock accounting (the paper contrasts
the hours-long PAR against minutes of HLS and instant model inference).

The flow itself lives in :mod:`repro.flow.pipeline` as
:class:`~repro.flow.pipeline.Stage` objects; ``run_flow`` /
``run_flow_on_design`` here run the complete pipeline and return its
completed :class:`~repro.flow.pipeline.FlowContext`.

``run_flow`` is the flow's only cache.  Whole results are memoized per
(kernel, variant, device, flow options) in a process-wide store because
several tables reuse the same implementations.  When the
``REPRO_CACHE_DIR`` environment variable names a directory, results are
additionally persisted there (content-addressed pickles) so a fresh
process rebuilds nothing that an earlier one already ran.
"""

from __future__ import annotations

from repro.flow.pipeline import FlowContext, FlowOptions, FlowPipeline
from repro.fpga.device import Device, device_fingerprint, xc7z020
from repro.kernels.combos import build_combined, build_kernel
from repro.kernels.common import KernelDesign
from repro.util.cache import cached_property_store, disk_cache_from_env

__all__ = ["run_flow", "run_flow_on_design"]


def run_flow_on_design(
    design: KernelDesign,
    device: Device | None = None,
    options: FlowOptions | None = None,
) -> FlowContext:
    """Run the complete implementation flow on an already-built design.

    Wrapper over ``FlowPipeline().run(...)``; the design is ad hoc (no
    by-name identity), so nothing is cached.
    """
    return FlowPipeline().run(design, device, options)


def run_flow(
    name: str,
    variant: str = "baseline",
    *,
    device: Device | None = None,
    options: FlowOptions | None = None,
    combined: bool = True,
    use_cache: bool = True,
) -> FlowContext:
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

    def build() -> FlowContext:
        if combined:
            design = build_combined(name, scale=options.scale, variant=variant)
        else:
            design = build_kernel(name, scale=options.scale, variant=variant)
        return FlowPipeline().run(design, device, options)

    if not use_cache:
        return build()

    disk = disk_cache_from_env()

    def build_and_run() -> FlowContext:
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
