#!/usr/bin/env python
"""Quickstart: one design through the complete C-to-FPGA flow.

Builds the Face Detection benchmark, runs the stage pipeline (HLS +
place + route on the simulated Zynq fabric) with per-stage timing,
prints the congestion picture, and walks the back-trace from the hottest
tile to IR operations and source lines — the paper's Fig. 3 loop.

A run returns its completed ``FlowContext``: the artifacts, the seconds
of every stage, ``summary()`` and the ``backtracer``.  ``until=`` stops a
run after the named stage.
"""

from repro.flow import FlowOptions, FlowPipeline
from repro.kernels import build_combined

OPTIONS = FlowOptions(scale=0.5, placement_effort="fast", seed=0)


def main() -> None:
    pipeline = FlowPipeline()

    # A partial run: HLS only — what a prediction service pays per
    # request.  No packing, placement or routing executes.
    hls_only = pipeline.run(
        build_combined("face_detection", scale=OPTIONS.scale),
        options=OPTIONS, until="hls",
    )
    print(f"HLS-only run: stages {list(hls_only.stage_seconds)}, "
          f"latency {hls_only.hls.latency_cycles} cycles")

    print("\nRunning the complete pipeline on Face Detection...")
    result = pipeline.run(
        build_combined("face_detection", scale=OPTIONS.scale),
        options=OPTIONS,
    )
    for stage, seconds in result.stage_seconds.items():
        print(f"  {stage:10s} {seconds:7.3f}s")

    summary = result.summary()
    print(f"\ndesign: {summary['name']} [{summary['variant']}]")
    print(f"  IR operations : {summary['ops']}")
    print(f"  latency       : {summary['latency_cycles']} cycles")
    print(f"  LUT usage     : {summary['lut']}")
    print(f"  WNS           : {summary['wns_ns']:.3f} ns "
          f"(Fmax {summary['fmax_mhz']:.1f} MHz)")
    print(f"  max congestion: V {summary['max_v_congestion']:.1f}% / "
          f"H {summary['max_h_congestion']:.1f}%")
    print(f"  flow runtime  : {summary['flow_seconds']:.2f} s")

    print("\ncongestion map (average of V/H):")
    print(result.congestion.render_ascii("average", width=48))

    tracer = result.backtracer
    x, y, level = tracer.hottest_tiles(1)[0]
    print(f"\nhottest tile ({x}, {y}) at {level:.1f}% — back-tracing:")
    ops = tracer.ops_in_tile(x, y)[:5]
    for op in ops:
        print(f"  {op.name:30s} {op.opcode:10s} <- {op.loc}")

    print("\ncongested source regions (max over operations):")
    by_line = tracer.congestion_by_source_line()
    hottest = sorted(by_line.items(), key=lambda kv: -kv[1]["average"])[:5]
    for (file, line), entry in hottest:
        print(f"  {file}:{line:<4d} avg {entry['average']:6.1f}%  "
              f"({entry['samples']} samples)")


if __name__ == "__main__":
    main()
