#!/usr/bin/env python
"""The paper's Section IV-C case study: resolving congestion at source level.

Implements the full loop: (1) predict congestion for the baseline Face
Detection design from HLS artifacts alone, (2) let the advisor recommend
fixes, (3) apply the paper's two resolution steps (remove inlining, then
replicate the shared window buffer) and (4) verify against the real
implementation flow — latency must hold while congestion drops.
"""

from repro import build_face_detection, build_paper_dataset
from repro.flow import FlowOptions, run_flow
from repro.predict import CongestionPredictor, suggest_resolutions
from repro.util.tabulate import format_table

SCALE = 0.5


def main() -> None:
    options = FlowOptions(scale=SCALE, placement_effort="fast", seed=0)

    print("Training the GBRT predictor on the benchmark dataset...")
    dataset = build_paper_dataset(options=options)
    predictor = CongestionPredictor("gbrt").fit(dataset)

    print("\nStep 0 — predict congestion for the baseline (no PAR run):")
    design = build_face_detection(scale=SCALE, variant="baseline")
    prediction = predictor.predict_design(design)
    for region in prediction.hottest_regions(3):
        print(f"  {region.source_file}:{region.source_line:<4d} "
              f"predicted {region.average:6.1f}% ({region.n_ops} ops)")
    print("  advisor suggestions:")
    for action in suggest_resolutions(prediction):
        print(f"    - {action.describe()}")

    print("\nVerifying the resolution steps with the real flow...")
    rows = []
    base_latency = None
    for label, variant in (
        ("Baseline", "baseline"),
        ("Not Inline", "not_inline"),
        ("Replication", "replicate"),
    ):
        result = run_flow("face_detection", variant, options=options)
        s = result.summary()
        if base_latency is None:
            base_latency = s["latency_cycles"]
        rows.append([
            label, round(s["wns_ns"], 3), round(s["fmax_mhz"], 1),
            s["latency_cycles"] - base_latency,
            round(s["max_v_congestion"], 1),
            round(s["max_h_congestion"], 1),
            s["n_congested"],
        ])
    print(format_table(
        ["Implementation", "WNS(ns)", "MaxFreq(MHz)", "dLatency",
         "MaxV(%)", "MaxH(%)", "#Congested"],
        rows, title="Case study (paper Table VI layout)",
    ))


if __name__ == "__main__":
    main()
