#!/usr/bin/env python
"""What-if directive exploration on one kernel.

Derives the what-if space around Face Detection's own pragmas, sweeps
it through the congestion predictor (HLS prefix only — place-and-route
never runs), prints the top-5 configurations with their predicted
deltas vs the baseline, then lets the autotuner search the same space
under a small evaluation budget.

Run with:

    PYTHONPATH=src python examples/explore_directives.py
"""

from repro.explore import ExplorationSession, autotune
from repro.flow import FlowOptions

#: small scale + linear model so the one-off train costs ~seconds;
#: swap in model="gbrt" / scale=1.0 for the paper-accurate setup
OPTIONS = FlowOptions(scale=0.5, placement_effort="fast", seed=0)


def main() -> None:
    session = ExplorationSession(
        "face_detection", model="linear", options=OPTIONS,
    )
    space = session.space
    print(f"space: {len(space)} knobs, {space.n_configs} configurations")
    for knob in space.knobs:
        print(f"  {knob.label():40s} choices {knob.choices}")

    result = session.sweep(max_configs=24, seed=0)
    base = result.baseline
    print(f"\nbaseline: peak {base.peak:.1f}%  "
          f"{base.hot_regions} hot regions  "
          f"{base.latency_cycles} cycles  {base.lut} LUTs")

    print("\ntop 5 configurations by predicted peak congestion:")
    for e in result.best(5):
        print(f"  peak {e.peak:5.1f}% ({e.delta_peak:+6.2f})  "
              f"latency {e.delta_latency:+6d}  LUT {e.delta_lut:+6d}  "
              f"{e.label}")
    print(f"\npareto front: {len(result.pareto)} of "
          f"{len(result.evaluations)} configurations")
    telemetry = result.telemetry
    print(f"telemetry: {telemetry['predictions_issued']} predictions, "
          f"feature cache +{telemetry['feature_cache_hits']} hit / "
          f"+{telemetry['feature_cache_misses']} miss")

    print("\nautotuning (budget 24, seed 0)...")
    tuned = autotune(session, budget=24, seed=0)
    best = tuned.best
    print(f"best: peak {best.peak:.1f}% "
          f"({best.delta_peak:+.2f} vs baseline, "
          f"improved={tuned.improved})")
    print(f"  {best.label or '(baseline directives)'}")
    print(f"  visited {tuned.evaluated} unique configurations "
          f"in {tuned.seconds:.1f}s")


if __name__ == "__main__":
    main()
