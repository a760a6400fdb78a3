"""Congestion-resolution advisor (paper Section III-D / IV-C).

"There are several methods to resolve routing congestion in HLS, such as
modifying the code structure of the design and selecting suitable HLS
directives."  Given per-region predictions, the advisor inspects the
design's structure around the hottest regions and recommends the paper's
two case-study moves — removing inlining and replicating shared inputs —
plus partitioning advice for contended memories.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predict.predictor import DesignPrediction

#: predicted utilization above which a region is worth acting on
HOT_THRESHOLD = 100.0


@dataclass(frozen=True)
class Resolution:
    """One recommended congestion-resolution action."""

    kind: str           # "remove_inline" | "replicate_inputs" | "partition"
    target: str         # function / array the action applies to
    reason: str
    predicted_congestion: float

    def describe(self) -> str:
        return (
            f"[{self.kind}] {self.target}: {self.reason} "
            f"(predicted {self.predicted_congestion:.1f}%)"
        )


def suggest_resolutions(
    prediction: DesignPrediction,
    *,
    threshold: float = HOT_THRESHOLD,
    max_suggestions: int = 5,
) -> list[Resolution]:
    """Rank resolution actions for the predicted hot regions.

    Reads the synthesized module the prediction carries: inlining
    provenance and replicated readers exist only after HLS.
    """
    suggestions: list[Resolution] = []
    module = prediction.module
    hot_regions = [
        r for r in prediction.regions if r.average >= threshold
    ] or prediction.hottest_regions(5)

    hot_lines = {(r.source_file, r.source_line): r for r in hot_regions}

    # 1. Inlined provenance at hot lines -> remove inlining.
    inlined_hot: dict[str, float] = {}
    for func in module.functions.values():
        for op in func.operations:
            key = (op.loc.file, op.loc.line)
            if key not in hot_lines:
                continue
            origin = op.attrs.get("inlined_from")
            if origin:
                region = hot_lines[key]
                inlined_hot[origin] = max(
                    inlined_hot.get(origin, 0.0), region.average
                )
    for origin, level in sorted(inlined_hot.items(), key=lambda t: -t[1]):
        suggestions.append(
            Resolution(
                kind="remove_inline",
                target=origin,
                reason=(
                    "operations inlined from this function sit in a "
                    "predicted congestion hotspot; keeping it as a separate "
                    "module localizes its wiring"
                ),
                predicted_congestion=level,
            )
        )

    # 2. Widely shared arrays at hot lines -> replicate inputs.
    array_readers: dict[tuple[str, str], set[str]] = {}
    array_heat: dict[tuple[str, str], float] = {}
    for func in module.functions.values():
        for op in func.operations:
            if op.opcode != "load":
                continue
            array = op.attrs.get("array")
            if not array:
                continue
            key = (func.name, array)
            consumer = op.attrs.get("inlined_from", func.name)
            array_readers.setdefault(key, set()).add(
                f"{consumer}:{op.loc.line}"
            )
            line_key = (op.loc.file, op.loc.line)
            if line_key in hot_lines:
                array_heat[key] = max(
                    array_heat.get(key, 0.0), hot_lines[line_key].average
                )
    for (func_name, array), heat in sorted(array_heat.items(),
                                           key=lambda t: -t[1]):
        readers = array_readers[(func_name, array)]
        if len(readers) >= 4:
            suggestions.append(
                Resolution(
                    kind="replicate_inputs",
                    target=f"{func_name}.{array}",
                    reason=(
                        f"{len(readers)} distinct readers share this array; "
                        "replicating the values and sending copies to "
                        "different consumers cuts the interconnections"
                    ),
                    predicted_congestion=heat,
                )
            )
        elif module.functions[func_name].arrays[array].partition == 1:
            suggestions.append(
                Resolution(
                    kind="partition",
                    target=f"{func_name}.{array}",
                    reason="hot single-bank memory; partitioning spreads "
                           "its ports",
                    predicted_congestion=heat,
                )
            )

    # 3. Fallback: always point the designer at the hottest region.
    if not suggestions and hot_regions:
        hottest = max(hot_regions, key=lambda r: r.average)
        suggestions.append(
            Resolution(
                kind="restructure",
                target=f"{hottest.source_file}:{hottest.source_line}",
                reason=(
                    "highest predicted congestion in the design; consider "
                    "restructuring this code region or relaxing its "
                    "unroll/partition directives"
                ),
                predicted_congestion=hottest.average,
            )
        )

    return suggestions[:max_suggestions]
