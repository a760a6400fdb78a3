"""Shared infrastructure for the Rosetta-like kernel generators.

The paper's dataset comes from the six Rosetta applications (Face
Detection, Digit Recognition, Spam Filtering, BNN, 3D Rendering, Optical
Flow).  The original C++ sources need Vivado HLS; these generators build
IR with the same *structure* — loop nests, array access patterns, arith
mix, directive surface — which is what the features and labels measure.

Every generator returns a :class:`KernelDesign`: a fresh module plus the
directive set of the requested variant.  Variants:

* ``"baseline"``   — the paper's optimized configuration (inline +
  unroll + pipeline + array partition);
* ``"no_directives"`` — the same source with no directives (Table I);
* kernel-specific variants (Face Detection adds ``"not_inline"`` and
  ``"replicate"`` for Table VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.hls.directives import DirectiveSet
from repro.ir.builder import IRBuilder
from repro.ir.module import Module
from repro.ir.value import Value

STANDARD_VARIANTS = ("baseline", "no_directives")


@dataclass
class KernelDesign:
    """One generated design: IR module + directives + metadata."""

    name: str
    module: Module
    directives: DirectiveSet
    variant: str = "baseline"
    scale: float = 1.0
    source_file: str = ""
    notes: dict = field(default_factory=dict)


def check_variant(variant: str, allowed: tuple[str, ...]) -> str:
    if variant not in allowed:
        raise ReproError(
            f"unknown variant {variant!r}; expected one of {allowed}"
        )
    return variant


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an integer structural parameter, keeping it >= minimum."""
    return max(minimum, int(round(value * scale)))


def adder_tree(b: IRBuilder, values: list[Value], *, width: int = 32,
               line: int | None = None) -> Value:
    """Balanced adder reduction tree over ``values``."""
    if not values:
        raise ReproError("adder_tree needs at least one value")
    level = list(values)
    while len(level) > 1:
        next_level = []
        for i in range(0, len(level) - 1, 2):
            next_level.append(b.add(level[i], level[i + 1], width=width,
                                    line=line))
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    return level[0]


def popcount_tree(b: IRBuilder, word: Value, *, word_bits: int = 32,
                  line: int | None = None) -> Value:
    """Tree-style population count of ``word`` (the BNN/KNN primitive).

    Classic SWAR reduction: pairwise masks, shifts and adds.  Emits
    ``2 * log2(word_bits)`` logic operations plus the masks.
    """
    masks = {
        1: 0x55555555, 2: 0x33333333, 4: 0x0F0F0F0F,
        8: 0x00FF00FF, 16: 0x0000FFFF,
    }
    acc = word
    shift = 1
    while shift < word_bits:
        mask_val = masks.get(shift, (1 << word_bits) - 1)
        mask = b.const(mask_val)
        low = b.emit("and", [acc, mask],
                     result_type=acc.type, line=line).result
        shifted = b.lshr(acc, b.const(shift), line=line)
        high = b.emit("and", [shifted, mask],
                      result_type=acc.type, line=line).result
        acc = b.add(low, high, line=line)
        shift *= 2
    return acc


def mux_chain_select(b: IRBuilder, cond_value_pairs, default: Value,
                     *, line: int | None = None) -> Value:
    """Priority select chain (if/elif/else lowering)."""
    result = default
    for cond, value in reversed(list(cond_value_pairs)):
        result = b.select(cond, value, result, line=line)
    return result
