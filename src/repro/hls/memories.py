"""Memory mapping: HLS arrays onto BRAM / LUTRAM / register banks.

Array partitioning splits an array into banks; each bank is implemented in
block RAM, distributed (LUT) RAM for shallow banks, or flip-flops when the
array is completely partitioned.  The paper's global feature set counts
``#words, #banks, #bits and #primitives (words*bits*banks)`` per function
(Table II), all of which come from this mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ir.function import ArrayDecl

#: Usable bits of one RAMB18 primitive (18 Kb).
_BRAM18_BITS = 18 * 1024
#: Maximum data width of one RAMB18 port without width cascading.
_BRAM18_MAX_WIDTH = 36
#: Banks at or below this bit count map to distributed (LUT) RAM.
_LUTRAM_THRESHOLD_BITS = 1024
#: SLICEM LUTs store 32 bits each when used as distributed RAM.
_LUTRAM_BITS_PER_LUT = 32


@dataclass(frozen=True)
class MemoryBank:
    """One physical bank of a mapped array."""

    array: str
    index: int
    words: int
    bits: int
    kind: str          # "bram", "lutram" or "reg"
    bram18: int = 0
    lut: int = 0
    ff: int = 0


@dataclass
class MemoryMap:
    """Memory mapping result for one function."""

    function: str
    banks: list[MemoryBank] = field(default_factory=list)

    @property
    def n_banks(self) -> int:
        return len(self.banks)

    @property
    def total_words(self) -> int:
        return sum(b.words for b in self.banks)

    @property
    def total_bits(self) -> int:
        """Distinct data widths summed over banks (paper's #bits metric)."""
        return sum(b.bits for b in self.banks)

    @property
    def total_primitives(self) -> int:
        """words * bits * banks summed per array (paper's #primitives)."""
        return sum(b.words * b.bits for b in self.banks)

    @property
    def total_bram18(self) -> int:
        return sum(b.bram18 for b in self.banks)

    @property
    def total_lut(self) -> int:
        return sum(b.lut for b in self.banks)

    @property
    def total_ff(self) -> int:
        return sum(b.ff for b in self.banks)


def map_array(decl: ArrayDecl) -> list[MemoryBank]:
    """Map one array declaration to its physical banks."""
    bits = decl.bits
    if decl.is_registers:
        # Complete partitioning: every element becomes a register.
        return [MemoryBank(decl.name, i, 1, bits, "reg", ff=bits)
                for i in range(decl.type.length)]

    words = decl.words
    total_bits = words * bits
    if total_bits <= _LUTRAM_THRESHOLD_BITS:
        lut = max(1, math.ceil(total_bits / _LUTRAM_BITS_PER_LUT))
        return [MemoryBank(decl.name, i, words, bits, "lutram", lut=lut)
                for i in range(decl.banks)]
    width_cascade = max(1, math.ceil(bits / _BRAM18_MAX_WIDTH))
    depth_per_bram = _BRAM18_BITS // min(bits, _BRAM18_MAX_WIDTH)
    depth_cascade = max(1, math.ceil(words / max(1, depth_per_bram)))
    return [MemoryBank(decl.name, i, words, bits, "bram",
                       bram18=width_cascade * depth_cascade)
            for i in range(decl.banks)]


def map_function_memories(func) -> MemoryMap:
    """Map every array declared by ``func`` (a table-IR function record
    or IR objects)."""
    result = MemoryMap(function=func.name)
    for decl in func.arrays.values():
        result.banks.extend(map_array(decl))
    return result
