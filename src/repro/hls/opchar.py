"""Operator characterization library.

Vivado HLS schedules and binds against pre-characterized operator
libraries; the paper reads each operator's delay (ns), resource usage and
bitwidth out of those libraries (Section III-A2).  This module provides an
equivalent characterization for a 7-series-class fabric: per (opcode,
bitwidth) it reports combinational delay and LUT/FF/DSP/BRAM usage.

Numbers are modelled on public Xilinx 7-series characterization trends
(carry-chain adders ~w LUTs with delay growing slowly in w, DSP48E1-mapped
multipliers above the 11-bit threshold, multi-cycle dividers, BRAM port
timing); exact values differ from Vivado's libraries but preserve the
orderings the features depend on (mul ≫ add delay, div is multi-cycle,
wide ops cost proportionally more).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import HLSError
from repro.ir.opcodes import OpClass, is_opcode, opcode_info

#: Resource kinds tracked throughout the library (Table II iterates them).
RESOURCE_KINDS = ("LUT", "FF", "DSP", "BRAM")

#: Width above which a multiply maps to DSP blocks rather than fabric LUTs.
DSP_MUL_THRESHOLD = 11

_SHIFTS = frozenset({"shl", "lshr", "ashr"})


@dataclass(frozen=True)
class OperatorSpec:
    """Characterized properties of one operator instance."""

    opcode: str
    width: int
    delay_ns: float          # combinational delay through the operator
    latency_cycles: int      # pipeline depth (0 = purely combinational)
    lut: int
    ff: int
    dsp: int
    bram: int

    def resources(self) -> dict[str, int]:
        """Resource usage keyed like :data:`RESOURCE_KINDS`."""
        return {"LUT": self.lut, "FF": self.ff, "DSP": self.dsp, "BRAM": self.bram}

    def resource(self, kind: str) -> int:
        return self.resources()[kind]


def _dsp_count(width: int) -> int:
    """DSP48 blocks needed for a width x width multiply (17x24 tiling)."""
    return max(1, math.ceil(width / 17) * math.ceil(width / 24))


def _characterize_uncached(opcode: str, width: int) -> OperatorSpec:
    info = opcode_info(opcode)
    w = max(1, width)
    oc = info.opclass

    if opcode in ("add", "sub"):
        return OperatorSpec(opcode, w, 0.9 + 0.035 * w, 0, w, 0, 0, 0)
    if opcode == "mul":
        if w <= DSP_MUL_THRESHOLD:
            return OperatorSpec(opcode, w, 2.2 + 0.08 * w, 0, 3 * w, 0, 0, 0)
        dsp = _dsp_count(w)
        lat = 1 if w <= 18 else (3 if w <= 34 else 5)
        return OperatorSpec(opcode, w, 3.2 + 0.02 * w, lat, 2 * w, 2 * w, dsp, 0)
    if opcode == "mac":
        dsp = _dsp_count(w) if w > DSP_MUL_THRESHOLD else 0
        lut = (3 * w) if dsp == 0 else w
        return OperatorSpec(opcode, w, 3.6 + 0.02 * w, 1 if dsp else 0,
                            lut, w, dsp, 0)
    if opcode in ("sdiv", "udiv", "srem", "urem"):
        # Radix-2 iterative divider: one cycle per result bit.
        return OperatorSpec(opcode, w, 2.0, max(2, w), 5 * w, 4 * w, 0, 0)
    if oc is OpClass.LOGIC:
        if opcode in ("shl", "lshr", "ashr"):
            stages = max(1, math.ceil(math.log2(w + 1)))
            return OperatorSpec(opcode, w, 0.6 + 0.22 * stages, 0,
                                w * stages // 2 + 1, 0, 0, 0)
        if opcode in ("reduce_and", "reduce_or", "reduce_xor"):
            return OperatorSpec(opcode, w, 0.5 + 0.12 * math.log2(w + 1), 0,
                                max(1, w // 3), 0, 0, 0)
        if opcode in ("concat", "extract"):
            return OperatorSpec(opcode, w, 0.05, 0, 0, 0, 0, 0)
        # and / or / xor / not
        return OperatorSpec(opcode, w, 0.45 + 0.004 * w, 0, max(1, w // 2), 0, 0, 0)
    if oc is OpClass.COMPARE:
        if opcode == "fcmp":
            return OperatorSpec(opcode, w, 2.4, 0, 60, 0, 0, 0)
        return OperatorSpec(opcode, w, 0.8 + 0.02 * w, 0, max(1, w // 2), 0, 0, 0)
    if oc is OpClass.FLOAT:
        if opcode in ("fadd", "fsub"):
            dsp = 2 if w <= 32 else 3
            return OperatorSpec(opcode, w, 4.0, 4, 200 if w <= 32 else 420,
                                170 if w <= 32 else 360, dsp, 0)
        if opcode == "fmul":
            dsp = 3 if w <= 32 else 11
            return OperatorSpec(opcode, w, 3.8, 4, 90 if w <= 32 else 200,
                                130 if w <= 32 else 280, dsp, 0)
        if opcode == "fdiv":
            return OperatorSpec(opcode, w, 4.5, 16 if w <= 32 else 30,
                                800, 760, 0, 0)
        if opcode == "fsqrt":
            return OperatorSpec(opcode, w, 4.5, 16 if w <= 32 else 28,
                                460, 440, 0, 0)
    if oc is OpClass.CONVERT:
        if opcode in ("sitofp", "fptosi"):
            return OperatorSpec(opcode, w, 3.2, 3, 220, 190, 0, 0)
        if opcode in ("fpext", "fptrunc"):
            return OperatorSpec(opcode, w, 1.4, 1, 50, 40, 0, 0)
        # zext / sext / trunc / bitcast are wiring only
        return OperatorSpec(opcode, w, 0.05, 0, 0, 0, 0, 0)
    if oc is OpClass.SELECT:
        if opcode == "select":
            return OperatorSpec(opcode, w, 0.55 + 0.003 * w, 0, max(1, w // 2), 0, 0, 0)
        # phi / mux cost depends on input count; base spec is per 2:1 slice
        return OperatorSpec(opcode, w, 0.55 + 0.003 * w, 0, max(1, w // 2), 0, 0, 0)
    if oc is OpClass.MEMORY:
        if opcode == "load":
            return OperatorSpec(opcode, w, 2.1, 1, 2, w, 0, 0)
        if opcode == "store":
            return OperatorSpec(opcode, w, 1.6, 0, 2, 0, 0, 0)
        if opcode == "gep":
            return OperatorSpec(opcode, w, 0.9 + 0.02 * w, 0, w, 0, 0, 0)
    if oc is OpClass.CONTROL:
        if opcode == "call":
            # The call itself is control plumbing; callee cost is separate.
            return OperatorSpec(opcode, w, 0.3, 0, 4, 2, 0, 0)
        return OperatorSpec(opcode, w, 0.2, 0, 1, 1, 0, 0)
    if oc is OpClass.IO:
        return OperatorSpec(opcode, w, 0.8, 0, 1, w, 0, 0)
    raise HLSError(f"no characterization rule for opcode {opcode!r}")  # pragma: no cover


class OperatorLibrary:
    """Memoizing front end over the characterization rules.

    A library instance also carries the *technology scaling factor* so
    tests can model faster/slower fabrics without editing rules.
    """

    def __init__(self, delay_scale: float = 1.0, resource_scale: float = 1.0) -> None:
        if delay_scale <= 0 or resource_scale <= 0:
            raise HLSError("library scale factors must be positive")
        self.delay_scale = delay_scale
        self.resource_scale = resource_scale
        self._cache: dict[tuple[str, int], OperatorSpec] = {}

    def characterize(self, opcode: str, width: int) -> OperatorSpec:
        """Return the :class:`OperatorSpec` for ``(opcode, width)``."""
        if not is_opcode(opcode):
            raise HLSError(f"unknown opcode {opcode!r}")
        if width < 0:
            raise HLSError(f"width must be non-negative, got {width}")
        key = (opcode, width)
        if key not in self._cache:
            base = _characterize_uncached(opcode, width)
            if self.delay_scale != 1.0 or self.resource_scale != 1.0:
                base = OperatorSpec(
                    base.opcode,
                    base.width,
                    base.delay_ns * self.delay_scale,
                    base.latency_cycles,
                    round(base.lut * self.resource_scale),
                    round(base.ff * self.resource_scale),
                    base.dsp,
                    base.bram,
                )
            self._cache[key] = base
        return self._cache[key]

    def spec_for(self, op) -> OperatorSpec:
        """Characterize an :class:`~repro.ir.operation.Operation`."""
        opcode = op.opcode
        return self.spec_of_kind(
            opcode, op.bitwidth(),
            opcode in _SHIFTS and len(op.operands) == 2
            and op.operands[1].is_constant)

    def spec_of_kind(self, opcode: str, width: int,
                     const_shift: bool = False) -> OperatorSpec:
        """Characterize an ``opcode`` op of ``width`` bits.

        Shifts by a compile-time constant (``const_shift``: a two-operand
        shift whose amount is a constant) are pure wiring (no barrel
        shifter), so they characterize as free, like HLS does.
        """
        if const_shift:
            key = (f"{opcode}#const", width)
            if key not in self._cache:
                self._cache[key] = OperatorSpec(
                    opcode, width, 0.05, 0, 0, 0, 0, 0
                )
            return self._cache[key]
        spec = self._cache.get((opcode, width))
        if spec is None:
            spec = self.characterize(opcode, width)
        return spec

    def mux_spec(self, n_inputs: int, width: int) -> OperatorSpec:
        """Characterize an n-input multiplexer of ``width`` bits.

        Muxes are synthesized by binding (shared functional units) and by
        memory port arbitration; the paper counts their number, resource
        usage, input size and bitwidth as global features.
        """
        if n_inputs < 2:
            raise HLSError(f"a mux needs at least 2 inputs, got {n_inputs}")
        stages = math.ceil(math.log2(n_inputs))
        lut = math.ceil(width * (n_inputs - 1) / 2)
        delay = (0.35 + 0.25 * stages) * self.delay_scale
        return OperatorSpec(
            "mux", width, delay, 0,
            round(lut * self.resource_scale), 0, 0, 0,
        )


#: Default library used across the flow (a 7-series-class fabric).
DEFAULT_LIBRARY = OperatorLibrary()
