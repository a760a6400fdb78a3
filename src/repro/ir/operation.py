"""IR operations and source locations.

Each operation is one node of the dataflow graph the paper's features are
computed on.  Operations carry:

* an opcode from the fixed vocabulary (:mod:`repro.ir.opcodes`),
* typed operand values and at most one result value,
* a source location so congested operations can be mapped back to the
  high-level source (the paper's headline use case),
* free-form attributes — the HLS passes use them to record unroll replica
  indices, array names, inlining provenance, etc.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import IRError
from repro.ir.opcodes import is_opcode, opcode_info
from repro.ir.types import Type, VOID
from repro.ir.value import Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.function import Function

_op_counter = itertools.count()


def reset_op_uids() -> None:
    """Restart the global operation-uid counter.

    Called at the start of every top-level kernel/combination build so
    that a design's IR — and everything downstream of it: netlist,
    placement, congestion labels — is bit-identical no matter how many
    designs the process built before.  Without this, uid offsets leak
    into set/dict iteration order and a design built second differs
    subtly from the same design built first, which would break the
    guarantee that parallel dataset builds equal serial ones.

    Design builds are process-local and NOT thread-safe: resetting
    while another build is mid-flight would hand out duplicate uids.
    Parallelize builds across processes (``build_paper_dataset(
    n_jobs=...)`` does), never across threads.
    """
    global _op_counter
    _op_counter = itertools.count()


@dataclass(frozen=True)
class SourceLocation:
    """Position in the high-level source a piece of IR came from."""

    file: str
    line: int
    column: int = 0

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


UNKNOWN_LOCATION = SourceLocation("<unknown>", 0)


class Operation:
    """One IR operation (a node in the dataflow graph)."""

    __slots__ = (
        "uid",
        "opcode",
        "operands",
        "result",
        "loc",
        "attrs",
        "parent",
        "name",
    )

    def __init__(
        self,
        opcode: str,
        operands: list[Value],
        result_type: Type = VOID,
        *,
        name: str = "",
        loc: SourceLocation = UNKNOWN_LOCATION,
        attrs: Optional[dict] = None,
        uid: Optional[int] = None,
    ) -> None:
        if not is_opcode(opcode):
            raise IRError(f"unknown opcode {opcode!r}")
        info = opcode_info(opcode)
        if info.n_operands >= 0 and len(operands) != info.n_operands:
            raise IRError(
                f"{opcode} expects {info.n_operands} operands, got {len(operands)}"
            )
        if info.has_result and result_type.is_void:
            raise IRError(f"{opcode} must produce a result")
        if not info.has_result and not result_type.is_void:
            raise IRError(f"{opcode} does not produce a result")

        # builders draw from the global counter; transforms pass the
        # next free uid of the module they extend
        self.uid: int = next(_op_counter) if uid is None else uid
        self.opcode = opcode
        self.operands: list[Value] = list(operands)
        self.loc = loc
        self.attrs: dict = dict(attrs) if attrs else {}
        self.parent: Optional["Function"] = None
        self.name = name or f"{opcode}_{self.uid}"

        if info.has_result:
            self.result: Optional[Value] = Value(result_type, name=self.name, producer=self)
        else:
            self.result = None

        for operand in self.operands:
            operand.users.append(self)

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    @property
    def info(self):
        """Static :class:`OpcodeInfo` for this operation's opcode."""
        return opcode_info(self.opcode)

    @property
    def opclass(self):
        return self.info.opclass

    def bitwidth(self) -> int:
        """Operation bitwidth: result width, or widest operand for void ops."""
        if self.result is not None:
            width = self.result.type.bitwidth()
            if width > 0:
                return width
        return max([v.type.bitwidth() for v in self.operands], default=0)

    def predecessors(self) -> list["Operation"]:
        """Operations producing this operation's operands (dedup, ordered)."""
        seen: dict[int, Operation] = {}
        for operand in self.operands:
            producer = operand.producer
            if producer is not None and producer.uid not in seen:
                seen[producer.uid] = producer
        return list(seen.values())

    def successors(self) -> list["Operation"]:
        """Operations consuming this operation's result (dedup, ordered)."""
        if self.result is None:
            return []
        seen: dict[int, Operation] = {}
        for user in self.result.users:
            if user.uid not in seen:
                seen[user.uid] = user
        return list(seen.values())

    # ------------------------------------------------------------------
    # mutation helpers used by IR passes
    # ------------------------------------------------------------------
    def replace_operand(self, old: Value, new: Value) -> int:
        """Replace every use of ``old`` with ``new``; return the use count."""
        count = 0
        for i, operand in enumerate(self.operands):
            if operand is old:
                self.operands[i] = new
                count += 1
        if count:
            while self in old.users:
                old.users.remove(self)
            new.users.extend([self] * count)
        return count

    def detach(self) -> None:
        """Remove this operation from the def-use web (before deletion)."""
        for operand in self.operands:
            while self in operand.users:
                operand.users.remove(self)
        self.operands = []
        if self.result is not None and self.result.users:
            raise IRError(
                f"cannot detach {self.name}: result still has "
                f"{len(self.result.users)} users"
            )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        args = ", ".join(v.name or "?" for v in self.operands)
        res = f"{self.result.type} " if self.result is not None else ""
        return f"{self.name} = {res}{self.opcode}({args})"
