"""HLS directive sets.

The paper's motivation and case study revolve around directives: function
inlining, loop pipelining, loop unrolling and array partitioning change a
design's latency *and* its routing congestion.  A :class:`DirectiveSet`
captures one directive configuration; applying it to IR is the job of
:mod:`repro.hls.transforms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DirectiveError
from repro.ir.module import Module


@dataclass(frozen=True)
class InlineDirective:
    """Inline ``function`` into each of its callers (HLS ``#pragma inline``)."""

    function: str


@dataclass(frozen=True)
class UnrollDirective:
    """Unroll loop ``loop`` in ``function`` by ``factor`` (0 = complete)."""

    function: str
    loop: str
    factor: int = 0

    def __post_init__(self) -> None:
        if self.factor < 0:
            raise DirectiveError(
                f"unroll factor must be >= 0 (0 = complete), got {self.factor}"
            )


@dataclass(frozen=True)
class PipelineDirective:
    """Pipeline loop ``loop`` in ``function`` with initiation interval ``ii``."""

    function: str
    loop: str
    ii: int = 1

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise DirectiveError(f"initiation interval must be >= 1, got {self.ii}")


@dataclass(frozen=True)
class ArrayPartitionDirective:
    """Partition array ``array`` in ``function`` into ``factor`` banks.

    ``factor=0`` requests complete partitioning (one register per element).
    """

    function: str
    array: str
    factor: int = 0

    def __post_init__(self) -> None:
        if self.factor < 0:
            raise DirectiveError(
                f"partition factor must be >= 0 (0 = complete), got {self.factor}"
            )


def _name(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a name, got {value!r}")
    return value


def _number(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


@dataclass
class DirectiveSet:
    """A named bundle of directives, the unit the flow consumes."""

    name: str = "default"
    inlines: list[InlineDirective] = field(default_factory=list)
    unrolls: list[UnrollDirective] = field(default_factory=list)
    pipelines: list[PipelineDirective] = field(default_factory=list)
    partitions: list[ArrayPartitionDirective] = field(default_factory=list)

    def inline(self, function: str) -> "DirectiveSet":
        self.inlines.append(InlineDirective(function))
        return self

    def unroll(self, function: str, loop: str, factor: int = 0) -> "DirectiveSet":
        self.unrolls.append(UnrollDirective(function, loop, factor))
        return self

    def pipeline(self, function: str, loop: str, ii: int = 1) -> "DirectiveSet":
        self.pipelines.append(PipelineDirective(function, loop, ii))
        return self

    def partition(self, function: str, array: str, factor: int = 0) -> "DirectiveSet":
        self.partitions.append(ArrayPartitionDirective(function, array, factor))
        return self

    def is_empty(self) -> bool:
        return not (self.inlines or self.unrolls or self.pipelines or self.partitions)

    def n_directives(self) -> int:
        return (len(self.inlines) + len(self.unrolls)
                + len(self.pipelines) + len(self.partitions))

    # ------------------------------------------------------------------
    # canonical serialized form
    # ------------------------------------------------------------------
    def to_key(self) -> tuple:
        """Canonical, hashable identity of the directive *content*.

        Directives are sorted per kind (the synthesizer applies each
        kind as a phase, so list order within a kind carries no
        meaning), and the set's display ``name`` is excluded — two sets
        describing the same configuration share one key no matter how
        they were assembled.  This single representation is what
        explore configs, serving requests and the service's feature
        cache key on, so a what-if sweep can never alias two different
        configurations (or split one configuration into two cache
        slots).
        """
        return (
            "directives",
            tuple(sorted((d.function,) for d in self.inlines)),
            tuple(sorted((d.function, d.loop, d.factor)
                         for d in self.unrolls)),
            tuple(sorted((d.function, d.loop, d.ii)
                         for d in self.pipelines)),
            tuple(sorted((d.function, d.array, d.factor)
                         for d in self.partitions)),
        )

    @classmethod
    def from_key(cls, key: tuple, name: str = "from-key") -> "DirectiveSet":
        """Rebuild a :class:`DirectiveSet` from :meth:`to_key` output.

        Raises :class:`~repro.errors.DirectiveError` on malformed keys
        (a foreign tuple must fail loudly, never half-parse).  Names must
        be strings and factors integers, so ``from_key(k).to_key()`` is
        hashable even when ``k`` arrived as nested JSON lists.
        """
        try:
            tag, inlines, unrolls, pipelines, partitions = key
            if tag != "directives":
                raise ValueError(f"bad tag {tag!r}")
            return cls(
                name=name,
                inlines=[InlineDirective(_name(f)) for (f,) in inlines],
                unrolls=[UnrollDirective(_name(f), _name(loop),
                                         _number(factor))
                         for f, loop, factor in unrolls],
                pipelines=[PipelineDirective(_name(f), _name(loop),
                                             _number(ii))
                           for f, loop, ii in pipelines],
                partitions=[ArrayPartitionDirective(_name(f), _name(array),
                                                    _number(factor))
                            for f, array, factor in partitions],
            )
        except DirectiveError:
            raise
        except (TypeError, ValueError) as exc:
            raise DirectiveError(
                f"malformed directive key {key!r}: {exc}"
            ) from exc

    def copy(self, name: str | None = None) -> "DirectiveSet":
        """Independent copy (the per-kind lists are not shared)."""
        return DirectiveSet(
            name=name or self.name,
            inlines=list(self.inlines),
            unrolls=list(self.unrolls),
            pipelines=list(self.pipelines),
            partitions=list(self.partitions),
        )

    def validate(self, module: Module) -> None:
        """Check every directive references an existing entity."""
        for d in self.inlines:
            if d.function not in module.functions:
                raise DirectiveError(f"inline: no function {d.function!r}")
            if module.functions[d.function].is_top:
                raise DirectiveError("inline: cannot inline the top function")
        for d in self.unrolls:
            self._check_loop(module, d.function, d.loop, "unroll")
        for d in self.pipelines:
            self._check_loop(module, d.function, d.loop, "pipeline")
        for d in self.partitions:
            if d.function not in module.functions:
                raise DirectiveError(f"array_partition: no function {d.function!r}")
            if d.array not in module.functions[d.function].arrays:
                raise DirectiveError(
                    f"array_partition: no array {d.array!r} in {d.function!r}"
                )

    @staticmethod
    def _check_loop(module: Module, function: str, loop: str, kind: str) -> None:
        if function not in module.functions:
            raise DirectiveError(f"{kind}: no function {function!r}")
        if loop not in module.functions[function].loops:
            raise DirectiveError(f"{kind}: no loop {loop!r} in {function!r}")
