"""Parameterized directive spaces for what-if exploration.

A :class:`DirectiveSpace` is a declaration of *which* pragmas may vary
and over *which* values — the unit the sweep and the autotuner operate
on.  A concrete choice of one value per knob is a
:class:`DirectiveConfig`; applying a config to a design's base
:class:`~repro.hls.directives.DirectiveSet` yields the directive set the
HLS-prefix pipeline actually consumes, and the canonical
``DirectiveSet.to_key()`` of that applied set is the configuration's
cache identity everywhere (explore memo, serving requests and the
service's feature cache).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.errors import ExploreError
from repro.hls.directives import DirectiveSet
from repro.ir.module import Module
from repro.kernels.common import KernelDesign

#: knob kinds, in canonical declaration order
KNOB_KINDS = ("unroll", "pipeline", "partition", "inline")

#: "off" values per kind: choosing one removes the targeted directive
#: instead of emitting it (unroll by 1 / partition into 1 bank are
#: no-ops; pipeline II 0 and inline False are explicit sentinels)
_OFF_VALUES = {"unroll": 1, "pipeline": 0, "partition": 1, "inline": False}


@dataclass(frozen=True)
class Knob:
    """One independently variable pragma.

    ``kind`` is one of :data:`KNOB_KINDS`; ``target`` names the loop
    (unroll/pipeline) or array (partition) and is empty for inline
    knobs.  ``choices`` always includes every value the knob may take,
    "off" included — the *first* choice is the knob's default only by
    convention of the caller, the space itself treats choices as an
    unordered domain with a fixed enumeration order.
    """

    kind: str
    function: str
    target: str
    choices: tuple

    def __post_init__(self) -> None:
        if self.kind not in KNOB_KINDS:
            raise ExploreError(
                f"unknown knob kind {self.kind!r}; expected one of "
                f"{KNOB_KINDS}"
            )
        if not self.choices:
            raise ExploreError(f"knob {self.label()} has no choices")
        if len(set(self.choices)) != len(self.choices):
            raise ExploreError(
                f"knob {self.label()} has duplicate choices "
                f"{self.choices}"
            )
        if self.kind == "inline":
            if self.target:
                raise ExploreError("inline knobs take no target")
            bad = [c for c in self.choices if not isinstance(c, bool)]
        else:
            bad = [c for c in self.choices
                   if isinstance(c, bool) or not isinstance(c, int)
                   or c < 0]
        if bad:
            raise ExploreError(
                f"knob {self.label()} has invalid choices {bad}"
            )
        if self.kind == "pipeline":
            # II 0 is the off sentinel; a real initiation interval is >= 1
            pass

    # ------------------------------------------------------------------
    @classmethod
    def unroll(cls, function: str, loop: str, factors) -> "Knob":
        """Unroll factors for one loop (1 = off, 0 = complete)."""
        return cls("unroll", function, loop, tuple(factors))

    @classmethod
    def pipeline(cls, function: str, loop: str, iis) -> "Knob":
        """Pipeline IIs for one loop (0 = off)."""
        return cls("pipeline", function, loop, tuple(iis))

    @classmethod
    def partition(cls, function: str, array: str, factors) -> "Knob":
        """Partition factors for one array (1 = off, 0 = complete)."""
        return cls("partition", function, array, tuple(factors))

    @classmethod
    def inline(cls, function: str) -> "Knob":
        """Inline on/off for one function."""
        return cls("inline", function, "", (False, True))

    # ------------------------------------------------------------------
    def label(self) -> str:
        suffix = f".{self.target}" if self.target else ""
        return f"{self.kind}:{self.function}{suffix}"

    def is_off(self, value) -> bool:
        return value == _OFF_VALUES[self.kind]

    def describe(self, value) -> str:
        if self.kind == "inline":
            return f"{self.label()}={'on' if value else 'off'}"
        if self.is_off(value):
            return f"{self.label()}=off"
        if value == 0:  # unroll/partition complete
            return f"{self.label()}=complete"
        return f"{self.label()}={value}"

    def probe_directive(self, d: DirectiveSet) -> None:
        """Append one representative directive for validation."""
        if self.kind == "unroll":
            d.unroll(self.function, self.target, 0)
        elif self.kind == "pipeline":
            d.pipeline(self.function, self.target, 1)
        elif self.kind == "partition":
            d.partition(self.function, self.target, 0)
        else:
            d.inline(self.function)

    def apply(self, d: DirectiveSet, value) -> None:
        """Remove same-target directives from ``d``; add the chosen one."""
        if value not in self.choices:
            raise ExploreError(
                f"value {value!r} is not a choice of {self.label()} "
                f"(choices: {self.choices})"
            )
        if self.kind == "unroll":
            d.unrolls = [u for u in d.unrolls
                         if (u.function, u.loop)
                         != (self.function, self.target)]
            if not self.is_off(value):
                d.unroll(self.function, self.target, value)
        elif self.kind == "pipeline":
            d.pipelines = [p for p in d.pipelines
                           if (p.function, p.loop)
                           != (self.function, self.target)]
            if not self.is_off(value):
                d.pipeline(self.function, self.target, value)
        elif self.kind == "partition":
            d.partitions = [p for p in d.partitions
                            if (p.function, p.array)
                            != (self.function, self.target)]
            if not self.is_off(value):
                d.partition(self.function, self.target, value)
        else:
            d.inlines = [i for i in d.inlines
                         if i.function != self.function]
            if value:
                d.inline(self.function)


@dataclass(frozen=True)
class DirectiveConfig:
    """One concrete assignment: ``values[i]`` is the choice for
    ``space.knobs[i]``.  Hashable; its :meth:`key` is canonical within
    the owning space (knob order is fixed at space construction)."""

    space: "DirectiveSpace"
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) != len(self.space.knobs):
            raise ExploreError(
                f"config has {len(self.values)} values for "
                f"{len(self.space.knobs)} knobs"
            )

    def key(self) -> tuple:
        """Canonical hashable identity of this assignment."""
        return tuple(
            (k.kind, k.function, k.target, v)
            for k, v in zip(self.space.knobs, self.values)
        )

    def label(self) -> str:
        """Compact human-readable form, off-knobs elided."""
        parts = [k.describe(v) for k, v in zip(self.space.knobs,
                                               self.values)
                 if not k.is_off(v)]
        return " ".join(parts) if parts else "(all off)"


class DirectiveSpace:
    """Declared knobs over one design's directive surface."""

    def __init__(self, name: str, knobs) -> None:
        self.name = name
        self.knobs: tuple[Knob, ...] = tuple(knobs)
        if not self.knobs:
            raise ExploreError(f"space {name!r} declares no knobs")
        seen: set[tuple] = set()
        for knob in self.knobs:
            ident = (knob.kind, knob.function, knob.target)
            if ident in seen:
                raise ExploreError(
                    f"space {name!r} declares knob {knob.label()} twice"
                )
            seen.add(ident)

    def __len__(self) -> int:
        return len(self.knobs)

    @property
    def n_configs(self) -> int:
        n = 1
        for knob in self.knobs:
            n *= len(knob.choices)
        return n

    # ------------------------------------------------------------------
    def validate(self, module: Module) -> None:
        """Every knob must reference an existing module entity (checked
        through ``DirectiveSet.validate``, one probe per knob)."""
        probe = DirectiveSet(f"{self.name}:probe")
        for knob in self.knobs:
            knob.probe_directive(probe)
        probe.validate(module)

    # ------------------------------------------------------------------
    def config(self, values) -> DirectiveConfig:
        return DirectiveConfig(self, tuple(values))

    def enumerate_configs(self):
        """Every configuration, in deterministic knob-major order."""
        for values in itertools.product(*(k.choices for k in self.knobs)):
            yield DirectiveConfig(self, values)

    def sample(self, n: int, seed: int = 0) -> list[DirectiveConfig]:
        """``n`` distinct configurations, seed-deterministic.

        Falls back to full enumeration when ``n`` covers the space.
        """
        if n <= 0:
            raise ExploreError(f"sample size must be >= 1, got {n}")
        if n >= self.n_configs:
            return list(self.enumerate_configs())
        rng = random.Random(seed)
        seen: set[tuple] = set()
        out: list[DirectiveConfig] = []
        # distinct draws; the n < n_configs guard bounds the loop
        while len(out) < n:
            values = tuple(k.choices[rng.randrange(len(k.choices))]
                           for k in self.knobs)
            if values in seen:
                continue
            seen.add(values)
            out.append(DirectiveConfig(self, values))
        return out

    def neighbors(self, config: DirectiveConfig) -> list[DirectiveConfig]:
        """Every config differing from ``config`` in exactly one knob."""
        out = []
        for i, knob in enumerate(self.knobs):
            for choice in knob.choices:
                if choice == config.values[i]:
                    continue
                values = (*config.values[:i], choice,
                          *config.values[i + 1:])
                out.append(DirectiveConfig(self, values))
        return out

    # ------------------------------------------------------------------
    def apply(self, config: DirectiveConfig,
              base: DirectiveSet | None = None,
              name: str | None = None) -> DirectiveSet:
        """The directive set ``config`` describes, layered over ``base``.

        Base directives not targeted by any knob are kept unchanged
        (the what-if semantics: vary the declared pragmas, leave the
        rest of the design's tuning alone); targeted ones are replaced
        by — or removed for an "off" choice of — the knob's value.
        """
        # structural, not identity: two sessions deriving the same
        # space around the same design interchange configs freely
        if config.space is not self and config.space.knobs != self.knobs:
            raise ExploreError(
                f"config belongs to space {config.space.name!r}, "
                f"not {self.name!r}"
            )
        applied = (base.copy(name or f"{self.name}:config")
                   if base is not None
                   else DirectiveSet(name or f"{self.name}:config"))
        for knob, value in zip(self.knobs, config.values):
            knob.apply(applied, value)
        return applied

    # ------------------------------------------------------------------
    @classmethod
    def around(cls, design: KernelDesign, *, name: str | None = None,
               max_knobs: int | None = None) -> "DirectiveSpace":
        """A space centered on a design's existing directive set.

        Every existing directive becomes a knob whose choices include
        its current value and "off" (plus nearby factors for unrolls):
        the classic what-if question — *which of the pragmas I already
        wrote is hurting me, and by how much?*  Knobs are emitted in
        deterministic order (unrolls, pipelines, partitions, inlines,
        each in base-list order) and, with ``max_knobs``, truncated in
        that same priority order.
        """
        base = design.directives
        knobs: list[Knob] = []
        for u in base.unrolls:
            choices = []
            for c in (1, 2, 4, u.factor):
                if c not in choices:
                    choices.append(c)
            knobs.append(Knob.unroll(u.function, u.loop, choices))
        for p in base.pipelines:
            choices = [0, p.ii] if p.ii != 0 else [0]
            if 1 not in choices:
                choices.append(1)
            knobs.append(Knob.pipeline(p.function, p.loop, choices))
        for a in base.partitions:
            choices = []
            for c in (1, a.factor, 0):
                if c not in choices:
                    choices.append(c)
            knobs.append(Knob.partition(a.function, a.array, choices))
        for i in base.inlines:
            knobs.append(Knob.inline(i.function))
        if not knobs:
            raise ExploreError(
                f"design {design.name!r} [{design.variant}] has no "
                f"directives to explore around; declare knobs explicitly"
            )
        if max_knobs is not None:
            if max_knobs < 1:
                raise ExploreError(
                    f"max_knobs must be >= 1, got {max_knobs}"
                )
            knobs = knobs[:max_knobs]
        space = cls(name or f"{design.name}:{design.variant}:around",
                    knobs)
        space.validate(design.module)
        return space

    def identity_values(self, base: DirectiveSet) -> tuple:
        """The choice per knob that reproduces ``base`` (the knob's
        current setting in the base set, "off" when absent).

        Raises :class:`ExploreError` when a base value is outside the
        knob's declared choices — the space cannot represent the
        baseline then, and callers relying on an identity start point
        (the autotuner) must know.
        """
        by_target: dict[tuple, object] = {}
        for u in base.unrolls:
            by_target[("unroll", u.function, u.loop)] = u.factor
        for p in base.pipelines:
            by_target[("pipeline", p.function, p.loop)] = p.ii
        for a in base.partitions:
            by_target[("partition", a.function, a.array)] = a.factor
        for i in base.inlines:
            by_target[("inline", i.function, "")] = True
        values = []
        for knob in self.knobs:
            value = by_target.get((knob.kind, knob.function, knob.target),
                                  _OFF_VALUES[knob.kind])
            if value not in knob.choices:
                raise ExploreError(
                    f"baseline value {value!r} of {knob.label()} is not "
                    f"among its choices {knob.choices}"
                )
            values.append(value)
        return tuple(values)

    def describe(self) -> dict:
        """JSON-friendly declaration (CLI/bench payloads)."""
        return {
            "name": self.name,
            "n_knobs": len(self.knobs),
            "n_configs": self.n_configs,
            "knobs": [
                {"kind": k.kind, "function": k.function,
                 "target": k.target, "choices": list(k.choices)}
                for k in self.knobs
            ],
        }
