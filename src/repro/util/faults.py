"""Deterministic, seed-driven fault injection.

The resilient serving tier (:mod:`repro.serve.server`) makes promises —
typed overload rejection, deadline misses surfacing as errors, crashed
workers restarting, corrupt artifacts quarantined — that are only worth
anything if they can be *demonstrated*.  This module is the machinery
for demonstrating them: a :class:`FaultInjector` holds a plan of
:class:`FaultSpec` entries and the persistence / pipeline / server
layers call the module-level seams (:func:`fault_point`,
:func:`fault_transform`) at well-known sites:

=====================  =====================================================
site                   where it fires
=====================  =====================================================
``cache.write``        before a :class:`~repro.util.cache.DiskCache` entry
                       is written (``.mid`` sub-site: between the two write
                       halves, for kill-mid-write crash tests)
``cache.read``         before a DiskCache entry is read
``registry.save``      before a model artifact is persisted (``.mid`` too)
``registry.load``      before a model artifact is read back
``stage.<name>``       before flow stage ``<name>`` executes
``server.worker``      in a serving worker, after it claimed a batch
``pool.dispatch``      in the pool parent, before a micro-batch is
                       sharded across worker processes
``pool.worker``        in a pool worker process, before it serves a
                       dispatched shard (``crash`` kills the process;
                       the parent restarts it and re-dispatches)
``net.read``           before a wire frame is read (either side)
``net.write``          before a wire frame is written (either side)
``net.stall``          alongside every wire read/write — attach ``delay``
                       specs here to emulate a slow, stalling network
``net.garbage``        on every *encoded* frame — ``corrupt`` specs flip
                       one byte so the peer sees a garbage frame (the
                       connection must die typed, never the server)
=====================  =====================================================

Fault kinds:

* ``error``   — raise :class:`InjectedFault` (an ``OSError``: write and
  read paths treat it exactly like a real I/O failure);
* ``delay``   — sleep ``delay_seconds`` (slow-stage latency);
* ``corrupt`` — flip one deterministic byte of the payload passing
  through :func:`fault_transform` (checksum verification must catch it);
* ``crash``   — ``os._exit(70)``: the process dies instantly, no
  ``finally`` blocks, no ``atexit`` — a stand-in for ``kill -9``.

Everything is deterministic: each spec carries its own
``random.Random`` stream seeded from ``(seed, site, kind)``, and
``probability``/``skip``/``max_fires`` are evaluated against per-spec
call counters, so a chaos test replays the same faults every run.

Activation is explicit (:func:`install`, or the :func:`injected_faults`
context manager) or environment-driven: set ``REPRO_FAULTS`` to a plan
string such as ``"cache.write:error:p=0.5,max=3;stage.graph:delay:s=0.2"``
and the first fault point of the process installs it (see
:func:`parse_fault_plan`).
"""

from __future__ import annotations

import fnmatch
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: environment variable holding a fault plan string
FAULTS_ENV = "REPRO_FAULTS"

#: exit code used by the ``crash`` kind (distinctive in subprocess tests)
CRASH_EXIT_CODE = 70

_KINDS = ("error", "delay", "corrupt", "crash")


class InjectedFault(OSError):
    """An injected I/O failure.  Deliberately an ``OSError`` so the
    code under test exercises its real error-handling paths."""


@dataclass(frozen=True)
class FaultSpec:
    """One entry of a fault plan.

    ``site`` may be a literal site name or an ``fnmatch`` glob
    (``"stage.*"``).  The first ``skip`` matching calls always pass,
    then each call fires with ``probability``; at most ``max_fires``
    faults are ever injected (``None`` = unlimited).
    """

    site: str
    kind: str
    probability: float = 1.0
    delay_seconds: float = 0.05
    skip: int = 0
    max_fires: int | None = None
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded for assertions and fault statistics."""

    site: str
    kind: str
    call_index: int


class FaultInjector:
    """Evaluates a fault plan at the library's fault sites.

    Thread-safe; counters are per-spec so determinism survives
    concurrent sites (per-site call *order* is the only scheduling
    dependence, and the chaos suite pins it with probability-1 specs).
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...],
                 seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self._lock = threading.Lock()
        self._calls: dict[int, int] = {i: 0 for i in range(len(self.specs))}
        self._fires: dict[int, int] = {i: 0 for i in range(len(self.specs))}
        self._rngs = {
            i: random.Random(f"{seed}:{s.site}:{s.kind}:{i}")
            for i, s in enumerate(self.specs)
        }
        self.events: list[FaultEvent] = []

    # ------------------------------------------------------------------
    def _due(self, site: str) -> FaultSpec | None:
        """The first spec that decides to fire at ``site`` (advancing
        every matching spec's counters)."""
        chosen: FaultSpec | None = None
        with self._lock:
            for i, spec in enumerate(self.specs):
                if site != spec.site and not fnmatch.fnmatch(site, spec.site):
                    continue
                call = self._calls[i]
                self._calls[i] = call + 1
                if chosen is not None:
                    continue
                if call < spec.skip:
                    continue
                if spec.max_fires is not None \
                        and self._fires[i] >= spec.max_fires:
                    continue
                if self._rngs[i].random() >= spec.probability:
                    continue
                self._fires[i] += 1
                self.events.append(FaultEvent(site, spec.kind, call))
                chosen = spec
        return chosen

    def decide(self, site: str) -> FaultSpec | None:
        """Advance counters at ``site`` and return the spec that fired,
        without applying it — for callers that must apply the effect
        themselves (e.g. awaiting a delay instead of blocking an event
        loop in :func:`async_fault_point`)."""
        return self._due(site)

    def fire(self, site: str) -> None:
        """Raise / sleep / crash if a spec fires at ``site``."""
        spec = self._due(site)
        if spec is None:
            return
        if spec.kind == "delay":
            time.sleep(spec.delay_seconds)
        elif spec.kind == "error":
            raise InjectedFault(
                spec.message or f"injected fault at {site!r}"
            )
        elif spec.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        # "corrupt" only acts on payloads — a bare fire() is a no-op,
        # but the event is still recorded (the counter advanced).

    def transform(self, site: str, data: bytes) -> bytes:
        """Corrupt ``data`` if a ``corrupt`` spec fires at ``site``;
        other kinds behave exactly as in :meth:`fire`."""
        spec = self._due(site)
        if spec is None:
            return data
        if spec.kind == "delay":
            time.sleep(spec.delay_seconds)
            return data
        if spec.kind == "error":
            raise InjectedFault(spec.message or f"injected fault at {site!r}")
        if spec.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if not data:
            return data
        index = self._rngs_for_site(site).randrange(len(data))
        return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1:]

    def _rngs_for_site(self, site: str) -> random.Random:
        # corruption position stream, independent of fire decisions
        return random.Random(f"{self.seed}:corrupt-at:{site}")

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            by_site: dict[str, int] = {}
            for event in self.events:
                by_site[event.site] = by_site.get(event.site, 0) + 1
            return {
                "fired": len(self.events),
                "by_site": by_site,
            }


# ----------------------------------------------------------------------
# plan strings (the REPRO_FAULTS hook)
# ----------------------------------------------------------------------
def parse_fault_plan(text: str) -> list[FaultSpec]:
    """Parse ``"site:kind[:k=v,...];site:kind..."`` into specs.

    Recognised options: ``p`` (probability), ``s`` (delay seconds),
    ``skip``, ``max`` (max fires).  Example::

        cache.write:error:p=0.5,max=3;stage.graph:delay:s=0.2
    """
    specs: list[FaultSpec] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 2:
            raise ValueError(
                f"bad fault spec {chunk!r}: expected 'site:kind[:opts]'"
            )
        site, kind = parts[0].strip(), parts[1].strip()
        kwargs: dict = {}
        if len(parts) > 2 and parts[2].strip():
            for pair in parts[2].split(","):
                key, _, value = pair.partition("=")
                key, value = key.strip(), value.strip()
                if key == "p":
                    kwargs["probability"] = float(value)
                elif key == "s":
                    kwargs["delay_seconds"] = float(value)
                elif key == "skip":
                    kwargs["skip"] = int(value)
                elif key == "max":
                    kwargs["max_fires"] = int(value)
                else:
                    raise ValueError(
                        f"unknown fault option {key!r} in {chunk!r}"
                    )
        specs.append(FaultSpec(site=site, kind=kind, **kwargs))
    return specs


# ----------------------------------------------------------------------
# the process-wide injector and the seams the library calls
# ----------------------------------------------------------------------
_ACTIVE: FaultInjector | None = None
_ACTIVE_LOCK = threading.Lock()
_ENV_CHECKED = False


def install(injector: FaultInjector | None) -> None:
    """Install ``injector`` as the process-wide fault source (``None``
    disables injection)."""
    global _ACTIVE, _ENV_CHECKED
    with _ACTIVE_LOCK:
        _ACTIVE = injector
        _ENV_CHECKED = True  # explicit installs override the env hook


def active_injector() -> FaultInjector | None:
    """The installed injector, consulting ``REPRO_FAULTS`` once."""
    global _ACTIVE, _ENV_CHECKED
    if _ENV_CHECKED:
        return _ACTIVE
    with _ACTIVE_LOCK:
        if not _ENV_CHECKED:
            plan = os.environ.get(FAULTS_ENV, "").strip()
            if plan:
                seed = int(os.environ.get(f"{FAULTS_ENV}_SEED", "0"))
                _ACTIVE = FaultInjector(parse_fault_plan(plan), seed=seed)
            _ENV_CHECKED = True
    return _ACTIVE


@contextmanager
def injected_faults(specs: list[FaultSpec], seed: int = 0):
    """Context manager installing a plan for the duration; yields the
    :class:`FaultInjector` so tests can assert on ``events``."""
    injector = FaultInjector(specs, seed=seed)
    previous = active_injector()
    install(injector)
    try:
        yield injector
    finally:
        install(previous)


def fault_point(site: str) -> None:
    """Library seam: fire any due fault at ``site`` (no-op without an
    installed injector)."""
    injector = active_injector()
    if injector is not None:
        injector.fire(site)


def fault_transform(site: str, data: bytes) -> bytes:
    """Library seam: pass ``data`` through the corruption filter."""
    injector = active_injector()
    if injector is None:
        return data
    return injector.transform(site, data)


async def async_fault_point(site: str) -> None:
    """Event-loop-safe variant of :func:`fault_point`: a ``delay`` spec
    awaits ``asyncio.sleep`` instead of blocking the loop thread with
    ``time.sleep``.  Used by the async wire helpers in
    :mod:`repro.serve.protocol`."""
    injector = active_injector()
    if injector is None:
        return
    spec = injector.decide(site)
    if spec is None:
        return
    if spec.kind == "delay":
        import asyncio

        await asyncio.sleep(spec.delay_seconds)
    elif spec.kind == "error":
        raise InjectedFault(spec.message or f"injected fault at {site!r}")
    elif spec.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
