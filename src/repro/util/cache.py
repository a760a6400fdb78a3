"""Keyed caches shared by the flow, dataset and benchmark layers.

Building the full dataset (six kernels through HLS + place + route) and
training three model families is by far the most expensive part of the
reproduction; several tables reuse those artifacts.  Two tiers exist:

* :class:`KeyedCache` — a thread-safe process-lifetime memo keyed by
  hashable tuples, with hit/miss/size accounting.
  Builds are serialized **per key**: concurrent ``get_or_build`` calls
  for the same key build exactly once, while builds of different keys
  proceed in parallel.
* :class:`DiskCache` — a content-addressed pickle store (key -> SHA-256
  file) that lets ``run_flow`` results survive across processes.  It is
  opt-in: set the ``REPRO_CACHE_DIR`` environment variable to a
  directory and every cached flow/dataset build is persisted there and
  reloaded by later processes.

Persistence is **crash-safe end-to-end**: every artifact is written to
a writer-unique temp file and published with ``os.replace`` (a process
killed mid-write leaves only a temp file, never a truncated entry), and
every artifact carries a header + SHA-256 checksum verified on load
(:func:`checksummed_pack` / :func:`checksummed_unpack`).  An entry that
fails verification is **quarantined** — renamed ``*.quarantined`` so no
later process re-adopts it — and treated as a miss to be rebuilt.

Write and read paths thread through the deterministic fault-injection
seams in :mod:`repro.util.faults` (sites ``cache.write`` /
``cache.read`` plus the ``.mid`` kill-mid-write sub-site), which is how
the chaos suite proves all of the above.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import threading
from typing import Callable, Hashable

from repro.errors import CorruptArtifactError
from repro.util.faults import fault_point, fault_transform

#: environment variable that switches the on-disk cache on
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: bump to invalidate every on-disk entry when artifact layouts change
#: (v2: checksummed artifact container; v3: stage entries hold only the
#: artifact, and a flow result's design keeps its pre-HLS module; v4: a
#: flow result's graph is the frozen array GraphStructure; v5: an HLS
#: result's schedules and bindings hold op tables and position arrays;
#: v6: an HLS result holds its synthesized design as a table IR, not
#: IR objects; v7: a flow result is the pipeline's completed
#: FlowContext, with per-stage seconds in ``stage_seconds``; v8: a flow
#: result's labels and a dataset's sample metadata are columns)
_DISK_FORMAT_VERSION = 8


class KeyedCache:
    """A dict-backed memo with a ``get_or_build`` convenience.

    Safe to share across threads.  Lookups take one short-lived store
    lock; builds run under a **per-key** lock, so concurrent
    ``get_or_build`` calls for the same key build the value exactly
    once while hits and builds on other keys proceed unblocked (the
    serving tier's workers share one store across concurrent designs).
    Per-key locks are reentrant: a builder may recursively build
    *other* keys in the same cache.
    """

    def __init__(self) -> None:
        self._store: dict[Hashable, object] = {}
        self._lock = threading.RLock()
        self._build_locks: dict[Hashable, threading.RLock] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def get_or_build(self, key: Hashable, builder: Callable[[], object]):
        """Return the cached value for ``key``, building it on first use."""
        with self._lock:
            if key in self._store:
                self.hits += 1
                return self._store[key]
            build_lock = self._build_locks.get(key)
            if build_lock is None:
                build_lock = self._build_locks[key] = threading.RLock()
        with build_lock:
            with self._lock:
                if key in self._store:  # built while we waited
                    self.hits += 1
                    return self._store[key]
                self.misses += 1
            value = builder()
            with self._lock:
                # store *then* retire the build lock: a thread arriving
                # in between sees the hit, never a fresh lock to build
                # under.  On builder failure the lock entry stays, so
                # waiters retry serialized (still exactly-once on the
                # first success).
                self._store[key] = value
                self._build_locks.pop(key, None)
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._store[key] = value

    def get(self, key: Hashable, default=None):
        with self._lock:
            return self._store.get(key, default)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._build_locks.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._store),
            }


#: flow artifacts hold deeply recursive IR/graph structures; (un)pickling
#: them runs in a dedicated thread with a large stack and recursion limit
_PICKLE_STACK_BYTES = 256 * 1024 * 1024
_PICKLE_RECURSION_LIMIT = 500_000
#: serializes deep-stack pickling: the recursion limit is process-global,
#: so concurrent toggling would race (one worker restoring the default
#: limit mid-way through another's deep load)
_PICKLE_LOCK = threading.Lock()


def _run_with_deep_stack(fn: Callable[[], object]):
    """Run ``fn`` on a thread with a large stack and recursion limit.

    Full-scale flow results (completed
    :class:`~repro.flow.pipeline.FlowContext` objects) nest thousands of
    objects deep, beyond both the default recursion limit and the default
    thread stack — pickling them inline raises ``RecursionError`` (or
    worse, overflows the C stack).
    """
    outcome: dict[str, object] = {}

    def runner() -> None:
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, _PICKLE_RECURSION_LIMIT))
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # re-raised on the caller's thread
            outcome["error"] = exc
        finally:
            sys.setrecursionlimit(old_limit)

    with _PICKLE_LOCK:
        old_stack = threading.stack_size(_PICKLE_STACK_BYTES)
        try:
            worker = threading.Thread(target=runner, name="diskcache-pickle")
            worker.start()
            worker.join()
        finally:
            threading.stack_size(old_stack)
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def writer_tmp_path(path: str) -> str:
    """Writer-unique temp name: pid alone is not enough — two threads
    of one process saving the same path would interleave into a single
    temp file and publish a corrupt pickle via ``os.replace``."""
    return f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"


# ----------------------------------------------------------------------
# checksummed artifact container
# ----------------------------------------------------------------------
#: artifact container header: magic + format byte, then SHA-256 digest
ARTIFACT_MAGIC = b"RPRA\x02"
_DIGEST_BYTES = 32


def checksummed_pack(payload: bytes) -> bytes:
    """Wrap ``payload`` in the header + SHA-256 artifact container."""
    digest = hashlib.sha256(payload).digest()
    return ARTIFACT_MAGIC + digest + payload


def checksummed_unpack(blob: bytes, path: str) -> bytes:
    """Verify and strip the artifact container; raises
    :class:`~repro.errors.CorruptArtifactError` on any mismatch."""
    header_len = len(ARTIFACT_MAGIC) + _DIGEST_BYTES
    if len(blob) < header_len or not blob.startswith(ARTIFACT_MAGIC):
        raise CorruptArtifactError(
            f"corrupt artifact {path}: missing or unknown header "
            f"(truncated write or foreign file)"
        )
    digest = blob[len(ARTIFACT_MAGIC):header_len]
    payload = blob[header_len:]
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptArtifactError(
            f"corrupt artifact {path}: checksum mismatch over "
            f"{len(payload)} payload bytes"
        )
    return payload


def quarantine_path(path: str) -> str:
    """Where :func:`quarantine_artifact` parks a corrupt ``path``."""
    return path + ".quarantined"


def quarantine_artifact(path: str) -> str | None:
    """Move a corrupt artifact aside so it is never re-adopted.

    Returns the quarantine destination, or ``None`` when the file was
    already gone (e.g. a concurrent process quarantined it first).
    """
    dest = quarantine_path(path)
    try:
        os.replace(path, dest)
    except OSError:
        return None
    return dest


def atomic_checked_write(path: str, payload: bytes, *,
                         site: str = "artifact.write") -> None:
    """Atomically publish ``payload`` at ``path`` in the checksummed
    container (write temp file, fsync, ``os.replace``).

    ``site`` names the fault-injection seam; the write is split in two
    halves around the ``<site>.mid`` sub-site so crash tests can kill
    the process with a half-written temp file on disk.
    """
    fault_point(site)
    blob = fault_transform(site, checksummed_pack(payload))
    tmp = writer_tmp_path(path)
    try:
        with open(tmp, "wb") as fh:
            half = len(blob) // 2
            fh.write(blob[:half])
            fh.flush()
            fault_point(f"{site}.mid")
            fh.write(blob[half:])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def checked_read(path: str, *, site: str = "artifact.read") -> bytes:
    """Read and verify a checksummed artifact; raises ``OSError`` on
    I/O failure and :class:`CorruptArtifactError` on verification
    failure (the caller decides whether to quarantine)."""
    fault_point(site)
    with open(path, "rb") as fh:
        blob = fh.read()
    return checksummed_unpack(blob, path)


def deep_pickle_dump(path: str, value, *,
                     site: str = "artifact.write") -> None:
    """Atomically pickle ``value`` to ``path`` (deep-stack pickling,
    checksummed container); failures propagate, and
    :meth:`DiskCache.put` decides to treat them as best-effort."""
    payload = _run_with_deep_stack(
        lambda: pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    )
    atomic_checked_write(path, payload, site=site)


def deep_pickle_load(path: str, *, site: str = "artifact.read"):
    """Unpickle a checksummed artifact from ``path``; I/O errors,
    checksum mismatches (:class:`CorruptArtifactError`) and unpickling
    failures all propagate."""
    payload = checked_read(path, site=site)
    return _run_with_deep_stack(lambda: pickle.loads(payload))


class DiskCache:
    """Content-addressed pickle store keyed by hashed repr of the key.

    Keys must be tuples of primitives with a stable ``repr`` (the same
    keys :class:`KeyedCache` uses).  Writes are atomic (temp file +
    ``os.replace``) so concurrent builder processes never observe a
    torn entry, and every entry is checksummed: a corrupt or truncated
    entry is quarantined (``*.quarantined``) and degrades to a miss
    instead of poisoning later processes.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.write_failures = 0

    def path_for(self, key: Hashable) -> str:
        digest = hashlib.sha256(
            f"v{_DISK_FORMAT_VERSION}:{key!r}".encode()
        ).hexdigest()
        return os.path.join(self.root, f"{digest}.pkl")

    def get(self, key: Hashable, default=None):
        path = self.path_for(key)
        try:
            value = deep_pickle_load(path, site="cache.read")
        except FileNotFoundError:
            self.misses += 1
            return default
        except (CorruptArtifactError, pickle.PickleError, EOFError,
                AttributeError, ImportError, RecursionError):
            # verified-corrupt or undeserializable: park it so no later
            # process wastes time (or worse, half-succeeds) on it
            if quarantine_artifact(path) is not None:
                self.quarantined += 1
            self.misses += 1
            return default
        except OSError:
            self.misses += 1
            return default
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        try:
            deep_pickle_dump(self.path_for(key), value, site="cache.write")
        except Exception:
            # Persisting is best-effort; the in-memory result stands.
            self.write_failures += 1

    def __contains__(self, key: Hashable) -> bool:
        return os.path.exists(self.path_for(key))

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "write_failures": self.write_failures,
            "size": sum(
                1 for name in os.listdir(self.root) if name.endswith(".pkl")
            ),
        }


_DISK_CACHES: dict[str, DiskCache] = {}
_DISK_CACHES_LOCK = threading.Lock()


def disk_cache_from_env() -> DiskCache | None:
    """The :class:`DiskCache` named by ``REPRO_CACHE_DIR``, if set.

    One instance per root path is kept for the process lifetime so
    hit/miss stats accumulate and the directory is created once.
    """
    root = os.environ.get(CACHE_DIR_ENV, "").strip()
    if not root:
        return None
    with _DISK_CACHES_LOCK:
        if root not in _DISK_CACHES:
            _DISK_CACHES[root] = DiskCache(root)
        return _DISK_CACHES[root]


_GLOBAL_STORES: dict[str, KeyedCache] = {}
_GLOBAL_STORES_LOCK = threading.Lock()


def cached_property_store(name: str) -> KeyedCache:
    """Return (creating on demand) a process-wide named :class:`KeyedCache`."""
    with _GLOBAL_STORES_LOCK:
        if name not in _GLOBAL_STORES:
            _GLOBAL_STORES[name] = KeyedCache()
        return _GLOBAL_STORES[name]
