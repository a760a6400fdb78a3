"""KeyedCache concurrency/stats and the on-disk DiskCache."""

import concurrent.futures
import os
import threading

import pytest

from repro.errors import CorruptArtifactError
from repro.util.cache import (
    CACHE_DIR_ENV,
    DiskCache,
    KeyedCache,
    checksummed_pack,
    checksummed_unpack,
    disk_cache_from_env,
    quarantine_path,
)
from repro.util.faults import FaultSpec, injected_faults


def test_keyed_cache_stats():
    cache = KeyedCache()
    cache.get_or_build("a", lambda: 1)
    cache.get_or_build("a", lambda: 2)
    cache.get_or_build("b", lambda: 3)
    assert cache.stats() == {"hits": 1, "misses": 2, "size": 2}
    cache.clear()
    assert cache.stats() == {"hits": 0, "misses": 0, "size": 0}


def test_keyed_cache_builds_once_under_threads():
    cache = KeyedCache()
    builds = []
    barrier = threading.Barrier(8)

    def build():
        builds.append(1)
        return len(builds)

    def worker():
        barrier.wait()
        return cache.get_or_build("shared", build)

    with concurrent.futures.ThreadPoolExecutor(8) as pool:
        values = [f.result() for f in
                  [pool.submit(worker) for _ in range(8)]]
    assert len(builds) == 1
    assert set(values) == {1}
    stats = cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 7


def test_keyed_cache_different_keys_build_concurrently():
    """Regression for the global build lock: building key A must not
    serialize behind an in-flight build of key B.  Builder A refuses to
    finish until builder B has *started* — with one global lock this
    deadlocks (and times out); with per-key locks both proceed."""
    cache = KeyedCache()
    b_started = threading.Event()

    def build_a():
        assert b_started.wait(timeout=5.0), \
            "builder B never started: builds are globally serialized"
        return "a"

    def build_b():
        b_started.set()
        return "b"

    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        fut_a = pool.submit(cache.get_or_build, "a", build_a)
        fut_b = pool.submit(cache.get_or_build, "b", build_b)
        assert fut_b.result(timeout=10) == "b"
        assert fut_a.result(timeout=10) == "a"
    assert cache.stats() == {"hits": 0, "misses": 2, "size": 2}


def test_keyed_cache_failed_build_retries_then_succeeds():
    cache = KeyedCache()
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("first build dies")
        return "ok"

    with pytest.raises(RuntimeError):
        cache.get_or_build("k", flaky)
    assert cache.get_or_build("k", flaky) == "ok"
    assert cache.get_or_build("k", flaky) == "ok"  # memo hit now
    assert len(attempts) == 2


# ----------------------------------------------------------------------
# checksummed artifact container
# ----------------------------------------------------------------------
def test_checksummed_container_roundtrip():
    payload = b"model bytes" * 100
    assert checksummed_unpack(checksummed_pack(payload), "p") == payload


def test_checksummed_container_rejects_bitflip():
    blob = bytearray(checksummed_pack(b"model bytes"))
    blob[-1] ^= 0xFF
    with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
        checksummed_unpack(bytes(blob), "p")


def test_checksummed_container_rejects_truncation_and_foreign_bytes():
    blob = checksummed_pack(b"model bytes")
    with pytest.raises(CorruptArtifactError, match="missing or unknown"):
        checksummed_unpack(blob[:30], "p")  # cut inside the header
    with pytest.raises(CorruptArtifactError, match="missing or unknown"):
        checksummed_unpack(b"not an artifact", "p")


def test_disk_cache_roundtrip(tmp_path):
    cache = DiskCache(str(tmp_path))
    key = ("flow", "face_detection", 1.0, 0)
    assert cache.get(key) is None
    cache.put(key, {"cost": 42.0})
    assert key in cache
    assert cache.get(key) == {"cost": 42.0}
    # a second instance (fresh process stand-in) sees the entry
    again = DiskCache(str(tmp_path))
    assert again.get(key) == {"cost": 42.0}
    assert again.stats()["size"] == 1


def test_disk_cache_distinct_keys_distinct_files(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put(("a", 1), "one")
    cache.put(("a", 2), "two")
    assert cache.get(("a", 1)) == "one"
    assert cache.get(("a", 2)) == "two"
    assert cache.stats()["size"] == 2


def test_disk_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put(("k",), "value")
    path = cache.path_for(("k",))
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.get(("k",), default="fallback") == "fallback"


def test_disk_cache_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert disk_cache_from_env() is None
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    cache = disk_cache_from_env()
    assert cache is not None
    assert cache.root == str(tmp_path)


def test_disk_cache_atomic_write_leaves_no_temp_files(tmp_path):
    cache = DiskCache(str(tmp_path))
    for i in range(5):
        cache.put(("k", i), list(range(i)))
    leftovers = [n for n in os.listdir(tmp_path) if ".tmp." in n]
    assert leftovers == []


def test_disk_cache_handles_deeply_nested_payloads(tmp_path):
    """Full-scale flow results (completed FlowContexts) nest far past
    the default recursion limit; pickling them must neither crash nor
    skip persistence."""
    node = None
    for i in range(50_000):
        node = (i, node)
    cache = DiskCache(str(tmp_path))
    cache.put(("deep",), node)
    assert ("deep",) in cache
    out = cache.get(("deep",))
    assert out[0] == 49_999
    assert out[1][0] == 49_998


def test_disk_cache_handles_numpy_payloads(tmp_path):
    import numpy as np

    cache = DiskCache(str(tmp_path))
    cache.put(("arr",), np.arange(10.0))
    out = cache.get(("arr",))
    assert isinstance(out, np.ndarray)
    assert out.sum() == 45.0


# ----------------------------------------------------------------------
# quarantine + fault injection
# ----------------------------------------------------------------------
def test_disk_cache_quarantines_truncated_entry_and_rebuilds(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put(("k",), "value")
    path = cache.path_for(("k",))
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])  # torn write stand-in

    assert cache.get(("k",), default="fallback") == "fallback"
    assert not os.path.exists(path)  # never re-adopted
    assert os.path.exists(quarantine_path(path))
    assert cache.stats()["quarantined"] == 1

    cache.put(("k",), "rebuilt")  # the slot is usable again
    assert cache.get(("k",)) == "rebuilt"


def test_disk_cache_quarantines_checksum_mismatch(tmp_path):
    cache = DiskCache(str(tmp_path))
    with injected_faults([FaultSpec("cache.write", "corrupt")]):
        cache.put(("k",), "value")  # one payload byte flipped on disk
    assert cache.get(("k",), default="fallback") == "fallback"
    assert os.path.exists(quarantine_path(cache.path_for(("k",))))
    assert cache.stats()["quarantined"] == 1


def test_disk_cache_write_fault_degrades_to_unpersisted(tmp_path):
    cache = DiskCache(str(tmp_path))
    with injected_faults([FaultSpec("cache.write", "error")]):
        cache.put(("k",), "value")  # must not raise: best-effort
    assert cache.stats()["write_failures"] == 1
    assert cache.get(("k",), default="fallback") == "fallback"
    leftovers = [n for n in os.listdir(tmp_path) if ".tmp." in n]
    assert leftovers == []


def test_disk_cache_read_fault_is_a_miss_not_a_crash(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put(("k",), "value")
    with injected_faults([FaultSpec("cache.read", "error")]):
        assert cache.get(("k",), default="fallback") == "fallback"
    assert cache.get(("k",)) == "value"  # entry itself is intact
