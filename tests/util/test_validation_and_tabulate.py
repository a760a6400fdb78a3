import os

import pytest

from repro.util.tabulate import format_table, write_csv
from repro.util.cache import KeyedCache, cached_property_store


def test_format_table_aligns_and_floats():
    text = format_table(["name", "v"], [["a", 1.234], ["bb", 10]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "1.23" in text
    assert lines[1].startswith("-")


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_write_csv_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "sub", "out.csv")
    write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
    with open(path) as handle:
        content = handle.read()
    assert "a,b" in content and "3,4" in content


def test_keyed_cache_hit_miss_accounting():
    cache = KeyedCache()
    assert cache.get_or_build("k", lambda: 41) == 41
    assert cache.get_or_build("k", lambda: 99) == 41
    assert cache.hits == 1 and cache.misses == 1


def test_cached_property_store_is_singleton_per_name():
    a = cached_property_store("test_store_xyz")
    b = cached_property_store("test_store_xyz")
    assert a is b
    a.clear()
