"""Small shared utilities: RNG handling, tables, caching."""

from repro.util.rng import ensure_rng, spawn_rng
from repro.util.tabulate import format_table, write_csv
from repro.util.cache import KeyedCache, cached_property_store

__all__ = [
    "ensure_rng",
    "spawn_rng",
    "format_table",
    "write_csv",
    "KeyedCache",
    "cached_property_store",
]
