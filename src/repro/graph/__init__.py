"""Operation dependency graph with sharing-aware merging and port nodes."""

from repro.graph.depgraph import build_dependency_graph
from repro.graph.snapshot import (
    GraphSnapshot,
    GraphStructure,
    compile_snapshot,
)

__all__ = [
    "build_dependency_graph",
    "GraphSnapshot",
    "GraphStructure",
    "compile_snapshot",
]
