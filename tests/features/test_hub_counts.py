"""Two-hop counts through broadcast hubs.

The two-hop ``n_pred``/``n_succ``/``n_neigh`` counts take a node whose
list is longer than the hub rule as one bitset row instead of expanding
a pair for every (row, hub, hub-list entry).  These graphs put hubs of
every kind in front of the rule: wide and narrow broadcasts, readers of
two hubs, a hub fed by a hub, both sides of the 64-entry floor, and
port nodes on the successor and the predecessor side.  Every matrix must
match the per-node reference, and the counts must be exactly the
all-pairs counts.  face_detection, whose scan loop unrolls into 300
readers of one load, must expand no pair through a hub at all.
"""

import numpy as np
import pytest

from repro.features import FeatureExtractor, ReferenceFeatureExtractor
from repro.features import extract
from repro.fpga import xc7z020
from repro.graph import build_dependency_graph
from repro.hls import synthesize
from repro.ir import Function, I16, IRBuilder, Module
from repro.kernels.combos import build_combined

ATOL = 1e-9


def _hub_limit(graph) -> int:
    return max(extract._HUB_MIN_DEGREE, (graph.n + 63) // 64)


def _module(build) -> Module:
    m = Module("hubs")
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f, "hubs.cpp")
    b.array("buf", I16, (8,))
    build(b, b.arg("x", I16), b.arg("y", I16))
    return m


def _readers(b, *values, count):
    """``count`` adds, each reading every one of ``values`` once."""
    readers = []
    for i in range(count):
        v = b.add(values[0], b.const(i + 1, I16), width=16)
        for other in values[1:]:
            v = b.add(v, other, width=16)
        readers.append(v)
    return readers


def _sink(b, values, port):
    """Fold ``values`` into one xor chain written to ``port``, so no
    reader is dead code."""
    acc = values[0]
    for v in values[1:]:
        acc = b.xor(acc, v, width=16)
    b.write_port(port, acc)


def _wide_and_narrow(b, x, y):
    """One load read by 65 ops, another by 200."""
    narrow = b.load("buf", [b.const(1)])
    wide = b.load("buf", [b.const(2)])
    _sink(b, _readers(b, narrow, count=65) + _readers(b, wide, count=200),
          y)


def _shared_readers(b, x, y):
    """Two broadcast loads with the same 80 readers."""
    first = b.load("buf", [b.const(1)])
    second = b.load("buf", [b.const(2)])
    _sink(b, _readers(b, first, second, count=80), y)


def _hub_feeds_hub(b, x, y):
    """A hub's first reader is read by 70 ops of its own."""
    load = b.load("buf", [b.const(1)])
    readers = _readers(b, load, count=70)
    _sink(b, readers + _readers(b, readers[0], count=70), y)


def _floor_edge(b, x, y):
    """A load read by exactly 64 ops beside one read by 65."""
    at_floor = b.load("buf", [b.const(1)])
    above = b.load("buf", [b.const(2)])
    _sink(b, _readers(b, at_floor, count=64) + _readers(b, above, count=65),
          y)


def _port_hubs(b, x, y):
    """Argument ``x`` read directly by 160 ops, and port ``y`` written by
    71: port nodes as successor and predecessor hubs."""
    _sink(b, _readers(b, x, count=90), y)
    for i in range(70):
        b.write_port(y, b.add(x, b.const(i, I16), width=16))


BUILDS = [_wide_and_narrow, _shared_readers, _hub_feeds_hub, _floor_edge,
          _port_hubs]


def _record_expansions(monkeypatch) -> list:
    """Patch ``_expand`` to record, per call, the nodes it expands
    through and the length of each one's list."""
    calls = []
    expand = extract._expand

    def recording(g_rows, g_vals, h_indptr, h_vals, with_positions=False):
        degree = (h_indptr[1:] - h_indptr[:-1])[g_vals]
        calls.append((g_vals.copy(), degree))
        return expand(g_rows, g_vals, h_indptr, h_vals, with_positions)

    monkeypatch.setattr(extract, "_expand", recording)
    return calls


@pytest.mark.parametrize("build", BUILDS, ids=[b.__name__ for b in BUILDS])
def test_hub_counts_are_the_all_pairs_counts(monkeypatch, build):
    hls = synthesize(_module(build))
    graph = build_dependency_graph(hls)
    assert graph.und_counts().max() > _hub_limit(graph), "expected a hub"
    device = xc7z020()
    extractor = FeatureExtractor(hls, graph, device)
    _, X = extractor.extract_all()
    _, ref_X = ReferenceFeatureExtractor(hls, graph, device).extract_all()
    np.testing.assert_allclose(X, ref_X, rtol=0, atol=ATOL)

    # a floor above every list puts every count on the pair path; the
    # counts, and so the whole matrix, must come out bit for bit
    monkeypatch.setattr(extract, "_HUB_MIN_DEGREE", graph.n)
    _, all_pairs = extract._compute_matrix(extractor.snapshot,
                                           extractor._device_vec)
    assert np.array_equal(X, all_pairs)


def test_port_hub_takes_the_predecessor_path():
    graph = build_dependency_graph(synthesize(_module(_port_hubs)))
    hub = np.flatnonzero(graph.in_counts() > _hub_limit(graph))
    assert graph.is_port[hub].all() and len(hub) == 1


def test_hub_rule_starts_above_64(monkeypatch):
    """A list of exactly 64 entries is expanded as pairs; one of 65 is
    a bitset row and never expanded."""
    hls = synthesize(_module(_floor_edge))
    graph = build_dependency_graph(hls)
    assert _hub_limit(graph) == 64
    out_degree = graph.out_counts()
    (at_floor,) = np.flatnonzero(out_degree == 64)
    (above,) = np.flatnonzero(out_degree == 65)
    calls = _record_expansions(monkeypatch)
    FeatureExtractor(hls, graph, xc7z020()).extract_all()
    through = {int(v) for g_vals, degree in calls
               for v in g_vals[degree > 0]}
    assert at_floor in through
    assert above not in through


def test_face_detection_expands_nothing_through_a_hub(monkeypatch):
    """The scan loop's 300 readers of one load stay off the pair path:
    no expansion goes through a node above the hub rule."""
    design = build_combined("face_detection", scale=1.0)
    hls = synthesize(design.module, design.directives)
    graph = build_dependency_graph(hls)
    limit = _hub_limit(graph)
    assert graph.und_counts().max() > limit, "expected the broadcast load"
    calls = _record_expansions(monkeypatch)
    FeatureExtractor(hls, graph, xc7z020()).extract_all()
    assert calls
    widest = max(int(degree.max(initial=0)) for _, degree in calls)
    assert widest <= limit
