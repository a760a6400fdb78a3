import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FeatureError
from repro.features._reference import ReferenceGraph
from repro.graph import build_dependency_graph, compile_snapshot
from repro.hls import DirectiveSet, synthesize
from repro.ir import Function, I16, IRBuilder, Module


def simple_graph():
    m = Module("m")
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    x = b.arg("x", I16)
    s = b.add(x, x)          # port -> add
    t = b.trunc(s, 8)        # 8-wire edge
    p = b.mul(t, t, width=16)
    b.write_port(x, p)
    return m, f, (s, t, p)


def shared_mul_chain():
    """Four same-width multiplies in a chain, which the binder shares."""
    m = Module("m")
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    x = b.arg("x", I16)
    v = x
    muls = []
    for _ in range(4):
        v = b.mul(v, x, width=16)
        muls.append(v.producer)
    b.write_port(x, v)
    return m, muls


def edges(g) -> dict[tuple[int, int], float]:
    """(source id, destination id) -> wires of every edge."""
    ids = g.node_ids.tolist()
    return {
        (ids[src], ids[dst]): wires
        for src, dst, wires in zip(g.e_src.tolist(), g.e_dst.tolist(),
                                   g.e_w.tolist())
    }


def successors(g, node: int) -> list[int]:
    return [dst for src, dst in edges(g) if src == node]


def test_nodes_and_edges_with_wire_weights():
    m, f, (s, t, p) = simple_graph()
    g = build_dependency_graph(synthesize(m))
    n_s = g.node_for(s.producer.uid)
    n_t = g.node_for(t.producer.uid)
    n_p = g.node_for(p.producer.uid)
    wires = edges(g)
    assert wires[n_s, n_t] == 8  # trunc consumes 8 of 16
    assert wires[n_t, n_p] == 16  # two operand slots x 8 wires
    assert sum(w for (src, _), w in wires.items() if src == n_t) == 16
    assert sum(w for (_, dst), w in wires.items() if dst == n_p) == 16


def test_port_nodes_connect_argument_users():
    m, f, (s, t, p) = simple_graph()
    g = build_dependency_graph(synthesize(m))
    ports = g.node_ids[g.is_port].tolist()
    assert len(ports) == 1
    port = ports[0]
    assert g.func_names[g.func_id[g.row_of[port]]] == "top"
    assert g.node_for(s.producer.uid) in successors(g, port)


def test_two_hop_neighborhood():
    m, f, (s, t, p) = simple_graph()
    g = build_dependency_graph(synthesize(m))
    n_s = g.node_for(s.producer.uid)
    two_hop = ReferenceGraph(g).two_hop_neighborhood(n_s)
    assert g.node_for(p.producer.uid) in two_hop
    assert n_s not in two_hop


def test_shared_binding_merges_in_build():
    m, muls = shared_mul_chain()
    hls = synthesize(m)
    g_merged = build_dependency_graph(hls)
    g_plain = build_dependency_graph(hls, merge_shared=False)
    assert g_merged.n_nodes() < g_plain.n_nodes()
    nodes = {g_merged.node_for(op.uid) for op in muls}
    assert len(nodes) == 1  # all four muls merged (Fig. 4)
    merged = nodes.pop()
    assert {uid for uid, node in g_merged.node_of_op.items()
            if node == merged} == {op.uid for op in muls}
    # the port fed every multiply: those edges land on the merged node
    # with their wires summed, and the chain's internal edges vanish
    port = int(g_merged.node_ids[g_merged.is_port][0])
    plain_port = int(g_plain.node_ids[g_plain.is_port][0])
    plain = edges(g_plain)
    merged_edges = edges(g_merged)
    assert merged_edges[port, merged] == sum(
        plain[plain_port, g_plain.node_for(op.uid)] for op in muls
    )
    # the last multiply's edge to the port write now leaves the merged node
    write = hls.module.functions["top"].ops_of("write_port")[0]
    assert (merged, g_merged.node_for(write.uid)) in merged_edges
    assert all(src != dst for src, dst in merged_edges)  # no self-loop


def test_hls_result_graph_reads_the_results_bindings():
    """Given the HLS result, the graph merges exactly the operations the
    result's own bindings share, and ``merge_shared=False`` is the
    switch to the unmerged graph."""
    m, _ = shared_mul_chain()
    hls = synthesize(m)
    merged = build_dependency_graph(hls)
    plain = build_dependency_graph(hls, merge_shared=False)
    groups = hls.bindings["top"].shared_groups()
    assert groups
    for uids in groups:
        assert len({merged.node_for(uid) for uid in uids}) == 1
        assert len({plain.node_for(uid) for uid in uids}) == len(uids)
    assert plain.n_nodes() - merged.n_nodes() == sum(
        len(uids) - 1 for uids in groups)


def test_call_edges_cross_functions(tiny_module):
    m = tiny_module
    g = build_dependency_graph(synthesize(m))
    top = m.functions["top"]
    square = m.functions["square"]
    call = top.ops_of("call")[0]
    sq_mul = square.ops_of("mul")[0]
    call_node = g.node_for(call.uid)
    assert g.node_for(sq_mul.uid) in successors(g, call_node)


def test_graph_counts(tiny_module):
    g = build_dependency_graph(synthesize(tiny_module))
    assert g.n_nodes() == len(g.op_rows) + int(g.is_port.sum())
    assert g.n_edges() > 0
    with pytest.raises(FeatureError):
        g.node_for(10**9)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 20))
def test_chain_graph_structure(n):
    """Property: a pure chain yields in/out degree <= 1 on op nodes."""
    m = Module("m")
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    x = b.arg("x", I16)
    v = b.add(x, x)
    for _ in range(n - 1):
        v = b.add(v, v)
    b.write_port(x, v)  # keeps the chain live through synthesis
    g = build_dependency_graph(synthesize(m))
    assert np.all(g.in_counts()[g.op_rows] <= 2)
    # chain length preserved, plus the port write
    assert len(g.op_rows) == n + 1


def test_build_dependency_graph_returns_frozen_graph(tiny_module):
    hls = synthesize(tiny_module)
    graph = build_dependency_graph(hls)
    assert graph.n_nodes() == len(graph.node_ids) == graph.n
    assert graph.n_edges() == len(graph.e_w)
    for name in ("node_ids", "e_src", "e_dst", "e_w", "rep_uid",
                 "bitwidth", "is_port", "out_edge", "und_nbr"):
        array = getattr(graph, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.e_w = np.zeros(graph.n_edges())


def test_structure_matches_graph_queries(tiny_module):
    hls = synthesize(tiny_module)
    graph = build_dependency_graph(hls)
    view = ReferenceGraph(graph)
    assert [int(n) for n in graph.node_ids] == list(view.g.nodes)
    for row, node_id in enumerate(graph.node_ids.tolist()):
        assert graph.row_of[node_id] == row
        assert graph.in_counts()[row] == len(view.predecessors(node_id))
        assert graph.out_counts()[row] == len(view.successors(node_id))
        assert graph.und_counts()[row] == len(view.neighbors(node_id))
        assert graph.is_port[row] == view.info(node_id).is_port
        out = graph.out_edge[graph.out_indptr[row]:graph.out_indptr[row + 1]]
        assert graph.e_w[out].tolist() == view.out_edge_weights(node_id)
    assert view.op_nodes() == graph.node_ids[graph.op_rows].tolist()


def test_pickled_graph_carries_no_snapshot(tiny_module):
    """The snapshot memo lives on the HLS result, keyed by graph
    identity, and neither a pickled graph nor a pickled result carries
    it."""
    hls = synthesize(tiny_module)
    graph = build_dependency_graph(hls)
    snapshot = compile_snapshot(graph, hls)
    assert compile_snapshot(graph, hls) is snapshot
    assert hls.snapshot_memo == (graph, snapshot)
    assert pickle.loads(pickle.dumps(hls)).snapshot_memo is None
    clone = pickle.loads(pickle.dumps(graph))
    for name in ("node_ids", "e_src", "e_dst", "e_w", "und_nbr"):
        np.testing.assert_array_equal(getattr(clone, name),
                                      getattr(graph, name))
    assert clone.node_of_op == graph.node_of_op
    assert compile_snapshot(clone, hls) is not snapshot


def test_graph_holds_the_synthesized_operations(tiny_module):
    """The graph reads only the HLS result, whose bindings name the
    synthesized module's uids: after an unroll its operations are the
    synthesized ones, replicas included, never the pre-HLS source's."""
    hls = synthesize(tiny_module, DirectiveSet("u").unroll("top", "L", 3))
    graph = build_dependency_graph(hls)

    def uids(module):
        return {op.uid for func in module.functions.values()
                for op in func.operations}

    assert set(graph.node_of_op) == uids(hls.module)
    assert set(graph.node_of_op) - uids(tiny_module)
