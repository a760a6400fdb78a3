import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FeatureError, IRError
from repro.graph import DependencyGraph, build_dependency_graph
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


def test_nodes_and_edges_with_wire_weights():
    m, f, (s, t, p) = simple_graph()
    g = build_dependency_graph(m)
    n_s = g.node_for(s.producer.uid)
    n_t = g.node_for(t.producer.uid)
    n_p = g.node_for(p.producer.uid)
    assert g.g[n_s][n_t]["weight"] == 8  # trunc consumes 8 of 16
    assert g.g[n_t][n_p]["weight"] == 16  # two operand slots x 8 wires
    assert g.fan_out(n_t) == 16
    assert g.fan_in(n_p) == 16


def test_port_nodes_connect_argument_users():
    m, f, (s, t, p) = simple_graph()
    g = build_dependency_graph(m)
    ports = g.port_nodes()
    assert len(ports) == 1
    port = ports[0]
    assert g.info(port).port_name == "x"
    succ = g.successors(port)
    assert g.node_for(s.producer.uid) in succ


def test_two_hop_neighborhood():
    m, f, (s, t, p) = simple_graph()
    g = build_dependency_graph(m)
    n_s = g.node_for(s.producer.uid)
    two_hop = g.two_hop_neighborhood(n_s)
    assert g.node_for(p.producer.uid) in two_hop
    assert n_s not in two_hop


def test_merge_nodes_redirects_edges():
    m, f, (s, t, p) = simple_graph()
    g = build_dependency_graph(m)
    n_t = g.node_for(t.producer.uid)
    n_p = g.node_for(p.producer.uid)
    merged = g.merge_nodes([n_t, n_p])
    assert g.node_for(t.producer.uid) == merged
    assert g.node_for(p.producer.uid) == merged
    info = g.info(merged)
    assert set(info.op_uids) == {t.producer.uid, p.producer.uid}
    # the add -> trunc edge now lands on the merged node
    n_s = g.node_for(s.producer.uid)
    assert g.g.has_edge(n_s, merged)
    # no self loop from the internal t -> p edge
    assert not g.g.has_edge(merged, merged)


def test_merge_rejects_ports():
    m, f, _ = simple_graph()
    g = build_dependency_graph(m)
    port = g.port_nodes()[0]
    other = g.op_nodes()[0]
    with pytest.raises(FeatureError):
        g.merge_nodes([port, other])


def test_shared_binding_merges_in_build():
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
    hls = synthesize(m)
    g_merged = build_dependency_graph(hls.module, hls.bindings)
    g_plain = build_dependency_graph(hls.module, None)
    assert g_merged.n_nodes() < g_plain.n_nodes()
    nodes = {g_merged.node_for(op.uid) for op in muls}
    assert len(nodes) == 1  # all four muls merged (Fig. 4)


def test_call_edges_cross_functions(tiny_module):
    m = tiny_module
    g = build_dependency_graph(m)
    top = m.functions["top"]
    square = m.functions["square"]
    call = top.ops_of("call")[0]
    sq_mul = square.ops_of("mul")[0]
    call_node = g.node_for(call.uid)
    assert g.node_for(sq_mul.uid) in g.successors(call_node)


def test_graph_counts(tiny_module):
    g = build_dependency_graph(tiny_module)
    assert g.n_nodes() == len(g.op_nodes()) + len(g.port_nodes())
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
    g = build_dependency_graph(m)
    for node in g.op_nodes():
        assert len(g.predecessors(node)) <= 2
    # chain length preserved
    assert len(g.op_nodes()) == n


def test_freeze_builds_views_once_and_mutation_invalidates():
    """freeze() constructs the undirected view and CSR structure once;
    construction does not pay per-call invalidation, and a post-freeze
    mutation lazily rebuilds both."""
    g = DependencyGraph()
    ids = []
    for i in range(4):
        ids.append(g.add_port_node("f", f"p{i}"))
    g.add_edge(ids[0], ids[1], 2)
    g.add_edge(ids[1], ids[2], 3)

    version = g.version
    g.freeze()
    assert g.version == version  # freezing is not a mutation
    structure = g.structure()
    assert g.structure() is structure  # cached, not rebuilt
    assert g.two_hop_neighborhood(ids[0]) == {ids[1], ids[2]}

    g.add_edge(ids[2], ids[3], 1)
    assert g.version > version
    rebuilt = g.structure()
    assert rebuilt is not structure
    assert rebuilt.n_edges == structure.n_edges + 1
    assert g.two_hop_neighborhood(ids[1]) == {ids[0], ids[2], ids[3]}


def test_build_dependency_graph_returns_frozen_graph(tiny_module):
    from repro.hls import synthesize

    hls = synthesize(tiny_module)
    graph = build_dependency_graph(hls.module, hls.bindings)
    # freeze() ran: the CSR structure exists at the current version
    # (the undirected networkx copy stays lazy — reference path only)
    assert graph._structure is not None
    assert graph._structure_version == graph.version
    assert graph._undirected_cache is None
    structure = graph.structure()
    assert structure.n == graph.n_nodes()
    assert structure.n_edges == graph.n_edges()
    assert len(structure.op_rows) == len(graph.op_nodes())


def test_structure_matches_graph_queries(tiny_module):
    from repro.hls import synthesize

    hls = synthesize(tiny_module)
    graph = build_dependency_graph(hls.module, hls.bindings)
    s = graph.structure()
    for row, node_id in enumerate(s.node_ids):
        node_id = int(node_id)
        assert s.row_of[node_id] == row
        assert s.in_counts()[row] == len(graph.predecessors(node_id))
        assert s.out_counts()[row] == len(graph.successors(node_id))
        assert s.und_counts()[row] == len(graph.neighbors(node_id))
        assert s.is_port[row] == graph.info(node_id).is_port


def test_pre_hls_module_with_hls_bindings_is_rejected(tiny_module):
    """Bindings name the synthesized module's uids; pairing them with
    the pre-HLS source must fail instead of building another graph."""
    hls = synthesize(tiny_module, DirectiveSet("u").unroll("top", "L", 3))
    with pytest.raises(IRError, match="bindings do not match"):
        build_dependency_graph(tiny_module, hls.bindings)
    assert build_dependency_graph(hls.module, hls.bindings).n_nodes() > 0
