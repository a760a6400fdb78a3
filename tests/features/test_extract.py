import numpy as np
import pytest

from repro.errors import FeatureError
from repro.features import FeatureExtractor, N_FEATURES, feature_index
from repro.features._reference import ReferenceGraph
from repro.fpga import small_test_device
from repro.graph import build_dependency_graph
from repro.hls import synthesize
from repro.ir import Function, I16, IRBuilder, Module
from tests.conftest import build_tiny_module


@pytest.fixture
def extracted():
    hls = synthesize(build_tiny_module())
    module = hls.module
    graph = build_dependency_graph(hls)
    device = small_test_device()
    extractor = FeatureExtractor(hls, graph, device)
    nodes, X = extractor.extract_all()
    return module, hls, graph, extractor, nodes, X


def test_vector_shape_and_finiteness(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    assert X.shape == (len(nodes), N_FEATURES)
    assert np.all(np.isfinite(X))


def test_bitwidth_feature(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    col = feature_index("bitwidth")
    mul = module.functions["square"].ops_of("mul")[0]
    row = nodes.index(graph.node_for(mul.uid))
    assert X[row, col] == mul.bitwidth()


def test_optype_one_hot_is_exclusive(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    from repro.ir.opcodes import opcode_names

    base = feature_index(f"optype_is_{opcode_names()[0]}")
    onehot = X[:, base:base + 56]
    assert np.all(onehot.sum(axis=1) == 1.0)


def test_interconnection_fan_matches_graph(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    col_in = feature_index("ic_1hop_fan_in")
    col_out = feature_index("ic_1hop_fan_out")
    col_tot = feature_index("ic_1hop_fan_total")
    view = ReferenceGraph(graph)
    for row, node in enumerate(nodes):
        assert X[row, col_in] == sum(view.in_edge_weights(node))
        assert X[row, col_out] == sum(view.out_edge_weights(node))
        assert X[row, col_tot] == X[row, col_in] + X[row, col_out]


def test_two_hop_supersets_one_hop(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    one = feature_index("ic_1hop_n_neigh")
    two = feature_index("ic_2hop_n_neigh")
    assert np.all(X[:, two] >= X[:, one])


def test_resource_usage_nonnegative_and_util_bounded(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    for kind in ("lut", "ff", "dsp", "bram"):
        usage = X[:, feature_index(f"res_{kind}_usage")]
        util = X[:, feature_index(f"res_{kind}_util_device")]
        assert np.all(usage >= 0)
        assert np.all(util >= 0)
        assert np.all(util <= 1.0 + 1e-9)


def test_timing_features(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    delay = X[:, feature_index("timing_delay_ns")]
    latency = X[:, feature_index("timing_latency_cycles")]
    assert np.all(delay >= 0)
    assert np.all(latency >= 0)
    mul = module.functions["square"].ops_of("mul")[0]
    row = nodes.index(graph.node_for(mul.uid))
    assert delay[row] > 1.0  # multipliers are slow


def test_global_features_constant_within_function(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    col = feature_index("global_fop_lut")
    rows_by_fn = {}
    for row, uid in enumerate(graph.rep_uids(nodes)):
        function = module.op_by_uid(uid).parent.name
        rows_by_fn.setdefault(function, []).append(row)
    for fn, rows in rows_by_fn.items():
        assert len(set(X[rows, col])) == 1


def test_global_ftop_latency_positive(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    col = feature_index("global_ftop_latency")
    assert np.all(X[:, col] == hls.latency_cycles)


def test_rdt_uses_delta_tcs(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    raw = feature_index("res_lut_1hop_pred_usage")
    dt = feature_index("rdt_lut_1hop_pred_usage_dt")
    # dividing by dTcs >= 1 can never increase the value
    assert np.all(X[:, dt] <= X[:, raw] + 1e-9)


def test_port_nodes_rejected(extracted):
    module, hls, graph, extractor, nodes, X = extracted
    port = int(graph.node_ids[graph.is_port][0])
    with pytest.raises(FeatureError):
        extractor.extract(port)


def test_merged_node_counts_shared_unit_once():
    m = Module("m")
    f = Function("top", is_top=True)
    m.add_function(f)
    b = IRBuilder(f)
    x = b.arg("x", I16)
    v = x
    for _ in range(4):
        v = b.mul(v, x, width=16)
    b.write_port(x, v)
    hls = synthesize(m)
    graph = build_dependency_graph(hls)
    extractor = FeatureExtractor(hls, graph, small_test_device())
    nodes, X = extractor.extract_all()
    mul_nodes = [
        node for node, uid in zip(nodes, graph.rep_uids(nodes))
        if hls.module.op_by_uid(uid).opcode == "mul"
    ]
    assert len(mul_nodes) == 1  # merged
    dsp = X[nodes.index(mul_nodes[0]), feature_index("res_dsp_usage")]
    assert dsp == 1  # one shared DSP multiplier, not four
