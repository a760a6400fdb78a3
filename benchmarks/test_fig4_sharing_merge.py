"""Fig. 4 — merging dependency-graph nodes that share one RTL module.

Regenerates the merge on the real benchmark suite: with resource-sharing
merging enabled the design graph must shrink, and every shared unit's
operations must collapse into exactly one node.
"""

from benchmarks.conftest import out_path
from repro.graph import build_dependency_graph
from repro.util.tabulate import format_table, write_csv


def test_fig4(benchmark, facedet_baseline):
    hls = facedet_baseline.hls
    bindings = hls.bindings

    def build_both():
        merged = build_dependency_graph(hls, merge_shared=True)
        plain = build_dependency_graph(hls, merge_shared=False)
        return merged, plain

    merged, plain = benchmark.pedantic(build_both, rounds=1, iterations=1)

    n_groups = sum(
        len(b.shared_groups()) for b in bindings.values()
    )
    shared_ops = sum(
        len(g) for b in bindings.values() for g in b.shared_groups()
    )
    headers = ["Graph", "#Nodes", "#Edges"]
    rows = [
        ["unmerged", plain.n_nodes(), plain.n_edges()],
        ["merged (Fig 4)", merged.n_nodes(), merged.n_edges()],
        ["shared groups", n_groups, shared_ops],
    ]
    print("\n" + format_table(headers, rows, title="FIG 4 (reproduction)"))
    write_csv(out_path("fig4.csv"), headers, rows)

    assert n_groups > 0, "baseline face detection must share units"
    assert merged.n_nodes() == plain.n_nodes() - (shared_ops - n_groups)
    for binding in bindings.values():
        for group in binding.shared_groups():
            nodes = {merged.node_for(uid) for uid in group}
            assert len(nodes) == 1
