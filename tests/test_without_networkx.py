"""The runtime needs only NumPy.

networkx serves the reference feature extractor and the tests; the
library's own paths — serving, the HLS-prefix pipeline, feature
extraction and label generation — must run in an interpreter where any
import of networkx fails.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

sys.modules["networkx"] = None  # every `import networkx` now raises

import repro.serve
from repro.dataset.build import dataset_from_flow
from repro.features import FeatureExtractor
from repro.flow import FlowContext, FlowOptions, FlowPipeline, run_flow
from repro.flow.pipeline import GraphStage, HLSStage
from repro.fpga import xc7z020
from repro.kernels.combos import build_kernel

options = FlowOptions(scale=0.18, placement_effort="fast", seed=0)
device = xc7z020()
design = build_kernel("spam_filter", scale=options.scale)
ctx = FlowPipeline((HLSStage(), GraphStage())).run(design, device, options)
nodes, X = FeatureExtractor(ctx.hls, ctx.graph, device).extract_all()
assert X.shape == (len(nodes), 302) and nodes
result = run_flow("spam_filter", options=options, combined=False)
assert isinstance(result, FlowContext)
assert dataset_from_flow(result).n_samples > 0
print("ran without networkx")
"""


def test_runtime_runs_without_networkx():
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "ran without networkx" in done.stdout
