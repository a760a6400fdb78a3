"""Copy-on-write synthesis: one design object, synthesized many times.

``synthesize`` transforms a structural copy of its input.  The input
module must come out exactly as it went in, and a second synthesis of
the same object must reproduce the first one even after other builds
reset the global op-uid counter.
"""

import numpy as np

from repro.features import FeatureExtractor
from repro.fpga import xc7z020
from repro.graph import build_dependency_graph
from repro.hls import synthesize
from repro.kernels.combos import build_combined, build_kernel

SCALE = 0.18


def fingerprint(module) -> list:
    """Everything synthesis could disturb in a module: functions, loop
    marks, array partitions, op uids, attrs and operands, and the
    ``users`` list of every value (by identity, in order)."""
    values = {}
    out = []
    for name, func in module.functions.items():
        out.append(("function", name, func.is_top, func.inline,
                    tuple(func.callees), tuple(map(id, func.arguments))))
        for values_of in (func.arguments,
                          *(op.operands for op in func.operations)):
            for v in values_of:
                values[id(v)] = v
        for lp in func.loops.values():
            out.append(("loop", lp.name, lp.trip_count, lp.depth,
                        tuple(sorted(lp.op_uids)), lp.unroll_factor,
                        lp.pipelined, lp.initiation_interval, lp.parent))
        for decl in func.arrays.values():
            out.append(("array", decl.name, decl.type, decl.partition))
        for op in func.operations:
            out.append(("op", id(op), op.uid, op.name, op.opcode,
                        sorted(op.attrs.items()), op.parent is func,
                        tuple(map(id, op.operands))))
            if op.result is not None:
                values[id(op.result)] = op.result
    for key, v in values.items():
        out.append(("value", key, v.name, v.type, v.constant,
                    id(v.producer), tuple(map(id, v.users))))
    return out


def ir_objects(module) -> set[int]:
    """Identities of every mutable IR object reachable from ``module``."""
    ids = set()
    for func in module.functions.values():
        ids |= {id(func), *map(id, func.loops.values()),
                *map(id, func.arrays.values()), *map(id, func.arguments)}
        for op in func.operations:
            ids |= {id(op), *map(id, op.operands)}
            if op.result is not None:
                ids.add(id(op.result))
    return ids


def _features(hls):
    graph = build_dependency_graph(hls)
    return FeatureExtractor(hls, graph, xc7z020()).extract_all()


def test_synthesize_leaves_its_input_untouched():
    design = build_kernel("face_detection", scale=SCALE)
    before = fingerprint(design.module)

    first = synthesize(design.module, design.directives)
    assert fingerprint(design.module) == before
    assert not ir_objects(design.module) & ir_objects(first.module)

    # another build restarts the global uid counter below this design's
    # uids; the replicas a second synthesis adds must not collide
    build_combined("bnn_render_flow", scale=SCALE)
    second = synthesize(design.module, design.directives)
    assert fingerprint(design.module) == before

    def uids(hls):
        return sorted(op.uid for op in hls.module.iter_all_ops())

    assert uids(first) == uids(second)
    assert len(set(uids(first))) == len(uids(first))
    assert first.latency_cycles == second.latency_cycles
    assert first.reports == second.reports
    nodes1, X1 = _features(first)
    nodes2, X2 = _features(second)
    assert nodes1 == nodes2
    assert np.array_equal(X1, X2)
