"""Array partitioning and the directive application pipeline.

Array partitioning splits an HLS array into independent banks so unrolled
loop replicas can access memory in parallel.  The paper's case study shows
the congestion cost: "all the classifiers access data from the same
completely partitioned array and multiple classifiers share the same
inputs, leading to a large number of interconnections."
"""

from __future__ import annotations

from repro.errors import DirectiveError
from repro.hls.directives import DirectiveSet
from repro.hls.transforms.inline import inline_functions
from repro.hls.transforms.unroll import apply_unrolls
from repro.ir.module import Module


def apply_partitions(module: Module, directives: DirectiveSet) -> int:
    """Record partition factors on array declarations; return count."""
    changed = 0
    for d in directives.partitions:
        func = module.functions.get(d.function)
        if func is None:
            raise DirectiveError(f"array_partition: no function {d.function!r}")
        decl = func.arrays.get(d.array)
        if decl is None:
            raise DirectiveError(
                f"array_partition: no array {d.array!r} in {d.function!r}"
            )
        factor = d.factor if d.factor else decl.type.length
        decl.partition = min(factor, decl.type.length)
        changed += 1
    return changed


def apply_directives(module: Module, directives: DirectiveSet) -> dict:
    """Apply a full directive set to ``module``, transforming it.

    The object form of the directive front end: ``synthesize`` runs the
    table form (:func:`repro.hls.frontend.apply_directives`), and this
    one is the reference it is checked against
    (:func:`repro.hls._reference.reference_front_end` calls it on a copy
    of the design module).  Order matters and mirrors HLS semantics:

    1. validate against the pre-transform module;
    2. mark loops (unroll factor, pipeline/II) and arrays (partition) and
       functions (inline) — marks survive cloning;
    3. inline (clones carry loop/array marks into callers);
    4. unroll every marked loop, innermost first.

    Operations added by steps 3 and 4 take uids counting up from the
    module's largest uid.  Returns a summary dict for flow reports.
    """
    directives.validate(module)

    apply_partitions(module, directives)

    for d in directives.unrolls:
        loop = module.functions[d.function].loops[d.loop]
        loop.unroll_factor = d.factor if d.factor else 0
        if loop.unroll_factor == 0:
            loop.unroll_factor = loop.trip_count
    for d in directives.pipelines:
        loop = module.functions[d.function].loops[d.loop]
        loop.pipelined = True
        loop.initiation_interval = d.ii
    for d in directives.inlines:
        module.functions[d.function].inline = True

    uids = module.fresh_uids()
    inlined_ops = inline_functions(module, uids=uids)
    unrolled_ops = apply_unrolls(module, uids=uids)

    return {
        "directives": directives.n_directives(),
        "inlined_ops": inlined_ops,
        "unrolled_ops": unrolled_ops,
        "partitioned_arrays": len(directives.partitions),
        "pipelined_loops": len(directives.pipelines),
    }
