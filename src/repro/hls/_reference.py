"""The object front end: the reference the table front end must match.

Synthesis runs its front end over the columnar table IR
(:mod:`repro.hls.frontend`).  This is the same front end over IR
objects: copy the module, apply the directives, run the optimization
passes and verify.  No production path calls it; the parity tests
compare ``synthesize``'s materialized module and transform summary
against it, position by position.
"""

from __future__ import annotations

from repro.hls.directives import DirectiveSet
from repro.hls.transforms import apply_directives
from repro.ir.module import Module
from repro.ir.passes import run_default_pipeline
from repro.ir.verify import verify_module


def reference_front_end(
    module: Module,
    directives: DirectiveSet | None = None,
    *,
    run_frontend_passes: bool = True,
) -> tuple[Module, dict]:
    """The synthesized module as objects, and the transform summary."""
    module = module.copy()
    summary: dict = {}
    if directives is not None and not directives.is_empty():
        summary = apply_directives(module, directives)
    if run_frontend_passes:
        stats = run_default_pipeline(module)
        summary["folded"] = stats.folded
        summary["dce_removed"] = stats.removed
        summary["narrowed"] = stats.narrowed
    verify_module(module)
    return module, summary
