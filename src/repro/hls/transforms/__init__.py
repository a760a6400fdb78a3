"""IR-level HLS transforms: inlining, unrolling, array partitioning.

The object forms of the directive front end, kept as the reference the
table front end (:mod:`repro.hls.frontend`) is checked against.
"""

from repro.hls.transforms.clone import clone_operation, clone_region
from repro.hls.transforms.inline import inline_functions
from repro.hls.transforms.unroll import unroll_loop, apply_unrolls
from repro.hls.transforms.partition import apply_partitions, apply_directives

__all__ = [
    "clone_operation",
    "clone_region",
    "inline_functions",
    "unroll_loop",
    "apply_unrolls",
    "apply_partitions",
    "apply_directives",
]
