"""Loop transformations and transformation skeletons.

These implement the paper's tuning actions: loop tiling of the tilable band,
collapsing of the outer tile loops (to mitigate load imbalance, §IV),
parallelization of the resulting outermost loop, plus loop permutation
(the loop orders of the skeleton-choice extension) and unrolling.

All transformations are pure: they take an IR subtree and return a new one.
:mod:`repro.transform.skeleton` packages them into parametric
*transformation skeletons* whose unbound parameters (tile sizes, thread
count, unroll factor) the optimizer tunes.
"""

from repro.transform.tiling import tile
from repro.transform.collapse import collapse
from repro.transform.interchange import permute
from repro.transform.unroll import unroll
from repro.transform.parallelize import parallelize
from repro.transform.splice import replace_at_path, stmt_at_path
from repro.transform.skeleton import (
    Parameter,
    TransformationSkeleton,
    TransformedRegion,
    default_skeleton,
)

__all__ = [
    "tile",
    "collapse",
    "permute",
    "unroll",
    "parallelize",
    "replace_at_path",
    "stmt_at_path",
    "Parameter",
    "TransformationSkeleton",
    "TransformedRegion",
    "default_skeleton",
]
