"""The paper's 12 benchmarks (Table IV) as stream programs."""

from repro.workloads.base import build_programs, get_workload

# Importing the modules registers the workloads.
from repro.workloads import (  # noqa: F401
    bfs,
    btree,
    cfd,
    conv3d,
    hotspot,
    hotspot3d,
    mv,
    nn,
    nw,
    particlefilter,
    pathfinder,
    srad,
    stencil_tiled,
)

# The paper's Table IV set, pinned: extra registered workloads (e.g.
# stencil_tiled, the revocation case study) stay out of the figures
# that sweep "all 12 benchmarks".
ALL_WORKLOADS = (
    "b+tree", "bfs", "cfd", "conv3d", "hotspot", "hotspot3D",
    "mv", "nn", "nw", "particlefilter", "pathfinder", "srad",
)

__all__ = ["ALL_WORKLOADS", "build_programs", "get_workload"]
