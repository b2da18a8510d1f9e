"""clumplab: weighted clump graphs for diameter vs. minimum-degree
analysis of k-colorable graphs — constructions, canonical forms, packing
certificates, sieve inequalities, and exact rational LPs."""

from .core import (
    Clump,
    ClumpGraphError,
    LayerProfile,
    SimpleGraph,
    WeightedClumpGraph,
    blow_up,
    blow_up_diameter,
    diameter,
    layer_profile,
    min_weighted_degree,
    weighted_degree,
)

from .canonical import bfs_relayer, canonicalize, check_canonical
from .certify import bound_from_certificate, dual_certificate, verify_packing
from .constructions import (
    coefficient_gap,
    counterexample_block,
    counterexample_graph,
    eppt_even,
    eppt_odd,
)
from .lp import build_epsz_lp, extremal_search, min_order_lp, simplex_solve
from .sieve import check_aggregates, global_stats, window_inequalities

__version__ = "0.1.0"

__all__ = [
    "bfs_relayer",
    "bound_from_certificate",
    "build_epsz_lp",
    "canonicalize",
    "check_aggregates",
    "check_canonical",
    "coefficient_gap",
    "counterexample_block",
    "counterexample_graph",
    "dual_certificate",
    "eppt_even",
    "eppt_odd",
    "extremal_search",
    "global_stats",
    "min_order_lp",
    "simplex_solve",
    "verify_packing",
    "window_inequalities",
    "Clump",
    "ClumpGraphError",
    "LayerProfile",
    "SimpleGraph",
    "WeightedClumpGraph",
    "blow_up",
    "blow_up_diameter",
    "diameter",
    "layer_profile",
    "min_weighted_degree",
    "weighted_degree",
    "__version__",
]
