"""DP-coloring (correspondence coloring) of multigraphs.

Build and validate covers, decide exact colorability, compute DP-chromatic
numbers of small multigraphs, decide degree-colorability from block
structure with constructive witnesses, and verify edge-count bounds for
critical graphs and GDP-trees with exact rational arithmetic.

Result records are NamedTuples or small plain classes: importing dataclasses
pulls in inspect and ast, about 1 MB of resident memory per process.
"""

from .census import (are_isomorphic, canonical_key, connected_multigraphs,
                     connected_simple_graphs, gdp_trees)
from .characterization import DegreeColorabilityVerdict, decide_degree_colorable
from .cover import (Cover, Transversal, Violation, build_bad_complete,
                    build_bad_cycle, format_cover, iter_violations, parse_cover,
                    permute_colors, product_reduction, random_degree_cover,
                    reduce_list, validate_cover)
from .critical import (CriticalityReport, GdpPrecondition,
                       check_bound_multigraph, check_bound_simple,
                       check_critical, check_gdp_edge_bound,
                       simple_critical_coefficient)
from .errors import (CapExceeded, CoverInvalid, InternalInvariantError,
                     ParseError)
from .multigraph import (BlockDecomposition, CompletePower, CyclePower,
                         Multigraph, Other, blocks, format_multigraph,
                         parse_multigraph)
from .solver import (SolveResult, chi_dp, degree_colorable_oracle,
                     find_uncolorable_cover, solve)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition", "CapExceeded", "CompletePower", "Cover",
    "CoverInvalid", "CriticalityReport", "CyclePower",
    "DegreeColorabilityVerdict", "GdpPrecondition", "InternalInvariantError",
    "Multigraph", "Other", "ParseError", "SolveResult", "Transversal",
    "Violation", "are_isomorphic", "blocks", "build_bad_complete",
    "build_bad_cycle", "canonical_key", "check_bound_multigraph",
    "check_bound_simple", "check_critical", "check_gdp_edge_bound", "chi_dp",
    "connected_multigraphs", "connected_simple_graphs",
    "decide_degree_colorable", "degree_colorable_oracle",
    "find_uncolorable_cover", "format_cover", "format_multigraph",
    "gdp_trees", "iter_violations", "parse_cover", "parse_multigraph",
    "permute_colors", "product_reduction", "random_degree_cover",
    "reduce_list", "simple_critical_coefficient", "solve", "validate_cover",
]
