"""Rainbow matchings in edge-coloured bipartite multigraphs.

Solvers (greedy, the switching engine, golden: the engine with an exact
fallback, and the exact oracle), Latin square transversals, the rainbow
connectivity toolbox, the Menger counterexample lab, and the threshold
formula table.
"""

from .budget import SearchBudget
from .core import (
    ColouredBipartiteMultigraph,
    Edge,
    MatchingContext,
    RainbowMatching,
    greedy_rainbow_matching,
    read_edge_list,
    verify_rainbow_matching,
    write_edge_list,
)
from .latin import (
    LatinRectangle,
    extract_transversal,
    parse_latin,
    rectangle_to_graph,
    square_to_graph,
)
from .oracle import OracleResult, exact_max_rainbow_matching
from .switching import (
    Switching,
    apply_switching,
    augment,
    build_switch_digraph,
    solve_switching_engine,
)
from .golden import golden_solve
from .menger import build_counterexample, fractional_menger

__version__ = "0.1.0"

__all__ = [
    "SearchBudget",
    "ColouredBipartiteMultigraph",
    "Edge",
    "MatchingContext",
    "RainbowMatching",
    "greedy_rainbow_matching",
    "read_edge_list",
    "verify_rainbow_matching",
    "write_edge_list",
    "LatinRectangle",
    "extract_transversal",
    "parse_latin",
    "rectangle_to_graph",
    "square_to_graph",
    "OracleResult",
    "exact_max_rainbow_matching",
    "Switching",
    "apply_switching",
    "augment",
    "build_switch_digraph",
    "solve_switching_engine",
    "golden_solve",
    "build_counterexample",
    "fractional_menger",
    "__version__",
]
