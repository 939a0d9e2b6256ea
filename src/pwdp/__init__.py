"""Dynamic-programming solvers for graphs of small pathwidth."""

from .decomposition import (
    NicePathDecomposition, PathDecomposition, exact_pathwidth_decomposition,
    grid_sweep_decomposition, nicify, parse_decomposition,
)
from .engine import (
    DpRunResult, catalan_allowed, generate_states, reconstruct_solution,
    run_dp,
)
from .errors import (
    PwdpError, GraphError, GraphFormatError, DecompositionError,
    SizeLimitError, CapacityError, PluginInconsistencyError,
    ReconstructionUnavailableError, NotApplicableError, ParameterError,
)
from .graph import Graph, PartialGrid, parse_graph, parse_grid, grid_to_graph
from .partition import normalize_partition
from .plugins import PLUGIN_NAMES, make_plugin
from .solve import (
    chromatic_number, solve_avg_path, solve_coloring, solve_cycle_cover,
    solve_k_replica, solve_max_leaf_tree, solve_max_weight_independent_set,
    solve_min_maximal_matching, solve_path_cover, solve_penalty_coloring,
    solve_rect_cover,
)

__version__ = "0.1.0"
