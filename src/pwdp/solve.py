"""One-call solvers: build the plugin, run the engine, attach the
reconstructed certificate.

Every function takes a prepared graph and nice decomposition (except the
rectangle packer, which owns its sweep) and returns the engine's run
result with `certificate` filled in on feasible runs.
"""
from __future__ import annotations

from .decomposition import grid_sweep_decomposition
from .engine import reconstruct_solution, run_dp
from .graph import grid_to_graph
from .plugins import make_plugin


def _run(name, graph, npd, params=None, **engine_kw):
    plugin = make_plugin(name, graph, **(params or {}))
    engine_kw.setdefault("retain", True)
    result = run_dp(plugin, graph, npd, **engine_kw)
    if result.feasible and result.retained:
        result.certificate = reconstruct_solution(result)
    return result


def solve_coloring(graph, npd, C, canonical=False, **engine_kw):
    name = "coloring-canonical" if canonical else "coloring"
    return _run(name, graph, npd, {"C": C}, **engine_kw)


def chromatic_number(graph, npd, **engine_kw):
    for C in range(1, graph.n + 1):
        if solve_coloring(graph, npd, C, canonical=True, **engine_kw).feasible:
            return C
    return graph.n  # unreachable: n colors always suffice


def solve_penalty_coloring(graph, npd, C, mode="sum", **engine_kw):
    return _run("penalty-coloring", graph, npd, {"C": C, "mode": mode},
                **engine_kw)


def solve_path_cover(graph, npd, **engine_kw):
    return _run("path-cover", graph, npd, **engine_kw)


def solve_cycle_cover(graph, npd, **engine_kw):
    return _run("cycle-cover", graph, npd, **engine_kw)


def solve_k_replica(graph, npd, k, **engine_kw):
    return _run("k-replica", graph, npd, {"k": k}, **engine_kw)


def solve_max_leaf_tree(graph, npd, **engine_kw):
    return _run("max-leaf-tree", graph, npd, **engine_kw)


def solve_min_maximal_matching(graph, npd, **engine_kw):
    return _run("min-maximal-matching", graph, npd, **engine_kw)


def solve_avg_path(graph, npd, L, U, **engine_kw):
    return _run("avg-path", graph, npd, {"L": L, "U": U}, **engine_kw)


def solve_max_weight_independent_set(graph, npd, **engine_kw):
    return _run("mwis", graph, npd, **engine_kw)


def solve_rect_cover(grid, pieces, **engine_kw):
    """Pack pieces on a partial grid; builds its own widened sweep."""
    graph = grid_to_graph(grid)
    npd, _ = grid_sweep_decomposition(grid, transpose=False, widen=True)
    return _run("rect-cover", graph, npd,
                {"grid": grid, "pieces": pieces}, **engine_kw)
