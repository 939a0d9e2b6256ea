"""Problem plugin registry.

Each plugin adapts one optimization problem to the shared table-passing
engine.  ``make_plugin`` builds an instance from a parameter dict, which
is how the command line and the solver facade construct them.
"""
from __future__ import annotations

from ..errors import ParameterError
from .avg_path import AvgPathProblem
from .base import ProblemDefinition
from .coloring import CanonicalColoringProblem, ColoringProblem, PenaltyColoringProblem
from .covers import CycleCoverProblem, PathCoverProblem
from .matching import MinMaximalMatchingProblem
from .rect_cover import RectCoverProblem
from .replica import KReplicaProblem, MwisProblem
from .spanning_tree import MaxLeafTreeProblem

__all__ = [
    "ProblemDefinition",
    "ColoringProblem",
    "CanonicalColoringProblem",
    "PenaltyColoringProblem",
    "PathCoverProblem",
    "CycleCoverProblem",
    "KReplicaProblem",
    "MwisProblem",
    "MaxLeafTreeProblem",
    "MinMaximalMatchingProblem",
    "AvgPathProblem",
    "RectCoverProblem",
    "PLUGIN_NAMES",
    "make_plugin",
]


def _need(params, key, kind=int):
    if key not in params:
        raise ParameterError(f"missing required parameter '{key}'")
    return kind(params[key])


_FACTORIES = {
    "coloring": lambda g, p: ColoringProblem(g, _need(p, "C")),
    "coloring-canonical": lambda g, p: CanonicalColoringProblem(g, _need(p, "C")),
    "penalty-coloring": lambda g, p: PenaltyColoringProblem(
        g, _need(p, "C"), mode=p.get("mode", "sum")),
    "path-cover": lambda g, p: PathCoverProblem(g),
    "cycle-cover": lambda g, p: CycleCoverProblem(g),
    "k-replica": lambda g, p: KReplicaProblem(g, _need(p, "k")),
    "max-leaf-tree": lambda g, p: MaxLeafTreeProblem(g),
    "min-maximal-matching": lambda g, p: MinMaximalMatchingProblem(g),
    "avg-path": lambda g, p: AvgPathProblem(g, _need(p, "L"), _need(p, "U")),
    "mwis": lambda g, p: MwisProblem(g),
    "rect-cover": lambda g, p: RectCoverProblem(
        g, _need(p, "grid", lambda grid: grid), _need(p, "pieces", list)),
}

PLUGIN_NAMES = tuple(sorted(_FACTORIES))


def make_plugin(name, graph, **params):
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(PLUGIN_NAMES)
        raise ParameterError(
            f"unknown problem '{name}' (known: {known})") from None
    return factory(graph, params)
