"""Problem plugin registry.

Each plugin adapts one optimization problem to the shared table-passing
engine.  ``make_plugin`` builds an instance from a parameter dict, which
is how the command line and the solver facade construct them.

A plugin module is imported only when one of its classes is first
asked for, so ``make_plugin`` loads the one plugin a run uses.  The
class names below resolve through the module ``__getattr__`` (PEP 562);
a new plugin registers its classes in ``_HOMES`` and its factory in
``_FACTORIES``, and is never imported at the top of this module.
"""
from __future__ import annotations

from importlib import import_module

from ..errors import ParameterError

# public class name -> submodule that defines it
_HOMES = {
    "ProblemDefinition": "base",
    "ColoringProblem": "coloring",
    "CanonicalColoringProblem": "coloring",
    "PenaltyColoringProblem": "coloring",
    "PathCoverProblem": "covers",
    "CycleCoverProblem": "covers",
    "KReplicaProblem": "replica",
    "MwisProblem": "replica",
    "MaxLeafTreeProblem": "spanning_tree",
    "MinMaximalMatchingProblem": "matching",
    "AvgPathProblem": "avg_path",
    "RectCoverProblem": "rect_cover",
}

__all__ = [*_HOMES, "PLUGIN_NAMES", "make_plugin"]


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{home}"), name)


def _need(params, key, kind=int):
    if key not in params:
        raise ParameterError(f"missing required parameter '{key}'")
    return kind(params[key])


# problem name -> (class name, builder from the class, graph and params)
_FACTORIES = {
    "coloring": ("ColoringProblem", lambda cls, g, p: cls(g, _need(p, "C"))),
    "coloring-canonical": ("CanonicalColoringProblem",
                           lambda cls, g, p: cls(g, _need(p, "C"))),
    "penalty-coloring": ("PenaltyColoringProblem", lambda cls, g, p: cls(
        g, _need(p, "C"), mode=p.get("mode", "sum"))),
    "path-cover": ("PathCoverProblem", lambda cls, g, p: cls(g)),
    "cycle-cover": ("CycleCoverProblem", lambda cls, g, p: cls(g)),
    "k-replica": ("KReplicaProblem", lambda cls, g, p: cls(g, _need(p, "k"))),
    "max-leaf-tree": ("MaxLeafTreeProblem", lambda cls, g, p: cls(g)),
    "min-maximal-matching": ("MinMaximalMatchingProblem",
                             lambda cls, g, p: cls(g)),
    "avg-path": ("AvgPathProblem", lambda cls, g, p: cls(
        g, _need(p, "L"), _need(p, "U"))),
    "mwis": ("MwisProblem", lambda cls, g, p: cls(g)),
    "rect-cover": ("RectCoverProblem", lambda cls, g, p: cls(
        g, _need(p, "grid", lambda grid: grid), _need(p, "pieces", list))),
}

PLUGIN_NAMES = tuple(sorted(_FACTORIES))


def make_plugin(name, graph, **params):
    try:
        cls_name, build = _FACTORIES[name]
    except KeyError:
        known = ", ".join(PLUGIN_NAMES)
        raise ParameterError(
            f"unknown problem '{name}' (known: {known})") from None
    return build(__getattr__(cls_name), graph, params)
