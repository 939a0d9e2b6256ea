"""Problem plugin contract.

A plugin binds a graph and problem parameters, and supplies everything
the engine needs: the per-bag-size state space, the action set of each
decomposition node, the expansion of a predecessor state under an
action, normalization to canonical form, value comparison, final-state
acceptance, and certificate extraction/checking.

States are flat tuples of small integers.  Every plugin counts its
states in closed form (count_states), so the engine can check a bag's
table size against its capacity without enumerating.  Expansion returns
a (new_state, new_value, ok) triple; ok False marks the action as
inapplicable to that predecessor, standing in for an infinite cost.
Weights, penalties and costs come from the bound graph, never from the
node context.
"""
from __future__ import annotations

from typing import Iterable


class ProblemDefinition:
    name: str = ""
    direction: str = "min"   # 'min' or 'max'; drives the default better()

    def __init__(self, graph):
        self.graph = graph
        self._state_cache = {}

    # ----- state space -----

    def enumerate_states(self, nv: int) -> Iterable[tuple]:
        raise NotImplementedError

    def count_states(self, nv: int) -> int:
        """Number of canonical states for a bag of nv vertices, in closed
        form: it must equal len(enumerate_states(nv)) without enumerating."""
        raise NotImplementedError

    def empty_state(self) -> tuple:
        """State of the empty bag; the seed the first introduce expands."""
        return ()

    def initial_value(self):
        return 0

    # ----- expansion -----

    def set_of_actions(self, ctx) -> list:
        raise NotImplementedError

    def expand_state(self, state: tuple, ctx, action, value):
        raise NotImplementedError

    def normalize(self, state: tuple) -> tuple:
        return state

    def better(self, a, b) -> bool:
        if self.direction == "min":
            return a < b
        return a > b

    # ----- final selection -----

    def is_valid_final(self, state: tuple) -> bool:
        return True

    def final_value(self, state: tuple, value):
        """Value used to rank valid final states (objective of the run)."""
        return value

    # ----- certificates -----

    def extract_certificate(self, chain):
        """Build a solution object from the replayed (ctx, prev, action,
        state) chain; None when the plugin has no certificate form."""
        return None

    def check_certificate(self, certificate):
        """Independently re-verify; returns (ok, objective)."""
        raise NotImplementedError


def bag_edge(ctx, j):
    """The edge between bag position j and the introduced vertex, with
    the smaller endpoint first."""
    u, v = ctx.order_before[j], ctx.vertex
    return (u, v) if u < v else (v, u)
