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

Plugins share one action vocabulary: every forget node offers the single
FORGET_ACTION, and an introduce action that picks graph edges lists the
bag positions of their far ends right after its kind, as in
("connect", j, k).  For plugins whose introduce actions list nothing
else, chain_edges reads a certificate's edges off the reconstruction
chain.  One plugin instance may run on several decompositions, so what
it derives from a node travels in that node's actions, never in a cache
keyed by node index.
"""
from __future__ import annotations

from typing import Iterable

from ..decomposition import INTRODUCE

FORGET_ACTION = ("forget",)


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


def chain_edges(chain):
    """Sorted edges chosen along a reconstruction chain: each bag position
    an introduce action lists after its kind, joined to the new vertex,
    with the smaller endpoint first."""
    edges = []
    for ctx, _prev, action, _state in chain:
        if ctx.kind == INTRODUCE:
            v = ctx.vertex
            for j in action[1:]:
                u = ctx.order_before[j]
                edges.append((u, v) if u < v else (v, u))
    return sorted(edges)
