"""Problem plugin contract.

A plugin binds a graph and problem parameters, and supplies everything
the engine needs: the per-bag-size state space, the action set of each
decomposition node, the expansion of a predecessor state under an
action, normalization to canonical form, value comparison, final-state
acceptance, and certificate extraction/checking.

States are flat tuples of small integers.  Expansion returns a
(new_state, new_value, ok) triple; ok False marks the action as
inapplicable to that predecessor, standing in for an infinite cost.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


class ProblemDefinition:
    name: str = ""
    direction: str = "min"   # 'min' or 'max'; drives the default better()

    def __init__(self, graph):
        self.graph = graph
        self._state_cache = {}

    # ----- state space -----

    def enumerate_states(self, nv: int) -> Iterable[tuple]:
        raise NotImplementedError

    def count_states(self, nv: int, cap: Optional[int] = None) -> int:
        """Number of canonical states for a bag of nv vertices.

        The default counts by enumeration and stops at cap+1 so callers
        can detect capacity overruns without a full sweep.  Plugins with
        closed-form counts override this.
        """
        count = 0
        for _ in self.enumerate_states(nv):
            count += 1
            if cap is not None and count > cap:
                return count
        return count

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


def positions_of(seq: Sequence, value) -> List[int]:
    return [i for i, x in enumerate(seq) if x == value]
