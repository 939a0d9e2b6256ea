"""Problem plugin contract.

A plugin binds a graph and problem parameters, and supplies everything
the engine needs: the per-bag-size state space, the action set of each
decomposition node, the transition of a state under an action and its
value change, normalization to canonical form, the direction values are
ranked in, final-state acceptance, and certificate extraction/checking.

States are flat tuples of small integers.  Every plugin counts its
states in closed form (count_states), so the engine can check a bag's
table size against its capacity without enumerating (path and cycle
cover count their noncrossing states too, for catalan_allowed); the
engine enumerates only under run_dp(validate=True).

A move has two halves.  transition(state, shape, action) returns (raw
next state, tag), or None where the action does not apply, standing in
for an infinite cost.  It sees the node's shape (kind, pos, nbrs, nv,
is_last) and no vertex, so it cannot read a weight (trying raises
AttributeError), and the engine reuses it at every node with the same
shape and actions.  gain(ctx, action, tag) returns the value change,
read from the bound graph at node ctx; the engine calls it at every
node, once per distinct (action, tag).  The tag None means no change
and calls no gain; any other tag, a hashable value, carries what the
change needs besides the node and the action, such as the bag
positions of the edges it pays for.  A plugin whose change reads no
weight keeps the default gain, which returns the tag: its transition
returns the change itself.  combine(value, change) makes the new value,
operator.add by default (penalty-coloring's max mode sets max).  The
engine takes the tag None as the change 0, so combine(value, 0) must
equal value for every value a run reaches.  expand_state composes the
three into a (new_state, new_value, ok) triple for nodes whose key
occurs once; it is also the reference for the tests.

direction is the only ranking rule: 'min' keeps the smaller value
(operator.lt), 'max' the larger (operator.gt), for table entries and
for the final values alike; run_dp rejects any other direction.

normalize must be a pure function of the state that maps every
canonical state to itself: the engine calls it at most once per
distinct raw tuple per run.  transition and gain must stay pure too,
since reconstruction and DpRunResult.tables call them again to replay
the run; reconstruct_solution then checks its certificate with
check_certificate.

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

from operator import add
from typing import Iterable

from ..decomposition import INTRODUCE

FORGET_ACTION = ("forget",)


class ProblemDefinition:
    name: str = ""
    direction: str = "min"   # 'min' or 'max': how values are ranked

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

    def transition(self, state: tuple, shape, action):
        """(raw next state, tag) of state under action at a node of this
        shape, or None where the action does not apply."""
        raise NotImplementedError

    def gain(self, ctx, action, tag):
        """The value change of a transition with this tag at the node
        ctx.  The default reads no weight: the tag is the change."""
        return tag

    # combine(value, change) -> the new value after a change; run_dp
    # adds inline while it is operator.add itself
    combine = add

    def expand_state(self, state: tuple, ctx, action, value):
        """(new_state, new_value, ok): transition on ctx's shape, then
        gain and combine; ok False where the action does not apply."""
        out = self.transition(state, ctx.shape, action)
        if out is None:
            return (), 0, False
        new_state, tag = out
        if tag is not None:
            value = self.combine(value, self.gain(ctx, action, tag))
        return new_state, value, True

    def normalize(self, state: tuple) -> tuple:
        return state

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
