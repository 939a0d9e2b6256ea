"""Problem plugin contract.

A plugin binds a graph and problem parameters, and supplies everything
the engine needs: the per-bag-size state space, the action set of each
decomposition node, the expansion of a predecessor state under an
action, normalization to canonical form, the direction values are
ranked in, final-state acceptance, and certificate
extraction/checking.

States are flat tuples of small integers.  Every plugin counts its
states in closed form (count_states), so the engine can check a bag's
table size against its capacity without enumerating (path and cycle
cover count their noncrossing states too, for catalan_allowed); the
engine enumerates only under run_dp(validate=True).  Expansion returns
a (new_state, new_value, ok) triple; ok False marks the action as
inapplicable to that predecessor, standing in for an infinite cost.
Weights, penalties and costs come from the bound graph, never from the
node context.

direction is the only ranking rule: 'min' keeps the smaller value
(operator.lt), 'max' the larger (operator.gt), for table entries and
for the final values alike; run_dp rejects any other direction.

normalize must be a pure function of the state that maps every
canonical state to itself.  The engine interns states as small ints
and caches each raw expansion result's canonical id for the whole run,
so it calls normalize at most once per distinct raw tuple, and a raw
tuple equal to a canonical state it has already seen is not normalized
at all.

The engine memoizes expansions across nodes, so expand_state may read
from its node context only kind, pos, nbrs, len(order_before) and
is_last, plus the action it is given; vertex and order_before serve only
to look up weights.  The value change new_value - value must be the same
for every value of the state, and value_key(ctx) returns every weight
it reads: () when none is read (covers, coloring, rect-cover), w(v) for
mwis and avg-path, the edge weights to nbrs for matching.  A plugin
whose change is not additive, such as penalty-coloring's max mode,
returns ctx.index instead: no other node shares that key, so its nodes
are never replayed.  run_dp(validate=True) re-expands every replayed
state and reports a key that misses a weight.

expand_state is also called again after the run: a retained run keeps
only each state's predecessor, and reconstruction and
DpRunResult.tables replay the predecessor's actions to recover the
action taken and the value.  The replay expands each (node key,
predecessor) pair once and reuses its value changes at the key's other
nodes, as the run does, so the same value_key rule holds there, and a
key of ctx.index shares nothing.  So expand_state must stay a pure
function of the state, the node's structure, the action and the value.

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

    def expand_state(self, state: tuple, ctx, action, value):
        raise NotImplementedError

    def value_key(self, ctx):
        """Every weight the value change at this node reads, as a
        hashable value; ctx.index when the change is not value + delta.
        The engine replays a state's moves at later nodes of the same
        shape and actions whose value_key is equal."""
        raise NotImplementedError

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


def neighbor_edge_key(ctx, weight):
    """weight(u, v) from the introduced vertex v to each bag neighbor u,
    in nbrs order, or () at a forget node: the value key of plugins that
    pay per chosen edge."""
    if ctx.kind != INTRODUCE:
        return ()
    v = ctx.vertex
    return tuple(weight(ctx.order_before[j], v) for j in ctx.nbrs)


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
