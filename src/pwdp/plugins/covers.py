"""Minimum path cover and minimum cycle cover.

Both track open fragments through the bag with the path-fragment labels
of pwdp.partition: a vertex is isolated (LONE, -1), settled with both
its edges chosen (SETTLED, 0), or an endpoint carrying a fragment id
shared with the other endpoint.  Ids are kept canonical by
first-occurrence relabeling, with -1 and 0 frozen.
"""
from __future__ import annotations

from itertools import combinations

from ..decomposition import INTRODUCE
from ..partition import (
    count_fragment_states, extend_fragment, fragment_states, join_fragments,
    normalize_partition,
)
from .base import FORGET_ACTION, ProblemDefinition, chain_edges

LONE, SETTLED = -1, 0


class PathCoverProblem(ProblemDefinition):
    """Partition all vertices into the fewest vertex-disjoint paths."""

    name = "path-cover"
    direction = "min"
    frozen = frozenset((LONE, SETTLED))
    # whether every open fragment keeps both ends in the bag
    pair_only = False

    def enumerate_states(self, nv):
        return fragment_states(nv, (LONE, SETTLED), self.pair_only)

    def count_states(self, nv):
        return count_fragment_states(nv, (LONE, SETTLED), self.pair_only)

    def count_noncrossing(self, nv):
        """States whose end pairs do not cross, the only ones a grid
        sweep reaches; for cycle cover the Catalan number C(nv + 1)."""
        return count_fragment_states(nv, (LONE, SETTLED), self.pair_only,
                                     noncrossing=True)

    def set_of_actions(self, ctx):
        if ctx.kind != INTRODUCE:
            return [FORGET_ACTION]
        acts = [("new",)]
        acts += [("extend", j) for j in ctx.nbrs]
        acts += [("connect", j, k) for j, k in combinations(ctx.nbrs, 2)]
        return acts

    # value changes, the tags of new and connect; the cycle subclass
    # overrides these
    new_delta = 1
    connect_delta = -1

    def transition(self, state, shape, action):
        kind = action[0]
        if kind == "forget":
            return state[:shape.pos] + state[shape.pos + 1:], None
        if kind == "new":
            return state + (LONE,), self.new_delta
        if kind == "extend":
            s2 = extend_fragment(state, action[1], LONE, SETTLED)
            return None if s2 is None else (s2, None)
        s2 = join_fragments(state, action[1], action[2], LONE, SETTLED)
        return None if s2 is None else (s2, self.connect_delta)

    def normalize(self, state):
        return normalize_partition(state, self.frozen)

    def extract_certificate(self, chain):
        return chain_edges(chain)

    def _components(self, edges):
        """(vertex count per component, degree map) or None on bad edges."""
        g = self.graph
        deg = {v: 0 for v in g.vertices()}
        adj = {v: [] for v in g.vertices()}
        if len(set(edges)) != len(edges):
            return None
        for u, v in edges:
            if not g.adjacent(u, v):
                return None
            deg[u] += 1
            deg[v] += 1
            adj[u].append(v)
            adj[v].append(u)
        seen = set()
        comps = []
        for s in g.vertices():
            if s in seen:
                continue
            stack = [s]
            seen.add(s)
            nodes = []
            while stack:
                x = stack.pop()
                nodes.append(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            comps.append(nodes)
        return comps, deg

    def check_certificate(self, edges):
        r = self._components(edges)
        if r is None:
            return False, None
        comps, deg = r
        if any(d > 2 for d in deg.values()):
            return False, None
        for nodes in comps:
            inside = sum(deg[v] for v in nodes) // 2
            if inside != len(nodes) - 1:   # tree with max degree 2 = path
                return False, None
        return True, len(comps)

    def certificate_lines(self, edges):
        return [f"edge {u} {v}" for u, v in edges]


class CycleCoverProblem(PathCoverProblem):
    """Partition all vertices into the fewest cycles of length >= 3.

    Open fragments cost nothing until closed; forgetting is only legal
    for settled vertices, so every surviving final state has all cycles
    closed.
    """

    name = "cycle-cover"
    pair_only = True
    new_delta = 0
    connect_delta = 0

    def set_of_actions(self, ctx):
        acts = super().set_of_actions(ctx)
        if ctx.kind == INTRODUCE:
            acts += [("close", j, k) for j, k in combinations(ctx.nbrs, 2)]
        return acts

    def transition(self, state, shape, action):
        kind = action[0]
        if kind == "close":
            j, k = action[1], action[2]
            sj = state[j]
            if sj <= 0 or sj != state[k]:
                return None
            s2 = state[:j] + (SETTLED,) + state[j + 1:]
            return s2[:k] + (SETTLED,) + s2[k + 1:] + (SETTLED,), 1
        if kind == "forget" and state[shape.pos] != SETTLED:
            return None
        return super().transition(state, shape, action)

    def check_certificate(self, edges):
        r = self._components(edges)
        if r is None:
            return False, None
        comps, deg = r
        if any(d != 2 for d in deg.values()):
            return False, None
        if any(len(nodes) < 3 for nodes in comps):
            return False, None
        return True, len(comps)
