"""Vertex-selection problems: k-replica placement and max weighted
independent set."""
from __future__ import annotations

import itertools

from ..decomposition import INTRODUCE
from .base import FORGET_ACTION, ProblemDefinition

SELECT = ("select",)
SKIP = ("skip",)


class KReplicaProblem(ProblemDefinition):
    """Pick exactly k vertices minimizing selection costs plus the
    penalty of every edge inside the picked set.

    State is the bag's 0/1 selection flags plus a running count x of all
    selections so far.
    """

    name = "k-replica"
    direction = "min"

    def __init__(self, graph, k):
        super().__init__(graph)
        if not (1 <= k <= graph.n):
            raise ValueError(f"k must be in 1..{graph.n}, got {k}")
        self.k = k

    def enumerate_states(self, nv):
        for bits in itertools.product((0, 1), repeat=nv):
            for x in range(self.k + 1):
                yield bits + (x,)

    def count_states(self, nv):
        return 2 ** nv * (self.k + 1)

    def empty_state(self):
        return (0,)

    def set_of_actions(self, ctx):
        if ctx.kind == INTRODUCE:
            return [SELECT, SKIP]
        return [FORGET_ACTION]

    def expand_state(self, state, ctx, action, value):
        if action[0] == "forget":
            return (state[:ctx.pos] + state[ctx.pos + 1:], value, True)
        x = state[-1]
        if action[0] == "skip":
            return (state[:-1] + (0, x), value, True)
        if x == self.k:
            return ((), 0, False)
        g = self.graph
        cost = value + g.selection_cost(ctx.vertex)
        for j in ctx.nbrs:
            if state[j] == 1:
                cost += g.edge_penalty(ctx.order_before[j], ctx.vertex)
        return (state[:-1] + (1, x + 1), cost, True)

    def is_valid_final(self, state):
        return state[-1] == self.k

    def extract_certificate(self, chain):
        return sorted(ctx.vertex for ctx, _p, action, _s in chain
                      if ctx.kind == INTRODUCE and action[0] == "select")

    def check_certificate(self, selected):
        g = self.graph
        ss = set(selected)
        if len(ss) != len(selected) or len(ss) != self.k:
            return False, None
        if not ss <= set(g.vertices()):
            return False, None
        cost = sum(g.selection_cost(v) for v in ss)
        cost += sum(g.edge_penalty(u, v) for u, v in g.edges
                    if u in ss and v in ss)
        return True, cost

    def certificate_lines(self, selected):
        return [f"select {v}" for v in selected]


class MwisProblem(ProblemDefinition):
    """Maximum total vertex weight over sets with no internal edge."""

    name = "mwis"
    direction = "max"

    def enumerate_states(self, nv):
        return itertools.product((0, 1), repeat=nv)

    def count_states(self, nv):
        return 2 ** nv

    def set_of_actions(self, ctx):
        if ctx.kind == INTRODUCE:
            return [SELECT, SKIP]
        return [FORGET_ACTION]

    def expand_state(self, state, ctx, action, value):
        if action[0] == "forget":
            return (state[:ctx.pos] + state[ctx.pos + 1:], value, True)
        if action[0] == "skip":
            return (state + (0,), value, True)
        for j in ctx.nbrs:
            if state[j] == 1:
                return ((), 0, False)
        return (state + (1,), value + self.graph.vertex_weight(ctx.vertex),
                True)

    def extract_certificate(self, chain):
        return sorted(ctx.vertex for ctx, _p, action, _s in chain
                      if ctx.kind == INTRODUCE and action[0] == "select")

    def check_certificate(self, selected):
        g = self.graph
        ss = set(selected)
        if len(ss) != len(selected) or not ss <= set(g.vertices()):
            return False, None
        if any(u in ss and v in ss for u, v in g.edges):
            return False, None
        return True, sum(g.vertex_weight(v) for v in ss)

    def certificate_lines(self, selected):
        return [f"select {v}" for v in selected]
