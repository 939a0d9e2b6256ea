"""Minimum-weight maximal matching.

Bag states use three per-vertex values: 0 for free (unmatched, no
pending requirement), 1 for matched, 2 for obligated (unmatched, but
some already-forgotten free neighbor requires it to end up matched).
Forgetting a free vertex obligates its unmatched bag neighbors, since
leaving any such edge with both ends unmatched would break maximality;
forgetting an obligated vertex unmatched is rejected outright.
"""
from __future__ import annotations

import itertools

from ..decomposition import INTRODUCE
from .base import FORGET_ACTION, ProblemDefinition, chain_edges

FREE, MATCHED, OBLIGATED = 0, 1, 2


class MinMaximalMatchingProblem(ProblemDefinition):
    name = "min-maximal-matching"
    direction = "min"

    def enumerate_states(self, nv):
        return itertools.product((FREE, MATCHED, OBLIGATED), repeat=nv)

    def count_states(self, nv):
        return 3 ** nv

    def set_of_actions(self, ctx):
        if ctx.kind == INTRODUCE:
            return [("skip",)] + [("add", j) for j in ctx.nbrs]
        return [FORGET_ACTION]

    def transition(self, state, shape, action):
        kind = action[0]
        if kind == "skip":
            return state + (FREE,), None
        if kind == "add":
            j = action[1]
            if state[j] == MATCHED:
                return None
            return state[:j] + (MATCHED,) + state[j + 1:] + (MATCHED,), ()
        s = state[shape.pos]
        if s == OBLIGATED:
            return None  # required match never happened
        s2 = list(state)
        if s == FREE:
            for j in shape.nbrs:
                if s2[j] == FREE:
                    s2[j] = OBLIGATED
        del s2[shape.pos]
        return tuple(s2), None

    def gain(self, ctx, action, tag):  # add's: the weight of its edge
        return self.graph.edge_weight(ctx.order_before[action[1]],
                                      ctx.vertex)

    def extract_certificate(self, chain):
        return chain_edges(chain)

    def check_certificate(self, edges):
        g = self.graph
        if len(set(edges)) != len(edges):
            return False, None
        matched = set()
        for u, v in edges:
            if not g.adjacent(u, v) or u in matched or v in matched:
                return False, None
            matched.add(u)
            matched.add(v)
        for u, v in g.edges:
            if u not in matched and v not in matched:
                return False, None  # not maximal
        return True, sum(g.edge_weight(u, v) for u, v in edges)

    def certificate_lines(self, edges):
        return [f"edge {u} {v}" for u, v in edges]
