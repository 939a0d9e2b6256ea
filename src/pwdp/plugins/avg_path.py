"""Maximum average-weight simple path with length bounds L..U.

Vertices on the path carry the path-fragment labels of pwdp.partition:
LONE (-1) for a one-vertex fragment, DONE (-2) once both path edges are
fixed, a shared id for the two endpoints of a longer fragment, and OFF
(0) for vertices off the path.  Extras count selected vertices (x) and
open fragments (f); a run is accepted when exactly one fragment of
admissible length survives.  Table values hold the weight sum; the
final ranking divides by x as an exact rational.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from ..decomposition import INTRODUCE
from ..errors import ParameterError
from ..partition import (
    extend_fragment, fragment_states, join_fragments, normalize_partition,
)
from .base import FORGET_ACTION, ProblemDefinition, chain_edges

OFF, LONE, DONE = 0, -1, -2


class AvgPathProblem(ProblemDefinition):
    name = "avg-path"
    direction = "max"
    frozen = frozenset((OFF, LONE, DONE))

    def __init__(self, graph, L, U):
        super().__init__(graph)
        if not (1 <= L <= U <= graph.n):
            raise ParameterError(
                f"need 1 <= L <= U <= {graph.n}, got L={L} U={U}")
        self.L = L
        self.U = U

    def enumerate_states(self, nv):
        for s in fragment_states(nv, (OFF, LONE, DONE), pair_only=False):
            ids = {v for v in s if v > 0}
            sel = sum(1 for v in s if v != OFF)
            frag_lb = len(ids) + sum(1 for v in s if v == LONE)
            if sel == 0:
                yield s + (0, 0)
            for x in range(max(sel, 1), self.U + 1):
                for f in range(max(frag_lb, 1), x + 1):
                    yield s + (x, f)

    def count_states(self, nv):
        # a OFF, b LONE and c DONE slots; the q id slots hold p ids at
        # both ends of a fragment and q - 2p at one end; each pattern
        # takes the (x, f) tails enumerate_states gives it
        total = 0
        for a in range(nv + 1):
            for b in range(nv - a + 1):
                for c in range(nv - a - b + 1):
                    q = nv - a - b - c
                    slots = comb(nv, a) * comb(nv - a, b) * comb(nv - a - b, c)
                    for p in range(q // 2 + 1):
                        ids = factorial(q) // (2 ** p * factorial(p)
                                               * factorial(q - 2 * p))
                        f_lo = max(b + q - p, 1)
                        tails = sum(x - f_lo + 1
                                    for x in range(max(nv - a, 1), self.U + 1))
                        total += slots * ids * (tails + (a == nv))
        return total

    def empty_state(self):
        return (0, 0)

    def set_of_actions(self, ctx):
        if ctx.kind != INTRODUCE:
            return [FORGET_ACTION]
        acts = [("skip",), ("new",)]
        acts += [("extend", j) for j in ctx.nbrs]
        acts += [("connect", j, k) for j, k in combinations(ctx.nbrs, 2)]
        return acts

    def transition(self, state, shape, action):
        kind = action[0]
        if kind == "forget":
            return state[:shape.pos] + state[shape.pos + 1:], None
        s, x, f = state[:-2], state[-2], state[-1]
        if kind == "skip":
            return s + (OFF, x, f), None
        if x == self.U:
            return None
        # an action that puts the vertex on the path gains its weight
        if kind == "new":
            return s + (LONE, x + 1, f + 1), ()
        if kind == "extend":
            s2 = extend_fragment(s, action[1], LONE, DONE)
            return None if s2 is None else (s2 + (x + 1, f), ())
        s2 = join_fragments(s, action[1], action[2], LONE, DONE)
        return None if s2 is None else (s2 + (x + 1, f - 1), ())

    def gain(self, ctx, action, tag):
        return self.graph.vertex_weight(ctx.vertex)

    def normalize(self, state):
        return normalize_partition(state[:-2], self.frozen) + state[-2:]

    def is_valid_final(self, state):
        x, f = state[-2], state[-1]
        return f == 1 and self.L <= x <= self.U

    def final_value(self, state, value):
        return Fraction(value, state[-2])

    def extract_certificate(self, chain):
        vertices = sorted(ctx.vertex for ctx, _prev, action, _state in chain
                          if ctx.kind == INTRODUCE and action[0] != "skip")
        return vertices, chain_edges(chain)

    def check_certificate(self, cert):
        vertices, edges = cert
        g = self.graph
        vs = set(vertices)
        if len(vs) != len(vertices) or not vs <= set(g.vertices()):
            return False, None
        if not (self.L <= len(vs) <= self.U):
            return False, None
        if len(set(edges)) != len(edges) or len(edges) != len(vs) - 1:
            return False, None
        deg = {v: 0 for v in vs}
        for u, v in edges:
            if not g.adjacent(u, v) or u not in vs or v not in vs:
                return False, None
            deg[u] += 1
            deg[v] += 1
        if any(d > 2 for d in deg.values()):
            return False, None
        # n vertices, n-1 edges, degrees <= 2: connected iff a single path
        seen = set()
        stack = [vertices[0]]
        seen.add(vertices[0])
        adj = {v: [] for v in vs}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        while stack:
            u = stack.pop()
            for v2 in adj[u]:
                if v2 not in seen:
                    seen.add(v2)
                    stack.append(v2)
        if seen != vs:
            return False, None
        total = sum(g.vertex_weight(v) for v in vs)
        return True, Fraction(total, len(vs))

    def certificate_lines(self, cert):
        vertices, edges = cert
        return ([f"select {v}" for v in vertices]
                + [f"edge {u} {v}" for u, v in edges])
