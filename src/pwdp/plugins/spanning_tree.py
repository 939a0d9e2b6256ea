"""Spanning tree maximizing the total weight of its leaves.

Bag vertices carry (component id, degree) pairs, degrees saturated at 2.
Isolated vertices count as leaves until they gain a second edge; the
accounting adds w(v) when a vertex enters as a leaf candidate and takes
it back the moment its degree reaches 2.
"""
from __future__ import annotations

import itertools
from math import comb

from ..decomposition import INTRODUCE
from ..errors import NotApplicableError
from ..partition import normalize_partition, restricted_growth_strings
from .base import FORGET_ACTION, ProblemDefinition, chain_edges


class MaxLeafTreeProblem(ProblemDefinition):
    name = "max-leaf-tree"
    direction = "max"

    def __init__(self, graph):
        super().__init__(graph)
        if graph.n < 2:
            raise NotApplicableError("spanning-tree objective needs n > 1")
        self._counts = [1]  # count_states by bag size, extended on demand

    def enumerate_states(self, nv):
        # deg 0 only for vertices alone in their component within the bag
        for cids in restricted_growth_strings(nv):
            class_size = {}
            for c in cids:
                class_size[c] = class_size.get(c, 0) + 1
            choices = []
            for c in cids:
                choices.append((0, 1, 2) if class_size[c] == 1 else (1, 2))
            for degs in itertools.product(*choices):
                out = []
                for c, d in zip(cids, degs):
                    out.append(c)
                    out.append(d)
                yield tuple(out)

    def count_states(self, nv):
        # exponential formula over the class of the last vertex: a class
        # of one has 3 degree choices, a class of k > 1 has 2 ** k
        a = self._counts
        for n in range(len(a), nv + 1):
            a.append(sum(comb(n - 1, k - 1) * (3 if k == 1 else 2 ** k)
                         * a[n - k] for k in range(1, n + 1)))
        return a[nv]

    def set_of_actions(self, ctx):
        if ctx.kind != INTRODUCE:
            return [FORGET_ACTION]
        acts = [("new",)]
        acts += [("leaf", j) for j in ctx.nbrs]
        for size in range(2, len(ctx.nbrs) + 1):
            for combo in itertools.combinations(ctx.nbrs, size):
                acts.append(("join", *combo))
        return acts

    def transition(self, state, shape, action):
        # the tag: the positions that stop being leaves, whose weight
        # the change takes back (None for no change)
        kind = action[0]
        if kind == "forget":
            pos = shape.pos
            cid = state[2 * pos]
            nv = len(state) // 2
            if not shape.is_last:
                if not any(state[2 * t] == cid for t in range(nv)
                           if t != pos):
                    return None  # component would be left behind
            return state[:2 * pos] + state[2 * pos + 2:], None
        if kind == "new":
            cids = state[0::2]
            newcid = max(cids) + 1 if cids else 1
            return state + (newcid, 0), ()
        if kind == "leaf":
            j = action[1]
            cid, deg = state[2 * j], state[2 * j + 1]
            s2 = list(state)
            s2[2 * j + 1] = min(2, deg + 1)
            s2 += [cid, 1]
            return tuple(s2), (j,) if deg == 1 else ()
        sv = action[1:]
        sv_cids = [state[2 * j] for j in sv]
        if len(set(sv_cids)) != len(sv_cids):
            return None  # two picks in one component: a cycle
        newcid = max(sv_cids)
        merged = set(sv_cids)
        lost = []
        s2 = list(state)
        svset = set(sv)
        for t in range(len(state) // 2):
            cid, deg = state[2 * t], state[2 * t + 1]
            if t in svset:
                if deg == 1:
                    lost.append(t)
                s2[2 * t] = newcid
                s2[2 * t + 1] = min(2, deg + 1)
            elif cid in merged:
                s2[2 * t] = newcid
        s2 += [newcid, 2]
        return tuple(s2), tuple(lost) or None

    def gain(self, ctx, action, tag):
        w = self.graph.vertex_weight
        lost = sum(w(ctx.order_before[t]) for t in tag)
        if action[0] in ("new", "leaf"):
            return w(ctx.vertex) - lost
        return -lost

    def normalize(self, state):
        cids = normalize_partition(state[0::2])
        out = []
        for c, d in zip(cids, state[1::2]):
            out.append(c)
            out.append(d)
        return tuple(out)

    def extract_certificate(self, chain):
        return chain_edges(chain)

    def check_certificate(self, edges):
        g = self.graph
        if len(edges) != g.n - 1 or len(set(edges)) != len(edges):
            return False, None
        if any(not g.adjacent(u, v) for u, v in edges):
            return False, None
        parent = list(range(g.n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False, None
            parent[ru] = rv
        deg = {v: 0 for v in g.vertices()}
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        return True, sum(g.vertex_weight(v) for v in g.vertices()
                         if deg[v] == 1)

    def certificate_lines(self, edges):
        return [f"edge {u} {v}" for u, v in edges]
