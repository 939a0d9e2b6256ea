"""Minimum path cover and minimum cycle cover.

Both track open fragments through the bag: a vertex is isolated (-1),
settled with both its edges chosen (0), or an endpoint carrying a
fragment id shared with the other endpoint.  Ids are kept canonical by
first-occurrence relabeling, with -1 and 0 frozen.
"""
from __future__ import annotations

from math import comb

from ..decomposition import INTRODUCE
from ..partition import fragment_states, normalize_partition
from .base import ProblemDefinition, bag_edge

FORGET_ACTION = ("forget",)


def _involutions(q):
    # partitions of q elements into blocks of size <= 2
    a, b = 1, 1
    for i in range(2, q + 1):
        a, b = b, b + (i - 1) * a
    return b if q >= 1 else 1


def _pairings(q):
    # partitions of q elements into blocks of size exactly 2
    if q % 2:
        return 0
    out = 1
    for i in range(1, q, 2):
        out *= i
    return out


class PathCoverProblem(ProblemDefinition):
    """Partition all vertices into the fewest vertex-disjoint paths."""

    name = "path-cover"
    direction = "min"
    frozen = frozenset((-1, 0))

    def enumerate_states(self, nv):
        return fragment_states(nv, (-1, 0), pair_only=False)

    def count_states(self, nv):
        return sum(comb(nv, q) * 2 ** (nv - q) * _involutions(q)
                   for q in range(nv + 1))

    def set_of_actions(self, ctx):
        if ctx.kind != INTRODUCE:
            return [FORGET_ACTION]
        acts = [("new",)]
        acts += [("extend", j) for j in ctx.nbrs]
        acts += [("connect", ctx.nbrs[a], ctx.nbrs[b])
                 for a in range(len(ctx.nbrs))
                 for b in range(a + 1, len(ctx.nbrs))]
        return acts

    # value deltas; the cycle subclass overrides these
    new_delta = 1
    connect_delta = -1
    done = 0   # marker for a vertex with both edges chosen

    def expand_state(self, state, ctx, action, value):
        kind = action[0]
        if kind == "forget":
            return self._forget(state, ctx, value)
        if kind == "new":
            return (state + (-1,), value + self.new_delta, True)
        if kind == "extend":
            j = action[1]
            sj = state[j]
            if sj == 0 or sj == self.done:
                return ((), 0, False)
            if sj > 0:
                s2 = state[:j] + (self.done,) + state[j + 1:] + (sj,)
                return (s2, value, True)
            pid = max(0, *state) + 1 if state else 1
            s2 = state[:j] + (pid,) + state[j + 1:] + (pid,)
            return (s2, value, True)
        if kind == "connect":
            return self._connect(state, action[1], action[2], value)
        return self._close(state, action[1], action[2], value)

    def _forget(self, state, ctx, value):
        return (state[:ctx.pos] + state[ctx.pos + 1:], value, True)

    def _connect(self, state, j, k, value):
        sj, sk = state[j], state[k]
        for s in (sj, sk):
            if s == 0 or s == self.done:
                return ((), 0, False)
        s2 = list(state)
        if sj == -1 and sk == -1:
            pid = max(0, *state) + 1
            s2[j] = pid
            s2[k] = pid
        elif sj == -1:
            s2[j] = sk
            s2[k] = self.done
        elif sk == -1:
            s2[k] = sj
            s2[j] = self.done
        else:
            if sj == sk:
                return ((), 0, False)  # would close a cycle
            partner = next((t for t, s in enumerate(state)
                            if s == sk and t != k), None)
            if partner is not None:
                s2[partner] = sj
            s2[j] = self.done
            s2[k] = self.done
        s2.append(self.done)
        return (tuple(s2), value + self.connect_delta, True)

    def _close(self, state, j, k, value):
        return ((), 0, False)

    def normalize(self, state):
        return normalize_partition(state, self.frozen)

    def extract_certificate(self, chain):
        edges = []
        for ctx, _prev, action, _state in chain:
            if ctx.kind != INTRODUCE:
                continue
            kind = action[0]
            if kind == "extend":
                edges.append(bag_edge(ctx, action[1]))
            elif kind in ("connect", "close"):
                edges.append(bag_edge(ctx, action[1]))
                edges.append(bag_edge(ctx, action[2]))
        return sorted(edges)

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
    new_delta = 0
    connect_delta = 0

    def enumerate_states(self, nv):
        return fragment_states(nv, (-1, 0), pair_only=True)

    def count_states(self, nv):
        return sum(comb(nv, q) * 2 ** (nv - q) * _pairings(q)
                   for q in range(nv + 1))

    def set_of_actions(self, ctx):
        acts = super().set_of_actions(ctx)
        if ctx.kind == INTRODUCE:
            acts += [("close", ctx.nbrs[a], ctx.nbrs[b])
                     for a in range(len(ctx.nbrs))
                     for b in range(a + 1, len(ctx.nbrs))]
        return acts

    def _close(self, state, j, k, value):
        sj, sk = state[j], state[k]
        if sj <= 0 or sj != sk:
            return ((), 0, False)
        s2 = state[:j] + (0,) + state[j + 1:]
        s2 = s2[:k] + (0,) + s2[k + 1:] + (0,)
        return (s2, value + 1, True)

    def _forget(self, state, ctx, value):
        if state[ctx.pos] != 0:
            return ((), 0, False)
        return (state[:ctx.pos] + state[ctx.pos + 1:], value, True)

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
