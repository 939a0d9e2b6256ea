"""Proper C-coloring (naive and canonical states) and penalty coloring."""
from __future__ import annotations

import itertools

from ..decomposition import INTRODUCE
from ..errors import ParameterError
from ..partition import count_partitions, normalize_partition, restricted_growth_strings
from .base import FORGET_ACTION, ProblemDefinition

COLOR = "color"


class ColoringProblem(ProblemDefinition):
    """Does a proper coloring with colors 1..C exist?

    Tables carry the constant value 1; feasibility is the presence of
    any surviving final state.
    """

    name = "coloring"
    direction = "min"

    def __init__(self, graph, C):
        super().__init__(graph)
        if C < 1:
            raise ParameterError(f"C must be >= 1, got {C}")
        self.C = C

    def enumerate_states(self, nv):
        return itertools.product(range(1, self.C + 1), repeat=nv)

    def count_states(self, nv):
        return self.C ** nv

    def initial_value(self):
        return 1

    def set_of_actions(self, ctx):
        if ctx.kind == INTRODUCE:
            return [(COLOR, cx) for cx in range(1, self.C + 1)]
        return [FORGET_ACTION]

    def transition(self, state, shape, action):
        if action[0] == COLOR:
            cx = action[1]
            for j in shape.nbrs:
                if state[j] == cx:
                    return None
            return state + (cx,), None
        return state[:shape.pos] + state[shape.pos + 1:], None

    def extract_certificate(self, chain):
        colors = {}
        for ctx, _prev, action, _state in chain:
            if ctx.kind == INTRODUCE:
                colors[ctx.vertex] = action[1]
        return colors

    def check_certificate(self, colors):
        g = self.graph
        if set(colors) != set(g.vertices()):
            return False, None
        if any(not (1 <= c <= self.C) for c in colors.values()):
            return False, None
        if any(colors[u] == colors[v] for u, v in g.edges):
            return False, None
        return True, 1

    def certificate_lines(self, colors):
        return [f"color {v} {colors[v]}" for v in sorted(colors)]


class CanonicalColoringProblem(ColoringProblem):
    """Coloring with color-permutation symmetry removed.

    States are canonical partition labelings, so all colorings that
    differ only by renaming colors collapse into one table entry.
    """

    name = "coloring-canonical"

    def enumerate_states(self, nv):
        return restricted_growth_strings(nv, max_classes=self.C)

    def count_states(self, nv):
        return count_partitions(nv, self.C)

    def normalize(self, state):
        return normalize_partition(state)

    def extract_certificate(self, chain):
        # Action labels refer to classes of the predecessor state; turn
        # them back into concrete colors by reusing the color of any bag
        # vertex in the same class, or the lowest color free in the bag.
        colors = {}
        for ctx, prev, action, _state in chain:
            if ctx.kind != INTRODUCE:
                continue
            cx = action[1]
            owner = next((ctx.order_before[j] for j, lbl in enumerate(prev)
                          if lbl == cx), None)
            if owner is not None:
                colors[ctx.vertex] = colors[owner]
            else:
                used = {colors[u] for u in ctx.order_before}
                colors[ctx.vertex] = min(c for c in range(1, self.C + 1)
                                         if c not in used)
        return colors


class PenaltyColoringProblem(CanonicalColoringProblem):
    """Color with 1..C, paying pen(u,v) on each monochromatic edge.

    mode 'sum' minimizes the total paid penalty, 'max' the largest
    single one.
    """

    name = "penalty-coloring"

    def __init__(self, graph, C, mode="sum"):
        super().__init__(graph, C)
        if mode not in ("sum", "max"):
            raise ParameterError(f"mode must be 'sum' or 'max', got {mode!r}")
        if mode == "max":
            # the DP seeds the worst penalty with 0, which a negative
            # penalty cannot exceed, so its optimum would be wrong
            for u, v in graph.edges:
                if graph.edge_penalty(u, v) < 0:
                    raise ParameterError(
                        f"mode 'max' needs penalties >= 0, edge ({u},{v}) "
                        f"has {graph.edge_penalty(u, v)}")
            # the worst penalty so far, not a sum; with penalties >= 0
            # and values from 0, max(value, 0) is value, as combine needs
            self.combine = max
        self.mode = mode

    def initial_value(self):
        return 0

    def transition(self, state, shape, action):
        # a color's tag: the bag positions of the neighbors that have it,
        # whose edges pay their penalty (None when there are none)
        if action[0] == COLOR:
            cx = action[1]
            same = tuple([j for j in shape.nbrs if state[j] == cx])
            return state + (cx,), same or None
        return state[:shape.pos] + state[shape.pos + 1:], None

    def gain(self, ctx, action, tag):
        pens = [self.graph.edge_penalty(ctx.order_before[j], ctx.vertex)
                for j in tag]
        return max(pens) if self.mode == "max" else sum(pens)

    def check_certificate(self, colors):
        g = self.graph
        if set(colors) != set(g.vertices()):
            return False, None
        if any(not (1 <= c <= self.C) for c in colors.values()):
            return False, None
        paid = [g.edge_penalty(u, v) for u, v in g.edges
                if colors[u] == colors[v]]
        if self.mode == "sum":
            return True, sum(paid)
        return True, max(paid, default=0)
