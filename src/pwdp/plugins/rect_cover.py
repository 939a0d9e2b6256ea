"""Maximum-cardinality packing of rectangular pieces on a partial grid.

Each bag slot stores the length of the run of uncovered cells ending at
that cell and extending upward in its column, capped at the tallest
piece height R.  A piece of size r x c is anchored at its lower-right
cell when introduced; it fits iff every covered column shows a run of
at least r.  Placements zero the anchor-row slots only: runs above the
anchor row are never consulted again once the row below them is set.

Requires a row-major sweep whose bags keep the cell directly above and
the c-1 cells to the left of each introduced cell (the widened sweep,
untransposed).
"""
from __future__ import annotations

import itertools

from ..decomposition import INTRODUCE
from ..errors import NotApplicableError, ParameterError
from .base import FORGET_ACTION, ProblemDefinition


class RectCoverProblem(ProblemDefinition):
    name = "rect-cover"
    direction = "max"

    def __init__(self, graph, grid, pieces):
        super().__init__(graph)
        if not pieces:
            raise ParameterError("need at least one piece type")
        for r, c in pieces:
            if r < 1 or c < 1:
                raise ParameterError(f"bad piece ({r}, {c})")
            if c > grid.cols:
                raise ParameterError(
                    f"piece ({r}, {c}) wider than the grid")
        if graph.coords is None:
            raise NotApplicableError("graph lacks cell coordinates")
        self.grid = grid
        self.pieces = list(pieces)
        self.R = max(r for r, _ in pieces)

    def enumerate_states(self, nv):
        return itertools.product(range(self.R + 1), repeat=nv)

    def count_states(self, nv):
        return (self.R + 1) ** nv

    def set_of_actions(self, ctx):
        """skip, then one place per piece type t that fits at the new
        cell; each action ends with the bag position of the cell above
        (None on the top edge), and place carries the positions of the
        cells left of the anchor before it."""
        if ctx.kind != INTRODUCE:
            return [FORGET_ACTION]
        coords = self.graph.coords
        a, b = coords[ctx.vertex]
        pos_of = {coords[u]: i for i, u in enumerate(ctx.order_before)}
        above_pos = None
        if (a - 1, b) in self.grid.present:
            above_pos = pos_of.get((a - 1, b))
            if above_pos is None:
                raise NotApplicableError(
                    "cell above the introduced cell is not in the bag; "
                    "use the widened row-major sweep")
        acts = [("skip", above_pos)]
        for t, (r_p, c_p) in enumerate(self.pieces, start=1):
            if c_p > b + 1:
                continue  # would stick out past the left edge
            positions = []
            ok = True
            for col in range(b - c_p + 1, b):
                if (a, col) not in self.grid.present:
                    ok = False
                    break
                p = pos_of.get((a, col))
                if p is None:
                    raise NotApplicableError(
                        "cells left of the anchor are not in the bag; "
                        "use the widened row-major sweep")
                positions.append(p)
            if ok:
                acts.append(("place", t, tuple(positions), above_pos))
        return acts

    def transition(self, state, shape, action):
        if action[0] == "forget":
            return state[:shape.pos] + state[shape.pos + 1:], None
        above_pos = action[-1]
        h_above = state[above_pos] if above_pos is not None else 0
        h_v = min(self.R, h_above + 1)
        if action[0] == "skip":
            return state + (h_v,), None
        t = action[1]
        r_p = self.pieces[t - 1][0]
        if h_v < r_p:
            return None
        positions = action[2]
        for p in positions:
            if state[p] < r_p:
                return None
        s2 = list(state)
        for p in positions:
            s2[p] = 0
        s2.append(0)
        return tuple(s2), 1

    def extract_certificate(self, chain):
        coords = self.graph.coords
        placements = []
        for ctx, _prev, action, _state in chain:
            if ctx.kind == INTRODUCE and action[0] == "place":
                a, b = coords[ctx.vertex]
                placements.append((action[1], a, b))
        return sorted(placements)

    def check_certificate(self, cert):
        covered = set()
        for t, a, b in cert:
            if not (1 <= t <= len(self.pieces)):
                return False, None
            r_p, c_p = self.pieces[t - 1]
            for row in range(a - r_p + 1, a + 1):
                for col in range(b - c_p + 1, b + 1):
                    cell = (row, col)
                    if row < 0 or col < 0 or cell not in self.grid.present:
                        return False, None
                    if cell in covered:
                        return False, None
                    covered.add(cell)
        return True, len(cert)

    def certificate_lines(self, cert):
        return [f"place {t} {a + 1} {b + 1}" for t, a, b in cert]
