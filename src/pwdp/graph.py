"""Graph and partial-grid data model plus instance-file parsing.

Vertices are 1-based integers. All attributes (vertex weights, selection
costs, edge weights, edge penalties) are exact integers and default to 1
when a block is absent, so unweighted classics run without boilerplate.
"""
from __future__ import annotations

from .errors import GraphError, GraphFormatError


def _norm_edge(u, v):
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected graph with optional integer attributes."""

    def __init__(self, n, edges, vertex_weights=None, selection_costs=None,
                 edge_weights=None, edge_penalties=None, coords=None):
        if n < 1:
            raise GraphError(f"vertex count must be >= 1, got {n}")
        self.n = n
        norm = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise GraphError(f"edge ({u},{v}) out of range 1..{n}")
            e = _norm_edge(u, v)
            if e in seen:
                raise GraphError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
            norm.append(e)
        self.edges = tuple(sorted(norm))
        self._edge_set = frozenset(self.edges)
        # isolated vertices get no entry, so a huge header costs nothing
        nbrs = {}
        for u, v in self.edges:
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        self._neighbors = {v: tuple(sorted(ns)) for v, ns in nbrs.items()}

        self._vertex_weights = self._check_vmap(vertex_weights, "vertex weight")
        self._selection_costs = self._check_vmap(selection_costs, "selection cost")
        self._edge_weights = self._check_emap(edge_weights, "edge weight")
        self._edge_penalties = self._check_emap(edge_penalties, "edge penalty")
        self.coords = dict(coords) if coords else None

    def _check_vmap(self, mapping, what):
        mapping = dict(mapping) if mapping else {}
        for v in mapping:
            if not (1 <= v <= self.n):
                raise GraphError(f"{what} on missing vertex {v}")
        return mapping

    def _check_emap(self, mapping, what):
        out = {}
        if mapping:
            for (u, v), val in mapping.items():
                e = _norm_edge(u, v)
                if e not in self._edge_set:
                    raise GraphError(f"{what} on missing edge ({u},{v})")
                out[e] = val
        return out

    @property
    def m(self):
        return len(self.edges)

    def vertices(self):
        return range(1, self.n + 1)

    def adjacent(self, u, v):
        return _norm_edge(u, v) in self._edge_set

    def neighbors(self, v):
        if not 1 <= v <= self.n:
            raise GraphError(f"vertex {v} out of range 1..{self.n}")
        return self._neighbors.get(v, ())

    def degree(self, v):
        return len(self.neighbors(v))

    def vertex_weight(self, v):
        return self._vertex_weights.get(v, 1)

    def selection_cost(self, v):
        return self._selection_costs.get(v, 1)

    def edge_weight(self, u, v):
        return self._edge_weights.get(_norm_edge(u, v), 1)

    def edge_penalty(self, u, v):
        return self._edge_penalties.get(_norm_edge(u, v), 1)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.edges == other.edges
                and self._vertex_weights == other._vertex_weights
                and self._selection_costs == other._selection_costs
                and self._edge_weights == other._edge_weights
                and self._edge_penalties == other._edge_penalties)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def serialize(self):
        """Render the graph in the instance-file format; parse() inverts this."""
        lines = [f"graph {self.n} {self.m}"]
        for u, v in self.edges:
            lines.append(f"e {u} {v}")
        for v in sorted(self._vertex_weights):
            lines.append(f"vw {v} {self._vertex_weights[v]}")
        for v in sorted(self._selection_costs):
            lines.append(f"sc {v} {self._selection_costs[v]}")
        for (u, v) in sorted(self._edge_weights):
            lines.append(f"ew {u} {v} {self._edge_weights[(u, v)]}")
        for (u, v) in sorted(self._edge_penalties):
            lines.append(f"pen {u} {v} {self._edge_penalties[(u, v)]}")
        return "\n".join(lines) + "\n"


def _strip_comment(line):
    pos = line.find("#")
    if pos >= 0:
        line = line[:pos]
    return line.strip()


def parse_graph(text):
    """Parse an instance file into a Graph.

    Format: header ``graph <n> <m>``, then m lines ``e <u> <v>``, then any
    of the optional attribute lines ``vw <v> <w>``, ``sc <v> <c>``,
    ``ew <u> <v> <w>``, ``pen <u> <v> <p>``. ``#`` starts a comment.
    """
    n = None
    m_declared = None
    edges = []
    edge_set = set()
    vw, sc, ew, pen = {}, {}, {}, {}

    def ints(no, parts, k):
        if len(parts) != k + 1:
            raise GraphFormatError(no, f"expected {k} fields after '{parts[0]}'")
        try:
            return [int(p) for p in parts[1:]]
        except ValueError:
            raise GraphFormatError(no, f"non-integer field in {parts!r}") from None

    def check_vertex(no, v):
        if not (1 <= v <= n):
            raise GraphFormatError(no, f"vertex {v} out of range 1..{n}")

    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if n is None:
            if kw != "graph":
                raise GraphFormatError(no, f"expected 'graph <n> <m>' header, got {kw!r}")
            n, m_declared = ints(no, parts, 2)
            if n < 1:
                raise GraphFormatError(no, f"vertex count must be >= 1, got {n}")
            if m_declared < 0:
                raise GraphFormatError(no, f"negative edge count {m_declared}")
            continue
        if kw == "e":
            u, v = ints(no, parts, 2)
            check_vertex(no, u)
            check_vertex(no, v)
            if u == v:
                raise GraphFormatError(no, f"self-loop at vertex {u}")
            e = _norm_edge(u, v)
            if e in edge_set:
                raise GraphFormatError(no, f"duplicate edge ({u},{v})")
            edge_set.add(e)
            edges.append(e)
        elif kw == "vw":
            v, w = ints(no, parts, 2)
            check_vertex(no, v)
            if v in vw:
                raise GraphFormatError(no, f"duplicate vertex weight for {v}")
            vw[v] = w
        elif kw == "sc":
            v, c = ints(no, parts, 2)
            check_vertex(no, v)
            if v in sc:
                raise GraphFormatError(no, f"duplicate selection cost for {v}")
            sc[v] = c
        elif kw in ("ew", "pen"):
            u, v, w = ints(no, parts, 3)
            check_vertex(no, u)
            check_vertex(no, v)
            e = _norm_edge(u, v)
            if e not in edge_set:
                raise GraphFormatError(no, f"attribute on missing edge ({u},{v})")
            target = ew if kw == "ew" else pen
            if e in target:
                raise GraphFormatError(no, f"duplicate {kw} for edge ({u},{v})")
            target[e] = w
        else:
            raise GraphFormatError(no, f"unknown directive {kw!r}")

    if n is None:
        raise GraphFormatError(1, "empty instance: missing 'graph' header")
    if len(edges) != m_declared:
        raise GraphFormatError(1, f"header declares {m_declared} edges, found {len(edges)}")
    return Graph(n, edges, vertex_weights=vw, selection_costs=sc,
                 edge_weights=ew, edge_penalties=pen)


class PartialGrid:
    """An m x n grid in which some cells and some edges may be missing.

    Cells are addressed 0-based as (row, col); present is the set of cells
    that exist.  removed_edges holds pairs of orthogonally adjacent present
    cells whose joining edge was deleted.
    """

    def __init__(self, rows, cols, present, removed_edges=()):
        if rows < 1 or cols < 1:
            raise GraphError(f"grid dimensions must be >= 1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.present = frozenset(present)
        if not self.present:
            raise GraphError("grid has no present cells")
        for (r, c) in self.present:
            if not (0 <= r < rows and 0 <= c < cols):
                raise GraphError(f"cell ({r},{c}) outside {rows}x{cols} grid")
        norm = set()
        for a, b in removed_edges:
            if a not in self.present or b not in self.present:
                raise GraphError(f"removed edge {a}-{b} touches a missing cell")
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                raise GraphError(f"removed edge {a}-{b} joins non-adjacent cells")
            norm.add((a, b) if a < b else (b, a))
        self.removed_edges = frozenset(norm)

    def has_cell(self, r, c):
        return (r, c) in self.present

    def transposed(self):
        return PartialGrid(
            self.cols, self.rows,
            {(c, r) for (r, c) in self.present},
            {((a[1], a[0]), (b[1], b[0])) for (a, b) in self.removed_edges})

    def cells_row_major(self):
        return sorted(self.present)

    def __eq__(self, other):
        if not isinstance(other, PartialGrid):
            return NotImplemented
        return (self.rows, self.cols, self.present, self.removed_edges) == \
               (other.rows, other.cols, other.present, other.removed_edges)

    def __repr__(self):
        return f"PartialGrid({self.rows}x{self.cols}, {len(self.present)} cells)"


def grid_to_graph(grid):
    """Induced graph of a partial grid.

    Vertices are numbered row-major over present cells (1-based); edges join
    orthogonally adjacent present cells unless explicitly removed.  The
    resulting Graph carries cell coordinates in .coords.
    """
    cells = grid.cells_row_major()
    vid = {cell: i for i, cell in enumerate(cells, start=1)}
    edges = []
    for (r, c) in cells:
        for (r2, c2) in ((r, c + 1), (r + 1, c)):
            if (r2, c2) in grid.present:
                e = ((r, c), (r2, c2))
                if e not in grid.removed_edges:
                    edges.append((vid[(r, c)], vid[(r2, c2)]))
    return Graph(len(cells), edges, coords={i: cell for cell, i in vid.items()})


def parse_grid(text):
    """Parse a grid file: header ``grid <m> <n>``, m rows of ``.``/``X``,
    optional ``removeedge <r1> <c1> <r2> <c2>`` lines (1-based)."""
    rows = cols = None
    grid_lines = []
    removed = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        parts = line.split()
        if rows is None:
            if parts[0] != "grid":
                raise GraphFormatError(no, f"expected 'grid <m> <n>' header, got {parts[0]!r}")
            if len(parts) != 3:
                raise GraphFormatError(no, "expected 'grid <m> <n>'")
            try:
                rows, cols = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(no, "non-integer grid dimensions") from None
            if rows < 1 or cols < 1:
                raise GraphFormatError(no, f"grid dimensions must be >= 1, got {rows}x{cols}")
            continue
        if parts[0] == "removeedge":
            if len(parts) != 5:
                raise GraphFormatError(no, "expected 'removeedge <r1> <c1> <r2> <c2>'")
            try:
                r1, c1, r2, c2 = (int(p) for p in parts[1:])
            except ValueError:
                raise GraphFormatError(no, "non-integer removeedge coordinates") from None
            removed.append((no, (r1 - 1, c1 - 1), (r2 - 1, c2 - 1)))
        else:
            if len(grid_lines) >= rows:
                raise GraphFormatError(no, "more grid rows than declared")
            if len(line) != cols:
                raise GraphFormatError(no, f"row has {len(line)} cells, expected {cols}")
            for ch in line:
                if ch not in ".X":
                    raise GraphFormatError(no, f"bad cell character {ch!r}")
            grid_lines.append(line)

    if rows is None:
        raise GraphFormatError(1, "empty instance: missing 'grid' header")
    if len(grid_lines) != rows:
        raise GraphFormatError(1, f"header declares {rows} rows, found {len(grid_lines)}")
    present = {(r, c) for r, line in enumerate(grid_lines)
               for c, ch in enumerate(line) if ch == "."}
    if not present:
        raise GraphFormatError(1, "grid has no present cells")
    removed_edges = []
    for no, a, b in removed:
        if a not in present or b not in present:
            raise GraphFormatError(no, f"removeedge touches a missing cell")
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            raise GraphFormatError(no, "removeedge joins non-adjacent cells")
        removed_edges.append((a, b))
    return PartialGrid(rows, cols, present, removed_edges)


def serialize_grid(grid):
    lines = [f"grid {grid.rows} {grid.cols}"]
    for r in range(grid.rows):
        lines.append("".join("." if (r, c) in grid.present else "X"
                             for c in range(grid.cols)))
    for a, b in sorted(grid.removed_edges):
        lines.append(f"removeedge {a[0] + 1} {a[1] + 1} {b[0] + 1} {b[1] + 1}")
    return "\n".join(lines) + "\n"
