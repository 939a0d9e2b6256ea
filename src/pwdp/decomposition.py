"""Path decompositions: validation, nice form, and two constructions.

A path decomposition is a sequence of bags (vertex sets) such that every
vertex appears in a contiguous nonempty run of bags and every edge has
both ends together in some bag.  The nice form refines this into single
introduce/forget events, which is what the solver consumes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DecompositionError, GraphFormatError, SizeLimitError
from .graph import Graph, PartialGrid, grid_to_graph


def _check_cover(graph: Graph, first, end, gaps=()) -> None:
    """The one coverage rule for both forms, in O(n + m): v sits in the
    bags at positions first[v] <= t < end[v] (first in order of appearance;
    gaps lists broken runs) and an edge is covered when its ends' runs
    overlap.  Faults are reported in the order of the checks below."""
    for v, t in first.items():
        if not 1 <= v <= graph.n:
            raise DecompositionError(
                "bad-structure", f"bag {t + 1} holds unknown vertex {v}")
    if len(first) < graph.n:
        v = next(v for v in graph.vertices() if v not in first)
        raise DecompositionError("missing-vertex", f"vertex {v} is in no bag")
    if gaps:
        v = min(gaps, key=lambda u: (first[u], u))
        raise DecompositionError(
            "non-contiguous-vertex",
            f"vertex {v} occurs in bags {first[v] + 1} and {end[v]} "
            f"but not throughout")
    for u, v in graph.edges:
        if first[u] >= end[v] or first[v] >= end[u]:
            raise DecompositionError(
                "uncovered-edge", f"edge ({u},{v}) shares no bag")


class PathDecomposition:
    """Plain sequence-of-bags form."""

    def __init__(self, bags: Sequence[Sequence[int]]):
        if not bags:
            raise DecompositionError("bad-structure", "no bags")
        self.bags = tuple(tuple(sorted(set(b))) for b in bags)

    @property
    def p(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def validate(self, graph: Graph) -> None:
        """Raise DecompositionError unless this decomposes graph."""
        first, end, gaps = {}, {}, []
        for t, bag in enumerate(self.bags):
            for v in bag:
                if v not in first:
                    first[v] = t
                elif end[v] != t:
                    gaps.append(v)
                end[v] = t + 1
        _check_cover(graph, first, end, gaps)

    def __eq__(self, other):
        if not isinstance(other, PathDecomposition):
            return NotImplemented
        return self.bags == other.bags

    def __repr__(self):
        return f"PathDecomposition(p={self.p}, width={self.width})"

    def serialize(self) -> str:
        lines = [f"pd {self.p}"]
        for bag in self.bags:
            lines.append(("bag " + " ".join(str(v) for v in bag)).rstrip())
        return "\n".join(lines) + "\n"


INTRODUCE = "introduce"
FORGET = "forget"


@dataclass(frozen=True)
class NiceNode:
    kind: str            # INTRODUCE or FORGET
    vertex: int
    order: Tuple[int, ...]  # bag content after the event, introduction order


class NicePathDecomposition:
    """Event form: one vertex introduced or forgotten per node.

    Node orders list the bag after the event; an introduced vertex sits
    last, and a forget preserves the relative order of the survivors.
    The first node introduces a vertex and the final bag is empty, so a
    graph on n vertices always yields exactly 2n nodes.
    """

    from_grid_sweep = False  # set by the grid sweep builder

    def __init__(self, nodes: Sequence[NiceNode]):
        if not nodes:
            raise DecompositionError("bad-structure", "no nodes")
        self.nodes = tuple(nodes)
        self._check()

    def _check(self):
        prev: Tuple[int, ...] = ()
        introduced = set()
        for i, node in enumerate(self.nodes, start=1):
            if node.kind == INTRODUCE:
                if node.vertex in introduced:
                    raise DecompositionError(
                        "bad-structure", f"vertex {node.vertex} introduced twice")
                if node.order != prev + (node.vertex,):
                    raise DecompositionError(
                        "bad-structure", f"node {i} order does not append {node.vertex}")
                introduced.add(node.vertex)
            elif node.kind == FORGET:
                if node.vertex not in prev:
                    raise DecompositionError(
                        "bad-structure", f"node {i} forgets absent vertex {node.vertex}")
                expect = tuple(v for v in prev if v != node.vertex)
                if node.order != expect:
                    raise DecompositionError(
                        "bad-structure", f"node {i} reorders survivors")
            else:
                raise DecompositionError("bad-structure", f"unknown kind {node.kind!r}")
            prev = node.order
        # an empty final bag means every introduced vertex was forgotten,
        # and no vertex returns, so each is forgotten exactly once
        if prev:
            raise DecompositionError("bad-structure", "final bag not empty")

    @property
    def p(self) -> int:
        return len(self.nodes)

    @property
    def width(self) -> int:
        return max(len(node.order) for node in self.nodes) - 1

    def to_path_decomposition(self) -> PathDecomposition:
        return PathDecomposition([node.order for node in self.nodes
                                  if node.order] or [()])

    def validate(self, graph: Graph) -> None:
        """Like PathDecomposition.validate; runs are contiguous by
        construction, and 2n nodes name n vertices."""
        if self.p != 2 * graph.n:
            raise DecompositionError(
                "bad-structure", f"{self.p} nodes for {graph.n} vertices")
        first, end = {}, {}
        for i, node in enumerate(self.nodes):
            (first if node.kind == INTRODUCE else end)[node.vertex] = i
        _check_cover(graph, first, end)


def nicify(pd: PathDecomposition, graph: Optional[Graph] = None) -> NicePathDecomposition:
    """Refine a bag sequence into introduce/forget events.

    Between consecutive bags all forgets happen before all introduces,
    each group in ascending vertex order.  With a graph supplied the bag
    form is validated first (the same O(n + m) check as validate-decomp
    and run_dp); otherwise a vertex introduced again after its forget
    raises non-contiguous-vertex.
    """
    if graph is not None:
        pd.validate(graph)

    nodes: List[NiceNode] = []
    order: List[int] = []
    gone = {}
    prev = set()
    for t, bag in enumerate(pd.bags + ((),)):
        cur = set(bag)
        for v in sorted(prev - cur):
            order.remove(v)
            gone[v] = t
            nodes.append(NiceNode(FORGET, v, tuple(order)))
        for v in sorted(cur - prev):
            if v in gone:
                raise DecompositionError(
                    "non-contiguous-vertex",
                    f"vertex {v} missing from bag {gone[v] + 1} inside its run")
            order.append(v)
            nodes.append(NiceNode(INTRODUCE, v, tuple(order)))
        prev = cur
    return NicePathDecomposition(nodes)


def parse_decomposition(text: str) -> PathDecomposition:
    """Parse ``pd <p>`` followed by p ``bag v1 v2 ...`` lines."""
    p = None
    bags = []
    for no, raw in enumerate(text.splitlines(), start=1):
        pos = raw.find("#")
        line = (raw[:pos] if pos >= 0 else raw).strip()
        if not line:
            continue
        parts = line.split()
        if p is None:
            if parts[0] != "pd" or len(parts) != 2:
                raise GraphFormatError(no, "expected 'pd <p>' header")
            try:
                p = int(parts[1])
            except ValueError:
                raise GraphFormatError(no, "non-integer bag count") from None
            if p < 1:
                raise GraphFormatError(no, f"bag count must be >= 1, got {p}")
            continue
        if parts[0] != "bag":
            raise GraphFormatError(no, f"expected 'bag ...', got {parts[0]!r}")
        try:
            bags.append([int(x) for x in parts[1:]])
        except ValueError:
            raise GraphFormatError(no, "non-integer vertex in bag") from None
    if p is None:
        raise GraphFormatError(1, "empty input: missing 'pd' header")
    if len(bags) != p:
        raise GraphFormatError(1, f"header declares {p} bags, found {len(bags)}")
    return PathDecomposition(bags)


def _sweep_nice(order_ids: Sequence[int], last_pos) -> NicePathDecomposition:
    """Build events from a vertex order and a forget schedule.

    last_pos[i] is the sweep position after whose introduce vertex
    order_ids[i] may be forgotten.
    """
    by_pos = {}
    for i, lp in enumerate(last_pos):
        by_pos.setdefault(lp, []).append(i)
    nodes = []
    order: List[int] = []
    for i, vid in enumerate(order_ids):
        order.append(vid)
        nodes.append(NiceNode(INTRODUCE, vid, tuple(order)))
        for k in sorted(by_pos.get(i, [])):
            order.remove(order_ids[k])
            nodes.append(NiceNode(FORGET, order_ids[k], tuple(order)))
    return NicePathDecomposition(nodes)


def grid_sweep_decomposition(grid: PartialGrid, transpose="auto", widen=False):
    """Sliding-window decomposition of a partial grid's graph.

    Cells are introduced row-major and forgotten once no later cell needs
    them, giving width at most the row length.  With transpose 'auto' the
    sweep runs along the shorter dimension when that helps; bags always
    use the vertex numbering of the untransposed grid.  widen keeps each
    cell in its bag until the end of its own line and, when present, until
    the cell directly below it is introduced; sweeps that read per-column
    state or look back along a row rely on that window.

    Returns (nice_decomposition, transposed).
    """
    if transpose == "auto":
        do_t = grid.rows < grid.cols
    elif transpose in (True, False):
        do_t = transpose
    else:
        raise ValueError(f"transpose must be 'auto', True or False, got {transpose!r}")

    cells = grid.cells_row_major()
    vid = {cell: i for i, cell in enumerate(cells, start=1)}
    if do_t:
        sweep = sorted(cells, key=lambda rc: (rc[1], rc[0]))
    else:
        sweep = cells
    pos = {cell: i for i, cell in enumerate(sweep)}

    def below(cell):
        r, c = cell
        return (r, c + 1) if do_t else (r + 1, c)

    def line(cell):
        return cell[1] if do_t else cell[0]

    line_end = {}
    for cell in sweep:
        line_end[line(cell)] = max(line_end.get(line(cell), 0), pos[cell])

    last = []
    for i, cell in enumerate(sweep):
        r, c = cell
        lp = i
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in grid.present and pos[nb] > i:
                e = (cell, nb) if cell < nb else (nb, cell)
                if e not in grid.removed_edges:
                    lp = max(lp, pos[nb])
        if widen:
            lp = max(lp, line_end[line(cell)])
            b = below(cell)
            if b in grid.present:
                lp = max(lp, pos[b])
        last.append(lp)
    npd = _sweep_nice([vid[c] for c in sweep], last)
    npd.from_grid_sweep = True
    return npd, do_t


def exact_pathwidth_decomposition(graph: Graph, max_n: int = 12):
    """Optimal-width nice decomposition by vertex-separation search.

    Exhaustive over vertex subsets, so only small graphs are accepted.
    Among all optimal vertex orders the lexicographically smallest one is
    produced, which pins down the result for tests.
    """
    n = graph.n
    if n > max_n:
        raise SizeLimitError(f"exact decomposition limited to n <= {max_n}, got {n}")

    full = (1 << n) - 1
    nbr_mask = [0] * (n + 1)
    for u, v in graph.edges:
        nbr_mask[u] |= 1 << (v - 1)
        nbr_mask[v] |= 1 << (u - 1)

    def boundary_size(mask):
        count = 0
        out = full & ~mask
        m = mask
        while m:
            low = m & -m
            v = low.bit_length()
            if nbr_mask[v] & out:
                count += 1
            m ^= low
        return count

    bsize = [0] * (full + 1)
    for mask in range(1, full + 1):
        bsize[mask] = boundary_size(mask)

    g = [0] * (full + 1)
    for mask in range(1, full + 1):
        best = min(g[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
        g[mask] = max(bsize[mask], best)
    vs = g[full]

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def reach(mask):
        if mask == full:
            return True
        for i in range(n):
            if not mask >> i & 1:
                nxt = mask | 1 << i
                if bsize[nxt] <= vs and reach(nxt):
                    return True
        return False

    order = []
    mask = 0
    while mask != full:
        for i in range(n):
            if not mask >> i & 1:
                nxt = mask | 1 << i
                if bsize[nxt] <= vs and reach(nxt):
                    order.append(i + 1)
                    mask = nxt
                    break

    # forget v once no unplaced vertex neighbors it
    posn = {v: i for i, v in enumerate(order)}
    last = []
    for i, v in enumerate(order):
        lp = i
        for u in graph.neighbors(v):
            if posn[u] > i:
                lp = max(lp, posn[u])
        last.append(lp)
    npd = _sweep_nice(order, last)
    return npd, vs
