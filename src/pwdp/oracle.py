"""Brute-force reference solvers.

Every solver here finds the exact optimum by exhaustive search over a
small instance: enumeration, or for path and cycle cover a DP over
vertex subsets.  None of them look at path decompositions or share the
DP machinery of the main solvers; they exist to cross-check results and
to pin expected values in tests.  oracle_solve checks parameters by
building the problem's plugin, as pwdp solve does, so both reject the
same cases with the same error; the solvers below check none themselves.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import SizeLimitError
from .graph import Graph, PartialGrid, grid_to_graph
from .plugins import make_plugin

MAX_N = 12


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    objective: object = None      # int or Fraction
    certificate: object = None


def _check_size(n):
    if n > MAX_N:
        raise SizeLimitError(f"oracle limited to n <= {MAX_N}, got {n}")


def oracle_coloring(g: Graph, C: int) -> OracleResult:
    """Proper C-coloring by backtracking."""
    _check_size(g.n)
    colors = {}

    def rec(v):
        if v > g.n:
            return True
        for c in range(1, C + 1):
            if all(colors.get(u) != c for u in g.neighbors(v)):
                colors[v] = c
                if rec(v + 1):
                    return True
                del colors[v]
        return False

    if rec(1):
        return OracleResult(True, 1, dict(colors))
    return OracleResult(False)


def oracle_chromatic(g: Graph) -> OracleResult:
    _check_size(g.n)
    for C in range(1, g.n + 1):
        r = oracle_coloring(g, C)
        if r.feasible:
            return OracleResult(True, C, r.certificate)
    raise AssertionError("n colors always suffice")


def oracle_penalty_coloring(g: Graph, C: int, mode: str = "sum") -> OracleResult:
    """Best over canonical colorings; penalty paid on monochromatic edges."""
    _check_size(g.n)
    best = None
    best_col = None
    cur = [0] * (g.n + 1)

    def cost():
        if mode == "sum":
            return sum(g.edge_penalty(u, v) for u, v in g.edges
                       if cur[u] == cur[v])
        worst = 0
        for u, v in g.edges:
            if cur[u] == cur[v]:
                worst = max(worst, g.edge_penalty(u, v))
        return worst

    def rec(v, used):
        nonlocal best, best_col
        if v > g.n:
            c = cost()
            if best is None or c < best:
                best = c
                best_col = cur[1:g.n + 1]
            return
        for c in range(1, min(C, used + 1) + 1):
            cur[v] = c
            rec(v + 1, max(used, c))

    rec(1, 0)
    return OracleResult(True, best, {v: best_col[v - 1] for v in g.vertices()})


def oracle_path_cover(g: Graph) -> OracleResult:
    """Minimum paths: one more than the fewest breaks (consecutive
    non-adjacent vertices) over all vertex orders, by a DP over (vertices
    placed, last vertex) in O(2^n n^2).  The certificate is the edges of
    the lexicographically first optimal order."""
    _check_size(g.n)
    n, full = g.n, (1 << g.n) - 1
    near = [sum(1 << (u - 1) for u in g.neighbors(v)) for v in g.vertices()]
    # rest[placed][last]: fewest breaks among the vertices not placed,
    # after an order of those placed that ends at last
    rest = [[0] * n for _ in range(full + 1)]

    def nexts(placed, last):
        return [((not near[last] >> u & 1) + rest[placed | 1 << u][u], u)
                for u in range(n) if not placed >> u & 1]

    for placed in range(full - 1, 0, -1):
        for last in range(n):
            if placed >> last & 1:
                rest[placed][last] = min(nexts(placed, last))[0]
    breaks, first = min((rest[1 << v][v], v) for v in range(n))
    order, placed = [first], 1 << first
    while placed != full:
        order.append(min(nexts(placed, order[-1]))[1])
        placed |= 1 << order[-1]
    edges = [(a + 1, b + 1) for a, b in zip(order, order[1:])
             if near[a] >> b & 1]
    return OracleResult(True, breaks + 1, edges)


def oracle_cycle_cover(g: Graph) -> OracleResult:
    """Minimum number of vertex-disjoint cycles (length >= 3) covering V,
    by two DPs over vertex subsets.  ends[s] holds the vertices of s where
    a path from s's lowest vertex through all of s can end (Held-Karp), so
    s is a cycle block when it has 3 or more vertices and one such end is
    adjacent to its lowest.  cover(s) is then the fewest blocks covering
    s, each holding the lowest vertex not yet covered, and the block
    taken first.  The certificate is the edges of the chosen blocks."""
    _check_size(g.n)
    n, full = g.n, (1 << g.n) - 1
    near = [sum(1 << (u - 1) for u in g.neighbors(v)) for v in g.vertices()]
    ends = [0] * (full + 1)
    blocks = [[] for _ in range(n)]   # the cycle blocks by lowest vertex
    for s in range(1, full + 1):
        low = (s & -s).bit_length() - 1
        if s == 1 << low:
            ends[s] = s
            continue
        for v in range(low + 1, n):
            if s >> v & 1 and ends[s ^ 1 << v] & near[v]:
                ends[s] |= 1 << v
        if ends[s] & near[low] and bin(s).count("1") >= 3:
            blocks[low].append(s)
    best = {0: (0, 0)}

    def cover(s):
        if s not in best:
            low = (s & -s).bit_length() - 1
            best[s] = min(((cover(s ^ b)[0] + 1, b) for b in blocks[low]
                           if b & s == b), default=(n + 1, 0))
        return best[s]

    count = cover(full)[0]
    if count > n:
        return OracleResult(False)
    edges, s = [], full
    while s:
        block = cover(s)[1]
        s ^= block
        # walk a Hamiltonian path of the block back from an end next to
        # its lowest vertex
        first = (block & -block).bit_length() - 1
        cycle, v = [first], first
        while block != 1 << first:
            v = (ends[block] & near[v]).bit_length() - 1
            cycle.append(v)
            block ^= 1 << v
        edges += [(min(a, b) + 1, max(a, b) + 1)
                  for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    return OracleResult(True, count, edges)


def oracle_k_replica(g: Graph, k: int) -> OracleResult:
    _check_size(g.n)
    best = None
    best_set = None
    for sel in itertools.combinations(range(1, g.n + 1), k):
        ss = set(sel)
        cost = sum(g.selection_cost(v) for v in sel)
        cost += sum(g.edge_penalty(u, v) for u, v in g.edges
                    if u in ss and v in ss)
        if best is None or cost < best:
            best = cost
            best_set = sorted(sel)
    return OracleResult(True, best, best_set)


def oracle_max_leaf_tree(g: Graph) -> OracleResult:
    """Best spanning tree by trying all (n-1)-edge subsets."""
    _check_size(g.n)
    best = None
    best_tree = None
    for subset in itertools.combinations(g.edges, g.n - 1):
        parent = list(range(g.n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if not ok:
            continue
        deg = {v: 0 for v in g.vertices()}
        for u, v in subset:
            deg[u] += 1
            deg[v] += 1
        w = sum(g.vertex_weight(v) for v in g.vertices() if deg[v] == 1)
        if best is None or w > best:
            best = w
            best_tree = list(subset)
    if best is None:
        return OracleResult(False)
    return OracleResult(True, best, best_tree)


def oracle_min_maximal_matching(g: Graph) -> OracleResult:
    """Enumerate matchings, keep maximal ones, take minimum weight."""
    _check_size(g.n)
    edges = list(g.edges)
    best = [None, None]

    def rec(i, matched, picked, weight):
        if i == len(edges):
            for u, v in edges:
                if u not in matched and v not in matched:
                    return  # not maximal
            if best[0] is None or weight < best[0]:
                best[0] = weight
                best[1] = list(picked)
            return
        u, v = edges[i]
        if u not in matched and v not in matched:
            picked.append((u, v))
            rec(i + 1, matched | {u, v}, picked, weight + g.edge_weight(u, v))
            picked.pop()
        rec(i + 1, matched, picked, weight)

    rec(0, frozenset(), [], 0)
    return OracleResult(True, best[0], best[1])


def oracle_avg_path(g: Graph, L: int, U: int) -> OracleResult:
    """DFS over all simple paths, tracking best average weight exactly."""
    _check_size(g.n)
    best = [None, None]

    def consider(path, total):
        if L <= len(path) <= U:
            avg = Fraction(total, len(path))
            if best[0] is None or avg > best[0]:
                best[0] = avg
                best[1] = list(path)

    def dfs(path, on, total):
        consider(path, total)
        if len(path) == U:
            return
        for u in g.neighbors(path[-1]):
            if u not in on:
                path.append(u)
                on.add(u)
                dfs(path, on, total + g.vertex_weight(u))
                on.remove(u)
                path.pop()

    for s in g.vertices():
        dfs([s], {s}, g.vertex_weight(s))
    if best[0] is None:
        return OracleResult(False)
    return OracleResult(True, best[0], best[1])


def oracle_rect_cover(grid: PartialGrid, pieces) -> OracleResult:
    """Max pieces by deciding cells row-major: skip or anchor a piece."""
    cells = grid.cells_row_major()
    _check_size(len(cells))
    best = [0, []]

    def rec(idx, covered, skipped, placed):
        while idx < len(cells) and (cells[idx] in covered or cells[idx] in skipped):
            idx += 1
        if idx == len(cells):
            if len(placed) > best[0]:
                best[0] = len(placed)
                best[1] = list(placed)
            return
        cell = cells[idx]
        r, c = cell
        for t, (r_p, c_p) in enumerate(pieces, start=1):
            area = [(r + dr, c + dc) for dr in range(r_p) for dc in range(c_p)]
            if all(q in grid.present and q not in covered and q not in skipped
                   for q in area):
                placed.append((t, r, c))
                rec(idx + 1, covered | set(area), skipped, placed)
                placed.pop()
        rec(idx + 1, covered, skipped | {cell}, placed)

    rec(0, frozenset(), frozenset(), [])
    return OracleResult(True, best[0], best[1])


def oracle_mwis(g: Graph) -> OracleResult:
    _check_size(g.n)
    best = None
    best_set = None
    for mask in range(1 << g.n):
        sel = [v for v in g.vertices() if mask >> (v - 1) & 1]
        ss = set(sel)
        if any(u in ss and v in ss for u, v in g.edges):
            continue
        w = sum(g.vertex_weight(v) for v in sel)
        if best is None or w > best:
            best = w
            best_set = sel
    return OracleResult(True, best, best_set)


_ORACLES = {
    "coloring": lambda g, p: oracle_coloring(g, p.C),
    "coloring-canonical": lambda g, p: oracle_coloring(g, p.C),
    "penalty-coloring": lambda g, p: oracle_penalty_coloring(g, p.C, p.mode),
    "path-cover": lambda g, p: oracle_path_cover(g),
    "cycle-cover": lambda g, p: oracle_cycle_cover(g),
    "k-replica": lambda g, p: oracle_k_replica(g, p.k),
    "max-leaf-tree": lambda g, p: oracle_max_leaf_tree(g),
    "min-maximal-matching": lambda g, p: oracle_min_maximal_matching(g),
    "avg-path": lambda g, p: oracle_avg_path(g, p.L, p.U),
    "rect-cover": lambda grid, p: oracle_rect_cover(grid, p.pieces),
    "mwis": lambda g, p: oracle_mwis(g),
}


def oracle_solve(name: str, instance, params: Optional[dict] = None) -> OracleResult:
    """Dispatch by plugin name; instance is a Graph (PartialGrid for
    rect-cover).  make_plugin checks name and params first and raises
    the plugin's own error, a ParameterError for a bad parameter."""
    params = params or {}
    if name == "rect-cover":
        plugin = make_plugin(name, grid_to_graph(instance),
                             **dict(params, grid=instance))
    else:
        plugin = make_plugin(name, instance, **params)
    return _ORACLES[name](instance, plugin)
