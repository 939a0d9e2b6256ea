import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pwdp

from pwdp.errors import NotApplicableError, ParameterError, SizeLimitError
from pwdp.graph import Graph, PartialGrid
from pwdp.oracle import (
    oracle_avg_path, oracle_chromatic, oracle_coloring, oracle_cycle_cover,
    oracle_k_replica, oracle_max_leaf_tree, oracle_min_maximal_matching,
    oracle_mwis, oracle_path_cover, oracle_penalty_coloring,
    oracle_rect_cover, oracle_solve,
)


def path_graph(n, **kw):
    return Graph(n, [(i, i + 1) for i in range(1, n)], **kw)


def cycle_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def petersen():
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return Graph(10, outer + spokes + inner)


def full_grid(rows, cols):
    return PartialGrid(rows, cols, {(r, c) for r in range(rows)
                                    for c in range(cols)})


def test_coloring_triangle():
    k3 = complete_graph(3)
    assert oracle_coloring(k3, 3).feasible
    assert not oracle_coloring(k3, 2).feasible


def test_coloring_certificate_is_proper():
    g = petersen()
    r = oracle_coloring(g, 3)
    assert r.feasible
    col = r.certificate
    assert all(col[u] != col[v] for u, v in g.edges)
    assert all(1 <= col[v] <= 3 for v in g.vertices())


def test_chromatic_numbers():
    assert oracle_chromatic(Graph(3, [])).objective == 1
    assert oracle_chromatic(complete_graph(4)).objective == 4
    assert oracle_chromatic(cycle_graph(5)).objective == 3


def test_penalty_coloring_triangle():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)],
              edge_penalties={(1, 2): 1, (2, 3): 2, (1, 3): 3})
    assert oracle_penalty_coloring(g, 2, "sum").objective == 1
    assert oracle_penalty_coloring(g, 2, "max").objective == 1


def test_penalty_zero_when_colorable():
    g = cycle_graph(5)
    assert oracle_penalty_coloring(g, 3, "sum").objective == 0
    assert oracle_penalty_coloring(g, 3, "max").objective == 0


def test_path_cover_values():
    assert oracle_path_cover(path_graph(4)).objective == 1
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert oracle_path_cover(star).objective == 2
    assert oracle_path_cover(Graph(3, [])).objective == 3


def test_path_cover_certificate_covers():
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    r = oracle_path_cover(star)
    deg = {v: 0 for v in star.vertices()}
    for u, v in r.certificate:
        deg[u] += 1
        deg[v] += 1
    assert all(d <= 2 for d in deg.values())
    # paths = vertices - edges used
    assert star.n - len(r.certificate) == r.objective


def first_best_order_edges(g):
    """The edges of the lexicographically first vertex order with the
    fewest breaks, by trying every order."""
    def breaks(order):
        return sum(not g.adjacent(a, b) for a, b in zip(order, order[1:]))

    best = min(itertools.permutations(g.vertices()), key=breaks)
    return breaks(best) + 1, [(a, b) for a, b in zip(best, best[1:])
                              if g.adjacent(a, b)]


def test_path_cover_matches_every_order_search():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        g = Graph(n, [e for e in pairs if rng.random() < 0.4])
        r = oracle_path_cover(g)
        assert (r.objective, r.certificate) == first_best_order_edges(g)


HOLED = """
import sys
from pwdp.graph import grid_to_graph, parse_grid
from pwdp.oracle import oracle_path_cover
r = oracle_path_cover(grid_to_graph(parse_grid(sys.stdin.read())))
print(r.objective, len(r.certificate))
"""


def test_path_cover_without_hamiltonian_path_finishes():
    # 11 cells, no Hamiltonian path: trying every vertex order would
    # take hours, so a hang fails on the timeout, not the whole suite
    grid = "grid 3 4\n....\n.X..\n....\nremoveedge 1 1 1 2\n"
    src = str(Path(pwdp.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", HOLED], input=grid,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "9"]


def test_cycle_cover_values():
    assert oracle_cycle_cover(complete_graph(3)).objective == 1
    assert not oracle_cycle_cover(path_graph(3)).feasible
    two_tri = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert oracle_cycle_cover(two_tri).objective == 2


def test_cycle_cover_c6():
    r = oracle_cycle_cover(cycle_graph(6))
    assert r.objective == 1
    assert len(r.certificate) == 6


def test_k_replica_values():
    g = Graph(2, [(1, 2)], edge_penalties={(1, 2): 5})
    assert oracle_k_replica(g, 2).objective == 7
    p3 = path_graph(3, edge_penalties={(1, 2): 10, (2, 3): 10})
    assert oracle_k_replica(p3, 2).objective == 2
    assert sorted(oracle_k_replica(p3, 2).certificate) == [1, 3]
    g2 = Graph(3, [], selection_costs={1: 5, 2: 3, 3: 9})
    assert oracle_k_replica(g2, 1).objective == 3


def test_max_leaf_tree_values():
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert oracle_max_leaf_tree(star).objective == 3
    assert oracle_max_leaf_tree(path_graph(3)).objective == 2
    assert oracle_max_leaf_tree(complete_graph(4)).objective == 3


def test_max_leaf_tree_disconnected_infeasible():
    g = Graph(4, [(1, 2), (3, 4)])
    assert not oracle_max_leaf_tree(g).feasible


def test_max_leaf_tree_weighted():
    g = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)],
              vertex_weights={1: 1, 2: 5, 3: 5, 4: 1})
    r = oracle_max_leaf_tree(g)
    assert r.objective == 11  # star at 1 keeps 2,3,4 as leaves


def test_min_maximal_matching_values():
    g1 = Graph(2, [(1, 2)], edge_weights={(1, 2): 5})
    assert oracle_min_maximal_matching(g1).objective == 5
    p3 = path_graph(3, edge_weights={(1, 2): 1, (2, 3): 2})
    assert oracle_min_maximal_matching(p3).objective == 1
    p4 = path_graph(4, edge_weights={(1, 2): 1, (2, 3): 5, (3, 4): 1})
    assert oracle_min_maximal_matching(p4).objective == 2


def test_min_maximal_matching_empty_graph():
    assert oracle_min_maximal_matching(Graph(3, [])).objective == 0


def test_avg_path_values():
    p3 = path_graph(3, vertex_weights={1: 1, 2: 10, 3: 1})
    assert oracle_avg_path(p3, 1, 3).objective == Fraction(10)
    assert oracle_avg_path(p3, 2, 2).objective == Fraction(11, 2)
    g = Graph(3, [], vertex_weights={1: 4, 2: 9, 3: 2})
    assert oracle_avg_path(g, 1, 1).objective == Fraction(9)


def test_avg_path_infeasible_when_too_short():
    assert not oracle_avg_path(Graph(3, []), 2, 3).feasible


def test_avg_path_certificate():
    p3 = path_graph(3, vertex_weights={1: 1, 2: 10, 3: 1})
    r = oracle_avg_path(p3, 2, 2)
    assert len(r.certificate) == 2
    assert p3.adjacent(*r.certificate)


def test_rect_cover_values():
    assert oracle_rect_cover(full_grid(2, 2), [(1, 1)]).objective == 4
    assert oracle_rect_cover(full_grid(2, 3), [(2, 2)]).objective == 1
    holed = PartialGrid(2, 2, {(0, 0), (0, 1), (1, 0)})
    assert oracle_rect_cover(holed, [(2, 2)]).objective == 0


def test_rect_cover_mixed_pieces():
    # maximizing count, so six 1x1 beat any placement using the 2x2
    r = oracle_rect_cover(full_grid(2, 3), [(2, 2), (1, 1)])
    assert r.objective == 6
    r2 = oracle_rect_cover(full_grid(2, 3), [(2, 2), (2, 1)])
    assert r2.objective == 3  # three standing dominoes


def test_mwis_values():
    assert oracle_mwis(Graph(1, [], vertex_weights={1: 7})).objective == 7
    assert oracle_mwis(Graph(2, [(1, 2)], vertex_weights={1: 3, 2: 4})).objective == 4
    assert oracle_mwis(cycle_graph(5)).objective == 2
    g = Graph(3, [], vertex_weights={1: 2, 2: 3, 3: 4})
    assert oracle_mwis(g).objective == 9


def test_permutation_invariance():
    import random
    rng = random.Random(7)
    g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)])
    perm = list(range(1, 7))
    rng.shuffle(perm)
    relabel = {v: perm[v - 1] for v in g.vertices()}
    g2 = Graph(6, [(relabel[u], relabel[v]) for u, v in g.edges])
    assert oracle_path_cover(g).objective == oracle_path_cover(g2).objective
    assert oracle_mwis(g).objective == oracle_mwis(g2).objective
    assert (oracle_min_maximal_matching(g).objective ==
            oracle_min_maximal_matching(g2).objective)


def test_size_cap():
    with pytest.raises(SizeLimitError):
        oracle_mwis(Graph(13, []))


def test_dispatcher():
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert oracle_solve("path-cover", star).objective == 2
    k3 = complete_graph(3)
    assert not oracle_solve("coloring", k3, {"C": 2}).feasible
    assert oracle_solve("rect-cover", full_grid(2, 3),
                        {"pieces": [(2, 2)]}).objective == 1
    with pytest.raises(ValueError):
        oracle_solve("nope", k3)


@pytest.mark.parametrize("name, instance, params, error", [
    ("coloring", path_graph(2), {"C": 0}, ParameterError),
    ("coloring-canonical", path_graph(2), {}, ParameterError),
    ("penalty-coloring", path_graph(2), {"C": 2, "mode": "avg"},
     ParameterError),
    ("penalty-coloring", path_graph(2, edge_penalties={(1, 2): -3}),
     {"C": 1, "mode": "max"}, ParameterError),
    ("k-replica", path_graph(3), {"k": 0}, ParameterError),
    ("k-replica", path_graph(3), {"k": 4}, ParameterError),
    ("avg-path", path_graph(3), {"L": 3, "U": 2}, ParameterError),
    ("avg-path", path_graph(3), {"L": 1, "U": 4}, ParameterError),
    ("max-leaf-tree", Graph(1, []), {}, NotApplicableError),
    ("rect-cover", full_grid(2, 3), {"pieces": []}, ParameterError),
    ("rect-cover", full_grid(2, 3), {"pieces": [(0, 1)]}, ParameterError),
    ("rect-cover", full_grid(2, 3), {"pieces": [(9, 9)]}, ParameterError),
], ids=["C0", "missing-C", "bad-mode", "max-mode-negative-penalty", "k0",
        "k-above-n", "L-above-U", "U-above-n", "one-vertex-tree",
        "no-pieces", "empty-piece", "wide-piece"])
def test_dispatcher_rejects_what_the_plugin_rejects(name, instance, params,
                                                    error):
    with pytest.raises(error):
        oracle_solve(name, instance, params)
