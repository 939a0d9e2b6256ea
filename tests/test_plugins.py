"""Each problem plugin against frozen small-instance optima.

The expected numbers were produced by the brute-force checkers in
pwdp.oracle and are written out literally so these tests stay
independent of the oracle code paths.
"""
from fractions import Fraction

import pytest

from pwdp.decomposition import (
    PathDecomposition, exact_pathwidth_decomposition, grid_sweep_decomposition,
    nicify,
)
from pwdp.engine import generate_states, reconstruct_solution, run_dp
from pwdp.errors import NotApplicableError
from pwdp.graph import Graph, PartialGrid, grid_to_graph
from pwdp.oracle import oracle_rect_cover
from pwdp.partition import crosses
from pwdp.plugins import PLUGIN_NAMES, make_plugin


def path_graph(n, **kw):
    return Graph(n, [(i, i + 1) for i in range(1, n)], **kw)


def cycle_graph(n, **kw):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)], **kw)


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def solve(name, g, params=None, expect_feasible=True):
    """Run the DP on an exact decomposition and cross-check the certificate."""
    plugin = make_plugin(name, g, **(params or {}))
    npd, _ = exact_pathwidth_decomposition(g)
    res = run_dp(plugin, g, npd, retain=True)
    assert res.feasible == expect_feasible
    if res.feasible:
        cert = reconstruct_solution(res)
        ok, objective = plugin.check_certificate(cert)
        assert ok
        assert objective == res.objective
    return res


def test_registry_covers_all_problems():
    assert PLUGIN_NAMES == (
        "avg-path", "coloring", "coloring-canonical", "cycle-cover",
        "k-replica", "max-leaf-tree", "min-maximal-matching", "mwis",
        "path-cover", "penalty-coloring", "rect-cover",
    )
    with pytest.raises(ValueError):
        make_plugin("no-such-problem", path_graph(2))


class TestColoring:
    def test_triangle(self):
        g = complete_graph(3)
        solve("coloring", g, {"C": 3})
        solve("coloring", g, {"C": 2}, expect_feasible=False)

    def test_petersen_chromatic(self):
        outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
        spokes = [(i, i + 5) for i in range(1, 6)]
        inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
        g = Graph(10, outer + spokes + inner)
        for name in ("coloring", "coloring-canonical"):
            solve(name, g, {"C": 3})
            solve(name, g, {"C": 2}, expect_feasible=False)

    def test_canonical_matches_plain(self):
        g = cycle_graph(5)
        solve("coloring", g, {"C": 2}, expect_feasible=False)
        solve("coloring-canonical", g, {"C": 2}, expect_feasible=False)
        solve("coloring", g, {"C": 3})
        solve("coloring-canonical", g, {"C": 3})


class TestPenaltyColoring:
    # K3 with penalties 5, 2, 3: one class pays everything, two classes
    # pay only the cheapest edge
    def graph(self):
        return Graph(3, [(1, 2), (1, 3), (2, 3)],
                     edge_penalties={(1, 2): 5, (1, 3): 2, (2, 3): 3})

    def test_sum_mode(self):
        assert solve("penalty-coloring", self.graph(),
                     {"C": 1, "mode": "sum"}).objective == 10
        assert solve("penalty-coloring", self.graph(),
                     {"C": 2, "mode": "sum"}).objective == 2

    def test_max_mode(self):
        assert solve("penalty-coloring", self.graph(),
                     {"C": 1, "mode": "max"}).objective == 5
        assert solve("penalty-coloring", self.graph(),
                     {"C": 2, "mode": "max"}).objective == 2

    def test_two_colorable_triangle_pays_cheapest_edge(self):
        g = Graph(3, [(1, 2), (1, 3), (2, 3)],
                  edge_penalties={(1, 2): 1, (2, 3): 2, (1, 3): 3})
        assert solve("penalty-coloring", g,
                     {"C": 2, "mode": "sum"}).objective == 1
        assert solve("penalty-coloring", g,
                     {"C": 2, "mode": "max"}).objective == 1

    def test_enough_colors_pay_nothing(self):
        g = Graph(3, [(1, 2), (1, 3), (2, 3)],
                  edge_penalties={(1, 2): 1, (2, 3): 2, (1, 3): 3})
        assert solve("penalty-coloring", g,
                     {"C": 3, "mode": "sum"}).objective == 0


class TestPathCover:
    def test_frozen_optima(self):
        assert solve("path-cover", path_graph(4)).objective == 1
        star = Graph(4, [(1, 2), (1, 3), (1, 4)])
        assert solve("path-cover", star).objective == 2
        assert solve("path-cover", complete_graph(4)).objective == 1
        assert solve("path-cover", Graph(3, [])).objective == 3
        assert solve("path-cover", cycle_graph(6)).objective == 1


class TestCycleCover:
    def test_frozen_optima(self):
        assert solve("cycle-cover", cycle_graph(3)).objective == 1
        two = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        assert solve("cycle-cover", two).objective == 2
        assert solve("cycle-cover", complete_graph(4)).objective == 1
        assert solve("cycle-cover", cycle_graph(6)).objective == 1

    def test_path_has_no_cycle_cover(self):
        solve("cycle-cover", path_graph(3), expect_feasible=False)


class TestKReplica:
    def graph(self):
        return Graph(3, [(1, 2), (2, 3)],
                     selection_costs={1: 3, 2: 1, 3: 2},
                     edge_penalties={(1, 2): 4, (2, 3): 1})

    def test_frozen_optima(self):
        assert solve("k-replica", self.graph(), {"k": 1}).objective == 1
        assert solve("k-replica", self.graph(), {"k": 2}).objective == 4
        assert solve("k-replica", self.graph(), {"k": 3}).objective == 11

    def test_forced_pair_pays_penalty(self):
        g = Graph(2, [(1, 2)], selection_costs={1: 1, 2: 1},
                  edge_penalties={(1, 2): 5})
        assert solve("k-replica", g, {"k": 2}).objective == 7

    def test_endpoints_dodge_penalties(self):
        g = path_graph(3, selection_costs={1: 1, 2: 1, 3: 1},
                       edge_penalties={(1, 2): 10, (2, 3): 10})
        res = solve("k-replica", g, {"k": 2})
        assert res.objective == 2
        assert reconstruct_solution(res) == [1, 3]


class TestMwis:
    def test_frozen_optima(self):
        assert solve("mwis", cycle_graph(5)).objective == 2
        g = path_graph(4, vertex_weights={1: 3, 2: 5, 3: 4, 4: 1})
        assert solve("mwis", g).objective == 7


class TestMaxLeafTree:
    def test_frozen_optima(self):
        assert solve("max-leaf-tree", complete_graph(4)).objective == 3
        assert solve("max-leaf-tree", path_graph(4)).objective == 2
        assert solve("max-leaf-tree", path_graph(3)).objective == 2
        assert solve("max-leaf-tree", complete_graph(2)).objective == 2
        star = Graph(4, [(1, 2), (1, 3), (1, 4)])
        assert solve("max-leaf-tree", star).objective == 3
        g = cycle_graph(4, vertex_weights={1: 7, 2: 1, 3: 1, 4: 1})
        assert solve("max-leaf-tree", g).objective == 8

    def test_disconnected_infeasible(self):
        g = Graph(4, [(1, 2), (3, 4)])
        solve("max-leaf-tree", g, expect_feasible=False)

    def test_single_vertex_rejected(self):
        with pytest.raises(NotApplicableError):
            make_plugin("max-leaf-tree", Graph(1, []))


class TestMinMaximalMatching:
    def test_light_edge_not_maximal_alone(self):
        # greedy would take the 1-edge, but {2-3} already blocks 1-2
        g = Graph(3, [(1, 2), (2, 3)],
                  edge_weights={(1, 2): 5, (2, 3): 1})
        res = solve("min-maximal-matching", g)
        assert res.objective == 1
        cert = reconstruct_solution(res)
        assert cert == [(2, 3)]

    def test_middle_edge_dominates(self):
        g = path_graph(4, edge_weights={(1, 2): 1, (2, 3): 5, (3, 4): 1})
        assert solve("min-maximal-matching", g).objective == 2

    def test_unit_weights(self):
        assert solve("min-maximal-matching", cycle_graph(4)).objective == 2
        assert solve("min-maximal-matching", complete_graph(3)).objective == 1

    def test_edgeless_graph_takes_empty_matching(self):
        assert solve("min-maximal-matching", Graph(3, [])).objective == 0

    def test_single_edge(self):
        g = Graph(2, [(1, 2)], edge_weights={(1, 2): 5})
        assert solve("min-maximal-matching", g).objective == 5


class TestAvgPath:
    def test_single_heavy_vertex(self):
        g = path_graph(3, vertex_weights={1: 5, 2: 1, 3: 5})
        res = solve("avg-path", g, {"L": 1, "U": 3})
        assert res.objective == Fraction(5)
        g = path_graph(3, vertex_weights={1: 1, 2: 10, 3: 1})
        res = solve("avg-path", g, {"L": 1, "U": 3})
        assert res.objective == Fraction(10)
        assert reconstruct_solution(res) == ([2], [])

    def test_tie_between_windows(self):
        g = path_graph(3, vertex_weights={1: 1, 2: 10, 3: 1})
        res = solve("avg-path", g, {"L": 2, "U": 2})
        assert res.objective == Fraction(11, 2)

    def test_length_floor_forces_blend(self):
        g = path_graph(3, vertex_weights={1: 5, 2: 1, 3: 5})
        res = solve("avg-path", g, {"L": 2, "U": 3})
        assert res.objective == Fraction(11, 3)

    def test_ring_detour(self):
        # the best 3-path must pass a light vertex either way around
        g = cycle_graph(4, vertex_weights={1: 10, 2: 1, 3: 10, 4: 1})
        res = solve("avg-path", g, {"L": 3, "U": 3})
        assert res.objective == Fraction(7)

    def test_interior_window(self):
        g = path_graph(5, vertex_weights={1: 2, 2: 9, 3: 2, 4: 9, 5: 2})
        res = solve("avg-path", g, {"L": 2, "U": 4})
        assert res.objective == Fraction(20, 3)

    def test_infeasible_when_too_short(self):
        g = Graph(3, [(1, 2)])
        solve("avg-path", g, {"L": 3, "U": 3}, expect_feasible=False)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            make_plugin("avg-path", path_graph(3), L=2, U=1)


def full_grid(m, n):
    cells = frozenset((r, c) for r in range(m) for c in range(n))
    return PartialGrid(m, n, cells, frozenset())


def solve_rect(grid, pieces):
    g = grid_to_graph(grid)
    npd, _ = grid_sweep_decomposition(grid, transpose=False, widen=True)
    plugin = make_plugin("rect-cover", g, grid=grid, pieces=pieces)
    res = run_dp(plugin, g, npd, retain=True)
    cert = reconstruct_solution(res)
    ok, objective = plugin.check_certificate(cert)
    assert ok and objective == res.objective
    return res


class TestRectCover:
    def test_frozen_optima(self):
        assert solve_rect(full_grid(2, 2), [(1, 1)]).objective == 4
        assert solve_rect(full_grid(2, 3), [(2, 2)]).objective == 1
        assert solve_rect(full_grid(2, 3), [(2, 2), (1, 1)]).objective == 6
        assert solve_rect(full_grid(2, 3), [(2, 2), (2, 1)]).objective == 3

    def test_missing_cell_blocks_big_piece(self):
        present = frozenset({(0, 0), (0, 1), (1, 0)})
        grid = PartialGrid(2, 2, present, frozenset())
        assert solve_rect(grid, [(2, 2)]).objective == 0

    def test_holed_grid(self):
        present = frozenset((r, c) for r in range(3) for c in range(3)) - {(1, 1)}
        grid = PartialGrid(3, 3, present, frozenset())
        assert solve_rect(grid, [(1, 3), (3, 1)]).objective == 2

    def test_piece_wider_than_grid_rejected(self):
        grid = full_grid(2, 2)
        with pytest.raises(ValueError):
            make_plugin("rect-cover", grid_to_graph(grid),
                        grid=grid, pieces=[(1, 3)])

    def test_reused_plugin_matches_oracle(self):
        # one plugin instance runs on two decompositions of the same
        # grid; the second run must not see the first run's geometry
        for grid, pieces in [(full_grid(2, 3), [(1, 2)]),
                             (full_grid(2, 3), [(2, 2), (1, 1)]),
                             (full_grid(3, 2), [(2, 1), (1, 1)])]:
            g = grid_to_graph(grid)
            plugin = make_plugin("rect-cover", g, grid=grid, pieces=pieces)
            sweep, _ = grid_sweep_decomposition(grid, transpose=False,
                                                widen=True)
            one_bag = nicify(PathDecomposition([list(g.vertices())]), g)
            expected = oracle_rect_cover(grid, pieces).objective
            for npd in (sweep, one_bag):
                assert run_dp(plugin, g, npd).objective == expected

    def test_needs_widened_sweep(self):
        grid = full_grid(2, 3)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid, transpose=False, widen=False)
        plugin = make_plugin("rect-cover", g, grid=grid, pieces=[(1, 3)])
        with pytest.raises(NotApplicableError):
            run_dp(plugin, g, npd)


COUNT_CASES = [
    ("coloring", {"C": 1}), ("coloring", {"C": 3}),
    ("coloring-canonical", {"C": 1}), ("coloring-canonical", {"C": 3}),
    ("penalty-coloring", {"C": 1}), ("penalty-coloring", {"C": 3}),
    ("path-cover", {}), ("cycle-cover", {}),
    ("k-replica", {"k": 1}), ("k-replica", {"k": 4}),
    ("max-leaf-tree", {}), ("min-maximal-matching", {}), ("mwis", {}),
    ("avg-path", {"L": 1, "U": 1}), ("avg-path", {"L": 1, "U": 5}),
    ("avg-path", {"L": 1, "U": 8}),
    ("rect-cover", {"pieces": [(2, 1), (1, 2)]}),
]


def count_plugin(name, params):
    if name == "rect-cover":
        grid = full_grid(3, 3)
        return make_plugin(name, grid_to_graph(grid), grid=grid, **params)
    return make_plugin(name, path_graph(8), **params)


def test_count_cases_cover_every_plugin():
    assert {name for name, _ in COUNT_CASES} == set(PLUGIN_NAMES)


@pytest.mark.parametrize("name, params", COUNT_CASES,
                         ids=[f"{n}-{p}" for n, p in COUNT_CASES])
def test_closed_form_count_matches_enumeration(name, params):
    plugin = count_plugin(name, params)
    for nv in range(7):
        assert plugin.count_states(nv) == len(generate_states(plugin, nv))
        if hasattr(plugin, "count_noncrossing"):
            assert plugin.count_noncrossing(nv) == sum(
                not crosses(s) for s in generate_states(plugin, nv))


@pytest.mark.parametrize("name, params, states", [
    ("max-leaf-tree", {}, 25_741_939),
    ("avg-path", {"L": 1, "U": 12}, 46_267_926),
    ("avg-path", {"L": 1, "U": 5}, 338_407),
])
def test_bag9_count_matches_enumerated_value(name, params, states):
    # from a full enumeration, which takes 20-35 s for these bags
    assert make_plugin(name, path_graph(12), **params).count_states(9) == states


@pytest.mark.parametrize("name, nv, states", [
    ("path-cover", 9, 171_369), ("path-cover", 10, 751_236),
    ("cycle-cover", 9, 16_796), ("cycle-cover", 10, 58_786),
])
def test_noncrossing_count_matches_enumerated_value(name, nv, states):
    # from enumerating the canonical states and filtering with crosses
    assert make_plugin(name, path_graph(12)).count_noncrossing(nv) == states
