"""Property tests: the plugin contract on random small instances, and
the instance and decomposition formats round-tripping through their
serializers."""
from hypothesis import given, settings, strategies as st

import pytest

from pwdp.decomposition import (
    PathDecomposition, exact_pathwidth_decomposition,
    grid_sweep_decomposition, parse_decomposition,
)
from pwdp.engine import reconstruct_solution, run_dp
from pwdp.graph import (
    Graph, PartialGrid, grid_to_graph, parse_graph, parse_grid,
    serialize_grid,
)
from pwdp.plugins import PLUGIN_NAMES, make_plugin

weights = st.integers(1, 9)


@st.composite
def graphs(draw, min_n=1):
    n = draw(st.integers(min_n, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]

    def vmap():
        return dict(zip(range(1, n + 1), draw(st.lists(weights, min_size=n,
                                                        max_size=n))))

    def emap():
        return dict(zip(edges, draw(st.lists(weights, min_size=len(edges),
                                             max_size=len(edges)))))

    return Graph(n, edges, vertex_weights=vmap(), selection_costs=vmap(),
                 edge_weights=emap(), edge_penalties=emap())


@st.composite
def grids(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    present = draw(st.sets(st.sampled_from(cells), min_size=1))
    links = [(a, b) for a in present for b in present
             if a < b and abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1]
    removed = draw(st.sets(st.sampled_from(links))) if links else set()
    return PartialGrid(rows, cols, present, removed)


@st.composite
def instances(draw, name):
    """(plugin, graph, nice decomposition) for one plugin name."""
    if name == "rect-cover":
        grid = draw(grids())
        pieces = draw(st.lists(st.tuples(st.integers(1, grid.rows),
                                         st.integers(1, grid.cols)),
                               min_size=1, max_size=2))
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid, transpose=False, widen=True)
        return make_plugin(name, g, grid=grid, pieces=pieces), g, npd
    g = draw(graphs(min_n=2 if name == "max-leaf-tree" else 1))
    params = {}
    if "coloring" in name:
        params["C"] = draw(st.integers(1, 3))
    if name == "penalty-coloring":
        params["mode"] = draw(st.sampled_from(("sum", "max")))
    if name == "k-replica":
        params["k"] = draw(st.integers(1, g.n))
    if name == "avg-path":
        params["U"] = draw(st.integers(1, g.n))
        params["L"] = draw(st.integers(1, params["U"]))
    npd, _ = exact_pathwidth_decomposition(g)
    return make_plugin(name, g, **params), g, npd


@pytest.mark.parametrize("name", PLUGIN_NAMES)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_plugin_contract(name, data):
    # validate=True checks every expansion lands in the canonical state
    # set; table states are normalize outputs, so normalize must fix them
    plugin, g, npd = data.draw(instances(name))
    res = run_dp(plugin, g, npd, retain=True, validate=True)
    for table in res.tables:
        for state in table:
            assert plugin.normalize(state) == state
    if res.feasible:
        ok, objective = plugin.check_certificate(reconstruct_solution(res))
        assert ok
        assert objective == res.objective


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs())
def test_graph_round_trip(g):
    assert parse_graph(g.serialize()) == g


@settings(max_examples=100, deadline=None, derandomize=True)
@given(grids())
def test_grid_round_trip(grid):
    assert parse_grid(serialize_grid(grid)) == grid


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.sets(st.integers(1, 9)), min_size=1, max_size=6))
def test_decomposition_round_trip(bags):
    pd = PathDecomposition(bags)
    assert parse_decomposition(pd.serialize()) == pd
