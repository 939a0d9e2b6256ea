"""Property tests: the plugin contract on random small instances, and
the instance and decomposition formats round-tripping through their
serializers."""
from hypothesis import given, settings, strategies as st

import pytest

from pwdp.decomposition import (
    PathDecomposition, exact_pathwidth_decomposition,
    grid_sweep_decomposition, nicify, parse_decomposition,
)
from pwdp.engine import reconstruct_solution, run_dp
from pwdp.errors import ParameterError
from pwdp.graph import (
    Graph, PartialGrid, grid_to_graph, parse_graph, parse_grid,
    serialize_grid,
)
from pwdp.oracle import oracle_solve
from pwdp.plugins import PLUGIN_NAMES, make_plugin

weights = st.integers(-5, 9)


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
def decompositions(draw, g):
    """An optimal decomposition, or a valid wider one: bags along a
    shuffled vertex order, each vertex's run of bags padded by up to one
    bag on either side.  Its node shapes repeat, so memoized expansions
    get replayed."""
    if draw(st.booleans()):
        return exact_pathwidth_decomposition(g)[0]
    order = draw(st.permutations(list(g.vertices())))
    pos = {v: t for t, v in enumerate(order)}
    runs = {}
    for v in order:
        last = max([pos[v]] + [pos[u] for u in g.neighbors(v)])
        runs[v] = (max(pos[v] - draw(st.integers(0, 1)), 0),
                   min(last + draw(st.integers(0, 1)), g.n - 1))
    bags = [[v for v in order if runs[v][0] <= t <= runs[v][1]]
            for t in range(g.n)]
    return nicify(PathDecomposition(bags), g)


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
    """(graph, params, nice decomposition, oracle instance) for one
    plugin name."""
    if name == "rect-cover":
        grid = draw(grids())
        pieces = draw(st.lists(st.tuples(st.integers(1, grid.rows),
                                         st.integers(1, grid.cols)),
                               min_size=1, max_size=2))
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid, transpose=False, widen=True)
        return g, {"grid": grid, "pieces": pieces}, npd, grid
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
    return g, params, draw(decompositions(g)), g


@pytest.mark.parametrize("name", PLUGIN_NAMES)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_plugin_contract(name, data):
    # validate=True checks every expansion lands in the canonical state
    # set and every replayed expansion against a fresh one; table states
    # are normalize outputs, so normalize must fix them
    g, params, npd, instance = data.draw(instances(name))
    if params.get("mode") == "max" and any(g.edge_penalty(u, v) < 0
                                           for u, v in g.edges):
        with pytest.raises(ParameterError):
            make_plugin(name, g, **params)
        return
    plugin = make_plugin(name, g, **params)
    res = run_dp(plugin, g, npd, retain=True, validate=True)
    for table in res.tables:
        for state in table:
            assert plugin.normalize(state) == state
    expected = oracle_solve(name, instance, params)
    assert res.feasible == expected.feasible
    if res.feasible:
        assert res.objective == expected.objective
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
