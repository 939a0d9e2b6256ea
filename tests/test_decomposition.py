import random

import pytest
from hypothesis import given, settings, strategies as st

from pwdp.decomposition import (
    FORGET, INTRODUCE, NiceNode, NicePathDecomposition, PathDecomposition,
    exact_pathwidth_decomposition, grid_sweep_decomposition, nicify,
    parse_decomposition,
)
from pwdp.engine import _context, build_contexts
from pwdp.errors import DecompositionError, GraphFormatError, SizeLimitError
from pwdp.graph import (
    Graph, PartialGrid, grid_to_graph, parse_graph, parse_grid,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def test_validate_accepts_path_bags():
    g = path_graph(4)
    pd = PathDecomposition([(1, 2), (2, 3), (3, 4)])
    pd.validate(g)
    assert pd.width == 1
    assert pd.p == 3


def test_validate_missing_vertex():
    g = path_graph(3)
    with pytest.raises(DecompositionError) as ei:
        PathDecomposition([(1, 2)]).validate(g)
    assert ei.value.kind == "missing-vertex"


def test_validate_uncovered_edge():
    g = cycle_graph(4)
    with pytest.raises(DecompositionError) as ei:
        PathDecomposition([(1, 2), (2, 3), (3, 4)]).validate(g)
    assert ei.value.kind == "uncovered-edge"


def test_validate_non_contiguous():
    g = path_graph(3)
    with pytest.raises(DecompositionError) as ei:
        PathDecomposition([(1, 2), (2, 3), (1, 3)]).validate(g)
    assert ei.value.kind == "non-contiguous-vertex"


def test_validate_unknown_vertex():
    g = path_graph(2)
    with pytest.raises(DecompositionError) as ei:
        PathDecomposition([(1, 2, 5)]).validate(g)
    assert ei.value.kind == "bad-structure"


def test_nicify_structure():
    g = path_graph(4)
    pd = PathDecomposition([(1, 2), (2, 3), (3, 4)])
    npd = nicify(pd, g)
    assert npd.p == 2 * g.n
    npd.validate(g)
    kinds = [nd.kind for nd in npd.nodes]
    assert kinds[0] == INTRODUCE
    assert kinds[-1] == FORGET
    assert npd.nodes[-1].order == ()


def test_nicify_first_node_single_vertex():
    g = cycle_graph(5)
    pd = PathDecomposition([(1, 2, 5), (2, 3, 5), (3, 4, 5)])
    npd = nicify(pd, g)
    assert len(npd.nodes[0].order) == 1
    npd.validate(g)
    assert npd.width == pd.width


def test_nicify_orders_introduced_vertex_last():
    pd = PathDecomposition([(2,), (1, 2), (1, 2, 3)])
    npd = nicify(pd)
    for nd in npd.nodes:
        if nd.kind == INTRODUCE:
            assert nd.order[-1] == nd.vertex


def test_nicify_forget_keeps_relative_order():
    # introduce 1,2,3 then forget the middle one
    pd = PathDecomposition([(1, 2, 3), (1, 3)])
    npd = nicify(pd)
    orders = [nd.order for nd in npd.nodes]
    assert (1, 2, 3) in orders
    assert (1, 3) in orders


def test_nice_node_validation_catches_reorder():
    nodes = [
        NiceNode(INTRODUCE, 1, (1,)),
        NiceNode(INTRODUCE, 2, (1, 2)),
        NiceNode(FORGET, 1, (2,)),
        NiceNode(FORGET, 2, ()),
    ]
    NicePathDecomposition(nodes)  # fine
    bad = [
        NiceNode(INTRODUCE, 1, (1,)),
        NiceNode(INTRODUCE, 2, (2, 1)),
    ]
    with pytest.raises(DecompositionError):
        NicePathDecomposition(bad)


def test_nice_final_bag_must_empty():
    with pytest.raises(DecompositionError):
        NicePathDecomposition([NiceNode(INTRODUCE, 1, (1,))])


def test_parse_decomposition_round_trip():
    text = "pd 3\nbag 1 2\nbag 2 3\nbag 3 4\n"
    pd = parse_decomposition(text)
    assert pd.bags == ((1, 2), (2, 3), (3, 4))
    assert parse_decomposition(pd.serialize()) == pd


def test_parse_decomposition_errors():
    with pytest.raises(GraphFormatError):
        parse_decomposition("pd 2\nbag 1\n")
    with pytest.raises(GraphFormatError):
        parse_decomposition("bag 1\n")
    with pytest.raises(GraphFormatError):
        parse_decomposition("pd 1\nbag x\n")


def test_grid_sweep_full_2x3_no_transpose():
    grid = parse_grid("grid 2 3\n...\n...\n")
    npd, transposed = grid_sweep_decomposition(grid, transpose=False)
    assert not transposed
    g = grid_to_graph(grid)
    npd.validate(g)
    assert max(len(nd.order) for nd in npd.nodes) == 4


def test_grid_sweep_auto_transposes_wide_grid():
    grid = parse_grid("grid 2 3\n...\n...\n")
    npd, transposed = grid_sweep_decomposition(grid)
    assert transposed
    g = grid_to_graph(grid)
    npd.validate(g)
    assert npd.width == 2  # min(rows, cols)


def test_grid_sweep_auto_keeps_tall_grid():
    grid = parse_grid("grid 3 2\n..\n..\n..\n")
    npd, transposed = grid_sweep_decomposition(grid)
    assert not transposed
    npd.validate(grid_to_graph(grid))
    assert npd.width == 2


def test_grid_sweep_partial_grid_with_removed_edge():
    grid = parse_grid("grid 3 3\n..X\n...\nX..\nremoveedge 2 1 2 2\n")
    g = grid_to_graph(grid)
    for transpose in (False, True):
        npd, _ = grid_sweep_decomposition(grid, transpose=transpose)
        npd.validate(g)


def test_grid_sweep_widen_holds_cell_until_below():
    grid = parse_grid("grid 3 3\n...\n...\n...\n")
    npd, _ = grid_sweep_decomposition(grid, transpose=False, widen=True)
    npd.validate(grid_to_graph(grid))
    # cell 1 (row 0, col 0) must still be in the bag when 4 (row 1, col 0)
    # arrives; its forget comes at or after that introduce
    intro_at = {nd.vertex: i for i, nd in enumerate(npd.nodes)
                if nd.kind == INTRODUCE}
    forget_at = {nd.vertex: i for i, nd in enumerate(npd.nodes)
                 if nd.kind == FORGET}
    assert forget_at[1] > intro_at[4]
    assert forget_at[4] > intro_at[7]


def test_grid_sweep_1x1():
    grid = parse_grid("grid 1 1\n.\n")
    npd, transposed = grid_sweep_decomposition(grid)
    assert npd.p == 2
    assert not transposed


def test_exact_pathwidth_path():
    npd, width = exact_pathwidth_decomposition(path_graph(6))
    assert width == 1
    npd.validate(path_graph(6))
    assert npd.width == 1


def test_exact_pathwidth_cycle():
    npd, width = exact_pathwidth_decomposition(cycle_graph(6))
    assert width == 2
    npd.validate(cycle_graph(6))


def test_exact_pathwidth_complete_graph():
    g = Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    npd, width = exact_pathwidth_decomposition(g)
    assert width == 4
    npd.validate(g)


def test_exact_pathwidth_star():
    g = Graph(5, [(1, v) for v in range(2, 6)])
    npd, width = exact_pathwidth_decomposition(g)
    assert width == 1
    npd.validate(g)


def test_exact_pathwidth_isolated_vertices():
    g = Graph(3, [])
    npd, width = exact_pathwidth_decomposition(g)
    assert width == 0
    npd.validate(g)


def test_exact_pathwidth_deterministic():
    g = cycle_graph(5)
    a, _ = exact_pathwidth_decomposition(g)
    b, _ = exact_pathwidth_decomposition(g)
    assert a.nodes == b.nodes


def test_exact_pathwidth_size_cap():
    g = Graph(13, [])
    with pytest.raises(SizeLimitError):
        exact_pathwidth_decomposition(g)


def test_exact_matches_grid_bound_on_small_grid():
    grid = parse_grid("grid 2 3\n...\n...\n")
    g = grid_to_graph(grid)
    _, width = exact_pathwidth_decomposition(g)
    assert width == 2


def test_nicify_without_graph_checks_contiguity():
    pd = PathDecomposition([(1,), (2,), (1,)])
    with pytest.raises(DecompositionError):
        nicify(pd)


# --- one coverage rule, checked against the plain definition -------------

def reference_kind(pd, graph):
    """The bag-form definition, checked directly and slowly.

    Faults are looked for in a fixed order: a bag holds an unknown id,
    a vertex is in no bag, a vertex's bags are not consecutive, an edge
    has both ends in no common bag.  Returns the first fault's kind, or
    None for a valid decomposition.
    """
    if any(not 1 <= v <= graph.n for bag in pd.bags for v in bag):
        return "bad-structure"
    if any(all(v not in bag for bag in pd.bags) for v in graph.vertices()):
        return "missing-vertex"
    if has_broken_run(pd):
        return "non-contiguous-vertex"
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in pd.bags):
            return "uncovered-edge"
    return None


def has_broken_run(pd):
    seen_at = {}
    for t, bag in enumerate(pd.bags):
        for v in bag:
            seen_at.setdefault(v, []).append(t)
    return any(ts[-1] - ts[0] + 1 != len(ts) for ts in seen_at.values())


def kind_of(check, *args):
    try:
        check(*args)
    except DecompositionError as e:
        return e.kind
    return None


@st.composite
def graphs_with_bags(draw):
    """A graph with a valid decomposition, then up to three faults.

    Each vertex gets an interval of bag positions and edges join only
    overlapping intervals.  Faults: an id out of range in some bag, a
    vertex dropped from every bag, a gap in a vertex's run (the vertex
    joins a bag at least one bag away, else leaves one of its bags) and
    an edge added to the graph, between intervals drawn apart when there
    are such.
    """
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 6))
    spans = []
    for _ in range(n):
        a = draw(st.integers(0, p - 1))
        spans.append((a, draw(st.integers(a, p - 1))))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    overlapping = [(u, v) for u, v in pairs
                   if max(spans[u - 1][0], spans[v - 1][0])
                   <= min(spans[u - 1][1], spans[v - 1][1])]
    edges = set(draw(st.lists(st.sampled_from(overlapping), unique=True))
                if overlapping else [])
    bags = [{v for v in range(1, n + 1)
             if spans[v - 1][0] <= t <= spans[v - 1][1]} for t in range(p)]
    vertex = st.integers(1, n)
    for fault in draw(st.lists(st.sampled_from(
            ["unknown-id", "drop-vertex", "gap", "extra-edge"]), max_size=3)):
        if fault == "unknown-id":
            bags[draw(st.integers(0, p - 1))].add(
                draw(st.sampled_from([0, -1, n + 1, n + 7])))
        elif fault == "drop-vertex":
            v = draw(vertex)
            for bag in bags:
                bag.discard(v)
        elif fault == "gap":
            v = draw(vertex)
            held = [t for t, bag in enumerate(bags) if v in bag]
            far = [t for t in range(p)
                   if held and not held[0] - 1 <= t <= held[-1] + 1]
            if far:
                bags[draw(st.sampled_from(far))].add(v)
            elif held:
                bags[draw(st.sampled_from(held[1:-1] or held))].discard(v)
        elif pairs:
            apart = [e for e in pairs if e not in overlapping]
            edges.add(draw(st.sampled_from(apart or pairs)))
    return Graph(n, sorted(edges)), PathDecomposition(bags)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(graphs_with_bags())
def test_single_check_matches_definition(case):
    g, pd = case
    want = reference_kind(pd, g)
    assert kind_of(pd.validate, g) == want
    assert kind_of(nicify, pd, g) == want

    # without a graph only contiguity is checked; the nice form then
    # meets the same rule in validate and in run_dp's context building
    try:
        npd = nicify(pd)
    except DecompositionError as e:
        # bad-structure: no bag holds anything, so there are no nodes
        assert e.kind == ("non-contiguous-vertex" if has_broken_run(pd)
                          else "bad-structure")
        return
    assert not has_broken_run(pd)
    nice_want = ("bad-structure" if npd.p != 2 * g.n else reference_kind(
        PathDecomposition([nd.order for nd in npd.nodes]), g))
    assert kind_of(npd.validate, g) == nice_want
    assert kind_of(build_contexts, g, npd) == nice_want


def seeded_partial_grid(rows, cols, seed):
    """A rows x cols grid with a fifth of its cells missing (at least
    one) and a fifth of the remaining edges removed (at least one, where
    there is an edge), drawn from seed."""
    rng = random.Random(seed)
    every = [(r, c) for r in range(rows) for c in range(cols)]
    holes = set(rng.sample(every, max(1, len(every) // 5)))
    cells = {cell for cell in every if cell not in holes}
    joins = sorted((a, b) for a in cells for b in ((a[0], a[1] + 1),
                                                 (a[0] + 1, a[1]))
                   if b in cells)
    removed = rng.sample(joins, max(1, len(joins) // 5)) if joins else []
    return PartialGrid(rows, cols, cells, removed)


GRIDS = [seeded_partial_grid(rows, cols, seed) for seed, (rows, cols)
         in enumerate([(2, 9), (3, 5), (5, 3), (4, 4), (1, 7), (6, 2)])]


def band_graph_and_bags(n, width, seed):
    """A seeded band graph on n vertices and its windows of width
    vertices, so every edge (u, u + d), d < width, sits in a bag."""
    rng = random.Random(seed)
    edges = [(u, u + d) for u in range(1, n) for d in range(1, width)
             if u + d <= n and (d == 1 or rng.random() < 0.5)]
    return Graph(n, edges), PathDecomposition(
        [range(i, i + width) for i in range(1, n - width + 2)])


def small_random_graph(n, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(1, n + 1)
                     for v in range(u + 1, n + 1) if rng.random() < 0.35])


def decompositions():
    """(label, graph, nice decomposition) from every builder: the grid
    sweep in its auto, transposed, untransposed and widened forms on
    seeded partial grids, nicify on the sweeps' bags and on bands, and
    the exact search on small random graphs."""
    out = []
    for seed, grid in enumerate(GRIDS):
        g = grid_to_graph(grid)
        for transpose in ("auto", True, False):
            for widen in (False, True):
                npd, _ = grid_sweep_decomposition(grid, transpose, widen)
                out.append((f"sweep-{seed}-{transpose}-{widen}", g, npd))
        npd, _ = grid_sweep_decomposition(grid)
        out.append((f"nicify-sweep-{seed}", g,
                    nicify(npd.to_path_decomposition(), g)))
    for seed in range(4):
        g, pd = band_graph_and_bags(12 + 5 * seed, 2 + seed, seed)
        out.append((f"nicify-band-{seed}", g, nicify(pd, g)))
    for seed in range(6):
        g = small_random_graph(3 + seed, seed)
        out.append((f"exact-{seed}", g, exact_pathwidth_decomposition(g)[0]))
    return out


DECOMPOSITIONS = decompositions()


class TestStructureWalk:
    """The nice form records each forget's bag position while it checks
    its nodes, and build_contexts walks the nodes once on those
    positions and the graph's adjacency; _context, which makes one node
    from the graph alone, is the reference."""

    @pytest.mark.parametrize("label, g, npd", DECOMPOSITIONS,
                             ids=[d[0] for d in DECOMPOSITIONS])
    def test_positions_are_forget_indices(self, label, g, npd):
        nodes = npd.nodes
        assert len(npd.positions) == len(nodes)
        for i, (kind, v, _order) in enumerate(nodes):
            want = None if kind == INTRODUCE else nodes[i - 1].order.index(v)
            assert npd.positions[i] == want

    @pytest.mark.parametrize("label, g, npd", DECOMPOSITIONS,
                             ids=[d[0] for d in DECOMPOSITIONS])
    def test_walk_equals_per_node_contexts(self, label, g, npd):
        walked = list(build_contexts(g, npd))
        assert walked == [_context(g, npd, i) for i in range(len(npd.nodes))]

    def test_grids_cover_every_sweep_form(self):
        # auto sweeps both ways, and every grid has holes and removed edges
        assert {grid_sweep_decomposition(grid)[1] for grid in GRIDS} == {
            True, False}
        assert all(grid.removed_edges for grid in GRIDS)
        assert all(len(grid.present) < grid.rows * grid.cols
                   for grid in GRIDS)

    @pytest.mark.parametrize("nodes, message", [
        ([(INTRODUCE, 1, (1,)), (INTRODUCE, 2, (1, 2)),
          (INTRODUCE, 3, (1, 2, 3)), (FORGET, 2, (3, 1))],
         "node 4 reorders survivors"),
        ([(INTRODUCE, 1, (1,)), (INTRODUCE, 2, (1, 2)), (FORGET, 1, ())],
         "node 3 reorders survivors"),
        ([(INTRODUCE, 1, (1,)), (FORGET, 2, (1,))],
         "node 2 forgets absent vertex 2"),
        ([(INTRODUCE, 1, (1,)), (INTRODUCE, 2, (2, 1))],
         "node 2 order does not append 2"),
        ([(INTRODUCE, 1, (1,)), (FORGET, 1, ()), (INTRODUCE, 1, (1,))],
         "vertex 1 introduced twice"),
        ([(INTRODUCE, 1, (1,)), ("swap", 1, (1,))], "unknown kind 'swap'"),
        ([(INTRODUCE, 1, (1,))], "final bag not empty"),
    ])
    def test_hand_made_faults_keep_their_messages(self, nodes, message):
        with pytest.raises(DecompositionError) as ei:
            NicePathDecomposition([NiceNode(*node) for node in nodes])
        assert ei.value.kind == "bad-structure"
        assert str(ei.value) == f"bad-structure: {message}"
