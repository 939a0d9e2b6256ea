import tracemalloc

import pytest

from pwdp.decomposition import nicify, parse_decomposition
from pwdp.errors import DecompositionError, GraphError, GraphFormatError
from pwdp.graph import (
    Graph, PartialGrid, grid_to_graph, parse_graph, parse_grid,
    serialize_grid,
)


def test_header_and_edges():
    g = parse_graph("graph 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    assert g.n == 4
    assert g.m == 3
    assert g.edges == ((1, 2), (2, 3), (3, 4))


def test_comments_and_blank_lines():
    text = "# instance\n\ngraph 2 1  # header\ne 1 2\n\n"
    g = parse_graph(text)
    assert (g.n, g.m) == (2, 1)


def test_self_loop_rejected_with_line():
    with pytest.raises(GraphFormatError) as ei:
        parse_graph("graph 3 1\ne 2 2\n")
    assert ei.value.line == 2


def test_out_of_range_vertex_rejected():
    with pytest.raises(GraphFormatError) as ei:
        parse_graph("graph 3 1\ne 1 4\n")
    assert ei.value.line == 2
    assert "out of range" in str(ei.value)


def test_duplicate_edge_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("graph 3 2\ne 1 2\ne 2 1\n")


def test_edge_count_mismatch_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("graph 3 2\ne 1 2\n")


def test_attribute_defaults_are_one():
    g = parse_graph("graph 3 2\ne 1 2\ne 2 3\n")
    assert g.vertex_weight(1) == 1
    assert g.selection_cost(2) == 1
    assert g.edge_weight(1, 2) == 1
    assert g.edge_penalty(2, 3) == 1


def test_attributes_parse_and_query_either_order():
    text = ("graph 3 2\ne 1 2\ne 2 3\n"
            "vw 2 7\nsc 3 -4\new 1 2 10\npen 2 3 5\n")
    g = parse_graph(text)
    assert g.vertex_weight(2) == 7
    assert g.vertex_weight(1) == 1
    assert g.selection_cost(3) == -4
    assert g.edge_weight(2, 1) == 10
    assert g.edge_penalty(3, 2) == 5


def test_attribute_on_missing_edge_rejected():
    with pytest.raises(GraphFormatError) as ei:
        parse_graph("graph 3 1\ne 1 2\new 2 3 4\n")
    assert ei.value.line == 3


def test_adjacency_is_symmetric():
    g = parse_graph("graph 4 3\ne 1 2\ne 2 3\ne 1 4\n")
    for u in g.vertices():
        for v in g.vertices():
            assert g.adjacent(u, v) == g.adjacent(v, u)
    assert g.neighbors(2) == (1, 3)
    assert g.degree(1) == 2


def test_isolated_and_unknown_vertex_neighbors():
    g = Graph(5, [(1, 2)])
    assert g.neighbors(5) == ()
    assert g.degree(5) == 0
    for v in (0, 6):
        with pytest.raises(GraphError):
            g.neighbors(v)
        with pytest.raises(GraphError):
            g.degree(v)


def test_huge_header_allocates_nothing_per_vertex():
    # a header alone must not cost memory in proportion to n, and the
    # decomposition check must stop at the first missing vertex
    tracemalloc.start()
    try:
        g = parse_graph("graph 1000000 0\n")
        with pytest.raises(DecompositionError) as ei:
            nicify(parse_decomposition("pd 1\nbag 1\n"), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.kind == "missing-vertex"
    assert peak < 1_000_000


def test_serialize_parse_round_trip():
    text = ("graph 4 3\ne 1 2\ne 2 3\ne 3 4\n"
            "vw 1 5\nsc 2 3\new 1 2 9\npen 3 4 2\n")
    g = parse_graph(text)
    g2 = parse_graph(g.serialize())
    assert g == g2


def test_empty_input_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("# only a comment\n")


def test_graph_constructor_validates():
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1)])
    with pytest.raises(GraphError):
        Graph(2, [(1, 2), (2, 1)])


def test_full_2x2_grid():
    grid = parse_grid("grid 2 2\n..\n..\n")
    g = grid_to_graph(grid)
    assert g.n == 4
    assert g.m == 4
    assert g.edges == ((1, 2), (1, 3), (2, 4), (3, 4))
    assert g.coords[1] == (0, 0)
    assert g.coords[4] == (1, 1)


def test_l_shape_missing_cell():
    # X at top right: remaining cells form an L with 2 edges
    grid = parse_grid("grid 2 2\n.X\n..\n")
    g = grid_to_graph(grid)
    assert g.n == 3
    assert g.m == 2
    assert g.edges == ((1, 2), (2, 3))


def test_1x1_grid():
    g = grid_to_graph(parse_grid("grid 1 1\n.\n"))
    assert (g.n, g.m) == (1, 0)


def test_removed_edge():
    grid = parse_grid("grid 2 2\n..\n..\nremoveedge 1 1 1 2\n")
    g = grid_to_graph(grid)
    assert g.m == 3
    assert not g.adjacent(1, 2)


def test_removeedge_validation():
    with pytest.raises(GraphFormatError):
        parse_grid("grid 2 2\n.X\n..\nremoveedge 1 1 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_grid("grid 2 2\n..\n..\nremoveedge 1 1 2 2\n")


def test_grid_row_length_checked():
    with pytest.raises(GraphFormatError) as ei:
        parse_grid("grid 2 3\n...\n..\n")
    assert ei.value.line == 3


def test_grid_degree_bound():
    grid = parse_grid("grid 3 3\n...\n...\n...\n")
    g = grid_to_graph(grid)
    assert max(g.degree(v) for v in g.vertices()) <= 4
    assert g.n == 9
    assert g.m == 12


def test_grid_serialize_round_trip():
    text = "grid 3 3\n..X\n...\nX..\nremoveedge 2 1 2 2\n"
    grid = parse_grid(text)
    assert parse_grid(serialize_grid(grid)) == grid


def test_grid_transpose():
    grid = parse_grid("grid 2 3\n...\n..X\n")
    t = grid.transposed()
    assert (t.rows, t.cols) == (3, 2)
    assert t.has_cell(0, 0) and t.has_cell(2, 0) and not t.has_cell(2, 1)


def test_partial_grid_constructor_validates():
    with pytest.raises(GraphError):
        PartialGrid(2, 2, set())
    with pytest.raises(GraphError):
        PartialGrid(2, 2, {(2, 0)})
