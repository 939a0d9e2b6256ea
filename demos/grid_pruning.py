"""Cover problems on partial grids with the noncrossing state bound,
plus a rectangle packing run on the same grid."""
from pwdp import PartialGrid, grid_sweep_decomposition, grid_to_graph, make_plugin
from pwdp.engine import catalan_allowed, run_dp
from pwdp.solve import solve_rect_cover


def make_grid():
    # 4x4 with two holes
    present = frozenset((r, c) for r in range(4) for c in range(4)) \
        - {(1, 1), (2, 3)}
    return PartialGrid(4, 4, present, frozenset())


def main():
    grid = make_grid()
    g = grid_to_graph(grid)
    npd, transposed = grid_sweep_decomposition(grid)
    print(f"grid 4x4 minus 2 cells: {g.n} vertices, sweep width {npd.width}"
          f"{' (transposed)' if transposed else ''}")

    plugin = make_plugin("path-cover", g)
    base = run_dp(plugin, g, npd)
    # validate checks that the sweep never leaves the noncrossing set
    bounded = run_dp(plugin, g, npd, allowed=catalan_allowed(plugin, npd),
                     validate=True)
    print(f"path cover: {base.objective} paths")
    print(f"  max bag states, canonical  : {max(s.allowed for s in base.stats)}")
    print(f"  max bag states, noncrossing: {max(s.allowed for s in bounded.stats)}")
    print(f"  max bag states, reached    : {max(s.filled for s in base.stats)}")
    assert base.objective == bounded.objective

    res = solve_rect_cover(grid, [(2, 2), (1, 3)])
    print(f"rect cover with 2x2 and 1x3 pieces: {res.objective} placed")
    for t, r, c in res.certificate:
        kind = "2x2" if t == 1 else "1x3"
        print(f"  {kind} anchored at row {r + 1}, col {c + 1}")


if __name__ == "__main__":
    main()
