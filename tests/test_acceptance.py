"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single pass/fail
line outside pytest's capture so the verdicts are visible in any run.
"""
import random
import statistics
import time
from fractions import Fraction

import pytest

from pwdp import oracle
from pwdp.cli import main as cli_main
from pwdp.decomposition import (
    INTRODUCE, FORGET, NiceNode, NicePathDecomposition, PathDecomposition,
    exact_pathwidth_decomposition, grid_sweep_decomposition, nicify,
)
from pwdp.engine import catalan_allowed, reconstruct_solution, run_dp
from pwdp.graph import Graph, PartialGrid, grid_to_graph
from pwdp.partition import normalize_partition
from pwdp.plugins import PLUGIN_NAMES, make_plugin


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def random_graph(rng, n, p, weights=False, costs=False,
                 eweights=False, epens=False):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    kw = {}
    if weights:
        kw["vertex_weights"] = {v: rng.randint(1, 9) for v in range(1, n + 1)}
    if costs:
        kw["selection_costs"] = {v: rng.randint(1, 9) for v in range(1, n + 1)}
    if eweights:
        kw["edge_weights"] = {e: rng.randint(1, 9) for e in edges}
    if epens:
        kw["edge_penalties"] = {e: rng.randint(1, 9) for e in edges}
    return Graph(n, edges, **kw)


def graph_instance(name, rng):
    """One random (graph, params) pair with in-range parameters."""
    n = rng.randint(2, 8)
    if name in ("coloring", "coloring-canonical"):
        return random_graph(rng, n, rng.uniform(0.15, 0.7)), \
            {"C": rng.randint(1, 4)}
    if name == "penalty-coloring":
        return random_graph(rng, n, rng.uniform(0.15, 0.7), epens=True), \
            {"C": rng.randint(1, 3), "mode": rng.choice(["sum", "max"])}
    if name == "k-replica":
        return random_graph(rng, n, rng.uniform(0.15, 0.7),
                            costs=True, epens=True), {"k": rng.randint(1, n)}
    if name == "mwis":
        return random_graph(rng, n, rng.uniform(0.15, 0.7), weights=True), {}
    if name == "avg-path":
        g = random_graph(rng, n, rng.uniform(0.15, 0.7), weights=True)
        L = rng.randint(1, n)
        return g, {"L": L, "U": rng.randint(L, n)}
    if name == "max-leaf-tree":
        # denser graphs blow up the spanning-tree oracle, not the plugin
        return random_graph(rng, n, rng.uniform(0.15, 0.5), weights=True), {}
    if name == "min-maximal-matching":
        return random_graph(rng, n, rng.uniform(0.15, 0.5), eweights=True), {}
    # path-cover / cycle-cover
    return random_graph(rng, n, rng.uniform(0.15, 0.7)), {}


def grid_instance(rng):
    while True:
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        present = frozenset((r, c) for r in range(m) for c in range(n)
                            if rng.random() < 0.85)
        if present:
            break
    grid = PartialGrid(m, n, present, frozenset())
    pieces = [(rng.randint(1, m), rng.randint(1, n))
              for _ in range(rng.randint(1, 3))]
    return grid, pieces


TRIALS_PER_PLUGIN = 200


def test_criterion_1_oracle_equivalence(capsys):
    ok = True
    for pi, name in enumerate(PLUGIN_NAMES):
        rng = random.Random(1000 + pi)
        for _ in range(TRIALS_PER_PLUGIN):
            if name == "rect-cover":
                grid, pieces = grid_instance(rng)
                g = grid_to_graph(grid)
                npd, _ = grid_sweep_decomposition(grid, transpose=False,
                                                  widen=True)
                plugin = make_plugin(name, g, grid=grid, pieces=pieces)
                orc = oracle.oracle_rect_cover(grid, pieces)
            else:
                g, params = graph_instance(name, rng)
                npd, _ = exact_pathwidth_decomposition(g)
                plugin = make_plugin(name, g, **params)
                orc = oracle.oracle_solve(name, g, params)
            res = run_dp(plugin, g, npd, retain=True)
            if res.feasible != orc.feasible:
                ok = False
                break
            if res.feasible:
                if res.objective != orc.objective:
                    ok = False
                    break
                cert = reconstruct_solution(res)
                valid, score = plugin.check_certificate(cert)
                if not valid or score != res.objective:
                    ok = False
                    break
        if not ok:
            break
    report(capsys, 1, "oracle equivalence", ok)


def test_criterion_2_canonical_state_count(capsys):
    code = cli_main(["states", "coloring-canonical", "-C", "7", "--nv", "9"])
    out = capsys.readouterr().out
    ok = code == 0 and "nv 9 states 21110" in out.splitlines()

    # independent partitions-into-<=C-parts table (Stirling recurrence)
    def partitions_table(nmax):
        s = [[0] * (nmax + 1) for _ in range(nmax + 1)]
        s[0][0] = 1
        for n in range(1, nmax + 1):
            for k in range(1, n + 1):
                s[n][k] = s[n - 1][k - 1] + k * s[n - 1][k]
        return s

    stirling = partitions_table(9)
    for C in range(1, 8):
        g = Graph(9, [])
        canonical = make_plugin("coloring-canonical", g, C=C)
        naive = make_plugin("coloring", g, C=C)
        for nv in range(10):
            expected = sum(stirling[nv][k] for k in range(min(nv, C) + 1))
            if canonical.count_states(nv) != expected:
                ok = False
            if naive.count_states(nv) != C ** nv:
                ok = False
    report(capsys, 2, "canonical state count", ok)


def chain_decomposition(n):
    """Nice decomposition of the path graph 1-2-...-n, built directly."""
    nodes = [NiceNode(INTRODUCE, 1, (1,))]
    for v in range(2, n + 1):
        nodes.append(NiceNode(INTRODUCE, v, (v - 1, v)))
        nodes.append(NiceNode(FORGET, v - 1, (v,)))
    nodes.append(NiceNode(FORGET, n, ()))
    return NicePathDecomposition(nodes)


def test_criterion_3_linear_scaling(capsys):
    sizes = (10_000, 100_000)
    medians = []
    for n in sizes:
        g = Graph(n, [(i, i + 1) for i in range(1, n)])
        npd = chain_decomposition(n)
        plugin = make_plugin("coloring", g, C=3)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            res = run_dp(plugin, g, npd)
            times.append(time.perf_counter() - t0)
            assert res.feasible
        medians.append(statistics.median(times))
    ratio = medians[1] / medians[0]
    ok = 5.0 <= ratio <= 20.0
    with capsys.disabled():
        print(f"criterion 3 timing: {medians[0]:.3f}s -> {medians[1]:.3f}s "
              f"(ratio {ratio:.2f})")
    report(capsys, 3, "linear scaling", ok)


def test_criterion_4_catalan_pruning(capsys):
    rng = random.Random(42)
    ok = True
    shrank = False
    instances = 0
    while instances < 50:
        m = rng.randint(1, 6)
        n = rng.randint(1, 4)
        present = frozenset((r, c) for r in range(m) for c in range(n)
                            if rng.random() < 0.9)
        if not present:
            continue
        grid = PartialGrid(m, n, present, frozenset())
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        plugin = make_plugin("path-cover", g)
        base = run_dp(plugin, g, npd)
        pruned = run_dp(plugin, g, npd, allowed=catalan_allowed(plugin, npd))
        if (base.feasible, base.objective) != (pruned.feasible,
                                               pruned.objective):
            ok = False
            break
        before = max(s.allowed for s in base.stats)
        after = max(s.allowed for s in pruned.stats)
        if after > before:
            ok = False
            break
        if after < before:
            shrank = True
        instances += 1
    report(capsys, 4, "catalan pruning", ok and shrank)


def random_valid_decomposition(rng):
    """Random graph plus a valid bag sequence from a random sweep order."""
    n = rng.randint(2, 10)
    g = random_graph(rng, n, rng.uniform(0.2, 0.7))
    order = list(range(1, n + 1))
    rng.shuffle(order)
    placed = set()
    bags = []
    for t, v in enumerate(order):
        placed.add(v)
        future = order[t:]  # v included: earlier endpoints stay for v's bag
        bag = {v} | {u for u in placed
                     if any(g.adjacent(u, w) for w in future)}
        bags.append(tuple(sorted(bag)))
    if rng.random() < 0.3:   # duplicated bags are still valid input
        i = rng.randrange(len(bags))
        bags.insert(i, bags[i])
    return g, PathDecomposition(bags)


def test_criterion_5_decomposition_toolkit(capsys):
    rng = random.Random(5)
    ok = True
    for _ in range(100):
        g, pd = random_valid_decomposition(rng)
        pd.validate(g)
        npd = nicify(pd, g)
        if len(npd.nodes) != 2 * g.n:
            ok = False
            break
        try:
            npd.validate(g)
        except Exception:
            ok = False
            break
    for n in range(2, 13):
        path = Graph(n, [(i, i + 1) for i in range(1, n)])
        npd, w = exact_pathwidth_decomposition(path)
        if w != 1:
            ok = False
    for n in range(2, 7):
        kn = Graph(n, [(u, v) for u in range(1, n + 1)
                       for v in range(u + 1, n + 1)])
        npd, w = exact_pathwidth_decomposition(kn)
        if w != n - 1:
            ok = False
    c5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    npd, w = exact_pathwidth_decomposition(c5)
    if w != 2:
        ok = False
    report(capsys, 5, "decomposition toolkit", ok)


def test_criterion_6_parallel_consistency(capsys):
    """Two runs, each with a fresh plugin instance, agree exactly."""
    rng = random.Random(6)
    ok = True
    for name in PLUGIN_NAMES:
        for _ in range(3):
            if name == "rect-cover":
                grid, pieces = grid_instance(rng)
                g = grid_to_graph(grid)
                npd, _ = grid_sweep_decomposition(grid, transpose=False,
                                                  widen=True)
                params = {"grid": grid, "pieces": pieces}
            else:
                g, params = graph_instance(name, rng)
                npd, _ = exact_pathwidth_decomposition(g)
            runs = []
            for _ in range(2):
                plugin = make_plugin(name, g, **params)
                res = run_dp(plugin, g, npd, retain=True)
                cert = score = None
                if res.feasible:
                    cert = reconstruct_solution(res)
                    _, score = plugin.check_certificate(cert)
                runs.append((res.feasible, res.objective, score, cert,
                             [list(t.items()) for t in res.tables],
                             [list(o.items()) for o in res.origins]))
            if runs[0] != runs[1]:
                ok = False
        if not ok:
            break
    report(capsys, 6, "repeat-run consistency", ok)


def test_criterion_7_normalization_properties(capsys):
    rng = random.Random(7)
    ok = True
    for _ in range(100_000):
        length = rng.randint(0, 10)
        seq = tuple(rng.randint(1, 10) for _ in range(length))
        canon = normalize_partition(seq)
        if normalize_partition(canon) != canon:
            ok = False
            break
        perm = list(range(1, 11))
        rng.shuffle(perm)
        mapped = tuple(perm[x - 1] for x in seq)
        if normalize_partition(mapped) != canon:
            ok = False
            break
    report(capsys, 7, "normalization properties", ok)
