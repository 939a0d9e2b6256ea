import random
from collections import Counter

import pytest

from pwdp.decomposition import (
    FORGET, INTRODUCE, NiceNode, NicePathDecomposition,
    exact_pathwidth_decomposition, grid_sweep_decomposition,
)
from pwdp.engine import (
    build_contexts, catalan_allowed, catalan_prune, crosses,
    generate_states, reconstruct_solution, run_dp,
)
from pwdp.errors import (
    CapacityError, DecompositionError, NotApplicableError,
    PluginInconsistencyError, ReconstructionUnavailableError,
)
from pwdp.graph import Graph, PartialGrid, grid_to_graph
from pwdp.plugins import PLUGIN_NAMES, make_plugin
from pwdp.plugins.base import ProblemDefinition
from pwdp.plugins.coloring import CanonicalColoringProblem
from pwdp.plugins.replica import MwisProblem


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def full_grid(m, n):
    cells = frozenset((r, c) for r in range(m) for c in range(n))
    return PartialGrid(m, n, cells, frozenset())


def nice(*events):
    """Nice decomposition from (kind, vertex) events, in that order."""
    nodes, bag = [], ()
    for kind, v in events:
        bag = bag + (v,) if kind == INTRODUCE else tuple(u for u in bag if u != v)
        nodes.append(NiceNode(kind, v, bag))
    return NicePathDecomposition(nodes)


class TestStateIndex:
    """generate_states: one cached frozenset of canonical states per bag size."""

    def test_duplicate_state_rejected(self):
        plugin = RepeatingEnumeration(Graph(2, []))
        with pytest.raises(PluginInconsistencyError):
            generate_states(plugin, 2)
        assert 2 not in plugin._state_cache

    def test_canonical_coloring_count(self):
        g = Graph(9, [])
        plugin = CanonicalColoringProblem(g, 7)
        assert len(generate_states(plugin, 9)) == 21110
        # cache returns the same object
        assert generate_states(plugin, 9) is generate_states(plugin, 9)


class TestCatalan:
    def test_crossing_examples(self):
        # open pairs at positions (1,3) and (2,4) interleave
        assert crosses((1, 2, 1, 2))
        # disjoint (1,2),(3,4) and nested (1,4),(2,3) do not
        assert not crosses((1, 1, 2, 2))
        assert not crosses((1, 2, 2, 1))
        assert not crosses((0, 0, 0, 0))

    def test_prune_preserves_opt_and_filled(self):
        grid = full_grid(3, 3)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        for name in ("path-cover", "cycle-cover"):
            plugin = make_plugin(name, g)
            base = run_dp(plugin, g, npd)
            pruned = run_dp(plugin, g, npd,
                            allowed=catalan_allowed(plugin, npd))
            assert base.feasible == pruned.feasible
            assert base.objective == pruned.objective
            for s1, s2 in zip(base.stats, pruned.stats):
                assert s1.filled == s2.filled
            assert (max(s.allowed for s in pruned.stats)
                    < max(s.allowed for s in base.stats))

    def test_rejects_wrong_plugin(self):
        grid = full_grid(2, 2)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        with pytest.raises(NotApplicableError):
            catalan_allowed(make_plugin("mwis", g), npd)

    def test_rejects_non_sweep_decomposition(self):
        g = path_graph(4)
        npd, _ = exact_pathwidth_decomposition(g)
        plugin = make_plugin("path-cover", g)
        with pytest.raises(NotApplicableError):
            catalan_prune(generate_states(plugin, 2), plugin, npd)


class TestRunDp:
    def test_stats_shape(self):
        g = path_graph(3)
        npd, _ = exact_pathwidth_decomposition(g)
        res = run_dp(make_plugin("path-cover", g), g, npd)
        assert len(res.stats) == 2 * g.n
        assert res.stats[-1].nv == 0
        assert res.stats[-1].filled >= 1
        assert all(s.filled <= s.allowed for s in res.stats)

    def test_capacity_error(self, monkeypatch):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                      (1, 3), (2, 4), (3, 5), (4, 6), (1, 4)])
        npd, _ = exact_pathwidth_decomposition(g)
        k9 = Graph(9, [(u, v) for u in range(1, 10) for v in range(u + 1, 10)])
        one_bag = nice(*[(INTRODUCE, v) for v in range(1, 10)],
                       *[(FORGET, v) for v in range(1, 10)])
        cases = [
            (g, npd, "coloring", {"C": 10}, 100),
            (k9, one_bag, "max-leaf-tree", {}, 10 ** 6),           # 25.7M
            (k9, one_bag, "avg-path", {"L": 1, "U": 9}, 10 ** 6),  # 16.5M
        ]

        def untouched(*args):
            raise AssertionError("capacity must be checked first")

        for graph, decomp, name, params, capacity in cases:
            plugin = make_plugin(name, graph, **params)
            # closed-form counts, checked before the first node runs
            monkeypatch.setattr(plugin, "enumerate_states", untouched)
            monkeypatch.setattr(plugin, "set_of_actions", untouched)
            with pytest.raises(CapacityError):
                run_dp(plugin, graph, decomp, capacity=capacity)

    def test_rejects_plugin_bound_to_another_graph(self):
        # the plugin reads weights from its own graph, so an unweighted
        # copy would score the run differently from the certificate
        g = path_graph(3)
        weighted = Graph(3, g.edges, vertex_weights={1: 5, 3: 5})
        npd, _ = exact_pathwidth_decomposition(g)
        with pytest.raises(NotApplicableError):
            run_dp(make_plugin("mwis", g), weighted, npd)

    def test_deterministic_across_runs(self):
        grid = full_grid(3, 3)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        plugin = make_plugin("path-cover", g)
        r1 = run_dp(plugin, g, npd, retain=True)
        r2 = run_dp(plugin, g, npd, retain=True)
        assert r1.final_state == r2.final_state
        assert r1.objective == r2.objective
        for t1, t2 in zip(r1.tables, r2.tables):
            assert list(t1.items()) == list(t2.items())
        for o1, o2 in zip(r1.origins, r2.origins):
            assert list(o1.items()) == list(o2.items())
        assert reconstruct_solution(r1) == reconstruct_solution(r2)

    def test_reconstruction_needs_retain(self):
        g = path_graph(3)
        npd, _ = exact_pathwidth_decomposition(g)
        res = run_dp(make_plugin("path-cover", g), g, npd)
        with pytest.raises(ReconstructionUnavailableError):
            reconstruct_solution(res)

    def test_reconstruction_infeasible(self):
        g = path_graph(3)
        npd, _ = exact_pathwidth_decomposition(g)
        res = run_dp(make_plugin("cycle-cover", g), g, npd, retain=True)
        assert not res.feasible
        with pytest.raises(ReconstructionUnavailableError):
            reconstruct_solution(res)

    def test_rejects_decomposition_missing_an_edge(self):
        # a P3 decomposition never holds 1 and 3 together, so the
        # triangle would wrongly come out 2-colorable
        triangle = Graph(3, [(1, 2), (1, 3), (2, 3)])
        npd, _ = exact_pathwidth_decomposition(path_graph(3))
        with pytest.raises(DecompositionError) as ei:
            run_dp(make_plugin("coloring", triangle, C=2), triangle, npd)
        assert ei.value.kind == "uncovered-edge"

    def test_rejects_decomposition_of_other_vertices(self):
        g = path_graph(3)
        # six nodes, as for three vertices, but vertex 4 stands in for 3
        foreign = nice((INTRODUCE, 1), (INTRODUCE, 2), (FORGET, 1),
                       (INTRODUCE, 4), (FORGET, 2), (FORGET, 4))
        short, _ = exact_pathwidth_decomposition(path_graph(2))
        for npd in (foreign, short):
            with pytest.raises(DecompositionError) as ei:
                run_dp(make_plugin("mwis", g), g, npd)
            assert ei.value.kind == "bad-structure"


class NonCanonicalColoring(CanonicalColoringProblem):
    """Deliberately skips canonicalization to exercise validate mode."""

    def normalize(self, state):
        return state


class TestValidateMode:
    def test_catches_non_canonical_expansion(self):
        g = Graph(3, [(1, 2), (2, 3)])
        npd, _ = exact_pathwidth_decomposition(g)
        plugin = NonCanonicalColoring(g, 3)
        with pytest.raises(PluginInconsistencyError):
            run_dp(plugin, g, npd, validate=True)

    def test_clean_plugin_passes(self):
        g = Graph(3, [(1, 2), (2, 3)])
        npd, _ = exact_pathwidth_decomposition(g)
        plugin = CanonicalColoringProblem(g, 3)
        res = run_dp(plugin, g, npd, validate=True)
        assert res.feasible

    @pytest.mark.parametrize("name", PLUGIN_NAMES)
    def test_every_plugin_passes_and_matches(self, name):
        grid = full_grid(2, 3)
        g = grid_to_graph(grid)
        params = {"C": 2, "k": 3, "L": 2, "U": 4,
                  "grid": grid, "pieces": [(1, 2), (2, 2)]}
        if name == "rect-cover":
            npd, _ = grid_sweep_decomposition(grid, transpose=False, widen=True)
        else:
            npd, _ = exact_pathwidth_decomposition(g)
        plain = run_dp(make_plugin(name, g, **params), g, npd)
        checked = run_dp(make_plugin(name, g, **params), g, npd, validate=True)
        assert checked.objective == plain.objective
        assert ([s.filled for s in checked.stats]
                == [s.filled for s in plain.stats])

    @pytest.mark.parametrize("name", ["path-cover", "cycle-cover"])
    def test_grid_sweep_stays_noncrossing(self, name):
        grid = full_grid(4, 4)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        plugin = make_plugin(name, g)
        res = run_dp(plugin, g, npd, validate=True,
                     allowed=catalan_allowed(plugin, npd))
        assert res.feasible

    def test_crossing_state_caught(self):
        # edges 1-3 and 2-4 with all four vertices in one bag: the open
        # paths' endpoints interleave, which no planar sweep produces
        g = Graph(4, [(1, 3), (2, 4)])
        npd = nice(*[(INTRODUCE, v) for v in (1, 2, 3, 4)],
                   *[(FORGET, v) for v in (1, 2, 3, 4)])
        plugin = make_plugin("path-cover", g)
        noncrossing = {nv: frozenset(s for s in generate_states(plugin, nv)
                                     if not crosses(s))
                       for nv in range(5)}
        run_dp(plugin, g, npd, validate=True)
        with pytest.raises(PluginInconsistencyError, match=r"\(1, 2, 1, 2\)"):
            run_dp(plugin, g, npd, validate=True, allowed=noncrossing)


def reference_tables(plugin, graph, npd):
    """The loop without memoized expansions: every node expands, then
    normalizes and merges, every state under every action."""
    table = {plugin.empty_state(): plugin.initial_value()}
    tables, origins = [], []
    for ctx in build_contexts(graph, npd):
        nxt, org = {}, {}
        for state, value in table.items():
            for ai, action in enumerate(plugin.set_of_actions(ctx)):
                new_state, new_value, ok = plugin.expand_state(
                    state, ctx, action, value)
                if not ok:
                    continue
                new_state = plugin.normalize(new_state)
                if new_state not in nxt or plugin.better(new_value,
                                                         nxt[new_state]):
                    nxt[new_state] = new_value
                    org[new_state] = (state, ai)
        table = nxt
        tables.append(table)
        origins.append(org)
    return tables, origins


def reference_certificate(plugin, graph, npd, origins, final_state):
    """The certificate of a walk back along (state, ai) origins."""
    chain = []
    state = final_state
    for ctx in reversed(list(build_contexts(graph, npd))):
        prev, ai = origins[ctx.index][state]
        chain.append((ctx, prev, plugin.set_of_actions(ctx)[ai], state))
        state = prev
    chain.reverse()
    return plugin.extract_certificate(chain)


def node_key(plugin, ctx):
    return (ctx.kind, ctx.pos, ctx.nbrs, len(ctx.order_before), ctx.is_last,
            tuple(plugin.set_of_actions(ctx)), plugin.value_key(ctx))


def weighted_grid(rows, cols, seed):
    """A full grid whose weights, costs and penalties are 1 or 2, so node
    keys both repeat and differ along the sweep."""
    grid = full_grid(rows, cols)
    g = grid_to_graph(grid)
    rng = random.Random(seed)

    def vmap():
        return {v: rng.choice((1, 2)) for v in g.vertices()}

    def emap():
        return {e: rng.choice((1, 2)) for e in g.edges}

    return grid, Graph(g.n, g.edges, vertex_weights=vmap(),
                       selection_costs=vmap(), edge_weights=emap(),
                       edge_penalties=emap(), coords=g.coords)


class UnderKeyedMwis(MwisProblem):
    """Leaves w(v) out of its value key, so replays reuse another
    vertex's weight."""

    def value_key(self, ctx):
        return ()


class TestMemo:
    @pytest.mark.parametrize("name, mode",
                             [(name, "sum") for name in PLUGIN_NAMES]
                             + [("penalty-coloring", "max")])
    def test_matches_reference_loop(self, name, mode):
        # no cycle cover spans the 15 cells of a bipartite 3x5 grid, so
        # cycle-cover gets a fourth row and a certificate to compare
        rows = 4 if name == "cycle-cover" else 3
        grid, g = weighted_grid(rows, 5, seed=len(name))
        npd, _ = grid_sweep_decomposition(grid, transpose=False,
                                          widen=name == "rect-cover")
        plugin = make_plugin(name, g, grid=grid, mode=mode, C=3, k=4, L=2,
                             U=5, pieces=[(1, 2), (2, 1), (2, 2)])
        res = run_dp(plugin, g, npd, retain=True)
        tables, origins = reference_tables(plugin, g, npd)
        assert ([list(t.items()) for t in res.tables]
                == [list(t.items()) for t in tables])
        # the engine keeps each origin's predecessor only; the action
        # comes back from the replay rule
        assert ([list(o.items()) for o in res.origins]
                == [[(state, pred) for state, (pred, _ai) in o.items()]
                    for o in origins])
        assert [s.filled for s in res.stats] == [len(t) for t in tables]
        assert res.feasible
        assert reconstruct_solution(res) == reference_certificate(
            plugin, g, npd, origins, res.final_state)

    def test_under_keyed_plugin_caught(self):
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)],
                  vertex_weights={1: 1, 2: 5, 3: 1, 4: 7, 5: 2})
        npd, _ = exact_pathwidth_decomposition(g)
        assert run_dp(MwisProblem(g), g, npd, validate=True).objective == 12
        with pytest.raises(PluginInconsistencyError, match="value_key"):
            run_dp(UnderKeyedMwis(g), g, npd, validate=True)

    def test_each_key_state_action_expanded_once(self):
        grid = full_grid(4, 6)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        plugin = make_plugin("cycle-cover", g)
        calls = Counter()
        expand = plugin.expand_state

        def counted(state, ctx, action, value):
            calls[node_key(plugin, ctx), state, action] += 1
            return expand(state, ctx, action, value)

        plugin.expand_state = counted
        res = run_dp(plugin, g, npd)
        assert res.objective == 1
        assert max(calls.values()) == 1
        # every state times every action at every node, as without a memo
        sizes = [1] + [s.filled for s in res.stats[:-1]]
        candidates = sum(size * len(plugin.set_of_actions(ctx))
                         for size, ctx in zip(sizes, build_contexts(g, npd)))
        assert sum(calls.values()) < candidates / 2


class TestRetention:
    """retain keeps one origin map per node; values are replayed."""

    @pytest.mark.parametrize("name", ["path-cover", "mwis", "k-replica"])
    def test_origin_is_a_key_of_the_map_before(self, name):
        grid, g = weighted_grid(3, 5, seed=1)
        npd, _ = grid_sweep_decomposition(grid)
        plugin = make_plugin(name, g, k=4)
        res = run_dp(plugin, g, npd, retain=True)
        empty = plugin.empty_state()
        assert all(pred == empty for pred in res.origins[0].values())
        for before, org in zip(res.origins, res.origins[1:]):
            keys = {id(state) for state in before}
            assert all(id(pred) in keys for pred in org.values())

    def test_tables_replayed_on_infeasible_run(self):
        grid = full_grid(3, 5)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        plugin = make_plugin("cycle-cover", g)
        res = run_dp(plugin, g, npd, retain=True)
        assert not res.feasible
        tables, _origins = reference_tables(plugin, g, npd)
        assert ([list(t.items()) for t in res.tables]
                == [list(t.items()) for t in tables])
        assert run_dp(plugin, g, npd).tables is None

    def test_tie_replays_the_first_writers_action(self):
        # two connect actions reach a state on this run's winning chain
        # at the same value, and the tree edges differ between them
        grid, g = weighted_grid(3, 4, seed=1)
        npd, _ = grid_sweep_decomposition(grid, transpose=False)
        plugin = make_plugin("max-leaf-tree", g)
        res = run_dp(plugin, g, npd, retain=True)
        _tables, origins = reference_tables(plugin, g, npd)
        assert reconstruct_solution(res) == reference_certificate(
            plugin, g, npd, origins, res.final_state)

    def test_changed_expansion_caught_on_replay(self, monkeypatch):
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)],
                  vertex_weights={1: 1, 2: 5, 3: 1, 4: 7, 5: 2})
        npd, _ = exact_pathwidth_decomposition(g)
        plugin = MwisProblem(g)
        res = run_dp(plugin, g, npd, retain=True)
        assert reconstruct_solution(res) == [2, 4]
        expand = plugin.expand_state

        def off_by_one(state, ctx, action, value):
            new_state, new_value, ok = expand(state, ctx, action, value)
            return new_state, new_value + 1, ok

        monkeypatch.setattr(plugin, "expand_state", off_by_one)
        with pytest.raises(PluginInconsistencyError, match="replays"):
            reconstruct_solution(res)


class RepeatingEnumeration(ProblemDefinition):
    name = "repeating"
    direction = "min"

    def enumerate_states(self, nv):
        yield (0,) * nv
        yield (0,) * nv
