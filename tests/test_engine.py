import gc
import operator
import random
from collections import Counter

import pytest

from pwdp.decomposition import (
    FORGET, INTRODUCE, NiceNode, NicePathDecomposition, PathDecomposition,
    exact_pathwidth_decomposition, grid_sweep_decomposition, nicify,
)
from pwdp.engine import (
    NodeCtx, NodeStats, _key_context, build_contexts,
    catalan_allowed, crosses, generate_states, reconstruct_solution, run_dp,
)
from pwdp.errors import (
    CapacityError, DecompositionError, NotApplicableError,
    PluginInconsistencyError, ReconstructionUnavailableError,
)
from pwdp.graph import Graph, PartialGrid, grid_to_graph
from pwdp.oracle import oracle_mwis
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
            catalan_allowed(plugin, npd)

    @pytest.mark.parametrize("name", ["path-cover", "cycle-cover"])
    def test_bound_enumerates_nothing(self, name, monkeypatch):
        grid = full_grid(4, 4)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        plugin = make_plugin(name, g)

        def untouched(*args):
            raise AssertionError("the noncrossing bound is a closed form")

        monkeypatch.setattr(plugin, "enumerate_states", untouched)
        res = run_dp(plugin, g, npd, allowed=catalan_allowed(plugin, npd))
        assert res.feasible

    def test_bound_feeds_capacity(self):
        # path cover at bag size 5: 558 canonical states, 543 noncrossing
        grid = full_grid(4, 4)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        plugin = make_plugin("path-cover", g)
        with pytest.raises(CapacityError, match="bag size 5 has 558 states, "
                                                "over the capacity of 550"):
            run_dp(plugin, g, npd, capacity=550)
        allowed = catalan_allowed(plugin, npd)
        assert allowed[5] == 543
        res = run_dp(plugin, g, npd, capacity=550, allowed=allowed)
        assert max(s.allowed for s in res.stats) == 543


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
        noncrossing = {nv: plugin.count_noncrossing(nv) for nv in range(5)}
        run_dp(plugin, g, npd, validate=True)
        with pytest.raises(PluginInconsistencyError, match=r"\(1, 2, 1, 2\)"):
            run_dp(plugin, g, npd, validate=True, allowed=noncrossing)


def reference_tables(plugin, graph, npd):
    """The loop without memoized expansions: every node expands, then
    normalizes and merges, every state under every action."""
    better = operator.lt if plugin.direction == "min" else operator.gt
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
                if new_state not in nxt or better(new_value,
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


EVERY_PLUGIN = ([(name, "sum") for name in PLUGIN_NAMES]
                + [("penalty-coloring", "max")])


def weighted_instance(name, mode):
    """(plugin, graph, npd) of a small weighted grid that name solves;
    rect-cover gets its widened sweep.  No cycle cover spans the 15
    cells of a bipartite 3x5 grid, so cycle-cover gets a fourth row and
    a certificate."""
    rows = 4 if name == "cycle-cover" else 3
    grid, g = weighted_grid(rows, 5, seed=len(name))
    npd, _ = grid_sweep_decomposition(grid, transpose=False,
                                      widen=name == "rect-cover")
    plugin = make_plugin(name, g, grid=grid, mode=mode, C=3, k=4, L=2,
                         U=5, pieces=[(1, 2), (2, 1), (2, 2)])
    return plugin, g, npd


class VertexReadingMwis(MwisProblem):
    """Reads the introduced vertex's weight in its transition, where
    only the node's shape is given."""

    def transition(self, state, shape, action):
        self.graph.vertex_weight(shape.vertex)
        return super().transition(state, shape, action)


def random_weight_path():
    """A 10-vertex path with weights 1..9 from random.Random(3), whose
    optimum 34 a memo keyed without the weights got wrong."""
    rng = random.Random(3)
    return Graph(10, [(i, i + 1) for i in range(1, 10)],
                 vertex_weights={v: rng.randint(1, 9) for v in range(1, 11)})


def band(n, bag, seed, weighted):
    """The path 1..n plus each edge (u, u + d), 2 <= d < bag, with
    probability 1/2, and the nice form of its windows of bag vertices;
    weighted draws every weight, penalty and cost from 1..9, else all
    are 1."""
    rng = random.Random(seed)
    edges = [(u, u + d) for u in range(1, n + 1) for d in range(1, bag)
             if u + d <= n and (d == 1 or rng.random() < 0.5)]
    pd = PathDecomposition([range(i, i + bag) for i in range(1, n - bag + 2)])

    def weights(items):
        return {x: rng.randint(1, 9) for x in items} if weighted else {}

    vertices = range(1, n + 1)
    g = Graph(n, edges, vertex_weights=weights(vertices),
              selection_costs=weights(vertices), edge_weights=weights(edges),
              edge_penalties=weights(edges))
    return g, nicify(pd, g)


class TestMemo:
    @pytest.mark.parametrize("name, mode", EVERY_PLUGIN)
    def test_matches_reference_loop(self, name, mode):
        plugin, g, npd = weighted_instance(name, mode)
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

    def test_random_weights_on_shared_keys_match_the_oracle(self):
        # 20 nodes share 4 keys, so each key's transitions serve
        # vertices of different weights
        g = random_weight_path()
        npd, _ = exact_pathwidth_decomposition(g)
        res = run_dp(MwisProblem(g), g, npd, retain=True)
        assert len(res.keys) < len(npd.nodes) / 2
        assert res.objective == oracle_mwis(g).objective == 34
        certificate = reconstruct_solution(res)
        assert MwisProblem(g).check_certificate(certificate) == (True, 34)

    def test_transition_reading_a_vertex_raises(self):
        g = random_weight_path()
        npd, _ = exact_pathwidth_decomposition(g)
        with pytest.raises(AttributeError, match="vertex"):
            run_dp(VertexReadingMwis(g), g, npd)

    @pytest.mark.parametrize("name", ["min-maximal-matching", "k-replica",
                                      "penalty-coloring", "mwis"])
    def test_weights_split_no_key(self, name):
        runs = []
        for weighted in (False, True):
            g, npd = band(60, 5, seed=2, weighted=weighted)
            plugin = make_plugin(name, g, k=3, C=3)
            runs.append(run_dp(plugin, g, npd, retain=True))
        unit, weighted = runs
        assert len(weighted.keys) == len(unit.keys) < len(weighted.filled) / 4
        assert weighted.node_keys == unit.node_keys

    def test_each_key_state_action_expanded_once(self):
        grid = full_grid(4, 6)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        # both plugins' actions follow from the shape, so the shape alone
        # names a node key; max mode combines by max, not +
        for name, mode, objective in [("cycle-cover", "sum", 1),
                                      ("penalty-coloring", "max", 0)]:
            plugin = make_plugin(name, g, mode=mode, C=3)
            calls = Counter()
            transition = plugin.transition

            def counted(state, shape, action):
                calls[shape, state, action] += 1
                return transition(state, shape, action)

            plugin.transition = counted
            res = run_dp(plugin, g, npd)
            assert res.objective == objective
            assert max(calls.values()) == 1
            # every state times every action at every node, as without a
            # memo
            sizes = [1] + [s.filled for s in res.stats[:-1]]
            candidates = sum(
                size * len(plugin.set_of_actions(ctx))
                for size, ctx in zip(sizes, build_contexts(g, npd)))
            assert sum(calls.values()) < candidates / 2


class TestStateIds:
    """run_dp hashes small ints, one per canonical state, and caches each
    raw expansion result's id, so normalize sees a raw tuple at most
    once per run; direction alone ranks values."""

    @staticmethod
    def counting_normalize(plugin):
        calls = Counter()
        normalize = plugin.normalize

        def counted(state):
            calls[state] += 1
            return normalize(state)

        plugin.normalize = counted
        return calls

    @pytest.mark.parametrize("validate", [False, True])
    @pytest.mark.parametrize("name, mode", EVERY_PLUGIN)
    def test_each_raw_state_normalized_at_most_once(self, name, mode,
                                                    validate):
        plugin, g, npd = weighted_instance(name, mode)
        calls = self.counting_normalize(plugin)
        res = run_dp(plugin, g, npd, retain=True, validate=validate)
        assert calls and max(calls.values()) == 1
        # each replay caches on its own; a raw tuple equal to a state of
        # the run needs no normalize call there
        for replay in (reconstruct_solution, lambda r: r.tables):
            calls.clear()
            replay(res)
            assert max(calls.values(), default=0) <= 1

    @pytest.mark.parametrize("direction", ["maximize", "MIN", None])
    def test_unknown_direction_rejected(self, direction):
        g = path_graph(3)
        npd, _ = exact_pathwidth_decomposition(g)
        plugin = make_plugin("mwis", g)
        plugin.direction = direction
        with pytest.raises(PluginInconsistencyError,
                           match="not 'min' or 'max'"):
            run_dp(plugin, g, npd)

    def test_tables_decode_to_interned_states(self):
        grid = full_grid(3, 4)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        res = run_dp(make_plugin("path-cover", g), g, npd, retain=True)
        for table, org, ids in zip(res.tables, res.origins, res.origin_ids):
            assert list(table) == list(org) == [res.states[s] for s in ids]
            assert all(a is b for a, b in zip(table, org))
        assert res.states[res.final_id] is res.final_state


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
        gain = plugin.gain

        def off_by_one(ctx, action, tag):
            return gain(ctx, action, tag) + 1

        monkeypatch.setattr(plugin, "gain", off_by_one)
        with pytest.raises(PluginInconsistencyError, match="replays"):
            reconstruct_solution(res)


class TestCertificateCheck:
    """reconstruct_solution scores the certificate it builds with the
    plugin's check_certificate, so a run whose claimed value its own
    certificate does not reach raises instead of answering."""

    @pytest.mark.parametrize("name", ["coloring", "k-replica",
                                      "max-leaf-tree", "min-maximal-matching",
                                      "mwis", "path-cover"])
    def test_certificate_missing_an_element_raises(self, name, monkeypatch):
        plugin, g, npd = weighted_instance(name, "sum")
        res = run_dp(plugin, g, npd, retain=True)
        extract = plugin.extract_certificate

        def drop_one(chain):
            certificate = extract(chain)
            if isinstance(certificate, dict):
                return dict(list(certificate.items())[1:])
            return certificate[1:]

        monkeypatch.setattr(plugin, "extract_certificate", drop_one)
        with pytest.raises(PluginInconsistencyError, match="certificate"):
            reconstruct_solution(res)

    @pytest.mark.parametrize("name, mode", EVERY_PLUGIN)
    def test_objective_off_by_one_raises(self, name, mode, monkeypatch):
        plugin, g, npd = weighted_instance(name, mode)
        final_value = plugin.final_value

        def off_by_one(state, value):
            return final_value(state, value) + 1

        monkeypatch.setattr(plugin, "final_value", off_by_one)
        res = run_dp(plugin, g, npd, retain=True)
        with pytest.raises(PluginInconsistencyError,
                           match=f"scores .*, not the run's {res.objective}"):
            reconstruct_solution(res)


class TestKeyReplay:
    """After the key pass the engine works from node key ids: the loop
    makes a context only where it expands or reads weights, and a
    replay computes the transitions of each (key, predecessor) pair
    once."""

    @staticmethod
    def long_path(name):
        grid = full_grid(1, 40)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        return make_plugin(name, g, C=3), g, npd

    @pytest.mark.parametrize("name", ["mwis", "coloring"])
    def test_loop_makes_no_context_where_every_state_replays(
            self, name, monkeypatch):
        plugin, g, npd = self.long_path(name)
        expanded = Counter()
        expand = plugin.expand_state

        def counted(state, ctx, action, value):
            expanded[ctx.index] += 1
            return expand(state, ctx, action, value)

        made = Counter()

        def recording(*fields):
            made[fields[0]] += 1
            return NodeCtx(*fields)

        gained = Counter()
        gain = type(plugin).gain

        def counted_gain(self, ctx, action, tag):
            gained[ctx.index] += 1
            return gain(self, ctx, action, tag)

        plugin.expand_state = counted
        if name == "mwis":  # coloring reads no weight and keeps no gain
            monkeypatch.setattr(MwisProblem, "gain", counted_gain)
        monkeypatch.setattr("pwdp.engine.NodeCtx", recording)
        run_dp(plugin, g, npd, retain=True)
        # the key pass makes every context once, the loop once more at
        # each node that expands something or reads its weights: mwis's
        # introduce nodes, whose select gains the vertex weight
        replayed = [i for i in range(len(npd.nodes)) if not expanded[i]]
        assert len(replayed) > len(npd.nodes) / 2
        assert all(made[i] == 1 for i in replayed if not gained[i])
        assert all(made[i] == 2 for i in expanded)
        assert all(made[i] == 2 and gained[i] == 1
                   for i in gained if not expanded[i])
        introduced = [i for i in replayed if npd.nodes[i].kind == INTRODUCE]
        assert ([i for i in replayed if gained[i]]
                == (introduced if name == "mwis" else []))

    @pytest.mark.parametrize("name", ["mwis", "coloring"])
    def test_reconstruction_expands_each_key_pred_action_once(self, name):
        plugin, g, npd = self.long_path(name)
        res = run_dp(plugin, g, npd, retain=True)
        calls = Counter()
        transition = plugin.transition

        # the actions of both plugins follow from the shape
        def counted(state, shape, action):
            calls[shape, state, action] += 1
            return transition(state, shape, action)

        plugin.transition = counted
        ok, _objective = plugin.check_certificate(reconstruct_solution(res))
        assert ok
        assert calls and max(calls.values()) == 1


class TestKeyContexts:
    """After the key pass, node contexts are remade from the node keys
    and the bags, never from the graph."""

    @pytest.mark.parametrize("name, mode", EVERY_PLUGIN)
    def test_key_context_equals_graph_context(self, name, mode, monkeypatch,
                                              node_context):
        plugin, g, npd = weighted_instance(name, mode)
        seen = []
        expand = plugin.expand_state

        def recording(state, ctx, action, value):
            seen.append(ctx)
            return expand(state, ctx, action, value)

        gain = type(plugin).gain

        def recording_gain(self, ctx, action, tag):
            seen.append(ctx)
            return gain(self, ctx, action, tag)

        chains = []
        extract = plugin.extract_certificate

        def recording_extract(chain):
            chains.append([ctx for ctx, _prev, _action, _state in chain])
            return extract(chain)

        plugin.expand_state = recording
        plugin.extract_certificate = recording_extract
        monkeypatch.setattr(type(plugin), "gain", recording_gain)
        res = run_dp(plugin, g, npd, retain=True)
        reconstruct_solution(res)
        res.tables
        for i, k in enumerate(res.node_keys):
            assert (_key_context(npd.nodes, i, res.keys[k])
                    == node_context(g, npd, i))
        # the contexts the plugin was handed, in the loop and the replays
        assert seen
        assert all(ctx == node_context(g, npd, ctx.index) for ctx in seen)
        # and the reconstruction chain's, one per node in order
        assert chains == [[node_context(g, npd, i)
                           for i in range(len(npd.nodes))]]

    @pytest.mark.parametrize("name, mode", EVERY_PLUGIN)
    def test_replays_read_no_adjacency(self, name, mode, monkeypatch):
        plugin, g, npd = weighted_instance(name, mode)
        res = run_dp(plugin, g, npd, retain=True)
        calls = []
        neighbors = Graph.neighbors

        def counted(graph, v):
            calls.append(v)
            return neighbors(graph, v)

        monkeypatch.setattr(Graph, "neighbors", counted)
        ok, objective = plugin.check_certificate(reconstruct_solution(res))
        assert ok and objective == res.objective
        assert len(res.tables) == len(npd.nodes)
        assert calls == []


class NoIterStates(list):
    """A state list that may be indexed but not walked."""

    def __iter__(self):
        raise AssertionError("the run's state list was iterated")


class TestReplayReadsStatesById:
    """Reconstruction and the tables property look states up by id and
    never walk the run's whole state list."""

    @pytest.mark.parametrize("name, mode", EVERY_PLUGIN)
    def test_replay_never_iterates_states(self, name, mode):
        plugin, g, npd = weighted_instance(name, mode)
        res = run_dp(plugin, g, npd, retain=True)
        certificate, tables = reconstruct_solution(res), res.tables
        count = len(res.states)
        res.states = NoIterStates(res.states)
        assert reconstruct_solution(res) == certificate
        assert res.tables == tables
        # and the replay adds no state to the run's list
        assert len(res.states) == count


class TestNodeStats:
    """run_dp keeps one filled count per node; stats makes the NodeStats
    records from the counts, the nodes and the bag-size bounds."""

    @staticmethod
    def expected(plugin, npd, filled, allowed=None):
        allowed = allowed or {}
        return [(i, node.kind, node.vertex, len(node.order),
                 allowed.get(len(node.order),
                             plugin.count_states(len(node.order))), f)
                for i, (node, f) in enumerate(zip(npd.nodes, filled),
                                              start=1)]

    @pytest.mark.parametrize("name, mode", EVERY_PLUGIN)
    def test_fields_from_nodes_counts_and_tables(self, name, mode):
        plugin, g, npd = weighted_instance(name, mode)
        res = run_dp(plugin, g, npd, retain=True)
        sizes = [len(table) for table in res.tables]
        assert res.filled == sizes
        assert [tuple(st) for st in res.stats] == self.expected(
            plugin, npd, sizes)
        assert all(isinstance(st, NodeStats) for st in res.stats)
        plain = run_dp(plugin, g, npd)
        assert not plain.retained
        assert plain.stats == res.stats
        assert plain.filled == sizes

    @pytest.mark.parametrize("name, mode", EVERY_PLUGIN)
    def test_allowed_bounds_replace_counts(self, name, mode):
        plugin, g, npd = weighted_instance(name, mode)
        bounds = {1: 10**6, 3: 10**7}
        res = run_dp(plugin, g, npd, allowed=bounds)
        assert [tuple(st) for st in res.stats] == self.expected(
            plugin, npd, res.filled, bounds)
        assert res.allowed == {
            len(node.order): bounds.get(len(node.order),
                                        plugin.count_states(len(node.order)))
            for node in npd.nodes}

    def test_catalan_bound_in_stats(self):
        grid = full_grid(4, 4)
        g = grid_to_graph(grid)
        npd, _ = grid_sweep_decomposition(grid)
        plugin = make_plugin("path-cover", g)
        bounds = catalan_allowed(plugin, npd)
        res = run_dp(plugin, g, npd, allowed=bounds)
        assert [tuple(st) for st in res.stats] == self.expected(
            plugin, npd, res.filled, bounds)


class TestNoCyclicGarbage:
    """pwdp's CLI pauses the cyclic collector for a whole command, which
    is sound only while a run leaves no reference cycle behind: under
    the pause, a cycle per node would leak without any warning."""

    @pytest.mark.parametrize("name, mode", EVERY_PLUGIN)
    def test_run_and_replays_leave_no_cycles(self, name, mode):
        def solve():
            plugin, g, npd = weighted_instance(name, mode)
            res = run_dp(plugin, g, npd, retain=True)
            assert res.feasible
            reconstruct_solution(res)
            res.tables

        was = gc.isenabled()
        gc.collect()  # clear what earlier tests left
        gc.disable()
        try:
            solve()
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()


class RepeatingEnumeration(ProblemDefinition):
    name = "repeating"
    direction = "min"

    def enumerate_states(self, nv):
        yield (0,) * nv
        yield (0,) * nv
