"""Generic dynamic-programming engine over nice path decompositions.

The engine walks the decomposition nodes in order, keeping one table per
node: a mapping from canonical state to the best objective value found
for it.  Absent keys play the role of the uninitialized sentinel, so the
overwrite rule is: write when the slot is empty, else only when the new
value is strictly better.  Ties keep the first writer, which fixes the
reconstruction origin deterministically.

With retain, each node keeps only its origin map, from each state to the
predecessor state that last wrote it.  Values are not kept: _replay()
walks the origins forward again and recomputes them, for reconstruction
and for DpRunResult.tables.  Node contexts are made per node as each
walk reaches them, never held as a list.

Nodes that share a key (node shape, action list and the plugin's
value_key) expand a state to the same next states with the same value
changes, so each state's moves are computed once per key and replayed
at the key's later nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .decomposition import INTRODUCE, NicePathDecomposition
from .errors import (
    CapacityError, NotApplicableError,
    PluginInconsistencyError, ReconstructionUnavailableError,
)
from .graph import Graph
from .partition import crosses


class NodeCtx(NamedTuple):
    """Everything a plugin may ask about one decomposition node.

    Positions are 0-based indices into order_before.  For an introduce
    node the new vertex is appended last, so order_before is the bag it
    joins; nbrs lists the bag positions of its graph neighbors.  For a
    forget node pos is where the leaving vertex sits and nbrs lists its
    neighbors among the other bag members.  Contexts carry structure
    only: plugins read weights, penalties and costs from their bound
    graph.
    """
    index: int
    kind: str
    vertex: int
    order_before: Tuple[int, ...]
    order_after: Tuple[int, ...]
    pos: Optional[int]
    nbrs: Tuple[int, ...]
    is_last: bool


def build_contexts(graph: Graph, npd: NicePathDecomposition
                   ) -> Iterator[NodeCtx]:
    """Check now, in O(n + m), that npd covers every vertex and edge of
    graph (npd.validate), then return a lazy iterator that makes one
    context per node as the walk reaches it."""
    npd.validate(graph)
    return _contexts(graph, npd)


def _contexts(graph: Graph, npd: NicePathDecomposition) -> Iterator[NodeCtx]:
    """The contexts of a decomposition already validated against graph.

    A vertex is not its own neighbor, so at a forget node nbrs leaves
    out pos by itself.
    """
    neighbors = graph.neighbors
    prev: Tuple[int, ...] = ()
    last = len(npd.nodes) - 1
    for i, node in enumerate(npd.nodes):
        v = node.vertex
        near = neighbors(v)
        nbrs = tuple([j for j, u in enumerate(prev) if u in near])
        pos = None if node.kind == INTRODUCE else prev.index(v)
        yield NodeCtx(i, node.kind, v, prev, node.order, pos, nbrs, i == last)
        prev = node.order


def generate_states(plugin, nv: int) -> frozenset:
    """Canonical states of one bag size, enumerated once and cached.

    An enumeration that yields some state twice is a plugin bug, since
    count_states and the reported bounds would then overcount.
    """
    cache = plugin._state_cache
    if nv not in cache:
        states = list(plugin.enumerate_states(nv))
        unique = frozenset(states)
        if len(unique) != len(states):
            raise PluginInconsistencyError(
                f"enumeration for bag size {nv} repeats a state")
        cache[nv] = unique
    return cache[nv]


def catalan_prune(states: frozenset, plugin, npd) -> frozenset:
    """Drop states whose open-path endpoint pairs cross in bag order.

    Sound only for path/cycle cover on a row-major grid sweep, where the
    planar frontier keeps open paths noncrossing.
    """
    if plugin.name not in ("path-cover", "cycle-cover"):
        raise NotApplicableError(
            f"catalan pruning applies to path/cycle cover, not {plugin.name}")
    if not getattr(npd, "from_grid_sweep", False):
        raise NotApplicableError(
            "catalan pruning needs a grid-sweep decomposition")
    return frozenset(s for s in states if not crosses(s))


def catalan_allowed(plugin, npd):
    """Noncrossing state set per bag size, ready for run_dp's allowed."""
    out = {}
    for node in npd.nodes:
        nv = len(node.order)
        if nv not in out:
            out[nv] = catalan_prune(generate_states(plugin, nv), plugin, npd)
    return out


class NodeStats(NamedTuple):
    index: int
    kind: str
    vertex: int
    nv: int
    allowed: int
    filled: int


@dataclass
class DpRunResult:
    """The outcome of run_dp.

    origins, kept only with retain, holds one map per node from each
    state of its table to the predecessor state that wrote it, the
    predecessor being a key object of the map before.  The tables
    themselves are not kept; the tables property replays them.
    """
    feasible: bool
    value: object = None          # raw table value of the winning state
    objective: object = None      # final_value of the winning state
    final_state: tuple = None
    stats: List[NodeStats] = field(default_factory=list)
    plugin: object = None
    graph: object = None
    npd: object = None
    origins: Optional[list] = None
    certificate: object = None    # filled by the solver facade when retained

    @property
    def tables(self) -> Optional[list]:
        """Every node's table, state to value, replayed forward along
        the origins; None unless origins were retained.  Keys and their
        order are the origin maps', which are the tables' own."""
        if self.origins is None:
            return None
        plugin = self.plugin
        table = {plugin.empty_state(): plugin.initial_value()}
        tables = []
        for ctx, org in zip(_contexts(self.graph, self.npd), self.origins):
            actions = plugin.set_of_actions(ctx)
            table = {state: _replay(plugin, ctx, actions, pred, table[pred],
                                   state)[1]
                     for state, pred in org.items()}
            tables.append(table)
        return tables


def _replay(plugin, ctx, actions, pred, value, state):
    """(action, new value) for the first action from pred, in action
    order, whose normalized next state is state and whose new value is
    best under plugin.better.

    When pred is state's origin and value is pred's table value, this is
    the action that wrote state's final table entry and that entry's
    value: the first writer among the candidates that reached the best
    value, since a later equal candidate never overwrites.
    """
    best = None
    for action in actions:
        new_state, new_value, ok = plugin.expand_state(pred, ctx, action,
                                                       value)
        if (ok and (best is None or plugin.better(new_value, best[1]))
                and plugin.normalize(new_state) == state):
            best = (action, new_value)
    if best is None:
        raise PluginInconsistencyError(
            f"{plugin.name} no longer reaches state {state} from its "
            f"origin {pred} at node {ctx.index + 1}")
    return best


def _moves(expand_state, normalize, state, ctx, actions, value):
    """(normalized next state, value change) for each action that
    applies to state, in action order."""
    moves = []
    for action in actions:
        new_state, new_value, ok = expand_state(state, ctx, action, value)
        if ok:
            moves.append((normalize(new_state), new_value - value))
    return moves


def run_dp(plugin, graph: Graph, npd: NicePathDecomposition, *,
           capacity: int = 50_000_000, retain: bool = False,
           allowed: Optional[Dict[int, frozenset]] = None,
           validate: bool = False) -> DpRunResult:
    """Run the generic DP loop and select the best valid final state.

    Each node expands every predecessor state under every action in
    order, normalizes the result and merges it into the next table.  A
    node whose key recurs at a later node keeps each state's moves
    (normalized next state, value change) in a memo; the
    later nodes replay them without calling expand_state or normalize,
    and the memo is dropped after the key's last node.
    allowed maps bag size to a pruned state set (Catalan pruning); its
    sizes are the reported per-node bound and feed the capacity check.
    With validate, every expansion must land in allowed when given, and
    in the plugin's full canonical state set otherwise, and every replayed
    state is expanded afresh and must give the same moves, which catches
    a value_key that leaves out a weight.  With retain, each node's
    origin map (state to the predecessor state that wrote it) is kept
    for reconstruction, and nothing else: no table and no context.
    Contexts are made per node, once for the key pass and once for the
    loop.  The plugin must be bound to graph itself, since it reads
    weights from there.
    """
    if plugin.graph is not graph:
        raise NotApplicableError(
            f"{plugin.name} plugin is bound to another graph")
    allowed = allowed or {}
    allowed_counts = {}
    for node in npd.nodes:
        nv = len(node.order)
        if nv not in allowed_counts:
            if nv in allowed:
                allowed_counts[nv] = len(allowed[nv])
            else:
                allowed_counts[nv] = plugin.count_states(nv)
            if allowed_counts[nv] > capacity:
                raise CapacityError(
                    f"bag size {nv} needs more than {capacity} state slots")

    # expand_state reads only these parts of a node, and the value
    # change only the weights in value_key, so nodes with equal keys
    # expand every state alike; left counts each key's nodes still to come
    key_ids = {}
    node_keys = []
    for ctx in build_contexts(graph, npd):
        actions = tuple(plugin.set_of_actions(ctx))
        key = (ctx.kind, ctx.pos, ctx.nbrs, len(ctx.order_before),
               ctx.is_last, actions, plugin.value_key(ctx))
        node_keys.append(key_ids.setdefault(key, len(key_ids)))
    key_actions = [key[5] for key in key_ids]
    left = [0] * len(key_ids)
    for k in node_keys:
        left[k] += 1
    memos = {}

    expand_state = plugin.expand_state
    normalize = plugin.normalize
    better = plugin.better
    table = {plugin.empty_state(): plugin.initial_value()}
    origins = [] if retain else None
    stats = []

    for ctx, k in zip(_contexts(graph, npd), node_keys):
        actions = key_actions[k]
        left[k] -= 1
        memo = memos.setdefault(k, {}) if left[k] else memos.pop(k, None)
        nxt = {}
        org = {} if retain else None
        if memo is None:
            # a key no later node carries: expand straight into nxt
            for state, value in table.items():
                for action in actions:
                    new_state, new_value, ok = expand_state(state, ctx, action,
                                                            value)
                    if not ok:
                        continue
                    new_state = normalize(new_state)
                    old = nxt.get(new_state)
                    if old is None or better(new_value, old):
                        nxt[new_state] = new_value
                        if org is not None:
                            org[new_state] = state
        else:
            for state, value in table.items():
                moves = memo.get(state)
                if moves is None:
                    moves = memo[state] = _moves(expand_state, normalize,
                                                 state, ctx, actions, value)
                elif validate and moves != _moves(expand_state, normalize,
                                                  state, ctx, actions, value):
                    raise PluginInconsistencyError(
                        f"{plugin.name} expands state {state} at node "
                        f"{ctx.index + 1} unlike an earlier node with the "
                        f"same key: value_key misses a weight the value "
                        f"change reads")
                for new_state, delta in moves:
                    new_value = value + delta
                    old = nxt.get(new_state)
                    if old is None or better(new_value, old):
                        nxt[new_state] = new_value
                        if org is not None:
                            org[new_state] = state

        nv = len(ctx.order_after)
        if validate:
            legal = allowed[nv] if nv in allowed else generate_states(plugin, nv)
            for new_state in nxt:
                if new_state not in legal:
                    raise PluginInconsistencyError(
                        f"expansion produced state {new_state} outside the "
                        f"{'allowed' if nv in allowed else 'canonical'} set "
                        f"at node {ctx.index + 1}")
        table = nxt
        if retain:
            origins.append(org)
        stats.append(NodeStats(ctx.index + 1, ctx.kind, ctx.vertex, nv,
                               allowed_counts[nv], len(table)))

    result = DpRunResult(feasible=False, stats=stats, plugin=plugin,
                         graph=graph, npd=npd, origins=origins)
    best_state = None
    best_final = None
    best_value = None
    for state, value in table.items():
        if not plugin.is_valid_final(state):
            continue
        fv = plugin.final_value(state, value)
        if best_state is None or plugin.better(fv, best_final):
            best_state, best_final, best_value = state, fv, value
    if best_state is not None:
        result.feasible = True
        result.value = best_value
        result.objective = best_final
        result.final_state = best_state
    return result


def reconstruct_solution(result: DpRunResult):
    """Rebuild the winning solution from the retained origins.

    A backward walk follows the origins from the winning final state to
    node 1 and collects each node's state.  A forward walk then replays
    each node with _replay() from the predecessor's value, which picks
    the action the run took and recomputes the value; a final value
    other than result.value means the plugin's expansion has changed
    since the run.  The (ctx, prev, action, state) chain goes to the
    plugin's certificate builder.
    """
    if not result.feasible:
        raise ReconstructionUnavailableError("run was infeasible")
    if result.origins is None:
        raise ReconstructionUnavailableError(
            "origins were not retained (retain=False)")
    plugin = result.plugin
    states = [result.final_state]
    for org in reversed(result.origins):
        states.append(org[states[-1]])
    states.reverse()
    chain = []
    value = plugin.initial_value()
    for ctx, prev, state in zip(_contexts(result.graph, result.npd),
                                states, states[1:]):
        action, value = _replay(plugin, ctx, plugin.set_of_actions(ctx),
                               prev, value, state)
        chain.append((ctx, prev, action, state))
    if value != result.value:
        raise PluginInconsistencyError(
            f"{plugin.name} replays the winning chain to value {value}, "
            f"not the run's {result.value}")
    return plugin.extract_certificate(chain)
