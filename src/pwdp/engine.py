"""Generic dynamic-programming engine over nice path decompositions.

The engine walks the decomposition nodes in order, keeping one table per
node: a mapping from canonical state to the best objective value found
for it.  Absent keys play the role of the uninitialized sentinel, so the
overwrite rule is: write when the slot is empty, else only when the new
value is strictly better.  Ties keep the first writer, which fixes the
reconstruction origin deterministically.

Nodes that share a key (node shape, action list and the plugin's
value_key) expand a state to the same next states with the same value
changes.  One pass over the graph-built node contexts gives each node
its key id; from then on the engine works from those ids and never
reads the graph's adjacency again.  The DP loop computes each state's
moves once per key, replays them at the key's later nodes, and remakes
a node's context from its key and bags (_key_context) only when it has
to expand something.

With retain, each node keeps only its origin map, from each state to the
predecessor state that last wrote it, and the run keeps its key ids and
key tuples.  Values are not kept: _replayer() walks the origins forward
again and recomputes them, for reconstruction and for
DpRunResult.tables, expanding each (key, predecessor) pair once.
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
    context per node, from the graph, as the walk reaches it."""
    npd.validate(graph)
    return (_context(graph, npd, i) for i in range(len(npd.nodes)))


def _context(graph: Graph, npd: NicePathDecomposition, i: int) -> NodeCtx:
    """The context of node i (0-based) of a decomposition already
    validated against graph.

    The final bag is empty, so nodes[i - 1].order is the bag before node
    i at i = 0 too.  A vertex is not its own neighbor, so at a forget
    node nbrs leaves out pos by itself.
    """
    nodes = npd.nodes
    kind, v, order = nodes[i]
    prev = nodes[i - 1].order
    near = graph.neighbors(v)
    nbrs = tuple([j for j, u in enumerate(prev) if u in near])
    pos = None if kind == INTRODUCE else prev.index(v)
    return NodeCtx(i, kind, v, prev, order, pos, nbrs, i == len(nodes) - 1)


def _key_context(nodes, i: int, key: tuple) -> NodeCtx:
    """Node i's context remade from its node key, (kind, pos, nbrs, nv,
    is_last, actions, value_key), and the bags around it: equal to
    _context's, without reading the graph."""
    kind, pos, nbrs, _nv, is_last = key[:5]
    node = nodes[i]
    return NodeCtx(i, kind, node.vertex, nodes[i - 1].order, node.order,
                   pos, nbrs, is_last)


def generate_states(plugin, nv: int) -> frozenset:
    """Canonical states of one bag size, enumerated once and cached for
    run_dp(validate=True); a state enumerated twice is a plugin bug."""
    cache = plugin._state_cache
    if nv not in cache:
        states = list(plugin.enumerate_states(nv))
        unique = frozenset(states)
        if len(unique) != len(states):
            raise PluginInconsistencyError(
                f"enumeration for bag size {nv} repeats a state")
        cache[nv] = unique
    return cache[nv]


def catalan_allowed(plugin, npd) -> Dict[int, int]:
    """The noncrossing state bound of each bag size of npd, in closed
    form (plugin.count_noncrossing), ready for run_dp's allowed.

    Sound only for path/cycle cover on a row-major grid sweep, where the
    planar frontier keeps open paths noncrossing.
    """
    if plugin.name not in ("path-cover", "cycle-cover"):
        raise NotApplicableError(
            f"catalan pruning applies to path/cycle cover, not {plugin.name}")
    if not getattr(npd, "from_grid_sweep", False):
        raise NotApplicableError(
            "catalan pruning needs a grid-sweep decomposition")
    sizes = sorted({len(node.order) for node in npd.nodes})
    return {nv: plugin.count_noncrossing(nv) for nv in sizes}


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
    predecessor being a key object of the map before.  A retained run
    also keeps node_keys, each node's key id, and keys, the key tuples
    by id (keys[k][5] is the action tuple), so that replays need no key
    pass and remake contexts without the graph.  The tables themselves
    are not kept; the tables property replays them.
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
    node_keys: Optional[list] = None
    keys: Optional[list] = None
    certificate: object = None    # filled by the solver facade when retained

    @property
    def tables(self) -> Optional[list]:
        """Every node's table, state to value, replayed forward along
        the origins; None unless origins were retained.  Keys and their
        order are the origin maps', which are the tables' own."""
        if self.origins is None:
            return None
        replay = _replayer(self)
        plugin = self.plugin
        table = {plugin.empty_state(): plugin.initial_value()}
        tables = []
        for i, org in enumerate(self.origins):
            table = {state: replay(i, pred, table[pred], state)[1]
                     for state, pred in org.items()}
            tables.append(table)
        return tables


def _replayer(result: DpRunResult):
    """replay(i, pred, value, state, ctx=None) -> (action, new value) for
    the first action from pred at node i, in action order, whose
    normalized next state is state and whose new value is best under
    plugin.better.

    When pred is state's origin and value is pred's table value, this is
    the action that wrote state's final table entry and that entry's
    value: the first writer among the candidates that reached the best
    value, since a later equal candidate never overwrites.  Each
    (key, pred) pair is expanded once, on the node context given or
    remade then from the node key (_key_context; the graph is not
    read), into (action, normalized next, value change) moves that the
    key's other nodes reuse, as the run's memo does (its moves leave the
    action out, which keeps the larger memo small); a key that names its
    node (penalty-coloring's max mode) shares no moves.
    """
    plugin = result.plugin
    nodes = result.npd.nodes
    node_keys, keys = result.node_keys, result.keys
    expand_state = plugin.expand_state
    normalize = plugin.normalize
    better = plugin.better
    cache = {}

    def replay(i, pred, value, state, ctx=None):
        k = node_keys[i]
        moves = cache.get((k, pred))
        if moves is None:
            if ctx is None:
                ctx = _key_context(nodes, i, keys[k])
            moves = cache[k, pred] = []
            for action in keys[k][5]:
                new_state, new_value, ok = expand_state(pred, ctx, action,
                                                        value)
                if ok:
                    moves.append((action, normalize(new_state),
                                  new_value - value))
        best = None
        for action, new_state, delta in moves:
            if new_state == state:
                new_value = value + delta
                if best is None or better(new_value, best[1]):
                    best = (action, new_value)
        if best is None:
            raise PluginInconsistencyError(
                f"{plugin.name} no longer reaches state {state} from its "
                f"origin {pred} at node {i + 1}")
        return best

    return replay


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
           allowed: Optional[Dict[int, int]] = None,
           validate: bool = False) -> DpRunResult:
    """Run the generic DP loop and select the best valid final state.

    Each node expands every predecessor state under every action in
    order, normalizes the result and merges it into the next table.  A
    key pass over the graph-built node contexts first gives each node
    its key id.  A node whose key recurs at a later node keeps each
    state's moves (normalized next state, value change) in a memo, made
    at the key's first node; the later nodes replay them without calling
    expand_state or normalize, and the memo is dropped after the key's
    last node.  The loop walks the key ids and remakes a node's context
    from its key only when it expands: at a key that occurs once, on a
    memo miss, or under validate.
    allowed maps bag size to the noncrossing bound (catalan_allowed),
    reported and capacity-checked in place of count_states.  With
    validate, every produced state must lie in the enumerated canonical
    set (generate_states) and, when allowed is given, must not cross,
    and every replayed state is expanded afresh and must give the same
    moves, which catches a value_key that leaves out a weight.  With
    retain, each node's origin map (state to the predecessor state that
    wrote it) is kept for reconstruction, with the node key ids and the
    key tuples, and nothing else: no table and no context.  The plugin
    must be bound to graph itself, since it reads weights from there.
    """
    if plugin.graph is not graph:
        raise NotApplicableError(
            f"{plugin.name} plugin is bound to another graph")
    allowed = allowed or {}
    allowed_counts = {}
    for node in npd.nodes:
        nv = len(node.order)
        if nv not in allowed_counts:
            count = allowed[nv] if nv in allowed else plugin.count_states(nv)
            if count > capacity:
                raise CapacityError(f"bag size {nv} has {count} states, "
                                    f"over the capacity of {capacity}")
            allowed_counts[nv] = count

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
    keys = list(key_ids)
    left = [0] * len(keys)
    for k in node_keys:
        left[k] += 1
    memos = {}

    expand_state = plugin.expand_state
    normalize = plugin.normalize
    better = plugin.better
    table = {plugin.empty_state(): plugin.initial_value()}
    origins = [] if retain else None
    stats = []
    nodes = npd.nodes

    for i, (k, node) in enumerate(zip(node_keys, nodes)):
        key = keys[k]
        actions = key[5]
        left[k] -= 1
        if left[k]:
            memo = memos.get(k)
            if memo is None:
                memo = memos[k] = {}
        else:
            memo = memos.pop(k, None)
        nxt = {}
        org = {} if retain else None
        if memo is None:
            # a key no later node carries: expand straight into nxt
            ctx = _key_context(nodes, i, key)
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
            ctx = _key_context(nodes, i, key) if validate else None
            for state, value in table.items():
                moves = memo.get(state)
                if moves is None:
                    if ctx is None:
                        ctx = _key_context(nodes, i, key)
                    moves = memo[state] = _moves(expand_state, normalize,
                                                 state, ctx, actions, value)
                elif validate and moves != _moves(expand_state, normalize,
                                                  state, ctx, actions, value):
                    raise PluginInconsistencyError(
                        f"{plugin.name} expands state {state} at node "
                        f"{i + 1} unlike an earlier node with the "
                        f"same key: value_key misses a weight the value "
                        f"change reads")
                for new_state, delta in moves:
                    new_value = value + delta
                    old = nxt.get(new_state)
                    if old is None or better(new_value, old):
                        nxt[new_state] = new_value
                        if org is not None:
                            org[new_state] = state

        nv = len(node.order)
        if validate:
            legal = generate_states(plugin, nv)
            for new_state in nxt:
                if new_state not in legal:
                    raise PluginInconsistencyError(
                        f"expansion produced state {new_state} outside the "
                        f"canonical set at node {i + 1}")
                if allowed and crosses(new_state):
                    raise PluginInconsistencyError(
                        f"expansion produced crossing state {new_state} "
                        f"at node {i + 1}, outside the noncrossing bound")
        table = nxt
        if retain:
            origins.append(org)
        stats.append(NodeStats(i + 1, node.kind, node.vertex, nv,
                               allowed_counts[nv], len(table)))

    result = DpRunResult(feasible=False, stats=stats, plugin=plugin,
                         graph=graph, npd=npd, origins=origins)
    if retain:
        result.node_keys = node_keys
        result.keys = keys
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
    node 1 and collects each node's state.  A forward walk then remakes
    each node's context from its node key, without reading the graph,
    and replays the node from the predecessor's value (_replayer), which
    picks the action the run took and recomputes the value; a final
    value other than result.value means the plugin's expansion has
    changed since the run.  The (ctx, prev, action, state) chain goes to
    the plugin's certificate builder.
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
    replay = _replayer(result)
    nodes, keys = result.npd.nodes, result.keys
    chain = []
    value = plugin.initial_value()
    for i, (k, prev, state) in enumerate(zip(result.node_keys, states,
                                             states[1:])):
        ctx = _key_context(nodes, i, keys[k])
        action, value = replay(i, prev, value, state, ctx)
        chain.append((ctx, prev, action, state))
    if value != result.value:
        raise PluginInconsistencyError(
            f"{plugin.name} replays the winning chain to value {value}, "
            f"not the run's {result.value}")
    return plugin.extract_certificate(chain)
