"""Generic dynamic-programming engine over nice path decompositions.

The engine walks the decomposition nodes in order, keeping one table per
node: a mapping from state to the best objective value found for it.
Absent keys play the role of the uninitialized sentinel, so the
overwrite rule is: write when the slot is empty, else only when the new
value is strictly better, by the plugin's direction ('min' compares
with <, 'max' with >; nothing else ranks values).  Ties keep the first
writer, which fixes the reconstruction origin deterministically.

A run works on state ids, not state tuples.  The first time a canonical
state is produced it gets the next small int and joins the run's state
list; one dict maps every canonical state, and every raw expansion
result seen so far, to its id.  So normalize runs once per distinct raw
tuple per run, and tables, memo moves and origins hash ints.  The dict
is dropped when the run returns; only the state list is kept.

Nodes that share a key (node shape, action list and the plugin's
value_key) expand a state to the same next states with the same value
changes.  One walk over the nodes (build_contexts) makes each node's
context from the running bag, the forget positions the decomposition
recorded and the graph's adjacency, and gives each node its key id;
from then on the engine works from those ids and never reads the
graph's adjacency again.  The DP loop computes each state's
moves once per key, replays them at the key's later nodes, and remakes
a node's context from its key and bags (_key_context) only when it has
to expand something.

With retain, each node keeps only its origin map, from each state id to
the id of the predecessor that last wrote it, and the run keeps its
state list, key ids and key tuples.  Values are not kept: _replayer()
walks the origins forward again and recomputes them, for reconstruction
and for DpRunResult.tables, expanding each (key, predecessor) pair once.
Every run keeps one int per node, its table size; the per-node
NodeStats records are made from those counts when asked for.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import gt, lt
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
    context per node as the walk reaches it.

    The walk carries the bag before each node along, takes each forget's
    position from npd.positions (recorded when npd checked its nodes)
    and reads the neighbors from graph.adjacency; it yields what
    _context builds node by node.
    """
    npd.validate(graph)
    return _walk_contexts(graph.adjacency, npd.nodes, npd.positions)


def _walk_contexts(adjacency, nodes, positions) -> Iterator[NodeCtx]:
    last = len(nodes) - 1
    prev = ()
    for i, (kind, v, order) in enumerate(nodes):
        near = adjacency.get(v, ())
        nbrs = tuple([j for j, u in enumerate(prev) if u in near])
        yield NodeCtx(i, kind, v, prev, order, positions[i], nbrs, i == last)
        prev = order


def _context(graph: Graph, npd: NicePathDecomposition, i: int) -> NodeCtx:
    """The context of node i (0-based) of a decomposition already
    validated against graph, made from the graph alone: the reference
    that build_contexts' walk must equal at every node.

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

    filled lists each node's table size, in node order, and allowed maps
    each bag size of the decomposition to the state bound reported for
    it (count_states, or run_dp's allowed); stats makes the per-node
    NodeStats records from these and npd.nodes on access.  final_id is
    the winning state's id.  A retained run keeps states,
    the run's canonical states by id (id 0 is the empty state), and
    origin_ids, one map per node from each state id of its table to the
    id of the predecessor that wrote it, a key of the map before.  It
    also keeps node_keys, each node's key id, and keys, the key tuples
    by id (keys[k][5] is the action tuple), so that replays need no key
    pass and remake contexts without the graph.  origins and tables
    decode the ids on access to the state objects in states; the tables
    themselves are not kept, the tables property replays them.
    """
    feasible: bool
    value: object = None          # raw table value of the winning state
    objective: object = None      # final_value of the winning state
    final_state: tuple = None
    filled: List[int] = field(default_factory=list)
    allowed: Dict[int, int] = field(default_factory=dict)
    plugin: object = None
    graph: object = None
    npd: object = None
    node_keys: Optional[list] = None
    keys: Optional[list] = None
    states: Optional[list] = None
    origin_ids: Optional[list] = None
    final_id: Optional[int] = None
    certificate: object = None    # filled by the solver facade when retained

    @property
    def stats(self) -> List[NodeStats]:
        """One NodeStats per node, (index, kind, vertex, nv, allowed,
        filled), index 1-based, made afresh on each access."""
        allowed = self.allowed
        return [NodeStats(i, kind, v, len(order), allowed[len(order)], filled)
                for i, ((kind, v, order), filled)
                in enumerate(zip(self.npd.nodes, self.filled), start=1)]

    @property
    def retained(self) -> bool:
        """Whether the run kept its origins, which reconstruction and
        tables need."""
        return self.origin_ids is not None

    @property
    def origins(self) -> Optional[list]:
        """Every node's origin map, state to the predecessor state that
        wrote it; None unless origins were retained."""
        if self.origin_ids is None:
            return None
        states = self.states
        return [{states[sid]: states[pred] for sid, pred in org.items()}
                for org in self.origin_ids]

    @property
    def tables(self) -> Optional[list]:
        """Every node's table, state to value, replayed forward along
        the origins; None unless origins were retained.  Keys and their
        order are the origin maps', which are the tables' own."""
        if self.origin_ids is None:
            return None
        replay = _replayer(self)
        states = self.states
        values = {0: self.plugin.initial_value()}
        tables = []
        for i, org in enumerate(self.origin_ids):
            values = {sid: replay(i, pred, values[pred], sid)[1]
                      for sid, pred in org.items()}
            tables.append({states[sid]: value
                           for sid, value in values.items()})
        return tables


def _better(plugin):
    """The strict comparison that ranks plugin's values: operator.lt
    for direction 'min', operator.gt for 'max'."""
    if plugin.direction not in ("min", "max"):
        raise PluginInconsistencyError(
            f"{plugin.name} has direction {plugin.direction!r}, "
            f"not 'min' or 'max'")
    return lt if plugin.direction == "min" else gt


def _interner(normalize, ids, states):
    """intern(raw) -> the id of normalize(raw), for a raw state ids does
    not hold yet.  A canonical state seen for the first time takes the
    next id and joins states; raw is entered in ids too, so that its
    next occurrence costs one dict lookup and no normalize call."""
    def intern(raw):
        canon = normalize(raw)
        sid = ids.get(canon)
        if sid is None:
            sid = ids[canon] = len(states)
            states.append(canon)
        ids[raw] = sid
        return sid
    return intern


def _expander(expand_state, ids, intern):
    """expand(state, ctx, actions, value) -> [(next, value change)] for
    each action that applies to state, in action order, where next is
    ids[new state] when ids holds it and intern(new state) otherwise:
    the run's state id, or in a replay the canonical state itself."""
    def expand(state, ctx, actions, value):
        moves = []
        for action in actions:
            new_state, new_value, ok = expand_state(state, ctx, action, value)
            if ok:
                nid = ids.get(new_state)
                if nid is None:
                    nid = intern(new_state)
                moves.append((nid, new_value - value))
        return moves
    return expand


def _replayer(result: DpRunResult):
    """replay(i, pred, value, state, ctx=None) -> (action, new value) for
    the first action from state id pred at node i, in action order,
    whose next state is states[state] and whose new value is best by the
    plugin's direction.

    When pred is state's origin and value is pred's table value, this is
    the action that wrote state's final table entry and that entry's
    value: the first writer among the candidates that reached the best
    value, since a later equal candidate never overwrites.  Each
    (key, pred) pair is expanded once, on the node context given or
    remade then from the node key (_key_context; the graph is not
    read), into (action, next canonical state, value change) moves that
    the key's other nodes reuse, as the run's memo does (its moves leave
    the action out, which keeps the larger memo small); a key that names
    its node (penalty-coloring's max mode) shares no moves.  A replay
    reads states only by id: it normalizes through its own raw ->
    canonical cache and compares canonical states, which are equal
    exactly when their ids are.
    """
    plugin = result.plugin
    nodes = result.npd.nodes
    node_keys, keys = result.node_keys, result.keys
    states = result.states
    normalize = plugin.normalize
    canonical = {}

    def canonicalize(raw):
        canon = canonical[raw] = normalize(raw)
        return canon

    expand = _expander(plugin.expand_state, canonical, canonicalize)
    better = _better(plugin)
    cache = {}

    def replay(i, pred, value, state, ctx=None):
        k = node_keys[i]
        moves = cache.get((k, pred))
        if moves is None:
            if ctx is None:
                ctx = _key_context(nodes, i, keys[k])
            before = states[pred]
            moves = cache[k, pred] = [
                (action, canon, delta) for action in keys[k][5]
                for canon, delta in expand(before, ctx, (action,), value)]
        target = states[state]
        best = None
        for action, canon, delta in moves:
            if canon == target:
                new_value = value + delta
                if best is None or better(new_value, best[1]):
                    best = (action, new_value)
        if best is None:
            raise PluginInconsistencyError(
                f"{plugin.name} no longer reaches state {target} "
                f"from its origin {states[pred]} at node {i + 1}")
        return best

    return replay


def run_dp(plugin, graph: Graph, npd: NicePathDecomposition, *,
           capacity: int = 50_000_000, retain: bool = False,
           allowed: Optional[Dict[int, int]] = None,
           validate: bool = False) -> DpRunResult:
    """Run the generic DP loop and select the best valid final state.

    Each node expands every predecessor state under every action in
    order, normalizes the result and merges it into the next table.
    Tables are keyed by state id: each canonical state is interned the
    first time it is produced, and each raw expansion result is
    normalized once per run, its id cached in the same dict.  A key
    pass over the graph-built node contexts first gives each node its
    key id.  A node whose key recurs at a later node keeps each state's
    moves (next state id, value change) in a memo, made at the key's
    first node; the later nodes replay them without calling
    expand_state or normalize, and the memo is dropped after the key's
    last node.  The loop walks the key ids and remakes a node's context
    from its key only when it expands: at a key that occurs once, on a
    memo miss, or under validate.
    plugin.direction must be 'min' or 'max' (PluginInconsistencyError
    otherwise); it alone ranks values.
    allowed maps bag size to the noncrossing bound (catalan_allowed),
    reported and capacity-checked in place of count_states.  With
    validate, every produced state must lie in the enumerated canonical
    set (generate_states) and, when allowed is given, must not cross,
    and every replayed state is expanded afresh and must give the same
    moves, which catches a value_key that leaves out a weight.  With
    retain, each node's origin map (state id to the id of the
    predecessor that wrote it) is kept for reconstruction, with the
    run's state list, the node key ids and the key tuples, and nothing
    else: no table and no context.  Every run keeps each node's table
    size as an int (DpRunResult.filled) and each bag size's reported
    bound (DpRunResult.allowed); the NodeStats records are made from
    them on access.  The plugin must be bound to graph itself, since it
    reads weights from there.
    """
    if plugin.graph is not graph:
        raise NotApplicableError(
            f"{plugin.name} plugin is bound to another graph")
    better = _better(plugin)
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

    # ids maps each canonical state, and each raw state met so far, to
    # the index of the canonical state in states
    expand_state = plugin.expand_state
    states = [plugin.empty_state()]
    ids = {states[0]: 0}
    intern = _interner(plugin.normalize, ids, states)
    expand = _expander(expand_state, ids, intern)
    table = {0: plugin.initial_value()}
    origins = [] if retain else None
    filled = []
    nodes = npd.nodes

    for i, k in enumerate(node_keys):
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
            for sid, value in table.items():
                state = states[sid]
                for action in actions:
                    new_state, new_value, ok = expand_state(state, ctx, action,
                                                            value)
                    if not ok:
                        continue
                    nid = ids.get(new_state)
                    if nid is None:
                        nid = intern(new_state)
                    old = nxt.get(nid)
                    if old is None or better(new_value, old):
                        nxt[nid] = new_value
                        if org is not None:
                            org[nid] = sid
        else:
            ctx = _key_context(nodes, i, key) if validate else None
            for sid, value in table.items():
                moves = memo.get(sid)
                if moves is None:
                    if ctx is None:
                        ctx = _key_context(nodes, i, key)
                    moves = memo[sid] = expand(states[sid], ctx, actions,
                                               value)
                elif validate and moves != expand(states[sid], ctx, actions,
                                                  value):
                    raise PluginInconsistencyError(
                        f"{plugin.name} expands state {states[sid]} at node "
                        f"{i + 1} unlike an earlier node with the "
                        f"same key: value_key misses a weight the value "
                        f"change reads")
                for nid, delta in moves:
                    new_value = value + delta
                    old = nxt.get(nid)
                    if old is None or better(new_value, old):
                        nxt[nid] = new_value
                        if org is not None:
                            org[nid] = sid

        if validate:
            legal = generate_states(plugin, len(nodes[i].order))
            for nid in nxt:
                new_state = states[nid]
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
        filled.append(len(table))

    result = DpRunResult(feasible=False, filled=filled,
                         allowed=allowed_counts, plugin=plugin, graph=graph,
                         npd=npd)
    if retain:
        result.node_keys = node_keys
        result.keys = keys
        result.states = states
        result.origin_ids = origins
    best_id = None
    best_final = None
    for sid, value in table.items():
        state = states[sid]
        if not plugin.is_valid_final(state):
            continue
        fv = plugin.final_value(state, value)
        if best_id is None or better(fv, best_final):
            best_id, best_final = sid, fv
    if best_id is not None:
        result.feasible = True
        result.value = table[best_id]
        result.objective = best_final
        result.final_state = states[best_id]
        result.final_id = best_id
    return result


def reconstruct_solution(result: DpRunResult):
    """Rebuild the winning solution from the retained origins.

    A backward walk follows the origin ids from the winning final state
    to node 1 and collects each node's state id.  A forward walk then
    makes each node's context inline from its node key and the bag it
    carries along, without reading the graph (the context equals
    _context's), and replays the node from the predecessor's value
    (_replayer), which picks the action the run took and recomputes the
    value; a final value other than result.value means the plugin's
    expansion has changed since the run.  The (ctx, prev, action, state)
    chain, with states decoded, goes to the plugin's certificate
    builder.
    """
    if not result.feasible:
        raise ReconstructionUnavailableError("run was infeasible")
    if not result.retained:
        raise ReconstructionUnavailableError(
            "origins were not retained (retain=False)")
    plugin = result.plugin
    path = [result.final_id]
    for org in reversed(result.origin_ids):
        path.append(org[path[-1]])
    path.reverse()
    replay = _replayer(result)
    keys, states = result.keys, result.states
    chain = []
    value = plugin.initial_value()
    before = ()
    for i, (k, (_kind, v, order), prev, sid) in enumerate(
            zip(result.node_keys, result.npd.nodes, path, path[1:])):
        kind, pos, nbrs, _nv, is_last = keys[k][:5]
        ctx = NodeCtx(i, kind, v, before, order, pos, nbrs, is_last)
        action, value = replay(i, prev, value, sid, ctx)
        chain.append((ctx, states[prev], action, states[sid]))
        before = order
    if value != result.value:
        raise PluginInconsistencyError(
            f"{plugin.name} replays the winning chain to value {value}, "
            f"not the run's {result.value}")
    return plugin.extract_certificate(chain)
