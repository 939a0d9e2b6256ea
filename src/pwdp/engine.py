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
list; one dict maps every canonical state, and every raw next state
seen so far, to its id.  So normalize runs once per distinct raw tuple
per run, and tables, memo moves and origins hash ints.  The dict is
dropped when the run returns; only the state list is kept.

A plugin moves a state in two halves (plugins/base.py): transition
reads only the node's shape, gain the node's own weights.  One walk over
the nodes (build_contexts) makes each node's context from the running
bag, the recorded forget positions and the graph's adjacency, and gives
each node its key id, from its shape and action list.  After it the
engine never reads the adjacency again; it remakes a node's context
from its key and bags (_key_context) only where it calls gain or
expands.

With retain, each node keeps only its origin map, from each state id to
the id of the predecessor that last wrote it, and the run keeps its
state list, key ids and key tuples.  Values are not kept: _replayer()
walks the origins forward again and recomputes them, for reconstruction
and for DpRunResult.tables.  Every run keeps one int per node, its
table size; the per-node NodeStats records are made from those counts
when asked for.
"""
from __future__ import annotations

from operator import add, attrgetter, gt, lt
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .decomposition import NicePathDecomposition
from .errors import (
    CapacityError, NotApplicableError,
    PluginInconsistencyError, ReconstructionUnavailableError,
)
from .graph import Graph
from .partition import crosses


class NodeShape(NamedTuple):
    """What a transition may read of its node: structure, and no vertex.

    Positions are 0-based indices into the bag before the node, which
    has nv vertices.  For an introduce node the new vertex is appended
    last and nbrs lists the bag positions of its graph neighbors; for a
    forget node pos is where the leaving vertex sits and nbrs lists its
    neighbors among the other bag members.
    """
    kind: str
    pos: Optional[int]
    nbrs: Tuple[int, ...]
    nv: int
    is_last: bool


class NodeCtx(NamedTuple):
    """Everything set_of_actions, gain and certificate extraction may
    ask about one node: its index, vertex, the bag before it and its
    shape, whose fields read as the context's own (ctx.kind is
    ctx.shape.kind).  Plugins read weights, penalties and costs from
    their bound graph."""
    index: int
    vertex: int
    order_before: Tuple[int, ...]
    shape: NodeShape

    kind = property(attrgetter("shape.kind"))
    pos = property(attrgetter("shape.pos"))
    nbrs = property(attrgetter("shape.nbrs"))
    is_last = property(attrgetter("shape.is_last"))


def build_contexts(graph: Graph, npd: NicePathDecomposition
                   ) -> Iterator[NodeCtx]:
    """Check now, in O(n + m), that npd covers every vertex and edge of
    graph (npd.validate), then return a lazy iterator that makes one
    context per node as the walk reaches it.

    The walk carries the bag before each node along, takes each forget's
    position from npd.positions (recorded when npd checked its nodes)
    and reads the neighbors from graph.adjacency, with one object per
    distinct shape.
    """
    npd.validate(graph)
    return _walk_contexts(graph.adjacency, npd.nodes, npd.positions)


def _walk_contexts(adjacency, nodes, positions) -> Iterator[NodeCtx]:
    last = len(nodes) - 1
    prev = ()
    shapes = {}
    for i, (kind, v, order) in enumerate(nodes):
        near = adjacency.get(v, ())
        fields = (kind, positions[i],
                  tuple([j for j, u in enumerate(prev) if u in near]),
                  len(prev), i == last)
        shape = shapes.get(fields)
        if shape is None:
            shape = shapes[fields] = NodeShape(*fields)
        yield NodeCtx(i, v, prev, shape)
        prev = order


def _key_context(nodes, i: int, key: tuple) -> NodeCtx:
    """Node i's context remade from its node key, (shape, actions), and
    the bag before it, without reading the graph."""
    return NodeCtx(i, nodes[i].vertex, nodes[i - 1].order, key[0])


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

    Applies to a plugin that counts its noncrossing states (path and
    cycle cover) on a row-major grid sweep, where the planar frontier
    keeps open paths noncrossing.
    """
    if not hasattr(plugin, "count_noncrossing"):
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
    by id, (shape, action tuple), so that replays need no key
    pass and remake contexts without the graph.  origins and tables
    decode the ids on access to the state objects in states; the tables
    themselves are not kept, the tables property replays them.
    """
    def __init__(self, feasible: bool, value: object = None,
                 objective: object = None, final_state: tuple = None,
                 filled: Optional[List[int]] = None,
                 allowed: Optional[Dict[int, int]] = None,
                 plugin: object = None, graph: object = None,
                 npd: object = None, node_keys: Optional[list] = None,
                 keys: Optional[list] = None, states: Optional[list] = None,
                 origin_ids: Optional[list] = None,
                 final_id: Optional[int] = None, certificate: object = None):
        self.feasible = feasible
        self.value = value            # raw table value of the winning state
        self.objective = objective    # final_value of the winning state
        self.final_state = final_state
        self.filled = [] if filled is None else filled
        self.allowed = {} if allowed is None else allowed
        self.plugin = plugin
        self.graph = graph
        self.npd = npd
        self.node_keys = node_keys
        self.keys = keys
        self.states = states
        self.origin_ids = origin_ids
        self.final_id = final_id
        self.certificate = certificate  # set by the solver facade when retained

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
        states, nodes = self.states, self.npd.nodes
        values = {0: self.plugin.initial_value()}
        tables = []
        for i, (k, org) in enumerate(zip(self.node_keys, self.origin_ids)):
            ctx = _key_context(nodes, i, self.keys[k])
            values = {sid: replay(i, pred, values[pred], sid, ctx)[1]
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


def _stepper(transition, gain, ids, intern, nodes):
    """step(state, i, key, memo) -> [(next id, slot)] for each action
    that applies to state at node i, in action order.  memo is the key's
    (moves by state, slots, deltas): slots numbers each distinct
    (action index, tag), and deltas holds each slot's change at the
    current node, 0 for the tag None's slot 0.  gain gives a new slot's
    change at node i; the loop re-reads every slot's at each later
    node."""
    def step(state, i, key, memo):
        shape, actions = key
        _moves, slots, deltas = memo
        moves = []
        for ai, action in enumerate(actions):
            out = transition(state, shape, action)
            if out is None:
                continue
            raw, tag = out
            nid = ids.get(raw)
            if nid is None:
                nid = intern(raw)
            slot = 0 if tag is None else slots.get((ai, tag))
            if slot is None:
                slot = slots[ai, tag] = len(deltas)
                deltas.append(gain(_key_context(nodes, i, key), action, tag))
            moves.append((nid, slot))
        return moves
    return step


def _replayer(result: DpRunResult):
    """replay(i, pred, value, state, ctx) -> (action, new value) for the
    first action from state id pred at node i, whose context is ctx, in
    action order, whose next state is states[state] and whose new value
    is best by the plugin's direction.

    When pred is state's origin and value is pred's table value, this is
    the action that wrote state's final table entry and that entry's
    value: the first writer among the candidates that reached the best
    value, since a later equal candidate never overwrites.  The
    transitions of each (key, pred) pair are computed once, as the
    run's memo does, and each value from gain at node i itself.  A
    replay reads states only by id: it normalizes through its own raw
    -> canonical cache and compares canonical states, which are equal
    exactly when their ids are.
    """
    plugin = result.plugin
    node_keys, keys = result.node_keys, result.keys
    states = result.states
    transition, gain, combine = plugin.transition, plugin.gain, plugin.combine
    normalize = plugin.normalize
    canonical = {}
    better = _better(plugin)
    cache = {}

    def replay(i, pred, value, state, ctx):
        k = node_keys[i]
        moves = cache.get((k, pred))
        if moves is None:
            shape, actions = keys[k]
            before = states[pred]
            moves = cache[k, pred] = []
            for action in actions:
                out = transition(before, shape, action)
                if out is not None:
                    raw, tag = out
                    canon = canonical.get(raw)
                    if canon is None:
                        canon = canonical[raw] = normalize(raw)
                    moves.append((action, canon, tag))
        target = states[state]
        best = None
        for action, canon, tag in moves:
            if canon == target:
                new_value = value
                if tag is not None:
                    new_value = combine(value, gain(ctx, action, tag))
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

    Each node moves every predecessor state under every action in
    order, normalizes the result and merges it into the next table.  A
    key pass first gives each node its key id, (shape, actions).  At a
    key that recurs, each state's transitions are computed with
    plugin.transition at the first node that meets the state and
    reused at the key's later nodes, with no transition or normalize
    call; the key's memo is dropped after its last node.  Value changes
    are read at every node, gain once per distinct (action, tag) the
    key has met, and combined with the predecessor's value by
    plugin.combine, inline when it is operator.add.  A key that occurs
    once expands each candidate straight through plugin.expand_state.
    plugin.direction must be 'min' or 'max' (PluginInconsistencyError
    otherwise); it alone ranks values.
    allowed maps bag size to the noncrossing bound (catalan_allowed),
    reported and capacity-checked in place of count_states.  With
    validate, every produced state must lie in the enumerated canonical
    set (generate_states) and, when allowed is given, must not cross.
    With retain, each node's origin map (state id to the id of the
    predecessor that wrote it) is kept for reconstruction, with the
    run's state list, the node key ids and the key tuples, and nothing
    else: no table and no context.  Every run keeps each node's table
    size (DpRunResult.filled) and each bag size's reported bound
    (DpRunResult.allowed).  The plugin must be bound to graph itself,
    since gain reads weights from there.
    """
    if plugin.graph is not graph:
        raise NotApplicableError(
            f"{plugin.name} plugin is bound to another graph")
    better = _better(plugin)
    gain, combine = plugin.gain, plugin.combine
    additive = combine is add
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

    # a transition reads only the node's shape and its action, so nodes
    # with equal keys move every state alike; left counts each key's
    # nodes still to come
    key_ids = {}
    node_keys = []
    for ctx in build_contexts(graph, npd):
        key = (ctx.shape, tuple(plugin.set_of_actions(ctx)))
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
    nodes = npd.nodes
    step = _stepper(plugin.transition, gain, ids, intern, nodes)
    table = {0: plugin.initial_value()}
    origins = [] if retain else None
    filled = []

    for i, k in enumerate(node_keys):
        key = keys[k]
        left[k] -= 1
        if left[k]:
            memo = memos.get(k)
            if memo is None:  # moves by state, slots, deltas
                memo = memos[k] = ({}, {}, [0])
        else:
            memo = memos.pop(k, None)
        nxt = {}
        org = {} if retain else None
        if memo is None:
            # a key no later node carries: expand straight into nxt
            ctx = _key_context(nodes, i, key)
            actions = key[1]
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
            moves_of, slots, deltas = memo
            if slots:
                # weights are read afresh at every node
                ctx = _key_context(nodes, i, key)
                actions = key[1]
                for (ai, tag), slot in slots.items():
                    deltas[slot] = gain(ctx, actions[ai], tag)
            for sid, value in table.items():
                moves = moves_of.get(sid)
                if moves is None:
                    moves = moves_of[sid] = step(states[sid], i, key, memo)
                for nid, slot in moves:
                    new_value = (value + deltas[slot] if additive
                                 else combine(value, deltas[slot]))
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
    """Rebuild the winning solution from the retained origins, and check
    it.

    A backward walk follows the origin ids from the winning final state
    to node 1.  A forward walk then remakes each node's context from its
    node key and the bag before it (_key_context), and replays it from the
    predecessor's value (_replayer), which picks the action the run took
    and recomputes the value; a final value other than result.value
    means the plugin has changed since the run.  The (ctx, prev, action,
    state) chain goes to the plugin's certificate builder, and a
    certificate that plugin.check_certificate rejects, or scores other
    than result.objective, raises PluginInconsistencyError.
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
    keys, states, nodes = result.keys, result.states, result.npd.nodes
    chain = []
    value = plugin.initial_value()
    for i, (k, prev, sid) in enumerate(zip(result.node_keys, path, path[1:])):
        ctx = _key_context(nodes, i, keys[k])
        action, value = replay(i, prev, value, sid, ctx)
        chain.append((ctx, states[prev], action, states[sid]))
    if value != result.value:
        raise PluginInconsistencyError(
            f"{plugin.name} replays the winning chain to value {value}, "
            f"not the run's {result.value}")
    certificate = plugin.extract_certificate(chain)
    del chain, path  # the check builds sets as large as the graph
    ok, objective = plugin.check_certificate(certificate)
    if not ok or objective != result.objective:
        raise PluginInconsistencyError(
            f"{plugin.name} builds a certificate that "
            + (f"scores {objective}, not the run's {result.objective}"
               if ok else "its own check rejects"))
    return certificate
