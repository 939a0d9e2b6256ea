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
bag, the recorded forget positions and the graph's adjacency, once per
run; the key pass gives each node its key id, from its shape and action
list.  After it the engine never reads the adjacency again: the gain
reads, the straight expansions and the replays all take node i's
context from the run's list.

A table that recurs at a recurring key costs one lookup (the table
memo, a hash-consing of tables).  While it is on, a table of at most
TABLE_MEMO_STATES int values is also held as a shape and a base: base
is its first value, and the shape is an interned id of its ordered
(state id, value - base) pairs.  At a node of a recurring key, once the
node's gains are read, (key id, shape, gains) looks up the step made
the last time they met: the next shape, the base change, the origin map
and the table size.  A hit builds no table; a table is built from its
shape only where a node misses, expands straight, or the final
selection reads it.  A miss records its step under the gains as they
are after it, since the step may add slots.  This is exact: a shift of
int values changes no comparison, and equal shapes make the same writes
in the same order, so ties, origins and dict order come out the same.
The memo runs only while combine is operator.add (max does not commute
with the shift), never under validate, and only while the initial value
and every gain are ints.  It stops for the rest of a run when fewer
than half of its first TABLE_MEMO_TRIAL lookups hit.

With retain, each node keeps only its origin map, from each state id to
the id of the predecessor that last wrote it, and the run keeps its
state list, key ids, key tuples and contexts.  A node that hits the
table memo shares the map of the node that made the step, so origin
maps must not be mutated.  Values are not kept: _replayer() walks the
origins forward again and recomputes them, for reconstruction and for
DpRunResult.tables.  Every run keeps one int per node, its table size;
the per-node NodeStats records are made from those counts when asked
for.
"""
from __future__ import annotations

from operator import add, attrgetter, gt, lt
from typing import Dict, List, NamedTuple, Optional, Tuple

from .decomposition import NicePathDecomposition
from .errors import (
    CapacityError, NotApplicableError,
    PluginInconsistencyError, ReconstructionUnavailableError,
)
from .graph import Graph
from .partition import crosses

# the table memo keeps the shapes of tables this small (long-thin's
# reach 12 states; grid-conn's peak memory grows from 256 on), and stops
# for the rest of a run when fewer than half of its first TABLE_MEMO_TRIAL
# lookups hit (a cycle-cover grid hits 36 of its first 97)
TABLE_MEMO_STATES = 64
TABLE_MEMO_TRIAL = 512


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
    """Everything a plugin's introduce_actions, gain and certificate
    extraction may ask about one node: its index, vertex, the bag before
    it and its shape, whose fields read as the context's own (ctx.kind is
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
                   ) -> List[NodeCtx]:
    """Check, in O(n + m), that npd covers every vertex and edge of
    graph (npd.validate), then make every node's context, in node order.

    One walk carries the bag before each node along, takes each forget's
    position from npd.positions (recorded when npd checked its nodes)
    and reads the neighbors from graph.adjacency, with one object per
    distinct shape.  run_dp makes this list once per run, and every
    later reader of a context takes it from there.
    """
    npd.validate(graph)
    adjacency, positions = graph.adjacency, npd.positions
    last = len(npd.nodes) - 1
    prev = ()
    shapes = {}
    contexts = []
    for i, (kind, v, order) in enumerate(npd.nodes):
        near = adjacency.get(v, ())
        fields = (kind, positions[i],
                  tuple([j for j, u in enumerate(prev) if u in near]),
                  len(prev), i == last)
        shape = shapes.get(fields)
        if shape is None:
            shape = shapes[fields] = NodeShape(*fields)
        contexts.append(NodeCtx(i, v, prev, shape))
        prev = order
    return contexts


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
    id of the predecessor that wrote it, a key of the map before; the
    nodes that hit one step of the table memo share one map object, so
    callers must not mutate these maps.  It also keeps node_keys, each
    node's key id, keys, the key tuples by id, (shape, action tuple),
    and contexts, the run's own NodeCtx of each node, so that replays
    need no key pass and make no context.  origins and tables decode the
    ids on access to the state objects in states; the tables themselves
    are not kept, the tables property replays them.
    """
    def __init__(self, filled: List[int], allowed: Dict[int, int],
                 plugin, npd: NicePathDecomposition):
        self.feasible = False
        self.value = None             # raw table value of the winning state
        self.objective = None         # final_value of the winning state
        self.final_state = None
        self.filled = filled
        self.allowed = allowed
        self.plugin = plugin
        self.npd = npd
        self.node_keys = None
        self.keys = None
        self.contexts = None
        self.states = None
        self.origin_ids = None
        self.final_id = None
        self.certificate = None  # set by the solver facade when retained

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


def _stepper(transition, gain, ids, intern, contexts):
    """step(state, i, key, memo) -> [(next id, slot)] for each action
    that applies to state at node i, in action order.  memo is the key's
    (moves by state, slots, deltas): slots numbers each distinct
    (action index, tag), and deltas holds each slot's change at the
    current node, 0 for the tag None's slot 0.  gain gives a new slot's
    change at node i, from contexts[i]; the loop re-reads every slot's
    at each later node."""
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
                deltas.append(gain(contexts[i], action, tag))
            moves.append((nid, slot))
        return moves
    return step


def _replayer(result: DpRunResult):
    """replay(i, pred, value, state) -> (action, new value) for the
    first action from state id pred at node i, in action order, whose
    next state is states[state] and whose new value is best by the
    plugin's direction.

    When pred is state's origin and value is pred's table value, this is
    the action that wrote state's final table entry and that entry's
    value: the first writer among the candidates that reached the best
    value, since a later equal candidate never overwrites.  The
    transitions of each (key, pred) pair are computed once, as the
    run's memo does, and each value from gain at node i itself, on the
    run's own context of the node (result.contexts).  A replay reads
    states only by id: it normalizes through its own raw -> canonical
    cache and compares canonical states, which are equal exactly when
    their ids are.
    """
    plugin = result.plugin
    node_keys, keys = result.node_keys, result.keys
    contexts, states = result.contexts, result.states
    transition, gain, combine = plugin.transition, plugin.gain, plugin.combine
    normalize = plugin.normalize
    canonical = {}
    better = _better(plugin)
    cache = {}

    def replay(i, pred, value, state):
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
                    new_value = combine(value,
                                        gain(contexts[i], action, tag))
                if best is None or better(new_value, best[1]):
                    best = (action, new_value)
        if best is None:
            raise PluginInconsistencyError(
                f"{plugin.name} no longer reaches state {target} "
                f"from its origin {states[pred]} at node {i + 1}")
        return best

    return replay


def _shape_of(table, shape_ids, shape_pairs):
    """(shape, base) of table: base is its first value, and shape the
    index in shape_pairs of its ordered (state id, value - base) pairs,
    interned through shape_ids.  (None, None) unless table holds 1 to
    TABLE_MEMO_STATES values, all ints."""
    values = table.values()
    if (not 0 < len(table) <= TABLE_MEMO_STATES
            or not all(type(value) is int for value in values)):
        return None, None
    base = next(iter(values))
    pairs = tuple([(sid, value - base) for sid, value in table.items()])
    shape = shape_ids.get(pairs)
    if shape is None:
        shape = shape_ids[pairs] = len(shape_pairs)
        shape_pairs.append(pairs)
    return shape, base


def run_dp(plugin, graph: Graph, npd: NicePathDecomposition, *,
           capacity: int = 50_000_000, retain: bool = False,
           allowed: Optional[Dict[int, int]] = None,
           validate: bool = False) -> DpRunResult:
    """Run the generic DP loop and select the best valid final state.

    Each node moves every predecessor state under every action in
    order, normalizes the result and merges it into the next table.
    build_contexts first makes every node's context, the one object the
    run hands plugin.set_of_actions, gain and expand_state at that node,
    and a key pass gives each node its key id, (shape, actions), the
    actions being set_of_actions(ctx): the plugin base's FORGET_ACTION
    at a forget, the plugin's introduce_actions at an introduce.  At a
    key that recurs, each state's transitions are computed with
    plugin.transition at the first node that meets the state and reused
    at the key's later nodes, with no transition or normalize call; the
    key's memo is dropped after its last node.  Value changes
    are read at every node, gain once per distinct (action, tag) the
    key has met, and combined with the predecessor's value by
    plugin.combine, inline when it is operator.add.  A key that occurs
    once expands each candidate straight through plugin.expand_state.
    At a recurring key, a table that recurs up to a shift of its values,
    with the same gains, takes the next table, origin map and size from
    the table memo (module docstring) in one lookup; such nodes share
    their origin map.  plugin.direction must be 'min' or 'max'
    (PluginInconsistencyError otherwise); it alone ranks values.
    allowed maps bag size to the noncrossing bound (catalan_allowed),
    reported and capacity-checked in place of count_states.  With
    validate, every produced state must lie in the enumerated canonical
    set (generate_states) and, when allowed is given, must not cross;
    combine(value, 0) must equal value wherever a move with the tag None
    carries a value on; and a run that adds from an int initial value
    must keep every value an int, as the table memo needs.  With
    retain, each node's origin map (state id to the id of the
    predecessor that wrote it) is kept for reconstruction, with the
    run's state list, the node key ids, the key tuples and the
    contexts, and no table.  Every run keeps each node's table size
    (DpRunResult.filled) and each bag size's reported bound
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

    contexts = build_contexts(graph, npd)
    # a transition reads only the node's shape and its action, so nodes
    # with equal keys move every state alike; left counts each key's
    # nodes still to come
    key_ids = {}
    node_keys = []
    for ctx in contexts:
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
    step = _stepper(plugin.transition, gain, ids, intern, contexts)
    table = {0: plugin.initial_value()}
    ints = additive and type(table[0]) is int
    origins = [] if retain else None
    filled = []

    # the table memo (module docstring): while shaping, a table of at
    # most TABLE_MEMO_STATES int values is also held as (shape, base),
    # and table is None while only they hold it.  steps maps (key id,
    # shape, deltas) to (next shape, base change, origin map, filled)
    shaping = ints and not validate
    shape_ids, shape_pairs, steps = {}, [], {}
    shape, base = _shape_of(table, shape_ids, shape_pairs)
    hits = misses = 0

    for i, k in enumerate(node_keys):
        key = keys[k]
        left[k] -= 1
        if left[k]:
            memo = memos.get(k)
            if memo is None:  # moves by state, slots, deltas
                memo = memos[k] = ({}, {}, [0])
        else:
            memo = memos.pop(k, None)
        if memo is not None:
            moves_of, slots, deltas = memo
            if slots:
                # weights are read afresh at every node
                ctx = contexts[i]
                actions = key[1]
                for (ai, tag), slot in slots.items():
                    delta = deltas[slot] = gain(ctx, actions[ai], tag)
                    if shaping and type(delta) is not int:
                        shaping = False
            if shaping and shape is not None:
                hit = steps.get((k, shape, tuple(deltas)))
                if hit is not None:
                    hits += 1
                    shape, change, org, size = hit
                    base += change
                    table = None
                    if retain:
                        origins.append(org)
                    filled.append(size)
                    continue
                misses += 1
        if table is None:
            table = {sid: base + delta for sid, delta in shape_pairs[shape]}
        nxt = {}
        org = {} if retain else None
        if memo is None:
            # a key no later node carries: expand straight into nxt
            ctx = contexts[i]
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
            legal = generate_states(plugin, len(npd.nodes[i].order))
            for nid, new_value in nxt.items():
                new_state = states[nid]
                if new_state not in legal:
                    raise PluginInconsistencyError(
                        f"expansion produced state {new_state} outside the "
                        f"canonical set at node {i + 1}")
                if allowed and crosses(new_state):
                    raise PluginInconsistencyError(
                        f"expansion produced crossing state {new_state} "
                        f"at node {i + 1}, outside the noncrossing bound")
                if ints and type(new_value) is not int:
                    raise PluginInconsistencyError(
                        f"value {new_value!r} at node {i + 1} is not an "
                        f"int, though the run adds from an int start")
            for sid, value in table.items() if memo is not None else ():
                kept = combine(value, 0)
                if kept != value and any(
                        slot == 0 for _nid, slot in moves_of[sid]):
                    raise PluginInconsistencyError(
                        f"combine({value!r}, 0) is {kept!r} at node "
                        f"{i + 1}: a move with no change must keep its value")
        if shaping:
            # stop for good once most of the first lookups have missed
            shaping = not hits < TABLE_MEMO_TRIAL // 2 < misses
            looked, old_base = shape, base
            shape, base = _shape_of(nxt, shape_ids, shape_pairs)
            if looked is not None and memo is not None and shape is not None:
                # a lookup missed: key on the deltas as they are after
                # the step, which may have added slots
                steps[k, looked, tuple(deltas)] = (
                    shape, base - old_base, org, len(nxt))
        table = nxt
        if retain:
            origins.append(org)
        filled.append(len(table))

    # table is set: only the last node's key has is_last, so it never hits
    result = DpRunResult(filled, allowed_counts, plugin, npd)
    if retain:
        result.node_keys = node_keys
        result.keys = keys
        result.contexts = contexts
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
    to node 1.  A forward walk then replays each node on the run's own
    context (result.contexts) from the predecessor's value (_replayer),
    which picks the action the run took and recomputes the value; a
    final value other than result.value means the plugin has changed
    since the run.  The (ctx, prev, action, state) chain goes to the
    plugin's certificate builder, and a certificate that
    plugin.check_certificate rejects, or scores other than
    result.objective, raises PluginInconsistencyError.
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
    states = result.states
    chain = []
    value = plugin.initial_value()
    for ctx, prev, sid in zip(result.contexts, path, path[1:]):
        action, value = replay(ctx.index, prev, value, sid)
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
