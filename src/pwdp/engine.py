"""Generic dynamic-programming engine over nice path decompositions.

The engine walks the decomposition nodes in order, keeping one table per
node: a mapping from canonical state to the best objective value found
for it.  Absent keys play the role of the uninitialized sentinel, so the
overwrite rule is: write when the slot is empty, else only when the new
value is strictly better.  Ties keep the first writer, which fixes the
reconstruction origin deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .decomposition import INTRODUCE, NicePathDecomposition
from .errors import (
    CapacityError, NotApplicableError,
    PluginInconsistencyError, ReconstructionUnavailableError,
)
from .graph import Graph
from .partition import crosses


@dataclass(frozen=True)
class NodeCtx:
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


def build_contexts(graph: Graph, npd: NicePathDecomposition) -> List[NodeCtx]:
    """One context per node, after npd.validate(graph) has checked in
    O(n + m) that npd covers every vertex and edge of graph."""
    npd.validate(graph)
    ctxs = []
    prev: Tuple[int, ...] = ()
    last = len(npd.nodes) - 1
    for i, node in enumerate(npd.nodes):
        v = node.vertex
        if node.kind == INTRODUCE:
            pos = None
            nbrs = tuple(j for j, u in enumerate(prev) if graph.adjacent(u, v))
        else:
            pos = prev.index(v)
            nbrs = tuple(j for j, u in enumerate(prev)
                         if j != pos and graph.adjacent(u, v))
        ctxs.append(NodeCtx(
            index=i, kind=node.kind, vertex=v,
            order_before=prev, order_after=node.order,
            pos=pos, nbrs=nbrs, is_last=(i == last)))
        prev = node.order
    return ctxs


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


@dataclass
class NodeStats:
    index: int
    kind: str
    vertex: int
    nv: int
    allowed: int
    filled: int


@dataclass
class DpRunResult:
    feasible: bool
    value: object = None          # raw table value of the winning state
    objective: object = None      # final_value of the winning state
    final_state: tuple = None
    stats: List[NodeStats] = field(default_factory=list)
    plugin: object = None
    graph: object = None
    npd: object = None
    contexts: list = None
    tables: Optional[list] = None
    origins: Optional[list] = None
    certificate: object = None    # filled by the solver facade when retained


def run_dp(plugin, graph: Graph, npd: NicePathDecomposition, *,
           capacity: int = 50_000_000, retain: bool = False,
           allowed: Optional[Dict[int, frozenset]] = None,
           validate: bool = False) -> DpRunResult:
    """Run the generic DP loop and select the best valid final state.

    Each node expands every predecessor state under every action in
    order, normalizes the result and merges it into the next table.
    allowed maps bag size to a pruned state set (Catalan pruning); its
    sizes are the reported per-node bound and feed the capacity check.
    With validate, every expansion must land in allowed when given, and
    in the plugin's full canonical state set otherwise.  With retain,
    every table and origin map is kept for reconstruction.  The plugin
    must be bound to graph itself, since it reads weights from there.
    """
    if plugin.graph is not graph:
        raise NotApplicableError(
            f"{plugin.name} plugin is bound to another graph")
    ctxs = build_contexts(graph, npd)

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

    expand_state = plugin.expand_state
    normalize = plugin.normalize
    better = plugin.better
    table = {plugin.empty_state(): plugin.initial_value()}
    tables = [] if retain else None
    origins = [] if retain else None
    stats = []

    for ctx in ctxs:
        actions = plugin.set_of_actions(ctx)
        nxt = {}
        org = {} if retain else None
        for state, value in table.items():
            for ai, action in enumerate(actions):
                new_state, new_value, ok = expand_state(state, ctx, action,
                                                        value)
                if not ok:
                    continue
                new_state = normalize(new_state)
                if new_state not in nxt or better(new_value, nxt[new_state]):
                    nxt[new_state] = new_value
                    if org is not None:
                        org[new_state] = (state, ai)

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
            tables.append(table)
            origins.append(org)
        stats.append(NodeStats(ctx.index + 1, ctx.kind, ctx.vertex, nv,
                               allowed_counts[nv], len(table)))

    result = DpRunResult(feasible=False, stats=stats, plugin=plugin,
                         graph=graph, npd=npd, contexts=ctxs,
                         tables=tables, origins=origins)
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
    """Walk origins from the winning final state back to node 1 and hand
    the replayed chain to the plugin's certificate builder."""
    if not result.feasible:
        raise ReconstructionUnavailableError("run was infeasible")
    if result.origins is None:
        raise ReconstructionUnavailableError("tables were not retained")
    plugin = result.plugin
    chain = []
    state = result.final_state
    for i in range(len(result.contexts) - 1, -1, -1):
        ctx = result.contexts[i]
        prev_state, ai = result.origins[i][state]
        action = plugin.set_of_actions(ctx)[ai]
        chain.append((ctx, prev_state, action, state))
        state = prev_state
    chain.reverse()
    return plugin.extract_certificate(chain)
