"""Outside-in layer trace of ``pwdp solve``.

The tracer replaces the names that ``pwdp.cli`` and ``pwdp.engine`` call
with timing wrappers, so the program itself is unchanged.  Each wrapped
call records a span (name, start, end, parent) kept in memory.  The
per-state plugin hooks ``expand_state`` and ``normalize`` run millions
of times, so they are not spans: they are summed into one record per
decomposition node of the enclosing ``run_dp`` span.

A hook wrapper costs a few hundred nanoseconds a call, as much as a
third of the hook itself, and most of that cost lands in the caller.
So a traced run alternates two kinds of pass.  A span pass leaves the
per-state hooks alone and times only the spans, a few per instance;
the span-layer times come from it.  A hook pass also wraps the hooks;
the call counts and the hooks' own times come from it, the latter less
the clock overhead inside each timed call (``clock_cost``).
"""
from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import time

import pwdp.cli
import pwdp.engine

# module attribute -> layer it belongs to
CLI_NAMES = {
    "parse_graph": "graph.parse",
    "parse_grid": "graph.parse",
    "grid_to_graph": "graph.parse",
    "parse_decomposition": "decomposition.build",
    "nicify": "decomposition.build",
    "grid_sweep_decomposition": "decomposition.build",
    "run_dp": "engine.run_dp",
    "reconstruct_solution": "engine.reconstruct",
}
ENGINE_NAMES = {"build_contexts": "engine.build_contexts"}
PLUGIN_HOOKS = ("count_states", "expand_state", "normalize")

COUNT_METRICS = ("decomposition.nodes", "plugins.preflight_states",
                 "plugins.expand_calls", "engine.filled_total",
                 "engine.filled_max")

# per-node record slots
CALLS, OK, EXPAND_S, NORM_CALLS, NORM_S, SHAPE = range(6)

clock = time.perf_counter


class TraceError(RuntimeError):
    """A wrapped name is gone or a required counter stayed at zero."""


def clock_cost(n=1000, rounds=60):
    """Seconds per call that the clock reads add to a hook timed as
    ``t0 = clock(); f(...); t1 = clock()``.

    Measured around a no-op in short batches; the fastest batch is kept,
    since other load on the host only adds time.
    """
    def noop(a, b, c, d):
        return a

    best = [float("inf")] * 3
    for _ in range(rounds):
        timed = 0.0
        for _ in range(n):
            t0 = clock()
            noop(1, 2, 3, 4)
            timed += clock() - t0
        t = clock()
        for _ in range(n):
            noop(1, 2, 3, 4)
        direct = clock() - t
        t = clock()
        for _ in range(n):
            pass
        loop = clock() - t
        best = [min(b, x / n) for b, x in zip(best, (timed, direct, loop))]
    timed, direct, loop = best
    return max(timed - (direct - loop), 0.0)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name, start):
        self.id, self.parent, self.name = sid, parent, name
        self.start, self.end, self.attrs = start, None, {}

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.hooks = True    # wrap expand_state and normalize this pass
        self._stack = []
        self._dp = None      # run_dp span whose nodes are being filled
        self._node = None    # record of the node expanded last
        self.clock_cost = clock_cost()

    # ----- spans -----

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, name, clock())
        sp.attrs.update(attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = clock()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_run_dp(self, fn):
        def run_dp(plugin, graph, npd, *args, **kwargs):
            with self.span("engine.run_dp") as sp:
                sp.attrs.update(nodes={}, keys=set(), decomp_nodes=len(npd.nodes),
                                filled_total=0, filled_max=0)
                outer, self._dp = self._dp, sp
                try:
                    result = fn(plugin, graph, npd, *args, **kwargs)
                finally:
                    self._dp, self._node = outer, None
                    sp.attrs["distinct"] = len(sp.attrs.pop("keys"))
            filled = [st.filled for st in result.stats]
            sp.attrs.update(filled_total=sum(filled),
                            filled_max=max(filled, default=0))
            return result
        return run_dp

    def _wrap_make_plugin(self, fn):
        def make_plugin(*args, **kwargs):
            plugin = fn(*args, **kwargs)
            self._instrument(plugin)
            return plugin
        return make_plugin

    def _instrument(self, plugin):
        missing = [h for h in PLUGIN_HOOKS if not callable(getattr(plugin, h, None))]
        if missing:
            raise TraceError(f"plugin {plugin.name} has no {', '.join(missing)}")
        count_states = plugin.count_states
        expand_state = plugin.expand_state
        normalize = plugin.normalize

        def traced_count_states(*args, **kwargs):
            with self.span("plugins.count_states") as sp:
                n = count_states(*args, **kwargs)
                sp.attrs["states"] = n
                return n

        def traced_expand_state(state, ctx, action, value):
            t0 = clock()
            out = expand_state(state, ctx, action, value)
            dt = clock() - t0
            dp = self._dp
            if dp is None:
                return out
            nodes = dp.attrs["nodes"]
            rec = nodes.get(ctx.index)
            if rec is None:
                shape = (ctx.kind, ctx.pos, ctx.nbrs, len(ctx.order_before),
                         ctx.is_last)
                rec = nodes[ctx.index] = [0, 0, 0.0, 0, 0.0, shape]
            rec[CALLS] += 1
            rec[EXPAND_S] += dt
            if out[2]:
                rec[OK] += 1
            dp.attrs["keys"].add((rec[SHAPE], state, action))
            self._node = rec
            return out

        def traced_normalize(state):
            t0 = clock()
            out = normalize(state)
            dt = clock() - t0
            rec = self._node
            if rec is not None:
                rec[NORM_CALLS] += 1
                rec[NORM_S] += dt
            return out

        plugin.count_states = traced_count_states
        if self.hooks:
            plugin.expand_state = traced_expand_state
            plugin.normalize = traced_normalize

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for module, names in ((pwdp.cli, CLI_NAMES), (pwdp.engine, ENGINE_NAMES)):
                for attr, layer in names.items():
                    fn = getattr(module, attr, None)
                    if not callable(fn):
                        raise TraceError(
                            f"{module.__name__}.{attr} is gone; the trace "
                            f"cannot time layer {layer}")
                    saved.append((module, attr, fn))
                    if attr == "run_dp":
                        fn = self._wrap_run_dp(fn)
                    else:
                        fn = self._wrap(layer, fn)
                    setattr(module, attr, fn)
            fn = getattr(pwdp.cli, "make_plugin", None)
            if not callable(fn):
                raise TraceError("pwdp.cli.make_plugin is gone; the trace "
                                 "cannot reach the plugin hooks")
            saved.append((pwdp.cli, "make_plugin", fn))
            pwdp.cli.make_plugin = self._wrap_make_plugin(fn)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def reset(self):
        self.spans = []

    # ----- aggregation -----

    def summary(self):
        """Per-layer metrics over every span recorded since reset().

        A span pass gives the span-layer times and the counts the spans
        carry; a hook pass adds the ``plugins.*`` hook metrics and
        ``engine.merge_ratio``.  ``engine.self_s`` and
        ``engine.us_per_candidate`` combine both kinds of pass and are
        left to ``combine``.
        """
        total = {}
        child = {}
        for sp in self.spans:
            total[sp.name] = total.get(sp.name, 0.0) + sp.seconds
            if sp.parent is not None:
                child[sp.parent] = child.get(sp.parent, 0.0) + sp.seconds
        calls = ok = distinct = norm_calls = 0
        expand_s = norm_s = 0.0
        filled_total = filled_max = nodes = states = 0
        for sp in self.spans:
            if sp.name == "engine.run_dp":
                for rec in sp.attrs["nodes"].values():
                    calls += rec[CALLS]
                    ok += rec[OK]
                    expand_s += rec[EXPAND_S]
                    norm_calls += rec[NORM_CALLS]
                    norm_s += rec[NORM_S]
                distinct += sp.attrs["distinct"]
                filled_total += sp.attrs["filled_total"]
                filled_max = max(filled_max, sp.attrs["filled_max"])
                nodes += sp.attrs["decomp_nodes"]
            elif sp.name == "plugins.count_states":
                states += sp.attrs["states"]
        out = {
            "graph.parse_s": total.get("graph.parse", 0.0),
            "decomposition.build_s": total.get("decomposition.build", 0.0),
            "decomposition.nodes": nodes,
            "plugins.count_states_s": total.get("plugins.count_states", 0.0),
            "plugins.preflight_states": states,
            "engine.run_dp_s": total.get("engine.run_dp", 0.0),
            "engine.build_contexts_s": total.get("engine.build_contexts", 0.0),
            "engine.filled_total": filled_total,
            "engine.filled_max": filled_max,
            "engine.reconstruct_s": total.get("engine.reconstruct", 0.0),
            "cli.self_s": sum(sp.seconds - child.get(sp.id, 0.0)
                              for sp in self.spans if sp.name == "cli.main"),
        }
        if self.hooks:
            out.update({
                "plugins.expand_s": expand_s - calls * self.clock_cost,
                "plugins.expand_calls": calls,
                "plugins.accept_ratio": ok / calls if calls else 0.0,
                "plugins.normalize_s": norm_s - norm_calls * self.clock_cost,
                "plugins.shape_reuse": 1 - distinct / calls if calls else 0.0,
                "engine.merge_ratio": filled_total / ok if ok else 0.0,
            })
        return out

    def dump(self, path, meta):
        """Write the spans, with per-node columns for each run_dp span."""
        out = []
        for sp in self.spans:
            attrs = dict(sp.attrs)
            if "nodes" in attrs:
                idx = sorted(attrs["nodes"])
                recs = [attrs["nodes"][i] for i in idx]
                attrs["nodes"] = {
                    "index": idx,
                    "calls": [r[CALLS] for r in recs],
                    "ok": [r[OK] for r in recs],
                    "expand_s": [r[EXPAND_S] for r in recs],
                    "normalize_calls": [r[NORM_CALLS] for r in recs],
                    "normalize_s": [r[NORM_S] for r in recs],
                }
            out.append({"id": sp.id, "parent": sp.parent, "name": sp.name,
                        "start": sp.start, "end": sp.end, "attrs": attrs})
        with gzip.open(path, "wt") as fh:
            json.dump(dict(meta, spans=out), fh)


def combine(span_passes, hook_passes):
    """One value per metric from the summaries of both kinds of pass.

    Counts must repeat exactly; times are medians.  ``engine.self_s`` is
    the span passes' ``run_dp`` time less its traced children there and
    the hook passes' expand and normalize time.
    """
    for name in COUNT_METRICS:
        seen = {s[name] for s in span_passes + hook_passes if name in s}
        if len(seen) != 1:
            raise TraceError(f"{name} differs between passes: {sorted(seen)}")

    def value(passes, name):
        if name in COUNT_METRICS:
            return passes[0][name]
        return statistics.median(s[name] for s in passes)

    out = {name: value(span_passes, name) for name in span_passes[0]}
    for name in hook_passes[0]:
        if name not in out:
            out[name] = value(hook_passes, name)
    out["engine.self_s"] = (out["engine.run_dp_s"]
                            - out["engine.build_contexts_s"]
                            - out["plugins.count_states_s"]
                            - out["plugins.expand_s"]
                            - out["plugins.normalize_s"])
    calls = out["plugins.expand_calls"]
    out["engine.us_per_candidate"] = (1e6 * out["engine.run_dp_s"] / calls
                                      if calls else 0.0)
    return out
