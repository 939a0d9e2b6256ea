"""Re-check one ``pwdp solve --reconstruct`` output.

The printed objective and certificate lines are parsed back into the
certificate object each plugin's ``check_certificate`` takes.  A solve
passes when its exit code and objective match the pinned expectation,
the certificate is accepted with the printed objective, and, on graphs
small enough for the brute-force oracle, the oracle agrees.
"""
from __future__ import annotations

from fractions import Fraction

from pwdp.graph import grid_to_graph, parse_graph, parse_grid
from pwdp.oracle import MAX_N, oracle_solve
from pwdp.plugins import make_plugin

INFEASIBLE = "infeasible"

COLOR_PROBLEMS = {"coloring", "coloring-canonical", "penalty-coloring"}
EDGE_PROBLEMS = {"path-cover", "cycle-cover", "max-leaf-tree",
                 "min-maximal-matching"}
SELECT_PROBLEMS = {"mwis", "k-replica"}


def parse_objective(text):
    """``12`` or ``7/3 (~2.333333)`` -> int or Fraction."""
    head = text.split()[0]
    if "/" in head:
        num, den = head.split("/")
        return Fraction(int(num), int(den))
    return int(head)


def pinned_value(pin):
    return INFEASIBLE if pin == INFEASIBLE else Fraction(pin)


def format_value(value):
    if value == INFEASIBLE:
        return INFEASIBLE
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else str(value)


def parse_output(stdout):
    """Returns (objective-or-INFEASIBLE, certificate lines)."""
    lines = stdout.splitlines()
    if not lines:
        raise ValueError("no output")
    if lines[0] == INFEASIBLE:
        return INFEASIBLE, []
    if not lines[0].startswith("objective "):
        raise ValueError(f"unexpected first line {lines[0]!r}")
    objective = parse_objective(lines[0][len("objective "):])
    if len(lines) < 2 or lines[1] != "certificate":
        raise ValueError("missing certificate block")
    cert = []
    for line in lines[2:]:
        if line.startswith(("stats ", "time ")):
            break
        cert.append(line.split())
    return objective, cert


def build_certificate(problem, rows):
    """Turn ``color``/``edge``/``select``/``place`` rows into the object
    the plugin's check_certificate expects."""
    def ints(row, tag, k):
        if not row or row[0] != tag or len(row) != k + 1:
            raise ValueError(f"bad certificate line {' '.join(row)!r}")
        return [int(x) for x in row[1:]]

    if problem in COLOR_PROBLEMS:
        return {v: c for v, c in (ints(r, "color", 2) for r in rows)}
    if problem in EDGE_PROBLEMS:
        return [tuple(ints(r, "edge", 2)) for r in rows]
    if problem in SELECT_PROBLEMS:
        return [ints(r, "select", 1)[0] for r in rows]
    if problem == "avg-path":
        sel = [ints(r, "select", 1)[0] for r in rows if r[:1] == ["select"]]
        edges = [tuple(ints(r, "edge", 2)) for r in rows if r[:1] != ["select"]]
        return sel, edges
    if problem == "rect-cover":
        return [(t, a - 1, b - 1) for t, a, b in (ints(r, "place", 3) for r in rows)]
    raise ValueError(f"no certificate parser for {problem}")


class Checker:
    """Checks solves of one workload variant against its pinned values."""

    def __init__(self, instances, pins=None):
        """Without pins (when pinning them) only the certificate and the
        oracle are checked."""
        if pins is not None and len(pins) != len(instances):
            raise ValueError(f"{len(pins)} pinned values for "
                             f"{len(instances)} instances")
        self.instances = instances
        self.pins = None if pins is None else [pinned_value(p) for p in pins]
        self._plugins = {}
        self._oracle = {}

    def _load(self, inst):
        if inst.name not in self._plugins:
            if inst.grid_path is not None:
                grid = parse_grid(inst.grid_path.read_text())
                graph, params = grid_to_graph(grid), dict(inst.params, grid=grid)
            else:
                grid, graph = None, parse_graph(inst.graph_path.read_text())
                params = dict(inst.params)
            plugin = make_plugin(inst.problem, graph, **params)
            oracle = None
            if graph.n <= MAX_N:
                res = oracle_solve(inst.problem,
                                   grid if inst.problem == "rect-cover" else graph,
                                   params)
                oracle = res.objective if res.feasible else INFEASIBLE
            self._plugins[inst.name] = plugin
            self._oracle[inst.name] = oracle
        return self._plugins[inst.name], self._oracle[inst.name]

    def check(self, i, code, stdout):
        """Returns None when solve i is correct, else the reason."""
        inst = self.instances[i]
        try:
            objective, rows = parse_output(stdout)
        except ValueError as exc:
            return f"{inst.name}: exit {code}, {exc}"
        expect_code = 2 if objective == INFEASIBLE else 0
        if code != expect_code:
            return f"{inst.name}: exit {code}, expected {expect_code}"
        if self.pins is not None and objective != self.pins[i]:
            return (f"{inst.name}: objective {format_value(objective)}, "
                    f"pinned {format_value(self.pins[i])}")
        plugin, oracle = self._load(inst)
        if oracle is not None and oracle != objective:
            return (f"{inst.name}: objective {format_value(objective)}, "
                    f"oracle {format_value(oracle)}")
        if objective == INFEASIBLE:
            return None
        try:
            cert = build_certificate(inst.problem, rows)
            ok, value = plugin.check_certificate(cert)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{inst.name}: certificate unreadable: {exc!r}"
        if not ok:
            return f"{inst.name}: certificate rejected"
        if value != objective:
            return (f"{inst.name}: certificate scores {format_value(value)}, "
                    f"printed {format_value(objective)}")
        return None
