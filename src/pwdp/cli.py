"""Command-line front end.

Subcommands: solve, oracle, validate-decomp, nicify, states.  Exit code
0 means feasible/ok, 2 infeasible, 1 any error.  Output is line-based
and stable so scripts can parse it: `objective <v>` / `infeasible`, an
optional `certificate` block, a `stats` summary, and the wall time.
"""
from __future__ import annotations

import argparse
import functools
import gc
import sys
import time
from pathlib import Path

from .decomposition import (
    EXACT_MAX_N, exact_pathwidth_decomposition, grid_sweep_decomposition,
    nicify, parse_decomposition,
)
from .engine import catalan_allowed, reconstruct_solution, run_dp
from .errors import PwdpError
from .graph import Graph, PartialGrid, grid_to_graph, parse_graph, parse_grid
from .plugins import PLUGIN_NAMES, make_plugin

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved for infeasible here
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_ERROR)


def _piece(text):
    try:
        r, c = text.lower().split("x")
        return int(r), int(c)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"piece must look like 2x3, got {text!r}") from None


def _add_instance_args(sp):
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", metavar="FILE", help="graph instance file")
    src.add_argument("--grid", metavar="FILE", help="partial-grid instance file")


def _add_param_args(sp):
    sp.add_argument("-C", type=int, help="number of colors")
    sp.add_argument("-k", type=int, help="number of replicas")
    sp.add_argument("-L", type=int, help="minimum path length")
    sp.add_argument("-U", type=int, help="maximum path length")
    sp.add_argument("--mode", choices=("sum", "max"), default="sum",
                    help="penalty aggregation (default sum)")
    sp.add_argument("--piece", dest="pieces", type=_piece, action="append",
                    metavar="RxC", help="piece type, repeatable")


@functools.cache
def build_parser():
    """The argument parser, built once per process: an argparse parser
    is cyclic garbage, which would stay alive through every command
    that main runs with the collector paused."""
    ap = _Parser(prog="pwdp",
                 description="dynamic programming on path decompositions")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run a problem plugin")
    sp.add_argument("problem", choices=PLUGIN_NAMES)
    _add_instance_args(sp)
    _add_param_args(sp)
    sp.add_argument("--decomp", default="auto", metavar="SRC",
                    help="auto | grid-sweep | exact-tiny | decomposition file")
    sp.add_argument("--capacity", type=int, default=50_000_000,
                    help="state-slot budget per bag size")
    sp.add_argument("--reconstruct", action="store_true",
                    help="print the certificate block")
    sp.add_argument("--prune-catalan", action="store_true",
                    help="report the noncrossing state bound as max-allowed "
                         "(grid sweeps, path/cycle cover)")
    sp.add_argument("--dump-tables", action="store_true",
                    help="print per-node sizes and full tables")

    sp = sub.add_parser("oracle", help="brute-force reference solver")
    sp.add_argument("problem", choices=PLUGIN_NAMES)
    _add_instance_args(sp)
    _add_param_args(sp)

    sp = sub.add_parser("validate-decomp", help="check a decomposition file")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--decomp", required=True, metavar="FILE")

    sp = sub.add_parser("nicify", help="refine a decomposition to nice form")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--decomp", required=True, metavar="FILE")

    sp = sub.add_parser("states", help="canonical state counts per bag size")
    sp.add_argument("problem", choices=PLUGIN_NAMES)
    sp.add_argument("--nv", type=int, required=True, help="largest bag size")
    _add_param_args(sp)
    return ap


def _read(path):
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise PwdpError(f"{path}: not a text file ({exc.reason})") from None


def _load_instance(args):
    """Returns (graph, grid-or-None)."""
    if args.grid:
        grid = parse_grid(_read(args.grid))
        return grid_to_graph(grid), grid
    return parse_graph(_read(args.graph)), None


def _collect_params(args, grid):
    params = {}
    for key in ("C", "k", "L", "U"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if getattr(args, "mode", None):
        params["mode"] = args.mode
    if getattr(args, "pieces", None):
        params["pieces"] = args.pieces
    if grid is not None:
        params["grid"] = grid
    return params


def _load_problem(args):
    """The instance and parameters of a solve or oracle run, checked by
    building the plugin: (plugin, graph, grid-or-None, params)."""
    graph, grid = _load_instance(args)
    if args.problem == "rect-cover" and grid is None:
        raise PwdpError("rect-cover needs a --grid instance")
    params = _collect_params(args, grid)
    plugin = make_plugin(args.problem, graph, **params)
    return plugin, graph, grid, params


def _resolve_decomp(args, graph, grid):
    """Build or load the nice decomposition for a solve run."""
    choice = args.decomp
    if args.problem == "rect-cover":
        if choice not in ("auto", "grid-sweep"):
            raise PwdpError("rect-cover runs on its own widened grid sweep")
        npd, _ = grid_sweep_decomposition(grid, transpose=False, widen=True)
        return npd
    if choice == "auto":
        choice = ("grid-sweep" if grid is not None
                  else "exact-tiny" if graph.n <= EXACT_MAX_N
                  else None)
        if choice is None:
            raise PwdpError(
                f"graph has {graph.n} > {EXACT_MAX_N} vertices; "
                "pass --decomp <file>")
    if choice == "grid-sweep":
        if grid is None:
            raise PwdpError("--decomp grid-sweep needs a --grid instance")
        npd, _ = grid_sweep_decomposition(grid)
        return npd
    if choice == "exact-tiny":
        npd, _ = exact_pathwidth_decomposition(graph)
        return npd
    pd = parse_decomposition(_read(choice))
    return nicify(pd, graph)


def _print_objective(obj):
    # a Fraction exists only once its module is loaded, so the check
    # needs no import of its own
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(obj, fractions.Fraction):
        print(f"objective {obj.numerator}/{obj.denominator} (~{float(obj):.6f})")
    else:
        print(f"objective {obj}")


def _cmd_solve(args):
    plugin, graph, grid, _params = _load_problem(args)
    npd = _resolve_decomp(args, graph, grid)
    allowed = catalan_allowed(plugin, npd) if args.prune_catalan else None
    retain = args.reconstruct or args.dump_tables

    start = time.perf_counter()
    result = run_dp(plugin, graph, npd, capacity=args.capacity,
                    retain=retain, allowed=allowed)
    elapsed = time.perf_counter() - start

    if result.feasible:
        _print_objective(result.objective)
        if args.reconstruct:
            cert = reconstruct_solution(result)
            print("certificate")
            sys.stdout.write("".join(f"{line}\n"
                                     for line in plugin.certificate_lines(cert)))
    else:
        print("infeasible")

    if args.dump_tables:
        for st, table in zip(result.stats, result.tables):
            print(f"node {st.index} {st.kind} {st.vertex} nv {st.nv} "
                  f"allowed {st.allowed} filled {st.filled}")
            for state, value in table.items():
                comps = " ".join(str(c) for c in state)
                print(f"state {comps} value {value}".replace("  ", " "))
    print(f"stats nodes {len(result.filled)} "
          f"max-allowed {max(result.allowed.values())} "
          f"max-filled {max(result.filled)}")
    print(f"time {elapsed:.3f}s")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _cmd_oracle(args):
    from .oracle import oracle_solve  # only this command runs the oracle

    _plugin, graph, grid, params = _load_problem(args)
    instance = grid if args.problem == "rect-cover" else graph
    res = oracle_solve(args.problem, instance, params)
    if not res.feasible:
        print("infeasible")
        return EXIT_INFEASIBLE
    _print_objective(res.objective)
    return EXIT_OK


def _cmd_validate_decomp(args):
    graph = parse_graph(_read(args.graph))
    pd = parse_decomposition(_read(args.decomp))
    pd.validate(graph)
    print(f"valid width {pd.width}")
    return EXIT_OK


def _cmd_nicify(args):
    graph = parse_graph(_read(args.graph))
    pd = parse_decomposition(_read(args.decomp))
    npd = nicify(pd, graph)
    sys.stdout.write(npd.to_path_decomposition().serialize())
    return EXIT_OK


def _cmd_states(args):
    if args.nv < 1:
        raise PwdpError("--nv must be at least 1")
    n = args.nv
    if args.problem == "rect-cover":
        # the plugin checks piece widths against grid.cols and counts
        # states from the pieces alone, so one row of n cells will do
        grid = PartialGrid(1, n, frozenset((0, c) for c in range(n)))
        params = _collect_params(args, grid)
        plugin = make_plugin(args.problem, grid_to_graph(grid), **params)
    else:
        params = _collect_params(args, None)
        plugin = make_plugin(args.problem, Graph(n, []), **params)
    # render every count first: one too long to print fails with no output
    lines = [f"problem {plugin.name}"]
    for nv in range(n + 1):
        try:
            lines.append(f"nv {nv} states {plugin.count_states(nv)}")
        except ValueError:  # past the interpreter's int-to-str limit
            raise PwdpError(f"bag size {nv} has a state count too long "
                            f"to print; pass a smaller --nv") from None
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None):
    """Parse argv (sys.argv[1:] when None), run the command and return
    its exit code.

    The command runs with the cyclic garbage collector paused: a solve
    allocates a large heap of tuples, dicts and per-node records that
    holds no reference cycles, so refcounting frees all of it, while
    the collector would walk it over and over.  The collector is turned
    back on afterwards if it was on before, however the command ends.
    Argument parsing, and the usage errors that exit through SystemExit,
    stay outside the pause; the parser is built once per process
    (build_parser), so a command leaves no cyclic garbage of its own.
    The library (run_dp, pwdp.solve) leaves the collector alone, since
    process-wide state belongs to the program that owns the process.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "validate-decomp": _cmd_validate_decomp,
        "nicify": _cmd_nicify,
        "states": _cmd_states,
    }
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handlers[args.command](args)
    except (PwdpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
