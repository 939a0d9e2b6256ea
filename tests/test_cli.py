import contextlib
import gc
import io
import re
import sys
from pathlib import Path

import pytest

import pwdp.cli
from pwdp.cli import main
from pwdp.decomposition import grid_sweep_decomposition
from pwdp.engine import catalan_allowed, run_dp
from pwdp.graph import grid_to_graph, parse_grid
from pwdp.plugins import make_plugin
from pwdp.plugins.replica import MwisProblem

P4 = "graph 4 3\ne 1 2\ne 2 3\ne 3 4\n"
K3 = "graph 3 3\ne 1 2\ne 1 3\ne 2 3\n"
STAR4 = "graph 4 3\ne 1 2\ne 1 3\ne 1 4\n"
GRID23 = "grid 2 3\n...\n...\n"
GRID44 = "grid 4 4\n....\n....\n....\n....\n"
P3_AVG = "graph 3 2\ne 1 2\ne 2 3\nvw 1 1\nvw 2 10\nvw 3 1\n"
P4_PD = "pd 3\nbag 1 2\nbag 2 3\nbag 3 4\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_path_cover_auto(tmp_path, capsys):
    g = write(tmp_path, "p4.g", P4)
    code, out, _ = run(capsys, "solve", "path-cover", "--graph", g,
                       "--decomp", "auto")
    assert code == 0
    assert "objective 1" in out.splitlines()[0]
    assert any(line.startswith("stats ") for line in out.splitlines())
    assert any(line.startswith("time ") for line in out.splitlines())


def test_solve_infeasible_exit_2(tmp_path, capsys):
    g = write(tmp_path, "k3.g", K3)
    code, out, _ = run(capsys, "solve", "coloring", "--graph", g, "-C", "2")
    assert code == 2
    assert out.splitlines()[0] == "infeasible"


def test_oracle_star(tmp_path, capsys):
    g = write(tmp_path, "star4.g", STAR4)
    code, out, _ = run(capsys, "oracle", "path-cover", "--graph", g)
    assert code == 0
    assert out.splitlines()[0] == "objective 2"


def test_certificate_block(tmp_path, capsys):
    g = write(tmp_path, "k3.g", K3)
    code, out, _ = run(capsys, "solve", "coloring", "--graph", g,
                       "-C", "3", "--reconstruct")
    assert code == 0
    lines = out.splitlines()
    assert "certificate" in lines
    colors = [l for l in lines if l.startswith("color ")]
    assert len(colors) == 3
    for line in colors:
        _, v, c = line.split()
        assert 1 <= int(v) <= 3 and 1 <= int(c) <= 3


def test_avg_path_rational_output(tmp_path, capsys):
    g = write(tmp_path, "p3.g", P3_AVG)
    code, out, _ = run(capsys, "solve", "avg-path", "--graph", g,
                       "-L", "2", "-U", "2")
    assert code == 0
    assert out.splitlines()[0].startswith("objective 11/2 (~5.5")
    # solve and oracle print the same value the same way, in lowest terms
    g = write(tmp_path, "p3w.g", "graph 3 2\ne 1 2\ne 2 3\n"
                                 "vw 1 2\nvw 2 4\nvw 3 1\n")
    for cmd in ("solve", "oracle"):
        code, out, _ = run(capsys, cmd, "avg-path", "--graph", g,
                           "-L", "2", "-U", "2")
        assert code == 0
        assert out.splitlines()[0] == "objective 3/1 (~3.000000)"


def test_grid_instance_with_pruning(tmp_path, capsys):
    g = write(tmp_path, "g23.grid", GRID23)
    code, out, _ = run(capsys, "solve", "path-cover", "--grid", g,
                       "--prune-catalan", "--reconstruct")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "objective 1"
    assert len([l for l in lines if l.startswith("edge ")]) == 5


@pytest.mark.parametrize("problem, canonical, noncrossing, filled", [
    ("path-cover", 558, 543, 310),
    ("cycle-cover", 142, 132, 38),
])
def test_prune_catalan_reports_noncrossing_bound(tmp_path, capsys, problem,
                                                 canonical, noncrossing,
                                                 filled):
    # bags of 5 on a 4x4 sweep, where the two bounds differ
    g = write(tmp_path, "g44.grid", GRID44)
    for flags, bound in (((), canonical), (("--prune-catalan",), noncrossing)):
        code, out, _ = run(capsys, "solve", problem, "--grid", g, *flags)
        assert code == 0
        assert (f"stats nodes 32 max-allowed {bound} max-filled {filled}"
                in out.splitlines())


def test_rect_cover_on_grid(tmp_path, capsys):
    g = write(tmp_path, "g23.grid", GRID23)
    code, out, _ = run(capsys, "solve", "rect-cover", "--grid", g,
                       "--piece", "2x2", "--piece", "1x1", "--reconstruct")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "objective 6"
    assert len([l for l in lines if l.startswith("place ")]) == 6


def test_states_canonical_count(capsys):
    code, out, _ = run(capsys, "states", "coloring-canonical",
                       "-C", "7", "--nv", "9")
    assert code == 0
    assert "nv 9 states 21110" in out.splitlines()


def test_states_naive_count(capsys):
    code, out, _ = run(capsys, "states", "coloring", "-C", "3", "--nv", "4")
    assert code == 0
    assert "nv 4 states 81" in out.splitlines()


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python prints ints of any length")
def test_states_count_too_long_to_print_fails_cleanly(monkeypatch, capsys):
    # one digit past the interpreter's int-to-str limit, where str()
    # raises ValueError
    huge = 10 ** sys.get_int_max_str_digits()
    monkeypatch.setattr(MwisProblem, "count_states",
                        lambda self, nv: huge if nv == 3 else 2 ** nv)
    code, out, err = run(capsys, "states", "mwis", "--nv", "14300")
    assert code == 1
    # no count is written before the one that fails
    assert out == ""
    assert err == ("error: bag size 3 has a state count too long to "
                   "print; pass a smaller --nv\n")


def test_states_rect_cover_builds_one_row(monkeypatch, capsys):
    # the plugin reads only the grid's width, so a bag of n cells must
    # not cost an n x n grid
    built = []
    grid_class = pwdp.cli.PartialGrid

    def recording(rows, cols, *args):
        built.append((rows, cols))
        return grid_class(rows, cols, *args)

    monkeypatch.setattr(pwdp.cli, "PartialGrid", recording)
    code, out, _ = run(capsys, "states", "rect-cover", "--nv", "5",
                       "--piece", "2x3")
    assert code == 0
    assert out.splitlines()[-1] == "nv 5 states 243"
    assert built == [(1, 5)]
    code, _, err = run(capsys, "states", "rect-cover", "--nv", "2",
                       "--piece", "1x3")
    assert code == 1
    assert "wider than the grid" in err


def test_validate_decomp(tmp_path, capsys):
    g = write(tmp_path, "p4.g", P4)
    d = write(tmp_path, "p4.pd", P4_PD)
    code, out, _ = run(capsys, "validate-decomp", "--graph", g, "--decomp", d)
    assert code == 0
    assert out.splitlines()[0] == "valid width 1"


def test_validate_decomp_rejects(tmp_path, capsys):
    g = write(tmp_path, "p4.g", P4)
    d = write(tmp_path, "bad.pd", "pd 2\nbag 1 2\nbag 3 4\n")
    code, _, err = run(capsys, "validate-decomp", "--graph", g, "--decomp", d)
    assert code == 1
    assert "error:" in err


def test_decomp_file_missing_vertex_same_kind_everywhere(tmp_path, capsys):
    # one bag of P4 misses vertices 3 and 4; every entry point must name
    # the missing vertex, not the node count of the nice form
    g = write(tmp_path, "p4.g", P4)
    d = write(tmp_path, "short.pd", "pd 1\nbag 1 2\n")
    for argv in (("validate-decomp",), ("nicify",), ("solve", "mwis")):
        code, out, err = run(capsys, *argv, "--graph", g, "--decomp", d)
        assert code == 1
        assert "missing-vertex" in err
        assert out == ""


def test_nicify_round_trip(tmp_path, capsys):
    g = write(tmp_path, "p4.g", P4)
    d = write(tmp_path, "p4.pd", P4_PD)
    code, out, _ = run(capsys, "nicify", "--graph", g, "--decomp", d)
    assert code == 0
    # feeding the refined file back in solves identically
    d2 = write(tmp_path, "nice.pd", out)
    code, out, _ = run(capsys, "solve", "mwis", "--graph", g, "--decomp", d2)
    assert code == 0
    assert out.splitlines()[0] == "objective 2"


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "solve", "coloring", "--graph",
                       "/nonexistent.g", "-C", "2")
    assert code == 1
    assert "error:" in err


def test_missing_param_is_error(tmp_path, capsys):
    g = write(tmp_path, "k3.g", K3)
    code, _, err = run(capsys, "solve", "coloring", "--graph", g)
    assert code == 1
    assert "C" in err


def test_rect_cover_without_piece_is_error(tmp_path, capsys):
    g = write(tmp_path, "g23.grid", GRID23)
    code, _, err = run(capsys, "solve", "rect-cover", "--grid", g)
    assert code == 1
    assert "missing required parameter 'pieces'" in err


@pytest.mark.parametrize("argv, message", [
    (("coloring", "--graph", "k3.g", "-C", "0"), "C must be >= 1"),
    (("penalty-coloring", "--graph", "k3.g", "-C", "0"), "C must be >= 1"),
    (("coloring", "--graph", "k3.g"), "missing required parameter 'C'"),
    (("rect-cover", "--grid", "g23.grid", "--piece", "9x9"),
     "wider than the grid"),
    # max mode seeds the worst penalty with 0, which -3 cannot beat
    (("penalty-coloring", "--graph", "neg.g", "-C", "1", "--mode", "max"),
     "penalties >= 0"),
], ids=["coloring-C0", "penalty-coloring-C0", "missing-C", "wide-piece",
        "max-mode-negative-penalty"])
def test_solve_and_oracle_reject_parameters_alike(tmp_path, capsys, argv,
                                                  message):
    write(tmp_path, "k3.g", K3)
    write(tmp_path, "g23.grid", GRID23)
    write(tmp_path, "neg.g", "graph 2 1\ne 1 2\npen 1 2 -3\n")
    argv = [str(tmp_path / a) if a.endswith((".g", ".grid")) else a
            for a in argv]
    seen = []
    for cmd in ("solve", "oracle"):
        code, out, err = run(capsys, cmd, *argv)
        assert code == 1
        assert out == ""
        assert message in err
        seen.append(err)
    assert seen[0] == seen[1]


def test_auto_needs_file_beyond_tiny(tmp_path, capsys):
    n = 13
    edges = [(i, i + 1) for i in range(1, n)]
    text = f"graph {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    g = write(tmp_path, "p13.g", text)
    code, _, err = run(capsys, "solve", "mwis", "--graph", g)
    assert code == 1
    assert "--decomp" in err


def test_dump_tables(tmp_path, capsys):
    g = write(tmp_path, "k3.g", K3)
    code, out, _ = run(capsys, "solve", "coloring", "--graph", g,
                       "-C", "3", "--dump-tables")
    assert code == 0
    lines = out.splitlines()
    assert any(l.startswith("node 1 introduce") for l in lines)
    assert any(l.startswith("state ") and "value" in l for l in lines)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The cyclic collector on or off as a caller left it; restored after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_solve_runs_with_the_collector_paused(collector, tmp_path, capsys,
                                              monkeypatch):
    seen = []
    run_dp = pwdp.cli.run_dp

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return run_dp(*args, **kwargs)

    monkeypatch.setattr(pwdp.cli, "run_dp", recording)
    g = write(tmp_path, "p4.g", P4)
    code, _, _ = run(capsys, "solve", "path-cover", "--graph", g)
    assert code == 0
    assert seen == [False]
    assert gc.isenabled() == collector


def crashing_handler(args):
    raise RuntimeError("handler bug")


@pytest.mark.parametrize("case", ["ok", "infeasible", "pwdp-error",
                                  "unexpected-exception", "usage-error"])
def test_main_restores_the_callers_collector(collector, case, tmp_path,
                                             capsys, monkeypatch):
    k3 = write(tmp_path, "k3.g", K3)
    colors = {"infeasible": "2", "pwdp-error": "0"}.get(case, "3")
    argv = ["solve", "coloring", "--graph", k3, "-C", colors]
    if case == "unexpected-exception":
        monkeypatch.setattr(pwdp.cli, "_cmd_solve", crashing_handler)
        with pytest.raises(RuntimeError, match="handler bug"):
            main(argv)
    elif case == "usage-error":
        with pytest.raises(SystemExit):
            main(argv + ["--no-such-option"])
    else:
        want = {"ok": 0, "infeasible": 2, "pwdp-error": 1}[case]
        assert run(capsys, *argv)[0] == want
    assert gc.isenabled() == collector


def test_second_command_leaves_no_cyclic_garbage(tmp_path, capsys):
    # the parser is built once per process; one built per call would be
    # garbage in cycles, kept alive while main pauses the collector
    k3 = write(tmp_path, "k3.g", K3)
    argv = ("solve", "coloring", "--graph", k3, "-C", "3", "--reconstruct")
    assert run(capsys, *argv)[0] == 0
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, *argv)[0] == 0
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def readme_quick_start():
    """The Python and the shell block of the README's quick start."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    python, shell = re.findall(r"```(?:python)?\n(.*?)```", section, re.S)
    return python, shell


def test_readme_python_quick_start():
    python, _shell = readme_quick_start()
    expected = [line.split("# ", 1)[1] for line in python.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(python, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_shell_quick_start(tmp_path, capsys):
    _python, shell = readme_quick_start()
    commands = re.split(r"^\$ ", shell, flags=re.M)[1:]
    cat, solve = (c.splitlines() for c in commands)
    assert cat[0] == "cat p4.g"
    path = write(tmp_path, "p4.g", "\n".join(cat[1:]) + "\n")
    argv = solve[0].split()
    assert argv[0] == "pwdp"
    argv = [path if a == "p4.g" else a for a in argv[1:]]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    documented = [line for line in solve[1:] if not line.startswith("time ")]
    printed = out.splitlines()
    assert printed[-1].startswith("time ")
    assert printed[:-1] == documented


PROBLEMS = ("coloring", "coloring-canonical", "penalty-coloring",
            "path-cover", "cycle-cover", "k-replica", "max-leaf-tree",
            "min-maximal-matching", "avg-path", "mwis", "rect-cover")


@pytest.mark.parametrize("problem, flags", [
    *[(p, ()) for p in PROBLEMS],
    *[(p, ("--reconstruct", "--dump-tables")) for p in PROBLEMS],
    ("path-cover", ("--prune-catalan",)),
    ("cycle-cover", ("--prune-catalan",))])
def test_stats_line_reads_node_records(tmp_path, capsys, problem, flags):
    """The stats line reads the per-node counts, and says what the
    NodeStats records of the same run say."""
    text = "grid 4 4\n....\n.X..\n....\n....\nremoveedge 1 1 1 2\n"
    path = write(tmp_path, "holed.grid", text)
    params = ["-C", "3", "-k", "2", "-L", "1", "-U", "3",
              "--piece", "1x2", "--piece", "2x1", "--piece", "1x1"]
    code, out, _ = run(capsys, "solve", problem, "--grid", path, *params,
                       *flags)
    assert code in (0, 2)
    grid = parse_grid(text)
    g = grid_to_graph(grid)
    params = dict(C=3, k=2, L=1, U=3, grid=grid,
                  pieces=[(1, 2), (2, 1), (1, 1)])
    plugin = make_plugin(problem, g, **params)
    if problem == "rect-cover":
        npd, _ = grid_sweep_decomposition(grid, transpose=False, widen=True)
    else:
        npd, _ = grid_sweep_decomposition(grid)
    allowed = (catalan_allowed(plugin, npd) if "--prune-catalan" in flags
               else None)
    stats = run_dp(plugin, g, npd, allowed=allowed).stats
    line = (f"stats nodes {len(stats)} "
            f"max-allowed {max(s.allowed for s in stats)} "
            f"max-filled {max(s.filled for s in stats)}")
    assert [ln for ln in out.splitlines() if ln.startswith("stats ")] == [
        line]
