"""What importing the command line loads, and the lazy plugin registry.

`import pwdp.cli` loads the modules every solve runs and no plugin, the
oracle or the modules only they need; make_plugin then loads the one
plugin module it builds from.  Each import check runs in a fresh
interpreter, since this process has long since loaded everything.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pwdp
import pwdp.plugins as plugins
from pwdp.errors import ParameterError
from pwdp.graph import Graph
from pwdp.plugins import PLUGIN_NAMES, make_plugin

SRC = str(Path(pwdp.__file__).resolve().parent.parent)


def fresh(code, *argv):
    """Run code in a fresh interpreter that imports this pwdp; returns
    the completed process."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def test_import_cli_loads_no_plugin_oracle_fractions_or_dataclasses():
    proc = fresh("import sys\nbefore = set(sys.modules)\nimport pwdp.cli\n"
                 "print(*sorted(set(sys.modules) - before))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"pwdp.oracle", "fractions", "dataclasses"}
    assert not [m for m in loaded if m.startswith("pwdp.plugins.")]
    # every solve runs these, so they load with the command line, not
    # inside a command
    assert {"pwdp.engine", "pwdp.decomposition", "pwdp.graph",
            "pwdp.partition", "pwdp.plugins", "argparse"} <= loaded


MAKE_PLUGIN = """
import sys
from pwdp.graph import PartialGrid, grid_to_graph
from pwdp.plugins import make_plugin
grid = PartialGrid(2, 3, frozenset((r, c) for r in range(2) for c in range(3)))
before = set(sys.modules)
plugin = make_plugin(sys.argv[1], grid_to_graph(grid), C=3, k=2, L=1, U=3,
                     grid=grid, pieces=[(1, 2)])
print(type(plugin).__module__)
print(*sorted(m for m in set(sys.modules) - before if m.startswith("pwdp")))
"""


@pytest.mark.parametrize("name", PLUGIN_NAMES)
def test_make_plugin_loads_only_its_own_module(name):
    proc = fresh(MAKE_PLUGIN, name)
    assert proc.returncode == 0, proc.stderr
    home, loaded = proc.stdout.splitlines()
    assert home.startswith("pwdp.plugins.")
    assert set(loaded.split()) == {home, "pwdp.plugins.base"}


def test_public_names_are_the_submodules_own():
    assert plugins.__all__ == [
        "ProblemDefinition", "ColoringProblem", "CanonicalColoringProblem",
        "PenaltyColoringProblem", "PathCoverProblem", "CycleCoverProblem",
        "KReplicaProblem", "MwisProblem", "MaxLeafTreeProblem",
        "MinMaximalMatchingProblem", "AvgPathProblem", "RectCoverProblem",
        "PLUGIN_NAMES", "make_plugin"]
    for name in plugins.__all__:
        obj = getattr(plugins, name)
        home = sys.modules[getattr(obj, "__module__", plugins.__name__)]
        assert getattr(home, name) is obj
        if isinstance(obj, type):
            assert home.__name__.startswith("pwdp.plugins.")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pwdp.plugins import *", namespace)
    for name in plugins.__all__:
        assert namespace[name] is getattr(plugins, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchProblem"):
        plugins.NoSuchProblem


def test_unknown_problem_names_the_known_ones():
    with pytest.raises(ParameterError) as exc:
        make_plugin("no-such-problem", Graph(2, []))
    assert str(exc.value) == (
        "unknown problem 'no-such-problem' (known: avg-path, coloring, "
        "coloring-canonical, cycle-cover, k-replica, max-leaf-tree, "
        "min-maximal-matching, mwis, path-cover, penalty-coloring, "
        "rect-cover)")



RUN_MAIN = """
import sys
from pwdp.cli import main
assert "fractions" not in sys.modules
for argv in sys.argv[1:]:
    print("exit", main(argv.split()))
"""


def untimed(text):
    return [line for line in text.splitlines() if not line.startswith("time ")]


def test_fraction_objective_prints_alike_with_fractions_loaded_or_not(
        tmp_path, capsys):
    import fractions  # noqa: F401  (loaded before main runs)
    from pwdp.cli import main

    grid = tmp_path / "smoke.grid"
    grid.write_text("grid 3 4\n....\n....\n....\n")
    argv = f"solve avg-path -L 1 -U 3 --grid {grid}"
    assert main(argv.split()) == 0
    out = untimed(capsys.readouterr().out)
    assert out[0] == "objective 1/1 (~1.000000)"
    proc = fresh(RUN_MAIN, argv)
    assert proc.returncode == 0, proc.stderr
    assert untimed(proc.stdout) == [*out, "exit 0"]


def test_oracle_answers_from_a_fresh_command_line(tmp_path):
    grid = tmp_path / "smoke.grid"
    grid.write_text("grid 3 4\n....\n....\n....\n")
    k3 = tmp_path / "k3.g"
    k3.write_text("graph 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    proc = fresh(RUN_MAIN, f"oracle mwis --grid {grid}",
                 f"oracle coloring -C 2 --graph {k3}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "objective 6", "exit 0", "infeasible", "exit 2"]
