"""Byte-identity gate: every golden case prints what it printed when the
hashes in golden/hashes.json were recorded.

A case is one `pwdp solve` or `pwdp oracle` run through pwdp.cli.main;
its record is the exit code and the sha256 of stdout less the `time`
line, the only line that varies between runs.  The cases:

- the seed-1 `--reconstruct` solves of the benchmark's grid-conn,
  long-thin and file-decomp workloads, written into a temporary
  directory by perfbench/instances.py;
- the seed-1 file-decomp penalty band again with `--mode max`, the
  one plugin mode that combines by max, not by addition;
- `--dump-tables --reconstruct` on each EVERY_PLUGIN case of
  test_engine.py, its weighted graph and its grid sweep written as an
  instance file and a decomposition file (rect-cover: the grid file);
- `pwdp oracle` for each EVERY_PLUGIN case on the clean 3x4 grid, the
  largest full grid the oracles admit (n = 12).

A change that alters a tie-break, an origin, a certificate or a table
fails here.  A change that alters output on purpose regenerates the
hashes with `python3 tests/golden/regenerate.py` and says which cases
changed and why.
"""
import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

from pwdp import cli
from pwdp.graph import serialize_grid
from test_engine import EVERY_PLUGIN, weighted_instance

ROOT = Path(__file__).resolve().parent.parent
HASHES = Path(__file__).resolve().parent / "golden" / "hashes.json"
SEED = 1
WORKLOADS = ("grid-conn", "long-thin", "file-decomp")
TIME_LINE = re.compile(r"^time \d+\.\d+s\n", re.MULTILINE)


def _perfbench_instances():
    """perfbench/instances.py, loaded by path: perfbench is no package."""
    name = "perfbench_instances"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "instances.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


PARAMS = ["-C", "3", "-k", "4", "-L", "2", "-U", "5"]
PIECES = ["--piece", "1x2", "--piece", "2x1", "--piece", "2x2"]


def _plugin_case(name, mode, workdir):
    """The solve argv of one EVERY_PLUGIN case, its files under workdir."""
    plugin, g, npd = weighted_instance(name, mode)
    argv = ["solve", name, "--dump-tables", "--reconstruct", *PARAMS,
            "--mode", mode]
    stem = workdir / f"{name}-{mode}"
    if name == "rect-cover":
        path = stem.with_suffix(".grid")
        path.write_text(serialize_grid(plugin.grid))
        return argv + ["--grid", str(path), *PIECES]
    gpath, dpath = stem.with_suffix(".g"), stem.with_suffix(".pd")
    gpath.write_text(g.serialize())
    dpath.write_text(npd.to_path_decomposition().serialize())
    return argv + ["--graph", str(gpath), "--decomp", str(dpath)]


def golden_cases(workdir):
    """{case name: solve argv}, every instance file written under workdir."""
    workdir = Path(workdir)
    instances = _perfbench_instances()
    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    cases = {}
    for workload in WORKLOADS:
        entries = spec["workloads"][workload]["instances"]["full"]
        variant = SEED % spec["variants"]
        folder = workdir / workload
        folder.mkdir()
        for inst in instances.generate(workload, entries, variant, folder):
            cases[f"{workload}/{inst.name}"] = inst.argv
    band = "file-decomp/01-penalty-coloring"
    cases[f"{band}-max"] = cases[band] + ["--mode", "max"]
    for name, mode in EVERY_PLUGIN:
        cases[f"tables/{name}-{mode}"] = _plugin_case(name, mode, workdir)
    grid = workdir / "3x4.grid"
    grid.write_text("grid 3 4\n....\n....\n....\n")
    for name, mode in EVERY_PLUGIN:
        cases[f"oracle/{name}-{mode}"] = [
            "oracle", name, "--grid", str(grid), *PARAMS, "--mode", mode,
            *(PIECES if name == "rect-cover" else ())]
    return cases


def record(argv):
    """[exit code, sha256 of stdout less the time line] of one solve."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = TIME_LINE.sub("", out.getvalue())
    return [code, hashlib.sha256(text.encode()).hexdigest()]


def test_every_case_prints_its_recorded_output(tmp_path):
    expected = json.loads(HASHES.read_text())
    cases = golden_cases(tmp_path)
    assert sorted(cases) == sorted(expected)
    changed = [name for name, argv in cases.items()
               if record(argv) != expected[name]]
    assert changed == []
