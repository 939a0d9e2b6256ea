"""Hostile-input fuzz of the command line.

Seeded mutations of a small graph, grid and decomposition file (lines
dropped, repeated or cut, tokens swapped for junk) go through
pwdp.cli.main as solve, oracle, validate-decomp and nicify runs.  Each
run must return 0, 1 or 2, or exit 1 through a usage error: a bad file
may only ever be reported as a PwdpError, never leak another exception.
The inputs stay sparse, since the max-leaf-tree oracle enumerates edge
subsets.
"""
import contextlib
import io
import random

import pytest

from pwdp.cli import main

GRAPH = """graph 7 8
e 1 2
e 2 3
e 3 4
e 4 5
e 5 6
e 6 7
e 1 7
e 2 6
vw 3 4
ew 1 2 5
pen 2 3 2
sc 4 3
"""
GRID = """grid 3 4
....
.X..
...X
removeedge 1 1 1 2
"""
# a path decomposition of GRAPH
DECOMP = """pd 4
bag 1 2 7
bag 2 6 7
bag 2 3 6
bag 3 4 5 6
"""
JUNK = ["-1", "0", "x", "#", "9" * 40, "\x00", "", "2.5", "bag", "e"]
PROBLEMS = [
    ("mwis",), ("coloring", "-C", "2"), ("path-cover",), ("cycle-cover",),
    ("max-leaf-tree",), ("min-maximal-matching",), ("k-replica", "-k", "2"),
    ("avg-path", "-L", "1", "-U", "3"), ("penalty-coloring", "-C", "2"),
]
CASES = 500


def mutate(rng, text):
    """text with one to three lines dropped, repeated, cut short or given
    a junk token in place of one of its own."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        else:
            parts = lines[i].split() or [""]
            parts[rng.randrange(len(parts))] = rng.choice(JUNK)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def fuzz_argv(rng, workdir, n):
    """One mutated command: its files written under workdir as case n."""
    graph, grid, decomp = (workdir / f"{n}.{ext}" for ext in ("g", "grid", "pd"))
    graph.write_text(mutate(rng, GRAPH) if rng.random() < 0.7 else GRAPH)
    grid.write_text(mutate(rng, GRID))
    decomp.write_text(mutate(rng, DECOMP) if rng.random() < 0.7 else DECOMP)
    command = rng.choice(["solve", "oracle", "validate-decomp", "nicify"])
    if command in ("validate-decomp", "nicify"):
        return [command, "--graph", str(graph), "--decomp", str(decomp)]
    problem = list(rng.choice(PROBLEMS))
    if rng.random() < 0.3:
        return [command, "rect-cover", "--grid", str(grid), "--piece", "1x2"]
    if rng.random() < 0.5:
        return [command, *problem, "--grid", str(grid)]
    argv = [command, *problem, "--graph", str(graph)]
    if command == "solve" and rng.random() < 0.7:
        argv += ["--decomp", str(decomp), "--reconstruct"]
    return argv


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return main(argv)
        except SystemExit as exc:   # a usage error
            assert exc.code == 1, out.getvalue()
            return exc.code


@pytest.mark.parametrize("seed", range(5))
def test_mutated_files_fail_cleanly(seed, tmp_path):
    rng = random.Random(seed)
    for n in range(CASES // 5):
        argv = fuzz_argv(rng, tmp_path, n)
        assert run(argv) in (0, 1, 2), argv
