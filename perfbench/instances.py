"""Seeded instance generation for the benchmark workloads.

Every instance is described by one entry of ``workloads.json``.  The
generator turns an entry plus a variant number into instance files and
the ``pwdp solve`` argument list that runs them.  Nothing here imports
pwdp: the files are written in the documented text formats, so the
program under test only ever sees its own inputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Flags the benchmark may pass for problem parameters.  --threads,
# --capacity, --prune-catalan and --dump-tables are deliberately absent.
PARAM_FLAGS = {"C": "-C", "k": "-k", "L": "-L", "U": "-U", "mode": "--mode"}


@dataclass
class Instance:
    name: str
    problem: str
    params: dict
    argv: list
    grid_path: Path = None
    graph_path: Path = None


def _rng(workload, variant, index):
    # str seeds hash through SHA-512, so the stream is the same on every run
    return random.Random(f"{workload}:{variant}:{index}")


def _grid_text(rows, cols, holes):
    lines = [f"grid {rows} {cols}"]
    for r in range(rows):
        lines.append("".join("X" if (r, c) in holes else "."
                             for c in range(cols)))
    return "\n".join(lines) + "\n"


def _grid_holes(spec, rng):
    """Hole cells of a grid entry.

    ``{"lines": [...], "size": 1}`` puts one cell hole in each listed
    sweep line at a seeded place along it.  The grid sweep runs along the
    shorter side, so lines are columns when rows < cols and rows
    otherwise.  ``"size": 2`` removes the aligned 2x2 block on lines
    (l, l+1) at a seeded even offset, which keeps an even-sided grid
    tileable by 4-cycles.  Fixing the lines fixes where along the sweep
    the frontier shrinks, so the DP work barely depends on the seed.
    ``{"count": N}`` removes N seeded cells anywhere.
    """
    rows, cols = spec["rows"], spec["cols"]
    h = spec.get("holes")
    if not h:
        return set()
    if "count" in h:
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        return set(rng.sample(cells, h["count"]))

    def cell(line, k):
        return (k, line) if rows < cols else (line, k)

    across = min(rows, cols)
    holes = set()
    for line in h["lines"]:
        if h.get("size", 1) == 1:
            holes.add(cell(line, rng.randrange(across)))
        else:
            k = 2 * rng.randrange(across // 2)
            holes |= {cell(line + a, k + b) for a in (0, 1) for b in (0, 1)}
    return holes


def _weights(rng, n, edges, weights):
    lines = []
    for key, (lo, hi) in sorted(weights.items()):
        if key in ("vw", "sc"):
            lines += [f"{key} {v} {rng.randint(lo, hi)}" for v in range(1, n + 1)]
        else:
            lines += [f"{key} {u} {v} {rng.randint(lo, hi)}" for u, v in edges]
    return lines


def _graph_text(n, edges, wlines):
    return "\n".join([f"graph {n} {len(edges)}"]
                     + [f"e {u} {v}" for u, v in edges] + wlines) + "\n"


def _band(spec, rng):
    """Irregular band graph: the path 1-2-...-n plus each edge (u, u+d),
    2 <= d < bag, kept with the given density.  Bags are the windows
    {i, ..., i+bag-1}, so the decomposition holds exactly n-bag+1 bags."""
    n, bag = spec["n"], spec["bag"]
    edges = []
    for u in range(1, n + 1):
        for d in range(1, bag):
            if u + d <= n and (d == 1 or rng.random() < spec["density"]):
                edges.append((u, u + d))
    bags = [range(i, i + bag) for i in range(1, n - bag + 2)]
    pd = [f"pd {len(bags)}"] + ["bag " + " ".join(map(str, b)) for b in bags]
    return n, edges, "\n".join(pd) + "\n"


def _one_bag(spec, rng):
    """Connected graph on n vertices (a seeded Hamiltonian path plus
    extra edges at the given density) decomposed as one bag of all n."""
    n = spec["n"]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = {tuple(sorted(p)) for p in zip(perm, perm[1:])}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < spec["density"]:
                edges.add((u, v))
    pd = "pd 1\nbag " + " ".join(str(v) for v in range(1, n + 1)) + "\n"
    return n, sorted(edges), pd


GRAPH_KINDS = {"band": _band, "one-bag": _one_bag}


def generate(workload, entries, variant, workdir):
    """Write every instance of one workload variant under workdir."""
    workdir = Path(workdir)
    out = []
    for i, spec in enumerate(entries):
        rng = _rng(workload, variant, i)
        name = f"{i:02d}-{spec['problem']}"
        params = dict(spec.get("params", {}))
        argv = ["solve", spec["problem"]]
        if spec["kind"] == "grid":
            holes = _grid_holes(spec, rng)
            path = workdir / f"{name}.grid"
            path.write_text(_grid_text(spec["rows"], spec["cols"], holes))
            argv += ["--grid", str(path), "--decomp", "grid-sweep"]
            inst = Instance(name, spec["problem"], params, argv, grid_path=path)
        else:
            n, edges, pd = GRAPH_KINDS[spec["kind"]](spec, rng)
            gpath = workdir / f"{name}.g"
            dpath = workdir / f"{name}.pd"
            gpath.write_text(_graph_text(
                n, edges, _weights(rng, n, edges, spec.get("weights", {}))))
            dpath.write_text(pd)
            argv += ["--graph", str(gpath), "--decomp", str(dpath)]
            inst = Instance(name, spec["problem"], params, argv,
                            graph_path=gpath)
        for key, val in params.items():
            argv += [PARAM_FLAGS[key], str(val)]
        argv.append("--reconstruct")
        out.append(inst)
    return out
