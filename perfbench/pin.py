"""Pin the objective of every benchmark instance.

Usage, from the repository root:

    python3 perfbench/pin.py [--workload NAME] [--size full|toy]

Solves every variant of the chosen workloads once through ``pwdp.cli``,
checks each certificate (and the brute-force oracle where n <= 12), and
writes the objectives into the ``pinned`` block of workloads.json.  The
pins are taken once, on a commit trusted to be correct; later runs of
run.py compare against them.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import run
from instances import generate


def dumps(obj, indent=0):
    """JSON with every short list or object kept on one line."""
    flat = json.dumps(obj)
    if len(flat) + indent <= 110 or not isinstance(obj, (dict, list)) or not obj:
        return flat
    pad = " " * (indent + 2)
    if isinstance(obj, dict):
        items = [f"{pad}{json.dumps(k)}: {dumps(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    items = [pad + dumps(v, indent + 2) for v in obj]
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def pin_variant(cli, name, entries, variant, workdir, memo):
    from verify import Checker, format_value, parse_output

    instances = generate(name, entries, variant, workdir)
    checker = Checker(instances)
    pins = []
    for i, inst in enumerate(instances):
        # the solver arguments with each instance file replaced by its text
        key = tuple(Path(a).read_text() if a.startswith(str(workdir)) else a
                    for a in inst.argv)
        if key not in memo:
            _, code, stdout = run.solve_once(cli, inst, None)
            reason = checker.check(i, code, stdout)
            if reason:
                raise run.BenchError(f"{name} variant {variant}: {reason}")
            memo[key] = format_value(parse_output(stdout)[0])
        pins.append(memo[key])
    return pins


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--size", choices=("full", "toy"), action="append")
    args = ap.parse_args(argv)
    run.import_pwdp()
    import pwdp.cli as cli

    path = run.HERE / "workloads.json"
    spec = json.loads(path.read_text())
    names = args.workload or list(spec["workloads"])
    sizes = args.size or ["full", "toy"]
    run.WORK.mkdir(exist_ok=True)
    workdir = run.WORK / f"pin-{os.getpid()}"
    workdir.mkdir()
    try:
        for name in names:
            wl = spec["workloads"][name]
            pinned = wl.setdefault("pinned", {})
            for size in sizes:
                memo = {}
                pinned[size] = {
                    str(v): pin_variant(cli, name, wl["instances"][size], v,
                                        workdir, memo)
                    for v in range(spec["variants"])}
                print(f"pinned {name} {size}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(dumps(spec) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
