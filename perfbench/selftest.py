"""Self-test of the benchmark on toy instances.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload at toy size with tracing off and on, and checks that
the last output line names exactly the metrics BENCHMARK.json lists, with
their units, and that every solve passed.  Then it runs one workload
in-process with one pinned objective changed and checks that the run
counts that solve as failed and exits nonzero.  Takes well under a minute.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import run
from run import HERE, ROOT

SEED = 3


def bench_args(workload, trace):
    return ["--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
            "--trace", str(trace), "--size", "toy"]


def bench(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py")] + bench_args(workload, trace)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.splitlines()
    if not lines:
        raise AssertionError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1])


def check_metrics(result, listed, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    assert set(got) == set(want), f"{label}: {sorted(set(got) ^ set(want))}"
    for name, m in got.items():
        assert m["unit"] == want[name], f"{label}: unit of {name}"
        assert isinstance(m["value"], (int, float)), f"{label}: {name}"


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = run.load_spec()
    for workload in spec["workloads"]:
        for trace, listed in ((0, declared["end_to_end"]),
                              (1, declared["per_layer"])):
            label = f"{workload} trace {trace}"
            code, result = bench(workload, trace)
            assert code == 0, f"{label}: exit {code}"
            check_metrics(result, listed, label)
            assert result["correct"] and result["failed"] == 0, label
            assert result["attempted"] >= 1, label
            print(f"ok {label}: {result['attempted']} solves")

    workload = "file-decomp"
    pins = spec["workloads"][workload]["pinned"]["toy"][str(SEED % spec["variants"])]
    pins[0] = str(int(pins[0]) + 1)
    run.load_spec = lambda: spec
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(bench_args(workload, 0))
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code != 0, "a wrong pinned objective still exited 0"
    assert not result["correct"], "a wrong pinned objective passed"
    n = len(spec["workloads"][workload]["instances"]["toy"])
    assert result["failed"] * n == result["attempted"], result
    print(f"ok wrong pin: {result['failed']} of {result['attempted']} solves failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
