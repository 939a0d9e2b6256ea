"""End-to-end benchmark of ``pwdp solve``.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-conn --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in a process of its own.

The workload's instances come from ``perfbench/workloads.json`` and the
seed; they are written to files before any timer starts.  One thread
then drives ``pwdp.cli.main`` in a closed loop, one instance after the
other, and repeats the whole set until ``--seconds`` of solving have been
measured.  Every output is re-checked after its timer stops.  A
reference DP (``refdp.py``) is timed between solves, and ``solve_s`` and
``setup_s`` are reported in units of it, so that the host's drifting
speed cancels out.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` half the budget runs untraced and half with the layer
trace of ``layertrace.py``, in pairs of a span pass and a hook pass, and
the last line reports the per-layer metrics.
The exit code is 0 only when every solve was correct.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refdp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_MIN_LAUNCHES = 15


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of workloads.json, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="instance sizes; toy is for the self-test")
    return ap.parse_args(argv)


def load_spec():
    """Workload shapes and pinned objectives."""
    return json.loads((HERE / "workloads.json").read_text())


def import_pwdp():
    """Import the pwdp of this checkout, never an installed copy."""
    if not (SRC / "pwdp" / "__init__.py").is_file():
        raise BenchError(f"no pwdp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pwdp
    if Path(pwdp.__file__).resolve().parent != SRC / "pwdp":
        raise BenchError(f"imported pwdp from {pwdp.__file__}, not {SRC}")


class SetupTimer:
    """setup_s: the time a fresh interpreter takes to import pwdp.cli,
    timed inside the child, so interpreter start-up is left out.

    The child also times the setup reference DP just before and just
    after the import, and each launch yields the import time over the
    mean of the two.  One launch follows each solve, so the launches
    spread over the whole run; setup_s is the median ratio times the
    reference's nominal seconds.
    """

    def __init__(self):
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
        self.cmd = [sys.executable, "-c",
                    "import time, refdp; r0 = refdp.timed(refdp.SETUP_REF); "
                    "t = time.perf_counter(); import pwdp.cli; "
                    "t = time.perf_counter() - t; "
                    "print(t, r0, refdp.timed(refdp.SETUP_REF))"]
        self.ratios = []
        self._launch()  # writes the bytecode caches; not counted

    def _launch(self):
        out = subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout
        t, r0, r1 = map(float, out.split())
        return t / ((r0 + r1) / 2)

    def sample(self):
        self.ratios.append(self._launch())

    def seconds(self):
        while len(self.ratios) < SETUP_MIN_LAUNCHES:
            self.sample()
        return refdp.SETUP_REF_NOMINAL_S * statistics.median(self.ratios)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def solve_once(cli, inst, tracer):
    """Run one instance through cli.main; returns (seconds, code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    span = (tracer.span("cli.main", instance=inst.name) if tracer
            else contextlib.nullcontext())
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = cli.main(inst.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # counted as a failed solve, not a crash
        from layertrace import TraceError
        if isinstance(exc, TraceError):
            raise
        code = f"exception {exc!r}"
    return time.perf_counter() - t0, code, out.getvalue()


class Passes:
    """What run_passes measured.

    times[i] and ratios[i] hold instance i's solve times (of the hook
    passes when traced) and, untraced, each time over the mean of the
    reference DPs timed just before and just after it.  spans and hooks
    are the per-layer summaries of the span and hook passes.  rss_mb is
    the peak RSS after the first pass's solves, before verification and
    the set-up launches add their own memory.
    """

    def __init__(self, n):
        self.times = [[] for _ in range(n)]
        self.ratios = [[] for _ in range(n)]
        self.refs = []
        self.spans, self.hooks = [], []
        self.rss_mb = None


def run_passes(cli, instances, checker, budget, tally, tracer=None,
               setup=None):
    """Solve the whole set repeatedly until budget seconds were measured.

    Traced passes come in pairs, a span pass and then a hook pass (see
    layertrace.py); they time no reference.  The budget counts the
    reference DPs too, so a run lasts about as long on any host.
    """
    got = Passes(len(instances))
    spent = 0.0
    passes = 0
    while True:
        if tracer:
            tracer.reset()
            tracer.hooks = passes % 2 == 1
        else:
            ref = refdp.timed(refdp.SOLVE_REF)
            got.refs.append(ref)
            spent += ref
        outputs = []
        for i, inst in enumerate(instances):
            dt, code, stdout = solve_once(cli, inst, tracer)
            spent += dt
            if not tracer:
                before, ref = ref, refdp.timed(refdp.SOLVE_REF)
                got.refs.append(ref)
                spent += ref
                got.ratios[i].append(dt / ((before + ref) / 2))
            if not tracer or tracer.hooks:
                got.times[i].append(dt)
            outputs.append((code, stdout))
            if got.rss_mb is None and i == len(instances) - 1:
                got.rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
            if setup:
                setup.sample()
        if tracer:
            (got.hooks if tracer.hooks else got.spans).append(tracer.summary())
        for i, (code, stdout) in enumerate(outputs):
            tally.add(checker.check(i, code, stdout))
        passes += 1
        if tracer and passes % 2:
            continue
        # stop at the pass count that lands nearest to the budget
        if spent + spent / passes / 2 >= budget:
            return got


def wall_seconds(times):
    """Sum over instances of the fastest solve of each, in wall seconds."""
    return sum(min(t) for t in times)


def solve_seconds(ratios):
    """solve_s: the sum over instances of each one's median ratio of
    solve time to reference time, times the reference's nominal seconds.

    On a 2-vCPU VM of a shared host, runs minutes apart differed by up to
    1.7 times in wall time; their reference ratios differed by a few
    percent, under load on the other vCPU too.
    """
    return refdp.SOLVE_REF_NOMINAL_S * sum(statistics.median(r)
                                           for r in ratios)


def layer_metrics(span_passes, hook_passes, must_exercise):
    from layertrace import TraceError, combine

    out = combine(span_passes, hook_passes)
    zero = [name for name in must_exercise if not out[name]]
    if zero:
        raise TraceError(f"counters the workload must exercise read 0: "
                         f"{', '.join(zero)}")
    return out


def run_all(args, workloads):
    """Each workload in its own process, since peak RSS is per process."""
    codes = []
    for name in workloads:
        sys.stdout.flush()
        codes.append(subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT).returncode)
    return max(codes)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, list(spec["workloads"]))
    import_pwdp()
    import pwdp.cli as cli
    from instances import generate
    from verify import Checker

    if args.workload not in spec["workloads"]:
        raise BenchError(f"unknown workload {args.workload!r}; known: "
                         f"{', '.join(spec['workloads'])}")
    wl = spec["workloads"][args.workload]
    variant = args.seed % spec["variants"]
    pins = wl["pinned"][args.size][str(variant)]

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        instances = generate(args.workload, wl["instances"][args.size],
                             variant, workdir)
        checker = Checker(instances, pins)
        tally = Tally()
        budget = args.seconds / 2 if args.trace else args.seconds
        traced = None
        setup = None if args.trace else SetupTimer()
        plain = run_passes(cli, instances, checker, budget, tally,
                           setup=setup)
        if args.trace:
            from layertrace import Tracer

            tracer = Tracer()
            with tracer.installed():
                traced = run_passes(cli, instances, checker, budget, tally,
                                    tracer)
            metrics = layer_metrics(traced.spans, traced.hooks,
                                    wl["must_exercise"])
            metrics["trace.overhead_s"] = (wall_seconds(traced.times)
                                           - wall_seconds(plain.times))
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json.gz",
                        {"workload": args.workload, "seed": args.seed,
                         "variant": variant, "metrics": metrics})
        else:
            metrics = {"solve_s": solve_seconds(plain.ratios),
                       "setup_s": setup.seconds(),
                       "peak_rss_mb": plain.rss_mb}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(units)}")
    print(f"workload {args.workload} seed {args.seed} variant {variant} "
          f"instances {len(instances)} trace {args.trace}")
    print("pass_s " + " ".join(f"{sum(t):.3f}" for t in zip(*plain.times)))
    print(f"wall_solve_s {wall_seconds(plain.times):.6g} s "
          f"(sum of per-instance fastest solves)")
    if plain.refs:
        print(f"reference_s {statistics.median(plain.refs):.6g} s median, "
              f"{refdp.SOLVE_REF_NOMINAL_S} s nominal")
    if traced:
        print("traced_pass_s " + " ".join(f"{sum(t):.3f}"
                                          for t in zip(*traced.times)))
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    ratio = tally.failed / tally.attempted
    print(f"fail_ratio {ratio:.6g} ({tally.failed} failed / "
          f"{tally.attempted} attempted)")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
    except RuntimeError as exc:  # TraceError: the trace lost a layer
        print(f"perfbench: trace: {exc}", file=sys.stderr)
        sys.exit(3)
