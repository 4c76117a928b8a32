"""Run one benchmark workload against the library in ../src and report
its metrics.

    python3 bench/run.py --workload offline-small --seed 0 --seconds 40 --trace 0

With --trace 0 the run times whole passes over the workload's operations
until --seconds is used up and reports the end-to-end metrics, timings
scaled to a nominal machine speed (see reference.py).  With
--trace 1 it makes one pass in which every call is repeated under
tracing, checks that both computed the same results, and reports the
per-layer metrics.  Metric names and units are those of the
`end_to_end` or `per_layer` list of BENCHMARK.json at the repository
root; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--instance-seeds replaces the workload's default GenConfig seeds, to
recheck a result on held-out instances.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

from tracer import TRACED, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("offline-small", "offline-mid", "online-small")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_REPS = 5  # reference.work calls after each timed call, ~30-50 ms


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance-seeds", type=lambda v: tuple(int(x) for x in v.split(",")),
                   help="comma-separated GenConfig seeds (default: the workload's own)")
    return p.parse_args(argv)


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may run on; must run
    before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= n):
            os.environ[var] = str(n)


def import_library():
    """Import simcache from ../src only, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "simcache", "__init__.py")):
        sys.exit(f"run.py: no library at {os.path.join(SRC, 'simcache')}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import simcache
    if os.path.dirname(os.path.dirname(os.path.abspath(simcache.__file__))) != SRC:
        sys.exit(f"run.py: simcache imported from {simcache.__file__}, not {SRC}")


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(ops, seconds, setup):
    """Whole passes over `ops`, another one only while it fits in `seconds`.

    Each call is followed by one timed set-up and REFERENCE_REPS timed
    calls of reference.work, so that every pass carries its own gauge of
    the machine's speed and set-up samples spread over the run.  Returns
    one (outcomes, set-up times, reference times) triple per pass."""
    import reference  # imports numpy, so only after cap_threads

    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        outcomes, setups, gauge = [], [], []
        for op in ops:
            outcomes.append(op())
            setups.append(timed(setup))
            gauge += [timed(reference.work) for _ in range(REFERENCE_REPS)]
        passes.append((outcomes, setups, gauge))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return passes


TIMINGS = {"setup_s": "s", "solve_s": "s", "iter_ms": "ms"}


def end_to_end(passes, online_workload):
    """Timings are medians over passes of per-pass means: the calls of one
    pass differ in length, so the median of single calls would jump
    between them.  Each pass's timings are scaled by reference.NOMINAL_S
    over the mean reference.work time of that pass, to the machine speed
    at which reference.work takes NOMINAL_S (see reference.py).  A mean,
    like the timed calls, takes in every slow spell of the pass.  The
    unscaled medians are printed as `<name>_wall`."""
    import reference

    wall = {name: [] for name in TIMINGS}
    scaled = {name: [] for name in TIMINGS}
    gauges = []
    for outcomes, setups, gauge in passes:
        gauges.append(statistics.fmean(gauge))
        scale = reference.NOMINAL_S / gauges[-1]
        seconds = sum(o.seconds for o in outcomes)
        iterations = sum(o.iterations for o in outcomes)
        timings = {"setup_s": setups, "solve_s": [seconds / len(outcomes)],
                   "iter_ms": [1000.0 * seconds / iterations] if iterations else []}
        for name, values in timings.items():
            wall[name] += values
            scaled[name] += [v * scale for v in values]
    objectives = [o.objective for p in passes for o in p[0] if math.isfinite(o.objective)]
    m = {name: (statistics.median(scaled[name]) if scaled[name] else None, unit)
         for name, unit in TIMINGS.items()}
    m["rounded_objective"] = (statistics.fmean(objectives) if objectives else None, "cost")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for name, unit in TIMINGS.items():
        m[f"{name}_wall"] = (statistics.median(wall[name]) if wall[name] else None, unit)
    m["reference_s"] = (statistics.median(gauges), "s")
    if online_workload:  # the names the online scheme's figures go by
        m["slot_ms"] = m["iter_ms"]
        m["online_cost"] = m["rounded_objective"]
    return m


def per_layer(tracer, plain, traced, online_workload):
    m = {}
    for name in TRACED:
        m[f"{name}.calls"] = (tracer.calls[name], "count")
        m[f"{name}.total_s"] = (tracer.total_s[name], "s")
        m[f"{name}.self_s"] = (tracer.self_s[name], "s")
    gaps = [(o.objective - o.fractional) / o.fractional
            for o in traced if math.isfinite(o.fractional) and o.fractional != 0]
    m["hibsa.iterations"] = (0 if online_workload else
                             sum(o.iterations for o in traced), "count")
    m["hibsa.rounding_gap"] = (statistics.fmean(gaps) if gaps else 0.0, "frac")
    m["gradients.grad_x.peak_mb"] = (tracer.peak_mb, "MB")
    m["online.arrivals"] = (sum(o.arrivals for o in traced), "count")
    m["online.cache_churn"] = (sum(o.churn for o in traced), "count")
    m["trace_overhead_frac"] = (sum(o.seconds for o in traced)
                                / sum(o.seconds for o in plain) - 1.0, "frac")
    return m


def same_results(a, b):
    """Bit-identical outputs of one operation in the plain and traced pass."""
    return (a.iterations == b.iterations and a.arrivals == b.arrivals
            and a.churn == b.churn and repr(a.objective) == repr(b.objective))


def main(argv=None):
    args = parse_args(argv)
    cap_threads()
    import_library()
    import numpy as np
    import workloads

    declared = declared_metrics(args.trace)
    seeds = args.instance_seeds or workloads.WORKLOADS[args.workload].instance_seeds
    online_workload = workloads.WORKLOADS[args.workload].slots > 0
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        def setup():
            return workloads.build_instances(args.workload, seeds, workdir)

        instances = setup()
        ops = workloads.operations(args.workload, seeds, instances, args.seed)
        workloads.warm_up(args.workload, instances)
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced_instances = setup()
            traced_ops = workloads.operations(args.workload, seeds, traced_instances, args.seed)
            plain, traced = [], []
            # alternate plain and traced calls so that drift in machine
            # speed does not show up as tracing overhead
            for plain_op, traced_op in zip(ops, traced_ops):
                plain.append(plain_op())
                with tracer:
                    traced.append(traced_op())
                a, b = plain[-1], traced[-1]
                if not b.failed and not same_results(a, b):
                    b.failed = b.attempted
                    b.errors.append("traced run computed a different result")
            outcomes = plain + traced
            metrics = per_layer(tracer, plain, traced, online_workload)
        else:
            passes = measure(ops, args.seconds, setup)
            outcomes = [o for p in passes for o in p[0]]
            metrics = end_to_end(passes, online_workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for e in o.errors[:5]:
            print(f"run.py: {e}", file=sys.stderr)
    metrics["failed_frac"] = (failed / attempted, "frac")

    print(f"workload {args.workload}  seed {args.seed}  instance seeds "
          f"{','.join(map(str, seeds))}  trace {args.trace}")
    print("descriptors " + json.dumps({
        "instances": [dict(seed=k, **workloads.describe(s)) for k, s in zip(seeds, instances)],
        "numpy": np.__version__, "cpu_count": os.cpu_count(), "commit": git_commit(),
    }))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value!r} {unit}")

    missing = [n for n, u in declared.items() if n not in metrics or metrics[n][1] != u]
    if missing:
        sys.exit(f"run.py: BENCHMARK.json declares metrics this run does not give: {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
