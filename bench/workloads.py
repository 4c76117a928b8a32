"""The benchmark's workloads: instance set-up and the timed library calls.

Every call goes through a module attribute (`hibsa.solve_offline`, not a
name imported from it), so the tracer's wrappers see it.  Each timed call
is checked afterwards by `checker`, outside the timed region.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from simcache import baselines, hibsa, online, scenario

import checker


@dataclass(frozen=True)
class Workload:
    gen: dict  # GenConfig fields besides the seed
    instance_seeds: tuple  # default GenConfig seeds of the run's instances
    alphas: tuple = ()  # offline: one solve_offline per alpha and instance
    adaptive: bool = False  # offline: plus one solve_adaptive_caching per instance
    max_iters: int = hibsa.SolverConfig.max_iters
    slots: int = 0  # online: slots per run_online call; 0 for offline workloads


MID = dict(nodes_side=10, num_contents=100, num_requests=400, num_origins=40,
           capacity=5, alpha=10.0)

# Why each workload exists, and the layers it stresses or bypasses, is in
# README.md next to this file.
WORKLOADS = {
    # default sizes; every solve runs to convergence under SolverConfig().
    # One instance keeps a pass to about 7,000 iterations, so a run holds
    # several passes and the median over them rides out slow spells of a
    # shared machine; a pass over three instances would fill a whole run.
    "offline-small": Workload(gen={}, instance_seeds=(0,),
                              alphas=(1.0, 10.0, 100.0), adaptive=True),
    # converging is too slow here, so a fixed budget: every solve stops on max_iters
    "offline-mid": Workload(gen=MID, instance_seeds=(0, 1), alphas=(10.0,),
                            max_iters=10),
    "online-small": Workload(gen={}, instance_seeds=(0, 1, 2),
                             slots=online.OnlineConfig.num_slots),
}


@dataclass
class Outcome:
    """One timed library call and what the checker made of it."""

    seconds: float
    attempted: int  # 1 per offline solve, one per slot online
    failed: int = 0
    iterations: int = 0  # solver iterations, or slots online
    objective: float = math.nan  # rounded objective, or online cost
    fractional: float = math.nan  # fractional objective at the last iterate
    arrivals: int = 0
    churn: int = 0
    errors: list = field(default_factory=list)


def build_instances(name, seeds, workdir):
    """Generate each instance, then round-trip it through the JSON file
    format, as the CLI does; the benchmark solves the loaded copies."""
    out = []
    for k in seeds:
        s = scenario.generate_scenario(scenario.GenConfig(seed=k, **WORKLOADS[name].gen))
        path = os.path.join(workdir, f"{name}-{k}.json")
        scenario.save_scenario(s, path)
        loaded = scenario.load_scenario(path)
        if loaded != s:
            raise RuntimeError(f"instance {k} changed in a save/load round trip")
        out.append(loaded)
    return out


def describe(s):
    """Size descriptors of one instance, for sizing later gains."""
    lengths = [len(r.path) for r in s.requests]
    P = max(lengths)
    return {
        "V": s.num_nodes, "F": s.num_contents, "R": s.num_requests, "P": P,
        "unique_paths": len({r.path.nodes for r in s.requests}),
        "path_fill": sum(lengths) / (len(lengths) * P),
    }


def stream_seed(seed, instance_seed):
    return int(np.random.SeedSequence([seed, instance_seed]).generate_state(1)[0])


def operations(name, seeds, instances, seed):
    """The library calls of one pass over the instances, in an order drawn
    from `seed`; online, `seed` also seeds the request streams."""
    wl = WORKLOADS[name]
    ops = []
    cfg = hibsa.SolverConfig(max_iters=wl.max_iters)
    for k, s in zip(seeds, instances):
        if wl.slots:
            ops.append(partial(timed_online, s, online.OnlineConfig(
                num_slots=wl.slots, seed=stream_seed(seed, k))))
            continue
        for a in wl.alphas:
            ops.append(partial(timed_solve, scenario.with_alpha(s, a), cfg, False))
        if wl.adaptive:
            ops.append(partial(timed_solve, s, cfg, True))
    return [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]


def warm_up(name, instances):
    """One short untimed call, so first-call costs stay out of the timings."""
    if WORKLOADS[name].slots:
        online.run_online(instances[0], online.OnlineConfig(num_slots=2))
    else:
        hibsa.solve_offline(instances[0], hibsa.SolverConfig(max_iters=2))


def _failure(t0, attempted):
    return Outcome(seconds=time.perf_counter() - t0, attempted=attempted,
                   failed=attempted, errors=[traceback.format_exc()])


def timed_solve(s, cfg, adaptive):
    solve = baselines.solve_adaptive_caching if adaptive else hibsa.solve_offline
    t0 = time.perf_counter()
    try:
        res = solve(s, cfg)
    except Exception:  # a raising solve is a failed operation, not a crash
        return _failure(t0, 1)
    seconds = time.perf_counter() - t0
    errors = checker.check_solution(s, res.rounded.X, res.rounded.Q, res.rounded.objective)
    fractional = res.trace.rows[-1][2]
    if not math.isfinite(fractional):
        errors.append(f"fractional objective {fractional} is not finite")
    return Outcome(seconds=seconds, attempted=1, failed=int(bool(errors)),
                   iterations=res.trace.iterations, objective=res.rounded.objective,
                   fractional=fractional, errors=errors)


def timed_online(s, cfg):
    """run_online, then every slot checked; the cost is the mean per-slot
    delay + alpha * dissimilarity over the second half of the slots."""
    t0 = time.perf_counter()
    try:
        res = online.run_online(s, cfg)
    except Exception:  # a raising run fails every slot it was to play
        return _failure(t0, cfg.num_slots)
    seconds = time.perf_counter() - t0
    errors = []
    failed = 0
    costs = []
    window = deque(maxlen=cfg.delay_window)
    X_served = None  # the caching that served the slot; the first one is not returned
    for o in res.outcomes:
        errs, delay, dissim = checker.slot_cost(s, X_served, o.triples)
        errs += checker.check_caching(s, o.X_rounded)
        errs += checker.check_delivery(s, o.X_rounded, o.Q_rounded)
        window.append((delay, dissim))
        span = len(window) * cfg.slot_length
        if not math.isclose(o.windowed_delay, sum(d for d, _ in window) / span,
                            rel_tol=checker.REL_TOL, abs_tol=checker.ABS_TOL):
            errs.append(f"slot {o.slot} windowed delay {o.windowed_delay!r}")
        if not math.isclose(o.windowed_dissimilarity, sum(d for _, d in window) / span,
                            rel_tol=checker.REL_TOL, abs_tol=checker.ABS_TOL):
            errs.append(f"slot {o.slot} windowed dissimilarity {o.windowed_dissimilarity!r}")
        if not math.isfinite(o.lagrangian):
            errs.append(f"slot {o.slot} lagrangian {o.lagrangian}")
        if errs:
            failed += 1
            errors += [f"slot {o.slot}: {e}" for e in errs[:3]]
        costs.append(delay + s.alpha * dissim)
        X_served = o.X_rounded
    failed += cfg.num_slots - len(res.outcomes)
    half = costs[len(costs) // 2:]
    return Outcome(seconds=seconds, attempted=cfg.num_slots, failed=failed,
                   iterations=len(res.outcomes),
                   objective=sum(half) / len(half) if half else math.nan,
                   arrivals=sum(len(o.triples) for o in res.outcomes),
                   churn=sum(o.cache_churn for o in res.outcomes),
                   errors=errors)
