"""Command-line experiment harness.

Commands: generate, validate, solve, sweep, online.  Every command writes
CSV metrics plus a manifest.json capturing the full option set, so any
output can be reproduced byte-for-byte from the manifest alone.  Exit
codes: 0 success (including reported nonconvergence), 1 scenario
violations (solve and online then solve nothing), 2 usage error, 3 I/O
or parse error.
"""

from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path as FsPath

import click

from . import __version__
from .baselines import PerCacheConfig, run_per_cache_baseline
from .hibsa import TRACE_COLUMNS, SolverConfig, solve_offline
from .model import validate_scenario
from .online import OnlineConfig, run_online
from .scenario import (GenConfig, ScenarioFormatError, generate_scenario,
                       load_scenario, save_scenario, with_alpha, with_capacity)

IO_ERROR = 3


def _fmt(x) -> str:
    """Deterministic CSV cell: shortest round-trip repr for floats."""
    if isinstance(x, float):
        return repr(x)
    return "" if x is None else str(x)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def write_manifest(out_dir, command: str, options: dict) -> None:
    doc = {"command": command, "options": options, "version": __version__}
    with open(FsPath(out_dir) / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load(path):
    try:
        return load_scenario(path)
    except (OSError, ScenarioFormatError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(IO_ERROR)


def _exit_on_violations(s) -> None:
    """Print every scenario violation to stderr and exit 1 if there is one."""
    violations = validate_scenario(s)
    for v in violations:
        click.echo(f"violation: {v}", err=True)
    if violations:
        sys.exit(1)


def solve_summary_row(s, scheme, cfg):
    """One summary row (scheme, expected_delay, ...) for a single solve;
    ``cfg.pin_delivery`` selects the adaptive-caching mode."""
    res = solve_offline(s, cfg)
    frac_obj = res.trace.rows[-1][2]
    gap = ((res.rounded.objective - frac_obj) / frac_obj) if frac_obj > 0 else 0.0
    return res, {
        "scheme": scheme,
        "alpha": s.alpha,
        "expected_delay": res.rounded.expected_delay,
        "dissimilarity_cost": res.rounded.dissimilarity_cost,
        "objective": res.rounded.objective,
        "iterations": res.trace.iterations,
        "stop_reason": res.trace.stop_reason,
        "gap_vs_fractional": gap,
    }


SWEEP_COLUMNS = ("param", "value", "seed", "scheme", "expected_delay",
                 "dissimilarity_cost", "objective", "iterations", "stop_reason")


def sweep_point(param, value, seed, scheme, gen_kwargs, solver_kwargs):
    """Solve one (parameter value, seed, scheme) grid point."""
    g = GenConfig(seed=seed, **gen_kwargs)
    s = generate_scenario(g)
    if param == "alpha":
        s = with_alpha(s, float(value))
    elif param == "capacity":
        s = with_capacity(s, int(value))
    else:
        raise ValueError(f"unknown sweep parameter {param!r}")
    cfg = SolverConfig(pin_delivery=(scheme == "adaptive"), **solver_kwargs)
    try:
        _, row = solve_summary_row(s, scheme, cfg)
        return (param, value, seed) + tuple(row[c] for c in SWEEP_COLUMNS[3:])
    except Exception as exc:  # partial failure recorded per row
        return (param, value, seed, scheme, None, None, None, 0, f"error: {exc}")


def run_sweep(param, values, seeds, schemes, gen_kwargs, solver_kwargs, workers=1):
    """Full sweep grid; rows come back in deterministic sorted order."""
    points = [(param, v, seed, scheme, gen_kwargs, solver_kwargs)
              for v in values for seed in seeds for scheme in schemes]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(sweep_point, *zip(*points)))
    else:
        rows = [sweep_point(*p) for p in points]
    rows.sort(key=lambda r: (str(r[0]), float(r[1]), int(r[2]), str(r[3])))
    return rows


SLOT_COLUMNS = ("t", "num_requests", "avg_delay_window", "dissimilarity_window",
                "lagrangian_estimate", "cache_churn", "offline_delay")


@click.group()
@click.version_option(__version__)
def main():
    """Joint cache placement and similarity-based delivery optimizer."""


_gen_options = [
    click.option("--nodes-side", default=5, show_default=True),
    click.option("--topology", default="grid", type=click.Choice(["grid", "torus"]),
                 show_default=True),
    click.option("--contents", default=10, show_default=True),
    click.option("--requests", default=40, show_default=True),
    click.option("--origins", default=12, show_default=True),
    click.option("--capacity", default=2, show_default=True),
    click.option("--beta", default=3.0, show_default=True),
    click.option("--rho", default=1.2, show_default=True),
    click.option("--alpha", default=10.0, show_default=True),
    click.option("--seed", default=0, show_default=True),
]


def _apply(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return deco


def _gen_config(nodes_side, topology, contents, requests, origins, capacity,
                beta, rho, alpha, seed) -> GenConfig:
    try:
        g = GenConfig(nodes_side=nodes_side, topology=topology,
                      num_contents=contents, num_requests=requests,
                      num_origins=origins, capacity=capacity, beta=beta,
                      rho=rho, alpha=alpha, seed=seed)
        g.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return g


@main.command()
@_apply(_gen_options)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def generate(out, **kwargs):
    """Generate a random scenario and write it to a file."""
    g = _gen_config(**kwargs)
    s = generate_scenario(g)
    save_scenario(s, out)
    click.echo(f"wrote {out}: |V|={s.num_nodes} |E|={len(s.network.delays)} "
               f"|F|={s.num_contents} |R|={s.num_requests}")
    _exit_on_violations(s)
    click.echo("validation: ok")


@main.command()
@click.option("--scenario", "scenario_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def validate(scenario_path):
    """Check every instance invariant of a scenario file."""
    s = _load(scenario_path)
    violations = validate_scenario(s)
    if violations:
        for v in violations:
            click.echo(str(v))
        sys.exit(1)
    click.echo("ok")


@main.command()
@click.option("--scenario", "scenario_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--alpha", default=None, type=float,
              help="Override the scenario's dissimilarity weight.")
@click.option("--baseline", default=None, type=click.Choice(["adaptive"]))
@click.option("--eta-s", default=1e-3, show_default=True)
@click.option("--eta-mu", default=1.0, show_default=True)
@click.option("--delta", default=1e-6, show_default=True)
@click.option("--max-iters", default=50000, show_default=True)
@click.option("--seed", default=0, show_default=True,
              help="Recorded in manifest.json; the offline start is "
                   "deterministic, so the seed does not change the run.")
def solve(scenario_path, out, alpha, baseline, eta_s, eta_mu, delta,
          max_iters, seed):
    """Run the offline solver; write trace, solution, and summary."""
    s = _load(scenario_path)
    if alpha is not None:
        s = with_alpha(s, alpha)
    _exit_on_violations(s)
    scheme = baseline or "similarity"
    cfg = SolverConfig(eta_s=eta_s, eta_mu=eta_mu, delta=delta,
                       max_iters=max_iters, pin_delivery=(baseline == "adaptive"))
    res, summary = solve_summary_row(s, scheme, cfg)

    out_dir = FsPath(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "trace.csv", TRACE_COLUMNS, res.trace.rows)
    with open(out_dir / "solution.json", "w") as fh:
        json.dump({
            "X": res.rounded.X.astype(int).tolist(),
            "Q": res.rounded.Q.astype(int).tolist(),
            "objective": res.rounded.objective,
            "expected_delay": res.rounded.expected_delay,
            "dissimilarity_cost": res.rounded.dissimilarity_cost,
        }, fh, indent=1)
        fh.write("\n")
    write_csv(out_dir / "summary.csv", list(summary), [list(summary.values())])
    write_manifest(out_dir, "solve", {
        "scenario": str(scenario_path), "alpha": alpha, "baseline": baseline,
        "eta_s": eta_s, "eta_mu": eta_mu, "delta": delta,
        "max_iters": max_iters, "seed": seed,
    })
    click.echo(f"{scheme}: objective={summary['objective']:.6g} "
               f"delay={summary['expected_delay']:.6g} "
               f"dissimilarity={summary['dissimilarity_cost']:.6g} "
               f"({summary['stop_reason']} after {summary['iterations']} iters)")


@main.command()
@_apply(_gen_options)
@click.option("--param", default="alpha", type=click.Choice(["alpha", "capacity"]),
              show_default=True)
@click.option("--values", required=True,
              help="Comma-separated grid values, e.g. 0.1,1,10,100.")
@click.option("--seeds", default="0,1,2,3,4", show_default=True)
@click.option("--schemes", default="similarity,adaptive", show_default=True)
@click.option("--eta-s", default=1e-3, show_default=True)
@click.option("--eta-mu", default=1.0, show_default=True)
@click.option("--delta", default=1e-6, show_default=True)
@click.option("--max-iters", default=50000, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--out", required=True, type=click.Path(file_okay=False))
def sweep(param, values, seeds, schemes, eta_s, eta_mu, delta, max_iters,
          workers, out, **gen_flags):
    """Sweep alpha or capacity over a grid of values and seeds."""
    try:
        value_list = [float(v) for v in values.split(",") if v]
        seed_list = [int(v) for v in seeds.split(",") if v]
        scheme_list = [v.strip() for v in schemes.split(",") if v]
        for sch in scheme_list:
            if sch not in ("similarity", "adaptive"):
                raise ValueError(f"unknown scheme {sch!r}")
    except ValueError as exc:
        raise click.UsageError(str(exc))
    g = _gen_config(**gen_flags)
    gen_kwargs = {k: v for k, v in vars(g).items() if k != "seed"}
    solver_kwargs = {"eta_s": eta_s, "eta_mu": eta_mu, "delta": delta,
                     "max_iters": max_iters}
    rows = run_sweep(param, value_list, seed_list, scheme_list,
                     gen_kwargs, solver_kwargs, workers=workers)
    out_dir = FsPath(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    write_manifest(out_dir, "sweep", {
        "param": param, "values": values, "seeds": seeds, "schemes": schemes,
        "gen": gen_kwargs, "solver": solver_kwargs,
    })
    click.echo(f"wrote {out_dir / 'sweep.csv'} ({len(rows)} rows)")


@main.command()
@click.option("--scenario", "scenario_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--baseline", default=None, type=click.Choice(["per-cache"]))
@click.option("--slots", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--slot-length", default=1.0, show_default=True)
@click.option("--eta-x", default=1e-3, show_default=True)
@click.option("--eta-q", default=1e-3, show_default=True)
@click.option("--eta-mu", default=1.0, show_default=True)
@click.option("--insert-prob", default=0.5, show_default=True,
              help="Per-cache baseline insertion probability.")
@click.option("--offline-ref/--no-offline-ref", default=False, show_default=True,
              help="Also solve offline and record its delay as a column.")
@click.option("--max-iters", default=50000, show_default=True,
              help="Iteration budget of the offline reference solve.")
def online(scenario_path, out, baseline, slots, seed, slot_length, eta_x,
           eta_q, eta_mu, insert_prob, offline_ref, max_iters):
    """Run the online scheme (or the per-cache baseline); write a slot log."""
    s = _load(scenario_path)
    _exit_on_violations(s)
    offline_delay = None
    if offline_ref:
        ref = solve_offline(s, SolverConfig(max_iters=max_iters))
        offline_delay = ref.rounded.expected_delay

    rows = []
    if baseline == "per-cache":
        res = run_per_cache_baseline(s, PerCacheConfig(
            insert_prob=insert_prob, num_slots=slots, seed=seed,
            slot_length=slot_length))
        for rec in res.slots:
            rows.append((rec.slot, rec.num_requests, rec.windowed_delay,
                         rec.windowed_dissimilarity, None, rec.cache_churn,
                         offline_delay))
    else:
        res = run_online(s, OnlineConfig(
            slot_length=slot_length, eta_x=eta_x, eta_q=eta_q, eta_mu=eta_mu,
            num_slots=slots, seed=seed))
        for rec in res.outcomes:
            rows.append((rec.slot, len(rec.triples), rec.windowed_delay,
                         rec.windowed_dissimilarity, rec.lagrangian,
                         rec.cache_churn, offline_delay))

    out_dir = FsPath(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "slots.csv", SLOT_COLUMNS, rows)
    write_manifest(out_dir, "online", {
        "scenario": str(scenario_path), "baseline": baseline, "slots": slots,
        "seed": seed, "slot_length": slot_length, "eta_x": eta_x,
        "eta_q": eta_q, "eta_mu": eta_mu, "insert_prob": insert_prob,
        "offline_ref": offline_ref, "max_iters": max_iters,
    })
    tail = rows[-1]
    click.echo(f"wrote {out_dir / 'slots.csv'}; final windowed delay {tail[2]:.6g}")


if __name__ == "__main__":
    main()
