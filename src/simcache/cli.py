"""Command-line experiment harness.

Commands: generate, validate, solve, sweep, online.  solve, sweep and
online write CSV metrics plus a manifest.json recording every option
except --out, so any output can be reproduced byte-for-byte from the
manifest and the numpy version alone: no result goes through a BLAS
kernel, which the machine picks at run time.
Exit codes: 0 success (including reported nonconvergence); 1 scenario
violations, among them those of a solve --alpha or any sweep grid instance,
all checked before anything is solved or written; 2 usage error, which
writes nothing: an out-of-range or non-finite value of any other option (a
negative seed among them), an online slot length too large for a request
rate, a sweep capacity that is no int64 whole number, an empty sweep grid,
a solve or online step that diverges, or an alpha whose product with the
largest dissimilarity overflows; 3 I/O or parse error, including a
scenario capacity that is no integer and a repeated edge.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import fields, replace
from itertools import repeat
from pathlib import Path as FsPath

import click

from . import __version__
from .baselines import PerCacheConfig, run_per_cache_baseline
from .hibsa import TRACE_COLUMNS, SolverConfig, solve_offline
from .model import validate_scenario
from .online import OnlineConfig, RequestStreams, run_online
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


def run_dir(out, command: str, options: dict) -> FsPath:
    """Make the output directory and write its manifest.json, which records
    ``options`` without ``out``."""
    out_dir = FsPath(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    options = {k: v for k, v in options.items() if k != "out"}
    doc = {"command": command, "options": options, "version": __version__}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out_dir


def _config(cls, **options):
    """``cls(**options)`` for a config dataclass or ``RequestStreams``; the
    ValueError of its own checks becomes a usage error (exit 2)."""
    try:
        return cls(**options)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@contextmanager
def _diverging(s, eta_s, eta_mu):
    """An overflow (FloatingPointError) in a run of s is a usage error naming
    its cause: alpha times the largest dissimilarity if that overflows, else the steps."""
    try:
        yield
    except FloatingPointError as exc:
        d_max = float(s.dissimilarity.max(initial=0.0))
        if s.alpha * d_max == float("inf"):  # Python floats overflow without a warning
            raise click.UsageError(f"alpha {s.alpha!r} times the largest dissimilarity "
                                   f"{d_max!r} overflows ({exc})") from None
        raise click.UsageError(f"the iterates diverge at --eta-s {eta_s!r}, --eta-mu "
                               f"{eta_mu!r} ({exc}); the step sizes must be smaller") from None


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


def solve_summary_row(s, cfg):
    """One summary row (scheme, expected_delay, ...) for a single solve;
    ``cfg.pin_delivery`` selects the adaptive-caching scheme."""
    res = solve_offline(s, cfg)
    frac_obj = res.trace.rows[-1][2]
    gap = ((res.rounded.objective - frac_obj) / frac_obj) if frac_obj > 0 else 0.0
    return res, {
        "scheme": "adaptive" if cfg.pin_delivery else "similarity",
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

# sweep parameter -> the instance at one grid value
SWEEP_PARAMS = {
    "alpha": with_alpha,
    "capacity": lambda s, value: with_capacity(s, int(value)),
}


def sweep_point(s, scheme, cfg: SolverConfig):
    """Solve one grid instance under one scheme; the row from its scheme on."""
    cfg = replace(cfg, pin_delivery=(scheme == "adaptive"))
    try:
        _, row = solve_summary_row(s, cfg)
        return tuple(row[c] for c in SWEEP_COLUMNS[3:])
    except Exception as exc:  # partial failure recorded per row
        return (scheme, None, None, None, 0, f"error: {exc}")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else every CPU."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


SLOT_COLUMNS = ("t", "num_requests", "avg_delay_window", "dissimilarity_window",
                "lagrangian_estimate", "cache_churn", "offline_delay")


@click.group()
@click.version_option(__version__)
def main():
    """Joint cache placement and similarity-based delivery optimizer."""


# each flag names the GenConfig field it sets and takes that field's default
_gen_options = [
    click.option("--nodes-side", "nodes_side", default=GenConfig.nodes_side, show_default=True),
    click.option("--topology", default=GenConfig.topology, type=click.Choice(["grid", "torus"]),
                 show_default=True),
    click.option("--contents", "num_contents", default=GenConfig.num_contents, show_default=True),
    click.option("--requests", "num_requests", default=GenConfig.num_requests, show_default=True),
    click.option("--origins", "num_origins", default=GenConfig.num_origins, show_default=True),
    click.option("--capacity", default=GenConfig.capacity, show_default=True),
    click.option("--beta", default=GenConfig.beta, show_default=True),
    click.option("--rho", default=GenConfig.rho, show_default=True),
    click.option("--alpha", default=GenConfig.alpha, show_default=True),
]

# each flag names the SolverConfig field it sets and takes that field's default
_solver_options = [
    click.option("--eta-s", default=SolverConfig.eta_s, show_default=True),
    click.option("--eta-mu", default=SolverConfig.eta_mu, show_default=True),
    click.option("--delta", default=SolverConfig.delta, show_default=True),
    click.option("--max-iters", default=SolverConfig.max_iters, show_default=True),
]


def _apply(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return deco


@main.command()
@_apply(_gen_options)
@click.option("--seed", default=GenConfig.seed, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def generate(out, **gen_fields):
    """Generate a random scenario and write it to a file."""
    s = generate_scenario(_config(GenConfig, **gen_fields))
    save_scenario(s, out)
    click.echo(f"wrote {out}: |V|={s.num_nodes} |E|={len(s.network.delays)} "
               f"|F|={s.num_contents} |R|={s.num_requests}")
    _exit_on_violations(s)
    click.echo("validation: ok")


@main.command()
@click.option("--scenario", required=True, type=click.Path(exists=True, dir_okay=False))
def validate(scenario):
    """Check every instance invariant of a scenario file."""
    violations = validate_scenario(_load(scenario))
    if violations:
        for v in violations:
            click.echo(str(v))
        sys.exit(1)
    click.echo("ok")


@main.command()
@click.option("--scenario", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--alpha", default=None, type=float,
              help="Override the scenario's dissimilarity weight.")
@click.option("--baseline", default=None, type=click.Choice(["adaptive"]))
@_apply(_solver_options)
def solve(scenario, out, alpha, baseline, **solver):
    """Run the offline solver; write trace, solution, and summary."""
    cfg = _config(SolverConfig, pin_delivery=(baseline == "adaptive"), **solver)
    s = _load(scenario)
    if alpha is not None:
        s = with_alpha(s, alpha)
    _exit_on_violations(s)
    with _diverging(s, cfg.eta_s, cfg.eta_mu):
        res, summary = solve_summary_row(s, cfg)

    out_dir = run_dir(out, "solve", click.get_current_context().params)
    write_csv(out_dir / "trace.csv", TRACE_COLUMNS, res.trace.rows)
    with open(out_dir / "solution.json", "w") as fh:
        json.dump({**vars(res.rounded), "X": res.rounded.X.astype(int).tolist(),
                   "Q": res.rounded.Q.astype(int).tolist()}, fh, indent=1)
        fh.write("\n")
    write_csv(out_dir / "summary.csv", list(summary), [list(summary.values())])
    click.echo(f"{summary['scheme']}: objective={summary['objective']:.6g} "
               f"delay={summary['expected_delay']:.6g} "
               f"dissimilarity={summary['dissimilarity_cost']:.6g} "
               f"({summary['stop_reason']} after {summary['iterations']} iters)")


@main.command()
@_apply(_gen_options)
@click.option("--param", default="alpha", type=click.Choice(list(SWEEP_PARAMS)),
              show_default=True)
@click.option("--values", required=True,
              help="Comma-separated grid values, e.g. 0.1,1,10,100.")
@click.option("--seeds", default="0,1,2,3,4", show_default=True)
@click.option("--schemes", default="similarity,adaptive", show_default=True)
@_apply(_solver_options)
@click.option("--out", required=True, type=click.Path(file_okay=False))
def sweep(param, values, seeds, schemes, out, **flags):
    """Sweep alpha or capacity over a grid of values and seeds, one process per usable CPU."""
    try:
        value_list = [float(v) for v in values.split(",") if v]
        seed_list = [int(v) for v in seeds.split(",") if v]
        scheme_list = [v.strip() for v in schemes.split(",") if v]
        if not (value_list and seed_list and scheme_list):
            raise ValueError("--values, --seeds and --schemes must each name one entry")
        for sch in scheme_list:
            if sch not in ("similarity", "adaptive"):
                raise ValueError(f"unknown scheme {sch!r}")
        if param == "capacity" and not all(v.is_integer() and abs(v) < 2**63 for v in value_list):
            raise ValueError("capacity values must be whole numbers that fit in int64")
    except ValueError as exc:
        raise click.UsageError(str(exc))
    solver = {f.name: flags.pop(f.name) for f in fields(SolverConfig) if f.name in flags}
    cfg = _config(SolverConfig, **solver)
    instances = {seed: generate_scenario(_config(GenConfig, **flags, seed=seed))
                 for seed in set(seed_list)}
    heads, points = [], []  # (param, value, seed) and (instance, scheme) per row
    for v in value_list:
        for seed in seed_list:
            s = SWEEP_PARAMS[param](instances[seed], v)
            _exit_on_violations(s)
            heads += [(param, v, seed)] * len(scheme_list)
            points += [(s, scheme) for scheme in scheme_list]
    workers = min(usable_cpus(), len(points))  # a fork pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tails = list(pool.map(sweep_point, *zip(*points), repeat(cfg)))
    else:
        tails = [sweep_point(s, scheme, cfg) for s, scheme in points]
    rows = sorted((h + r for h, r in zip(heads, tails)),
                  key=lambda r: (str(r[0]), float(r[1]), int(r[2]), str(r[3])))
    out_dir = run_dir(out, "sweep", {
        "param": param, "values": values, "seeds": seeds, "schemes": schemes,
        "gen": flags, "solver": solver,
    })
    write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    click.echo(f"wrote {out_dir / 'sweep.csv'} ({len(rows)} rows)")


@main.command()
@click.option("--scenario", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--baseline", default=None, type=click.Choice(["per-cache"]))
@click.option("--slots", default=OnlineConfig.num_slots, show_default=True)
@click.option("--seed", default=OnlineConfig.seed, show_default=True)
@click.option("--slot-length", default=OnlineConfig.slot_length, show_default=True)
@click.option("--eta-s", default=OnlineConfig.eta_s, show_default=True)
@click.option("--eta-mu", default=OnlineConfig.eta_mu, show_default=True)
@click.option("--insert-prob", default=PerCacheConfig.insert_prob, show_default=True,
              help="Per-cache baseline insertion probability.")
@click.option("--offline-ref/--no-offline-ref", default=False, show_default=True,
              help="Also solve offline and record its delay as a column.")
@click.option("--max-iters", default=SolverConfig.max_iters, show_default=True,
              help="Iteration budget of the offline reference solve.")
def online(scenario, out, baseline, slots, seed, slot_length, eta_s, eta_mu,
           insert_prob, offline_ref, max_iters):
    """Run the online scheme (or the per-cache baseline); write a slot log."""
    slot = dict(slot_length=slot_length, num_slots=slots, seed=seed)
    online_cfg = _config(OnlineConfig, eta_s=eta_s, eta_mu=eta_mu, **slot)
    per_cache_cfg = _config(PerCacheConfig, insert_prob=insert_prob, **slot)
    ref_cfg = _config(SolverConfig, max_iters=max_iters)
    s = _load(scenario)
    _exit_on_violations(s)
    _config(RequestStreams, seed=seed, rates=s.rates(), T=slot_length)  # each mean drawable
    offline_delay = None
    with _diverging(s, eta_s, eta_mu):
        if offline_ref:
            offline_delay = solve_offline(s, ref_cfg).rounded.expected_delay
        if baseline == "per-cache":
            rows = [(rec.slot, rec.num_requests, rec.windowed_delay,
                     rec.windowed_dissimilarity, None, rec.cache_churn, offline_delay)
                    for rec in run_per_cache_baseline(s, per_cache_cfg).slots]
        else:
            rows = [(rec.slot, len(rec.triples), rec.windowed_delay,
                     rec.windowed_dissimilarity, rec.lagrangian, rec.cache_churn,
                     offline_delay)
                    for rec in run_online(s, online_cfg).outcomes]

    out_dir = run_dir(out, "online", click.get_current_context().params)
    write_csv(out_dir / "slots.csv", SLOT_COLUMNS, rows)
    tail = rows[-1]
    click.echo(f"wrote {out_dir / 'slots.csv'}; final windowed delay {tail[2]:.6g}")


if __name__ == "__main__":
    main()
