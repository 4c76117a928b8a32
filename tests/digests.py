"""sha256 digests of the outputs that the library promises to keep bit for
bit: solver states and trace rows, online and per-cache slot records, the
gradients at two fixed iterates, and the bytes that the CLI writes.

``tests/test_digests.py`` compares ``compute()`` with the committed table
``digests.json``.  A change that moves bits on purpose regenerates the
table and says which digests moved and why:

    PYTHONPATH=src python tests/digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from simcache.baselines import PerCacheConfig, run_per_cache_baseline, solve_adaptive_caching
from simcache.cli import main as cli_main
from simcache.cost import PathGeometry
from simcache.gradients import grad_mu, grad_q, grad_x
from simcache.hibsa import SolverConfig, solve_offline
from simcache.online import OnlineConfig, run_online
from simcache.projection import project_cache_matrix, project_delivery_matrix
from simcache.scenario import GenConfig, generate_scenario, with_alpha

from conftest import MID

TABLE = Path(__file__).with_name("digests.json")


def sha(*parts) -> str:
    """Digest of arrays (dtype, shape and bytes, so the sign of zero
    counts) and of strings, in order."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(f"{p.dtype.str}{p.shape}".encode())
            p = np.ascontiguousarray(p).tobytes()
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def solve_digests(res) -> dict:
    return {"trace": sha(repr(res.trace.rows), res.trace.stop_reason, res.trace.iterations),
            "X": sha(res.fractional.X), "Q": sha(res.fractional.Q), "mu": sha(res.dual),
            "rounded": sha(res.rounded.X, res.rounded.Q, repr((
                res.rounded.objective, res.rounded.expected_delay,
                res.rounded.dissimilarity_cost)))}


def gradient_digests(s, seed: int) -> dict:
    """grad_x, grad_q and grad_mu at a random feasible iterate with random
    multipliers, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    X = project_cache_matrix(rng.uniform(size=(s.num_nodes, s.num_contents)),
                             s.capacities, s.source_mask())
    Q = project_delivery_matrix(rng.uniform(size=(s.num_requests, s.num_contents)))
    mu = rng.exponential(size=Q.shape)
    terms = PathGeometry(s).evaluate(X)
    return {"X": sha(X), "Q": sha(Q), "grad_x": sha(grad_x(terms, Q, mu)),
            "grad_q": sha(grad_q(terms, mu)), "grad_mu": sha(grad_mu(terms, terms.violations(Q)))}


def online_digests(s) -> dict:
    res = run_online(s, OnlineConfig(num_slots=300))
    records = [(o.slot, o.triples, o.windowed_delay, o.windowed_dissimilarity,
                o.lagrangian, o.cache_churn) for o in res.outcomes]
    rounded = [a for o in res.outcomes for a in (o.X_rounded, o.Q_rounded)]
    per_cache = run_per_cache_baseline(s, PerCacheConfig(num_slots=300))
    return {"online/records": sha(repr(records), *rounded),
            "online/final": sha(res.final_state.X, res.final_state.Q, res.final_dual),
            "per-cache/records": sha(repr([tuple(vars(r).values()) for r in per_cache.slots]),
                                     repr(per_cache.caches))}


def cli_digests() -> dict:
    """Every file of a small ``solve``, ``online`` and ``sweep``, run in a
    scratch directory so that the manifests record the same paths."""
    commands = {
        "solve": ["solve", "--scenario", "s.json", "--max-iters", "300", "--out", "solve"],
        "online": ["online", "--scenario", "s.json", "--slots", "100", "--out", "online"],
        "sweep": ["sweep", "--values", "10", "--seeds", "1", "--max-iters", "300",
                  "--out", "sweep"],
    }
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            runner = CliRunner()
            for args in (["generate", "--seed", "1", "--out", "s.json"], *commands.values()):
                res = runner.invoke(cli_main, args, catch_exceptions=False)
                assert res.exit_code == 0, res.output
            return {f"cli/{f.as_posix()}": sha(f.read_bytes())
                    for name in commands for f in sorted(Path(name).rglob("*"))}
        finally:
            os.chdir(here)


def compute() -> dict:
    table = {}
    for seed in (1, 4):
        s = with_alpha(generate_scenario(GenConfig(seed=seed)), 10.0)
        for scheme, solve in (("similarity", solve_offline), ("adaptive", solve_adaptive_caching)):
            for k, v in solve_digests(solve(s)).items():
                table[f"seed{seed}-alpha10-{scheme}/{k}"] = v
    mid = generate_scenario(GenConfig(**MID, seed=0))
    for k, v in solve_digests(solve_offline(mid, SolverConfig(max_iters=10))).items():
        table[f"mid-10-iterations/{k}"] = v
    default = generate_scenario(GenConfig(seed=0))
    for name, s, seed in (("default", default, 11), ("mid", mid, 12)):
        for k, v in gradient_digests(s, seed).items():
            table[f"gradients-{name}/{k}"] = v
    table.update(online_digests(default))
    table.update(cli_digests())
    return table


if __name__ == "__main__":
    TABLE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
