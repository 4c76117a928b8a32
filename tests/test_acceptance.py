"""End-to-end acceptance suite.

Each test checks one release criterion and prints a single
``CRITERION k: PASS/FAIL`` line with the measured numbers before
asserting, so a full run yields one status line per criterion.
"""

import json
import time

import numpy as np
from click.testing import CliRunner

from simcache.baselines import (PerCacheConfig, run_per_cache_baseline,
                                solve_adaptive_caching)
from simcache.cli import main as cli_main
from simcache.cost import PathGeometry, PrimalState
from simcache.gradients import grad_mu, grad_q, grad_x
from simcache.hibsa import SolverConfig, identity_delivery, initial_state, solve_offline
from simcache.online import OnlineConfig, RequestStreams, run_online, stochastic_gradients
from simcache.scenario import (GenConfig, generate_scenario, with_alpha,
                               with_capacity)

from conftest import make_tiny_scenario
from oracles import (enumerate_integer_optimum, fd_gradient, project_cache_row,
                     project_delivery_row, qp_cache_oracle, qp_simplex_oracle)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n{line}")
    assert ok, line


def _gen(seed: int, rho: float = 1.2):
    return generate_scenario(GenConfig(seed=seed, rho=rho))


_SOLVES: dict = {}


def solve_point(seed, alpha=None, capacity=None, scheme="similarity", rho=1.2):
    """Memoized offline solve of one generated instance."""
    key = (seed, alpha, capacity, scheme, rho)
    if key not in _SOLVES:
        s = _gen(seed, rho)
        if alpha is not None:
            s = with_alpha(s, alpha)
        if capacity is not None:
            s = with_capacity(s, capacity)
        solver = solve_adaptive_caching if scheme == "adaptive" else solve_offline
        _SOLVES[key] = solver(s, SolverConfig())
    return _SOLVES[key]


def mixed_error(g: np.ndarray, fd: np.ndarray) -> float:
    return float(np.max(np.abs(g - fd)
                        / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1.0)))


def allowed_inversions(values, tol=0.05):
    """True when a sequence is non-increasing up to one relative bump <= tol."""
    values = np.asarray(values, dtype=float)
    bumps = []
    for prev, nxt in zip(values, values[1:]):
        if nxt > prev + 1e-12:
            bumps.append((nxt - prev) / max(abs(prev), 1e-12))
    return len(bumps) <= 1 and all(b <= tol for b in bumps)


def test_criterion_1_gradients_match_finite_differences():
    s = _gen(0)
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = {"x": 0.0, "q": 0.0, "mu": 0.0}
    for _ in range(100):
        S = PrimalState(rng.uniform(0.05, 0.95, (s.num_nodes, s.num_contents)),
                        rng.uniform(0.05, 0.95, (s.num_requests, s.num_contents)))
        mu = rng.uniform(0.1, 1.0, (s.num_requests, s.num_contents))
        terms = PathGeometry(s).evaluate(S.X)
        worst["x"] = max(worst["x"], mixed_error(
            grad_x(terms, S.Q, mu), fd_gradient(s, S, mu, "x", 1e-6)))
        worst["q"] = max(worst["q"], mixed_error(
            grad_q(terms, mu), fd_gradient(s, S, mu, "q", 1e-6)))
        worst["mu"] = max(worst["mu"], mixed_error(
            grad_mu(terms, terms.violations(S.Q)), fd_gradient(s, S, mu, "mu", 0.5)))
    elapsed = time.perf_counter() - start
    ok = worst["x"] <= 1e-4 and worst["q"] <= 1e-4 and worst["mu"] <= 1e-6 \
        and elapsed < 60
    report(1, ok, f"worst rel err x={worst['x']:.2e} q={worst['q']:.2e} "
                  f"mu={worst['mu']:.2e} in {elapsed:.1f}s")


def test_criterion_2_projections_match_qp_oracle():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        x = rng.uniform(-0.5, 1.5, n)
        cap = int(rng.integers(1, n + 1))
        k = int(rng.integers(0, max(1, n - cap)))
        pinned = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        got = project_cache_row(x, cap, pinned)
        worst = max(worst, float(np.linalg.norm(got - qp_cache_oracle(x, cap, pinned))))
        q = rng.uniform(-1.0, 2.0, n)
        got = project_delivery_row(q)
        worst = max(worst, float(np.linalg.norm(got - qp_simplex_oracle(q))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60
    report(2, ok, f"worst Euclidean gap {worst:.2e} over 500 rows in {elapsed:.1f}s")


def test_criterion_3_offline_convergence_and_integer_feasibility():
    s = _gen(0)  # alpha=10, rho=1.2 defaults
    start = time.perf_counter()
    res = solve_point(0)
    elapsed = time.perf_counter() - start
    X, Q = res.rounded.X, res.rounded.Q
    pins = s.source_mask()
    geom = PathGeometry(s)
    feasible = (
        set(np.unique(X)) <= {0.0, 1.0}
        and np.all(X[pins] == 1.0)
        and np.all(np.where(pins, 0.0, X).sum(axis=1) <= s.capacities)
        and set(np.unique(Q)) <= {0.0, 1.0}
        and np.all(Q.sum(axis=1) == 1.0)
        and np.all(Q * geom.availability_products(X) == 0.0)
    )
    ok = res.trace.stop_reason == "converged" \
        and res.trace.iterations <= 50_000 and feasible and elapsed < 300
    report(3, ok, f"{res.trace.stop_reason} after {res.trace.iterations} "
                  f"iterations, integer-feasible={feasible}, {elapsed:.1f}s")


def test_criterion_4_huge_alpha_reduces_to_adaptive_caching():
    details = []
    ok = True
    for seed in range(5):
        s = _gen(seed)
        sim = solve_point(seed, alpha=1e6)
        ada = solve_point(seed, scheme="adaptive")
        requested = bool(np.array_equal(sim.rounded.Q, identity_delivery(s)))
        rel = abs(sim.rounded.expected_delay - ada.rounded.expected_delay) \
            / ada.rounded.expected_delay
        ok = ok and requested and rel <= 0.05
        details.append(f"s{seed}:req={requested},gap={rel:.1%}")
    report(4, ok, "; ".join(details))


def test_criterion_5_alpha_sweep_trend():
    alphas = (0.1, 1.0, 10.0, 100.0, 1e3)
    wins = 0
    monotone_ok = True
    details = []
    for seed in range(5):
        ada_delay = solve_point(seed, scheme="adaptive").rounded.expected_delay
        delays, dissims = [], []
        for a in alphas:
            r = solve_point(seed, alpha=a).rounded
            delays.append(r.expected_delay)
            dissims.append(r.dissimilarity_cost)
        if delays[0] < ada_delay:
            wins += 1
        mono = allowed_inversions(dissims)
        monotone_ok = monotone_ok and mono
        details.append(f"s{seed}:d0.1={delays[0]:.1f}<ada={ada_delay:.1f}="
                       f"{delays[0] < ada_delay},mono={mono}")
    ok = wins >= 4 and monotone_ok
    report(5, ok, f"low-alpha wins {wins}/5; " + "; ".join(details))


def test_criterion_6_capacity_trend():
    caps = (1, 2, 3, 4)
    sim_means, ada_means = [], []
    for c in caps:
        sim_means.append(np.mean([
            solve_point(seed, capacity=c).rounded.expected_delay
            for seed in range(5)]))
        ada_means.append(np.mean([
            solve_point(seed, capacity=c, scheme="adaptive").rounded.expected_delay
            for seed in range(5)]))
    gaps = [abs(a - s) for a, s in zip(ada_means, sim_means)]
    delay_ok = allowed_inversions(sim_means)
    gap_ok = allowed_inversions(gaps)
    ok = delay_ok and gap_ok
    report(6, ok, f"mean delay {[round(float(v), 1) for v in sim_means]} "
                  f"(non-increasing={delay_ok}); gap "
                  f"{[round(float(v), 1) for v in gaps]} (shrinks={gap_ok})")


def test_criterion_7_brute_force_gap_on_tiny_instances():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    gaps = []
    feasible_all = True
    never_below = True
    for _ in range(50):
        s = make_tiny_scenario(rng)
        res = solve_offline(s, SolverConfig(eta_s=0.01, max_iters=5000))
        opt, _ = enumerate_integer_optimum(s)
        geom = PathGeometry(s)
        h = res.rounded.Q * geom.availability_products(res.rounded.X)
        feasible_all = feasible_all and bool(np.all(h == 0.0))
        never_below = never_below and res.rounded.objective >= opt - 1e-9
        gaps.append((res.rounded.objective - opt) / opt if opt > 0 else 0.0)
    elapsed = time.perf_counter() - start
    median = float(np.median(gaps))
    ok = feasible_all and never_below and median <= 0.10 and elapsed < 60
    report(7, ok, f"feasible={feasible_all}, above-optimum={never_below}, "
                  f"median gap {median:.1%}, max {max(gaps):.1%}, {elapsed:.1f}s")


def test_criterion_8_stochastic_gradients_are_unbiased():
    s = _gen(0)
    geom = PathGeometry(s)
    S = initial_state(s, SolverConfig())  # frozen state
    mu = np.full((s.num_requests, s.num_contents), 0.2)
    terms = geom.evaluate(S.X)
    h = terms.violations(S.Q)

    n_slots = 10_000
    streams = RequestStreams(8, geom.rates, 1.0)
    shapes = [(s.num_nodes, s.num_contents), (s.num_requests, s.num_contents),
              (s.num_requests, s.num_contents)]
    sums = [np.zeros(sh) for sh in shapes]
    sumsq = [np.zeros(sh) for sh in shapes]
    for _ in range(n_slots):
        counts = streams.draw_counts()
        for acc, acc2, g in zip(sums, sumsq,
                                stochastic_gradients(terms, S.Q, mu, counts, 1.0, h)):
            acc += g
            acc2 += g * g
    means = [a / n_slots for a in sums]
    ses = [np.sqrt(np.maximum(a2 / n_slots - m ** 2, 0.0) / n_slots)
           for a2, m in zip(sumsq, means)]

    analytic = [grad_x(terms, S.Q, mu), grad_q(terms, mu), grad_mu(terms, h)]
    within = total = 0
    for m, se, a in zip(means, ses, analytic):
        tested = (m != 0.0) | (a != 0.0)
        total += int(tested.sum())
        within += int(np.sum(np.abs(m - a)[tested] <= 3 * se[tested] + 1e-12))
    frac = within / total
    ok = frac >= 0.95
    report(8, ok, f"{within}/{total} nonzero entries within 3 SE ({frac:.1%}) "
                  f"over {n_slots} slots")


def _slots_to_converge(outcomes, target: float) -> float:
    for o in outcomes:
        if abs(o.windowed_delay - target) <= 0.15 * target:
            return o.slot
    return float("inf")


def test_criterion_9_online_matches_offline_and_beats_per_cache():
    n_slots = 5000
    s = _gen(0)
    offline_delay = solve_point(0).rounded.expected_delay
    online = run_online(s, OnlineConfig(num_slots=n_slots, seed=0))
    final = online.outcomes[-1].windowed_delay
    within = abs(final - offline_delay) <= 0.15 * offline_delay

    baseline = run_per_cache_baseline(s, PerCacheConfig(num_slots=n_slots, seed=0))
    steady = float(np.mean([rec.windowed_delay for rec in baseline.slots[-100:]]))
    beats = final < steady

    faster = 0
    margins = []  # each seed's slots to converge at rho 1.2 and at rho 0.6
    for seed in range(5):
        conv = {}
        for rho in (1.2, 0.6):
            sc = _gen(seed, rho=rho)
            target = solve_point(seed, rho=rho).rounded.expected_delay
            res = run_online(sc, OnlineConfig(num_slots=n_slots, seed=seed))
            conv[rho] = _slots_to_converge(res.outcomes, target)
        if conv[1.2] < conv[0.6]:
            faster += 1
        margins.append(f"s{seed} {conv[1.2]}/{conv[0.6]}")

    ok = within and beats and faster >= 4
    report(9, ok, f"online {final:.2f} vs offline {offline_delay:.2f} "
                  f"(within 15%={within}); per-cache steady {steady:.2f} "
                  f"(online lower={beats}); rho=1.2 faster on {faster}/5 seeds "
                  f"(slots to converge at rho 1.2/0.6: {', '.join(margins)})")


def test_criterion_10_byte_identical_csv_output(tmp_path):
    runner = CliRunner()
    gen_flags = ["--nodes-side", "3", "--contents", "4", "--requests", "6",
                 "--origins", "4", "--capacity", "1"]
    scenario = tmp_path / "scenario.json"
    assert runner.invoke(cli_main, ["generate", *gen_flags, "--seed", "3", "--out",
                                    str(scenario)]).exit_code == 0

    commands = {
        "solve": ["solve", "--scenario", str(scenario), "--max-iters", "400"],
        "adaptive": ["solve", "--scenario", str(scenario),
                     "--baseline", "adaptive", "--max-iters", "400"],
        "sweep": ["sweep", *gen_flags, "--values", "1,10", "--seeds", "0,1",
                  "--max-iters", "200"],
        "online": ["online", "--scenario", str(scenario), "--slots", "40",
                   "--seed", "5"],
        "per-cache": ["online", "--scenario", str(scenario), "--slots", "40",
                      "--seed", "5", "--baseline", "per-cache"],
    }
    ok = True
    mismatches = []
    for name, args in commands.items():
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            res = runner.invoke(cli_main, [*args, "--out", str(out)])
            assert res.exit_code == 0, res.output
            outs.append(out)
        for f in sorted(outs[0].glob("*.csv")):
            if f.read_bytes() != (outs[1] / f.name).read_bytes():
                ok = False
                mismatches.append(f"{name}/{f.name}")
    report(10, ok, "all CSV outputs byte-identical across reruns" if ok
           else f"mismatched: {', '.join(mismatches)}")
