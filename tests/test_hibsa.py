import numpy as np
import pytest

from simcache.cost import PathGeometry, PrimalState
from simcache.hibsa import (SolverConfig, dual_step, identity_delivery,
                            initial_state, primal_step, round_caching,
                            round_delivery, solve_offline)
from simcache.scenario import with_alpha

from conftest import make_line_scenario, make_tiny_scenario
from oracles import enumerate_integer_optimum, oracle_h


def caching_feasible(s, X):
    pins = s.source_mask()
    if not np.all(X[pins] == 1.0):
        return False
    if np.any(X < -1e-12) or np.any(X > 1 + 1e-12):
        return False
    free_load = np.where(pins, 0.0, X).sum(axis=1)
    return bool(np.all(free_load <= s.capacities + 1e-9))


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eta_s == 1e-3 and cfg.eta_mu == 1.0
        assert cfg.delta == 1e-6 and cfg.max_iters == 50_000

    @pytest.mark.parametrize("kw", [dict(eta_s=0.0), dict(eta_mu=-1.0),
                                    dict(delta=0.0), dict(max_iters=0)])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)


class TestInitialState:
    def test_uniform_start_is_feasible(self, default_scenario):
        s = default_scenario
        S = initial_state(s, SolverConfig())
        assert caching_feasible(s, S.X)
        assert np.allclose(S.Q.sum(axis=1), 1.0)
        assert np.allclose(S.Q, 1.0 / s.num_contents)

    def test_uniform_start_is_capacity_tight(self, default_scenario):
        s = default_scenario
        S = initial_state(s, SolverConfig())
        pins = s.source_mask()
        v = int(np.nonzero(~pins.any(axis=1))[0][0])  # node with no sources
        assert np.allclose(S.X[v], s.capacities[v] / s.num_contents)

    def test_random_init_is_feasible(self, default_scenario):
        s = default_scenario
        S = initial_state(s, SolverConfig(random_init=True, seed=7))
        assert caching_feasible(s, S.X)
        assert np.allclose(S.Q.sum(axis=1), 1.0)
        assert np.any(S.Q != S.Q[0, 0])

    def test_pinned_delivery_start(self, default_scenario):
        s = default_scenario
        S = initial_state(s, SolverConfig(pin_delivery=True))
        assert np.array_equal(S.Q, identity_delivery(s))


def test_identity_delivery(line_scenario):
    Q = identity_delivery(line_scenario)
    assert Q.shape == (1, 2)
    assert Q[0, 0] == 1.0 and Q[0, 1] == 0.0


class TestDualStep:
    def test_hand_example(self, line_scenario):
        # gamma(1) = 1, so with a zero gradient the shrinkage factor
        # (1 - gamma * eta_mu) wipes the previous multiplier: (1 - 1) * 1 = 0.
        s = line_scenario
        X = np.zeros((3, 2))
        X[2] = 1.0  # source holds everything: all violations vanish at Q rows 0
        S = PrimalState(X, np.array([[1.0, 0.0]]))
        mu = np.ones((1, 2))
        out = dual_step(PathGeometry(s), S, mu, 1, SolverConfig())
        # h is zero for the pair with q=0; the delivered pair has
        # h = 1 * (1-0)(1-0)(1-1) = 0 too, so grad_mu = 0 everywhere.
        assert np.allclose(out, 0.0)

    def test_shrinkage_at_later_counter(self, line_scenario):
        # gamma(16) = 1/2 with eta_mu = 1, so a zero-gradient step halves mu.
        s = line_scenario
        X = np.zeros((3, 2))
        X[2] = 1.0
        S = PrimalState(X, np.array([[1.0, 0.0]]))
        mu = np.full((1, 2), 0.8)
        out = dual_step(PathGeometry(s), S, mu, 16, SolverConfig())
        assert np.allclose(out, 0.4)

    def test_counter_must_start_at_one(self, line_scenario):
        S = initial_state(line_scenario, SolverConfig())
        with pytest.raises(ValueError):
            dual_step(PathGeometry(line_scenario), S, np.zeros((1, 2)), 0, SolverConfig())

    def test_bounded_under_persistent_violation(self, line_scenario):
        # With a fixed infeasible primal state the multipliers stay finite:
        # the shrinkage term balances the constant positive gradient.
        s = line_scenario
        geom = PathGeometry(s)
        S = initial_state(s, SolverConfig(pin_delivery=True))
        mu = np.zeros((1, 2))
        for n in range(1, 2001):
            mu = dual_step(geom, S, mu, n, SolverConfig())
        assert np.all(np.isfinite(mu))
        assert np.all(mu >= 0.0)
        assert np.max(mu) < 100.0

    def test_nonnegative(self, small_scenario):
        rng = np.random.default_rng(3)
        S = initial_state(small_scenario, SolverConfig())
        mu = rng.uniform(size=S.Q.shape)
        out = dual_step(PathGeometry(small_scenario), S, mu, 5, SolverConfig())
        assert np.all(out >= 0.0)


class TestPrimalStep:
    def test_stays_feasible(self, small_scenario):
        s = small_scenario
        cfg = SolverConfig(eta_s=0.05)
        S = initial_state(s, cfg)
        mu = np.zeros((s.num_requests, s.num_contents))
        for _ in range(5):
            S = primal_step(PathGeometry(s), S, mu, cfg)
        assert caching_feasible(s, S.X)
        assert np.allclose(S.Q.sum(axis=1), 1.0)
        assert np.all(S.Q >= -1e-12)

    def test_pinned_delivery_never_moves(self, small_scenario):
        s = small_scenario
        cfg = SolverConfig(eta_s=0.05, pin_delivery=True)
        S = initial_state(s, cfg)
        Q0 = S.Q.copy()
        mu = np.ones((s.num_requests, s.num_contents))
        for _ in range(5):
            S = primal_step(PathGeometry(s), S, mu, cfg)
        assert np.array_equal(S.Q, Q0)


class TestRounding:
    def test_caching_takes_largest(self, line_scenario):
        X = np.array([[0.2, 0.7], [0.6, 0.3], [1.0, 1.0]])
        out = round_caching(line_scenario, X)
        expected = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(out, expected)

    def test_caching_tie_goes_to_smaller_id(self, line_scenario):
        X = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]])
        out = round_caching(line_scenario, X)
        assert np.array_equal(out[:2], np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_caching_respects_capacity(self, small_scenario):
        rng = np.random.default_rng(11)
        s = small_scenario
        X = rng.uniform(size=(s.num_nodes, s.num_contents))
        out = round_caching(s, X)
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert caching_feasible(s, out)

    def test_delivery_picks_available_argmax(self, line_scenario):
        s = line_scenario
        X_int = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        Q = np.array([[0.4, 0.6]])
        out = round_delivery(PathGeometry(s), X_int, Q)
        assert np.array_equal(out, np.array([[0.0, 1.0]]))

    def test_delivery_tie_goes_to_smaller_id(self, line_scenario):
        s = line_scenario
        X_int = np.ones((3, 2))
        out = round_delivery(PathGeometry(s), X_int, np.array([[0.5, 0.5]]))
        assert np.array_equal(out, np.array([[1.0, 0.0]]))

    def test_delivery_falls_back_to_requested(self, line_scenario):
        # nothing is cached anywhere, not even at the source: the requested
        # content 0 is served although the fractional row prefers content 1
        s = line_scenario
        out = round_delivery(PathGeometry(s), np.zeros((3, 2)), np.array([[0.1, 0.9]]))
        assert np.array_equal(out, np.array([[1.0, 0.0]]))

    def test_delivery_is_feasible(self, line_scenario):
        s = line_scenario
        X_int = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        Q = np.array([[0.1, 0.9]])
        out = round_delivery(PathGeometry(s), X_int, Q)
        f = int(np.argmax(out[0]))
        assert oracle_h(s, X_int, out, 0, f) == 0.0


class TestSolveOffline:
    def test_line_instance_caches_at_ingress(self, line_scenario):
        res = solve_offline(line_scenario, SolverConfig(eta_s=0.01, max_iters=2000))
        assert res.rounded.X[0, 0] == 1.0
        assert res.rounded.expected_delay == 0.0

    def test_huge_alpha_forces_requested_delivery(self, line_scenario):
        s = with_alpha(line_scenario, 1e6)
        res = solve_offline(s, SolverConfig(eta_s=0.01, max_iters=2000))
        assert np.array_equal(res.rounded.Q, identity_delivery(s))
        assert res.rounded.dissimilarity_cost == 0.0

    def test_trace_and_stop_reason(self, line_scenario):
        res = solve_offline(line_scenario, SolverConfig(eta_s=0.01, max_iters=50))
        assert len(res.trace.rows) == res.trace.iterations
        assert res.trace.stop_reason in ("converged", "max_iters")
        L = res.trace.lagrangians()
        assert np.all(np.isfinite(L))

    def test_stop_rule_fires_on_flat_lagrangian(self, line_scenario):
        # A huge delta stops after the first difference check.
        res = solve_offline(line_scenario, SolverConfig(delta=1e12, max_iters=100))
        assert res.trace.stop_reason == "converged"
        assert res.trace.iterations <= 2

    def test_fractional_iterate_feasible(self, small_scenario):
        s = small_scenario
        res = solve_offline(s, SolverConfig(max_iters=300))
        assert caching_feasible(s, res.fractional.X)
        assert np.allclose(res.fractional.Q.sum(axis=1), 1.0)
        assert np.all(res.dual >= 0.0)

    def test_deterministic(self, line_scenario):
        a = solve_offline(line_scenario, SolverConfig(max_iters=200))
        b = solve_offline(line_scenario, SolverConfig(max_iters=200))
        assert np.array_equal(a.fractional.X, b.fractional.X)
        assert np.array_equal(a.fractional.Q, b.fractional.Q)
        assert a.trace.rows == b.trace.rows

    def test_rounded_metrics_are_consistent(self, small_scenario):
        s = small_scenario
        res = solve_offline(s, SolverConfig(max_iters=300))
        r = res.rounded
        assert r.objective == pytest.approx(
            r.expected_delay + s.alpha * r.dissimilarity_cost, rel=1e-12)

    def test_gap_to_exhaustive_optimum_on_tiny_instances(self):
        rng = np.random.default_rng(42)
        gaps = []
        for _ in range(10):
            s = make_tiny_scenario(rng)
            res = solve_offline(s, SolverConfig(eta_s=0.01, max_iters=3000))
            opt, _ = enumerate_integer_optimum(s)
            geom = PathGeometry(s)
            h = res.rounded.Q * geom.availability_products(res.rounded.X)
            assert np.all(h <= 1e-12)
            assert res.rounded.objective >= opt - 1e-9
            gaps.append((res.rounded.objective - opt) / opt if opt > 0 else 0.0)
        assert np.median(gaps) <= 0.10


def test_default_scenario_converges(default_scenario):
    res = solve_offline(default_scenario, SolverConfig(max_iters=5000))
    assert res.trace.stop_reason == "converged"
    assert res.rounded.expected_delay >= 0.0
