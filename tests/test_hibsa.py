import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simcache.cost import PathGeometry, PrimalState
from simcache.gradients import grad_mu
from simcache.hibsa import (TRACE_COLUMNS, SolverConfig, caching_choice, delivery_choice,
                            dual_step, identity_delivery, initial_state, primal_step,
                            round_caching, round_delivery, solve_offline)
from simcache.model import Network, Scenario
from simcache.scenario import GenConfig, generate_scenario, with_alpha

from conftest import MID, allocate_every_evaluation, make_line_scenario, make_tiny_scenario
from oracles import enumerate_integer_optimum, oracle_h, oracle_round_caching


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
                                    dict(delta=0.0), dict(max_iters=0),
                                    dict(eta_s=np.nan), dict(eta_s=np.inf),
                                    dict(eta_mu=np.nan), dict(eta_mu=np.inf),
                                    dict(delta=np.nan), dict(delta=np.inf)])
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

    def test_pinned_delivery_start(self, default_scenario):
        s = default_scenario
        S = initial_state(s, SolverConfig(pin_delivery=True))
        assert np.array_equal(S.Q, identity_delivery(s))


def pinned_scenario(pins, capacities):
    """Request-free scenario with the given source mask and capacities."""
    V, F = pins.shape
    return Scenario(
        num_contents=F,
        network=Network(num_nodes=V, delays={}),
        sources=tuple(frozenset(np.nonzero(pins[:, f])[0].tolist()) for f in range(F)),
        requests=(),
        dissimilarity=np.zeros((F, F)),
        capacities=np.asarray(capacities, dtype=int),
        alpha=1.0,
    )


@st.composite
def rounding_cases(draw):
    """(X, pins, capacities) with values on a coarse grid, so ties are common,
    and capacities from 0 up to above the row length."""
    V = draw(st.integers(1, 4))
    F = draw(st.integers(1, 6))
    X = draw(arrays(float, (V, F), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    pins = draw(arrays(bool, (V, F)))
    caps = draw(arrays(int, V, elements=st.integers(0, F + 1)))
    return X, pins, caps


# exact ties, and values closer than the 1e-12 rounding grid: 0.5 + 3e-13
# rounds to 0.5, a tie, while 0.5 + 6e-13 and 0.5 - 6e-13 do not
NEAR_TIES = [0.0, 0.25, 0.5, 0.5 + 3e-13, 0.5 + 6e-13, 0.5 - 6e-13, 0.75, 1.0]


@st.composite
def caching_moves(draw):
    """(X, X_next, pins, capacities): X_next redraws some entries of X."""
    V = draw(st.integers(1, 4))
    F = draw(st.integers(2, 6))
    grid = arrays(float, (V, F), elements=st.sampled_from(NEAR_TIES), fill=st.nothing())
    X, fresh = draw(grid), draw(grid)
    moved = draw(arrays(bool, (V, F), fill=st.nothing()))
    pins = draw(arrays(bool, (V, F)))
    caps = draw(arrays(int, V, elements=st.integers(0, F + 1)))
    return X, np.where(moved, fresh, X), pins, caps


@st.composite
def delivery_moves(draw):
    """(availability products, requested contents, Q, Q_next): rows with
    no available content among them."""
    R = draw(st.integers(1, 4))
    F = draw(st.integers(1, 6))
    avail = draw(arrays(float, (R, F), elements=st.sampled_from([0.0, 0.5, 1.0])))
    content = draw(arrays(int, R, elements=st.integers(0, F - 1)))
    grid = arrays(float, (R, F), elements=st.sampled_from(NEAR_TIES), fill=st.nothing())
    Q, fresh = draw(grid), draw(grid)
    moved = draw(arrays(bool, (R, F), fill=st.nothing()))
    return avail, content, Q, np.where(moved, fresh, Q)


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
        terms = PathGeometry(s).evaluate(S.X)
        out = dual_step(mu, grad_mu(terms, terms.violations(S.Q)), 1, 1.0)
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
        terms = PathGeometry(s).evaluate(S.X)
        out = dual_step(mu, grad_mu(terms, terms.violations(S.Q)), 16, 1.0)
        assert np.allclose(out, 0.4)

    def test_counter_must_start_at_one(self, line_scenario):
        S = initial_state(line_scenario, SolverConfig())
        terms = PathGeometry(line_scenario).evaluate(S.X)
        g_mu = grad_mu(terms, terms.violations(S.Q))
        with pytest.raises(ValueError):
            dual_step(np.zeros((1, 2)), g_mu, 0, 1.0)

    def test_bounded_under_persistent_violation(self, line_scenario):
        # With a fixed infeasible primal state the multipliers stay finite:
        # the shrinkage term balances the constant positive gradient.
        s = line_scenario
        geom = PathGeometry(s)
        S = initial_state(s, SolverConfig(pin_delivery=True))
        terms = geom.evaluate(S.X)
        g_mu = grad_mu(terms, terms.violations(S.Q))
        mu = np.zeros((1, 2))
        for n in range(1, 2001):
            mu = dual_step(mu, g_mu, n, 1.0)
        assert np.all(np.isfinite(mu))
        assert np.all(mu >= 0.0)
        assert np.max(mu) < 100.0

    def test_nonnegative(self, small_scenario):
        rng = np.random.default_rng(3)
        S = initial_state(small_scenario, SolverConfig())
        mu = rng.uniform(size=S.Q.shape)
        terms = PathGeometry(small_scenario).evaluate(S.X)
        out = dual_step(mu, grad_mu(terms, terms.violations(S.Q)), 5, 1.0)
        assert np.all(out >= 0.0)

    def test_subnormal_entry_is_exactly_zero(self):
        # gamma(16) = 1/2 halves mu; half the smallest normal float is subnormal
        tiny = np.finfo(float).tiny
        out = dual_step(np.array([[tiny, 1.0, 4 * tiny]]), np.zeros((1, 3)), 16, 1.0)
        assert out.tolist() == [[0.0, 0.5, 2 * tiny]]
        assert not np.signbit(out).any()

    def test_nan_gradient_stays_nan(self):
        out = dual_step(np.ones((1, 3)), np.array([[np.nan, -5.0, 1.0]]), 1, 1.0)
        assert np.isnan(out[0, 0])
        assert out[0, 1:].tolist() == [0.0, 1.0]


class TestPrimalStep:
    def test_stays_feasible(self, small_scenario):
        s = small_scenario
        cfg = SolverConfig(eta_s=0.05)
        S = initial_state(s, cfg)
        mu = np.zeros((s.num_requests, s.num_contents))
        geom = PathGeometry(s)
        for _ in range(5):
            S = primal_step(geom.evaluate(S.X), S, mu, cfg)
        assert caching_feasible(s, S.X)
        assert np.allclose(S.Q.sum(axis=1), 1.0)
        assert np.all(S.Q >= -1e-12)

    def test_pinned_delivery_never_moves(self, small_scenario):
        s = small_scenario
        cfg = SolverConfig(eta_s=0.05, pin_delivery=True)
        S = initial_state(s, cfg)
        Q0 = S.Q.copy()
        mu = np.ones((s.num_requests, s.num_contents))
        geom = PathGeometry(s)
        for _ in range(5):
            S = primal_step(geom.evaluate(S.X), S, mu, cfg)
        assert np.array_equal(S.Q, Q0)


class TestRounding:
    def test_caching_takes_largest(self, line_scenario):
        X = np.array([[0.2, 0.7], [0.6, 0.3], [1.0, 1.0]])
        out = round_caching(line_scenario, caching_choice(line_scenario)(X))
        expected = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(out, expected)

    def test_caching_tie_goes_to_smaller_id(self, line_scenario):
        X = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]])
        out = round_caching(line_scenario, caching_choice(line_scenario)(X))
        assert np.array_equal(out[:2], np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_caching_near_tie_rounds_like_a_tie(self, line_scenario):
        # content 1 leads by one ulp at node 0 and trails by one at node 1:
        # rounding noise, so both nodes cache the smaller id, as for 0.5 = 0.5
        up, down = np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)
        X = np.array([[0.5, up], [0.5, down], [1.0, 1.0]])
        out = round_caching(line_scenario, caching_choice(line_scenario)(X))
        assert np.array_equal(out[:2], np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_caching_respects_capacity(self, small_scenario):
        rng = np.random.default_rng(11)
        s = small_scenario
        X = rng.uniform(size=(s.num_nodes, s.num_contents))
        out = round_caching(s, caching_choice(s)(X))
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert caching_feasible(s, out)

    @settings(max_examples=300, deadline=None)
    @given(rounding_cases())
    @example((np.full((1, 3), 0.5), np.zeros((1, 3), bool), np.array([0])))  # capacity 0
    @example((np.full((2, 3), 0.5), np.array([[False, True, False]] * 2),
              np.array([2, 5])))  # capacity at and above the free count
    @example((np.array([[0.3, 0.9], [0.5, 0.5]]), np.array([[True, True], [False, True]]),
              np.array([1, 1])))  # every content pinned at node 0
    def test_caching_matches_sort_oracle(self, case):
        X, pins, caps = case
        s = pinned_scenario(pins, caps)
        assert np.array_equal(round_caching(s, caching_choice(s)(X)), oracle_round_caching(s, X))

    def test_delivery_picks_available_argmax(self, line_scenario):
        s = line_scenario
        X_int = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        Q = np.array([[0.4, 0.6]])
        out = round_delivery(s, delivery_choice(PathGeometry(s).evaluate(X_int))(Q))
        assert np.array_equal(out, np.array([[0.0, 1.0]]))

    def test_delivery_tie_goes_to_smaller_id(self, line_scenario):
        s = line_scenario
        X_int = np.ones((3, 2))
        terms = PathGeometry(s).evaluate(X_int)
        out = round_delivery(s, delivery_choice(terms)(np.array([[0.5, 0.5]])))
        assert np.array_equal(out, np.array([[1.0, 0.0]]))

    def test_delivery_falls_back_to_requested(self, line_scenario):
        # nothing is cached anywhere, not even at the source: the requested
        # content 0 is served although the fractional row prefers content 1
        s = line_scenario
        terms = PathGeometry(s).evaluate(np.zeros((3, 2)))
        out = round_delivery(s, delivery_choice(terms)(np.array([[0.1, 0.9]])))
        assert np.array_equal(out, np.array([[1.0, 0.0]]))

    @settings(max_examples=300, deadline=None)
    @given(caching_moves())
    @example((np.array([[0.5, 0.5 + 6e-13]]), np.array([[0.5, 0.5 - 6e-13]]),
              np.zeros((1, 2), bool), np.array([1])))  # a lead of under 1e-12 flips
    @example((np.array([[0.5, 0.5 + 3e-13]]), np.array([[0.5 + 3e-13, 0.5]]),
              np.zeros((1, 2), bool), np.array([1])))  # a tie either way
    @example((np.array([[0.25, 0.75, 0.5]]), np.array([[0.75, 0.25, 0.5]]),
              np.array([[False, False, True]]), np.array([3])))  # pins chosen too
    def test_caching_is_unchanged_exactly_when_its_choice_is_cached(self, case):
        # each row chooses as many entries under either iterate, and pins
        # are always 1, so the previous rounding holding every chosen entry
        # means the two roundings are equal
        X, X_next, pins, caps = case
        s = pinned_scenario(pins, caps)
        choose = caching_choice(s)
        X_int = round_caching(s, choose(X))
        assert X_int.take(choose(X_next)).all() == \
            np.array_equal(round_caching(s, choose(X_next)), X_int)

    @settings(max_examples=300, deadline=None)
    @given(delivery_moves())
    def test_delivery_choice_is_the_one_hot(self, case):
        avail, content, Q, Q_next = case
        terms = SimpleNamespace(avail=avail, geom=SimpleNamespace(req_content=content))
        choose, s = delivery_choice(terms), SimpleNamespace(num_contents=avail.shape[1])
        for q in (Q, Q_next):
            expected = np.zeros_like(q)
            for r, row in enumerate(avail):
                free = [f for f in range(row.size) if row[f] <= 0.0]
                expected[r, min(free, key=lambda f: (-q[r, f], f)) if free else content[r]] = 1.0
            assert np.array_equal(round_delivery(s, choose(q)), expected)
            assert np.array_equal(choose(q), expected.argmax(axis=1))
        assert np.array_equal(choose(Q), choose(Q_next)) == \
            np.array_equal(round_delivery(s, choose(Q)), round_delivery(s, choose(Q_next)))

    def test_delivery_is_feasible(self, line_scenario):
        s = line_scenario
        X_int = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        Q = np.array([[0.1, 0.9]])
        out = round_delivery(s, delivery_choice(PathGeometry(s).evaluate(X_int))(Q))
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
        L = np.array([row[TRACE_COLUMNS.index("lagrangian")] for row in res.trace.rows])
        assert np.all(np.isfinite(L))

    def test_stop_rule_fires_on_flat_lagrangian(self, line_scenario):
        # A huge delta stops after the first difference check.
        res = solve_offline(line_scenario, SolverConfig(delta=1e12, max_iters=100))
        assert res.trace.stop_reason == "converged"
        assert res.trace.iterations <= 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_uses_the_one_lagrangian(self, seed):
        s = generate_scenario(GenConfig(seed=seed, alpha=1.0))
        res = solve_offline(s, SolverConfig(max_iters=200))
        last = dict(zip(TRACE_COLUMNS, res.trace.rows[-1]))
        geom = PathGeometry(s)
        S = res.fractional
        assert last["lagrangian"] == geom.lagrangian(S, res.dual)
        terms = geom.evaluate(S.X)
        assert [last["objective"]] == terms.totals((S.Q, terms.costs))

    @pytest.mark.parametrize("pin_delivery", [False, True])
    def test_loop_equals_its_steps(self, pin_delivery):
        # a hand loop that forms every product afresh, bit for bit as the
        # solver, which shares them within an iterate
        s = generate_scenario(GenConfig(seed=0, alpha=1.0))
        cfg = SolverConfig(max_iters=40, pin_delivery=pin_delivery)
        res = solve_offline(s, cfg)
        geom = PathGeometry(s)
        S = initial_state(s, cfg)
        mu = np.zeros((s.num_requests, s.num_contents))
        terms = geom.evaluate(S.X)
        rows = []
        for n in range(1, cfg.max_iters + 1):
            S = primal_step(terms, S, mu, cfg)
            terms = geom.evaluate(S.X)
            mu = dual_step(mu, grad_mu(terms, terms.violations(S.Q)), n, cfg.eta_mu)
            top = mu.max()  # the scaled norm of LAPACK's dnrm2, in numpy's pairwise sum
            norm = float(top * np.sqrt(np.sum(np.square(mu / top)))) if top > 0 else 0.0
            rows.append((n, terms.lagrangian(S.Q, mu), *terms.totals(
                             (S.Q, terms.costs), (S.Q, terms.delays), (S.Q, geom.d_rows)),
                         float(terms.violations(S.Q).max()), norm))
        assert res.trace.stop_reason == "max_iters"
        assert list(map(repr, res.trace.rows)) == list(map(repr, rows))
        assert np.array_equal(res.fractional.X, S.X)
        assert np.array_equal(res.fractional.Q, S.Q)
        assert np.array_equal(res.dual, mu)

    def test_each_iterate_is_evaluated_once(self, default_scenario, evaluations):
        for n in (3, 7):
            evaluations.clear()
            res = solve_offline(default_scenario, SolverConfig(max_iters=n))
            assert res.trace.stop_reason == "max_iters"
            # the start and the n iterates, then the rounded caching
            assert len(evaluations) == (n + 1) + 1

    @pytest.mark.parametrize("seed,alpha,pin_delivery,size,max_iters", [
        *(pytest.param(seed, alpha, False, {}, 1500, id=f"seed{seed}-alpha{alpha:g}")
          for seed in (0, 1, 2) for alpha in (1.0, 10.0, 100.0)),
        *(pytest.param(seed, 10.0, True, {}, 1500, id=f"seed{seed}-adaptive")
          for seed in (0, 1, 2)),
        pytest.param(0, 10.0, False, MID, 10, id="mid-seed0")])
    def test_refilled_terms_give_the_fresh_solve(self, seed, alpha, pin_delivery, size,
                                                  max_iters, monkeypatch):
        s = generate_scenario(GenConfig(seed=seed, alpha=alpha, **size))
        cfg = SolverConfig(max_iters=max_iters, pin_delivery=pin_delivery)
        a = solve_offline(s, cfg)
        allocate_every_evaluation(monkeypatch)
        b = solve_offline(s, cfg)
        assert a.trace.stop_reason == b.trace.stop_reason
        assert list(map(repr, a.trace.rows)) == list(map(repr, b.trace.rows))
        for x, y in ((a.fractional.X, b.fractional.X), (a.fractional.Q, b.fractional.Q),
                     (a.dual, b.dual), (a.rounded.X, b.rounded.X), (a.rounded.Q, b.rounded.Q)):
            assert x.tobytes() == y.tobytes()
        assert repr(a.rounded) == repr(b.rounded)

    def test_diverging_step_raises(self, default_scenario):
        # the first iterate overflows; no warning comes before the error,
        # and the solve's error state ends with it
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                solve_offline(default_scenario, SolverConfig(eta_s=1e300, max_iters=1))
        assert np.geterr() == before

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
