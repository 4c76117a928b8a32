import numpy as np
import pytest

from simcache.cost import PathGeometry, PrimalState
from simcache.gradients import grad_mu, grad_q, grad_x, x_position_contributions
from simcache.model import Network, Path, Request, Scenario

from conftest import make_line_scenario, random_box_state
from oracles import fd_gradient, oracle_delay, oracle_scatter_rows


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def zeros_like_state(s):
    return (np.zeros((s.num_nodes, s.num_contents)),
            np.zeros((s.num_requests, s.num_contents)))


def padded_path_scenario(kind):
    """Instances whose paths would need padding in a rectangular layout.

    "at_sources": every request starts at its content's source, so each
    path is one node, a trie terminal, and only the availability term
    -q * mu is left.  "mixed_lengths": paths of 4, 3, 2 and 1 nodes at
    non-unit rates, which share the suffixes (2, 3) and (3,), so their
    x-gradient terms meet in shared trie nodes; node 0 starts only the
    longest path and must get nothing from the shorter ones.
    """
    if kind == "at_sources":
        return Scenario(
            num_contents=2,
            network=Network(2, {(0, 1): 1.0}),
            sources=(frozenset({0}), frozenset({1})),
            requests=(Request(0, Path((0,)), 1.5), Request(1, Path((1,)), 0.7),
                      Request(0, Path((0,)), 2.0)),
            dissimilarity=np.array([[0.0, 1.0], [1.0, 0.0]]),
            capacities=np.array([1, 1]),
            alpha=1.0,
        )
    return Scenario(
        num_contents=3,
        network=Network(5, {(0, 1): 2.0, (1, 2): 5.0, (2, 3): 1.5, (2, 4): 3.0}),
        sources=(frozenset({3}), frozenset({3}), frozenset({3})),
        requests=(Request(0, Path((0, 1, 2, 3)), 0.4),
                  Request(1, Path((4, 2, 3)), 2.5),
                  Request(2, Path((2, 3)), 1.3),
                  Request(0, Path((3,)), 0.9)),
        dissimilarity=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
                                [2.0, 1.0, 0.0]]),
        capacities=np.array([1, 1, 1, 1, 1]),
        alpha=1.0,
    )


class TestGradX:
    def test_zero_q_zero_mu_gives_zero(self, small_scenario):
        s = small_scenario
        X, Q = zeros_like_state(s)
        X[:] = 0.4
        mu = np.zeros_like(Q)
        assert np.all(grad_x(PathGeometry(s).evaluate(X), Q, mu) == 0.0)

    def test_no_requests_gives_zero(self):
        s = Scenario(
            num_contents=2,
            network=Network(2, {(0, 1): 1.0}),
            sources=(frozenset({0}), frozenset({1})),
            requests=(),
            dissimilarity=np.array([[0.0, 1.0], [1.0, 0.0]]),
            capacities=np.array([1, 1]),
            alpha=1.0,
        )
        terms = PathGeometry(s).evaluate(np.full((2, 2), 0.5))
        g = grad_x(terms, np.zeros((0, 2)), np.zeros((0, 2)))
        assert g.shape == (2, 2) and np.all(g == 0.0)

    def test_node_off_all_paths_is_zero(self):
        # star-ish line where node 0 never appears on the request path
        s = Scenario(
            num_contents=2,
            network=Network(3, {(0, 1): 1.0, (1, 2): 4.0}),
            sources=(frozenset({2}), frozenset({2})),
            requests=(Request(0, Path((1, 2)), 1.0),),
            dissimilarity=np.array([[0.0, 1.0], [1.0, 0.0]]),
            capacities=np.array([1, 1, 1]),
            alpha=1.0,
        )
        rng = np.random.default_rng(0)
        S = random_box_state(s, rng)
        mu = rng.uniform(0, 2, size=S.Q.shape)
        g = grad_x(PathGeometry(s).evaluate(S.X), S.Q, mu)
        assert np.all(g[0] == 0.0)

    def test_matches_finite_differences(self, small_scenario):
        rng = np.random.default_rng(1)
        for _ in range(20):
            S = random_box_state(small_scenario, rng)
            mu = rng.uniform(0, 2, size=S.Q.shape)
            fd = fd_gradient(small_scenario, S, mu, "x", step=1e-6)
            g = grad_x(PathGeometry(small_scenario).evaluate(S.X), S.Q, mu)
            assert rel_err(g, fd).max() <= 1e-4

    @pytest.mark.parametrize("kind", ["at_sources", "mixed_lengths"])
    def test_padded_paths_match_finite_differences(self, kind):
        s = padded_path_scenario(kind)
        geom = PathGeometry(s)
        rng = np.random.default_rng(8)
        for _ in range(10):
            S = random_box_state(s, rng)
            mu = rng.uniform(0, 2, size=S.Q.shape)
            fd = fd_gradient(s, S, mu, "x", step=1e-6)
            g = grad_x(geom.evaluate(S.X), S.Q, mu)
            assert rel_err(g, fd).max() <= 1e-4

    @pytest.mark.parametrize("scenario", ["small_scenario", "default_scenario"])
    def test_scatter_matches_add_at_oracle(self, scenario, request):
        s = request.getfixturevalue(scenario)
        geom = PathGeometry(s)
        rng = np.random.default_rng(7)
        for w in (None, rng.uniform(0, 3, size=s.num_requests)):
            S = random_box_state(s, rng)
            mu = rng.uniform(0, 2, size=S.Q.shape)
            weights = geom.rates if w is None else w
            terms = geom.evaluate(S.X)
            contrib = x_position_contributions(terms, weights[:, None] * S.Q, mu)
            expected = oracle_scatter_rows(geom.node, contrib, s.num_nodes)
            assert np.array_equal(grad_x(terms, S.Q, mu, w), expected)


class TestGradQ:
    def test_zero_mu_gives_rate_weighted_cost(self, small_scenario):
        s = small_scenario
        rng = np.random.default_rng(2)
        S = random_box_state(s, rng)
        mu = np.zeros_like(S.Q)
        g = grad_q(PathGeometry(s).evaluate(S.X), mu)
        for r, req in enumerate(s.requests):
            for f in range(s.num_contents):
                cost = oracle_delay(s, S.X, r, f) + s.alpha * s.dissimilarity[req.content, f]
                assert g[r, f] == pytest.approx(req.rate * cost)

    def test_source_kills_availability_term(self, line_scenario):
        s = line_scenario
        X = s.source_mask().astype(float)
        S = PrimalState(X, np.full((1, 2), 0.5))
        mu = np.full((1, 2), 100.0)
        g = grad_q(PathGeometry(s).evaluate(S.X), mu)
        f = s.requests[0].content
        assert g[0, f] == pytest.approx(oracle_delay(s, X, 0, f))

    def test_matches_finite_differences(self, small_scenario):
        rng = np.random.default_rng(3)
        for _ in range(20):
            S = random_box_state(small_scenario, rng)
            mu = rng.uniform(0, 2, size=S.Q.shape)
            fd = fd_gradient(small_scenario, S, mu, "q", step=1e-6)
            g = grad_q(PathGeometry(small_scenario).evaluate(S.X), mu)
            assert rel_err(g, fd).max() <= 1e-4

    def test_nonnegative_for_nonnegative_mu(self, small_scenario):
        rng = np.random.default_rng(4)
        for _ in range(10):
            S = random_box_state(small_scenario, rng)
            mu = rng.uniform(0, 5, size=S.Q.shape)
            assert np.all(grad_q(PathGeometry(small_scenario).evaluate(S.X), mu) >= 0.0)


class TestGradMu:
    def test_integer_feasible_is_zero(self, line_scenario):
        s = line_scenario
        X = s.source_mask().astype(float)
        Q = np.array([[1.0, 0.0]])
        terms = PathGeometry(s).evaluate(X)
        assert np.all(grad_mu(terms, terms.violations(Q)) == 0.0)

    def test_scaled_by_rate(self):
        s = make_line_scenario(rate=2.0)
        X = np.zeros((3, 2))
        Q = np.array([[1.0, 0.0]])
        terms = PathGeometry(s).evaluate(X)
        g = grad_mu(terms, terms.violations(Q))
        assert g[0, 0] == pytest.approx(2.0)

    def test_matches_finite_differences_exactly(self, small_scenario):
        rng = np.random.default_rng(5)
        for _ in range(20):
            S = random_box_state(small_scenario, rng)
            mu = rng.uniform(0, 2, size=S.Q.shape)
            # L is linear in mu, so a large step keeps central
            # differences exact up to rounding
            fd = fd_gradient(small_scenario, S, mu, "mu", step=0.5)
            terms = PathGeometry(small_scenario).evaluate(S.X)
            g = grad_mu(terms, terms.violations(S.Q))
            assert rel_err(g, fd).max() <= 1e-6

    def test_nonnegative_in_box(self, small_scenario):
        rng = np.random.default_rng(6)
        for _ in range(10):
            S = random_box_state(small_scenario, rng, lo=0.0, hi=1.0)
            terms = PathGeometry(small_scenario).evaluate(S.X)
            assert np.all(grad_mu(terms, terms.violations(S.Q)) >= 0.0)


class TestFdOracle:
    def test_rejects_bad_args(self, line_scenario):
        S = PrimalState(np.zeros((3, 2)), np.zeros((1, 2)))
        mu = np.zeros((1, 2))
        with pytest.raises(ValueError):
            fd_gradient(line_scenario, S, mu, "x", step=0.0)
        with pytest.raises(ValueError):
            fd_gradient(line_scenario, S, mu, "z")

    def test_two_node_toy_analytic_slope(self):
        # single hop: L has dL/dx_{p1,f'} = -q * (tau + mu * (1 - x_{p2,f'}))
        s = make_line_scenario(taus=(3.0,), alpha=0.0)
        X = np.array([[0.3, 0.4], [0.2, 0.6]])
        Q = np.array([[0.5, 0.5]])
        mu = np.array([[2.0, 1.5]])
        fd = fd_gradient(s, PrimalState(X, Q), mu, "x", step=1e-6)
        for f in range(2):
            expect = -Q[0, f] * (3.0 + mu[0, f] * (1.0 - X[1, f]))
            assert fd[0, f] == pytest.approx(expect, rel=1e-6)

    def test_boundary_states_clamped(self, small_scenario):
        s = small_scenario
        X = np.ones((s.num_nodes, s.num_contents))
        Q = np.ones((s.num_requests, s.num_contents))
        mu = np.zeros_like(Q)
        fd = fd_gradient(s, PrimalState(X, Q), mu, "x", step=1e-6)
        assert np.all(np.isfinite(fd))
