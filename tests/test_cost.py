import numpy as np
import pytest

from simcache.cost import PathGeometry, PrimalState

from conftest import make_line_scenario, random_box_state
from oracles import oracle_delay, oracle_h, oracle_lagrangian, oracle_objective


def state_for(s, X=None, Q=None):
    V, F, R = s.num_nodes, s.num_contents, s.num_requests
    return PrimalState(
        np.zeros((V, F)) if X is None else np.asarray(X, dtype=float),
        np.zeros((R, F)) if Q is None else np.asarray(Q, dtype=float),
    )


class TestDeliveryDelay:
    def test_content_at_ingress_kills_delay(self, line_scenario):
        X = np.zeros((3, 2))
        X[0, 1] = 1.0
        assert PathGeometry(line_scenario).delays(X)[0, 1] == 0.0

    def test_empty_caches_sum_all_edges(self, line_scenario):
        X = np.zeros((3, 2))
        assert PathGeometry(line_scenario).delays(X)[0, 1] == pytest.approx(7.0)

    def test_fractional_hand_value(self, line_scenario):
        # tau = (2, 5); x = 0.5 at both upstream nodes:
        # 2 * 0.5 + 5 * 0.25 = 2.25
        X = np.zeros((3, 2))
        X[0, 1] = X[1, 1] = 0.5
        assert PathGeometry(line_scenario).delays(X)[0, 1] == pytest.approx(2.25)

    def test_monotone_nonincreasing_in_x(self, small_scenario):
        rng = np.random.default_rng(7)
        s = small_scenario
        geom = PathGeometry(s)
        for _ in range(30):
            S = random_box_state(s, rng)
            r = int(rng.integers(0, s.num_requests))
            f = int(rng.integers(0, s.num_contents))
            v = s.requests[r].path.nodes[
                rng.integers(0, len(s.requests[r].path))]
            before = geom.delays(S.X)[r, f]
            S.X[v, f] = min(1.0, S.X[v, f] + 0.3)
            assert geom.delays(S.X)[r, f] <= before + 1e-12

    def test_bounded_by_path_delay(self, small_scenario):
        rng = np.random.default_rng(8)
        s = small_scenario
        for _ in range(30):
            S = random_box_state(s, rng, lo=0.0, hi=1.0)
            r = int(rng.integers(0, s.num_requests))
            f = int(rng.integers(0, s.num_contents))
            p = s.requests[r].path.nodes
            full = sum(s.network.delay(a, b) for a, b in zip(p, p[1:]))
            assert -1e-12 <= PathGeometry(s).delays(S.X)[r, f] <= full + 1e-12


class TestDeliveryCost:
    def test_requested_content_is_delay_only(self, line_scenario):
        X = np.zeros((3, 2))
        assert PathGeometry(line_scenario).cost_matrix(X)[0, 0] == pytest.approx(7.0)

    def test_alpha_zero_equals_delay(self):
        s = make_line_scenario(alpha=0.0)
        X = np.zeros((3, 2))
        geom = PathGeometry(s)
        assert geom.cost_matrix(X)[0, 1] == geom.delays(X)[0, 1]

    def test_weighted_dissimilarity(self):
        s = make_line_scenario(alpha=10.0)
        X = np.zeros((3, 2))
        assert PathGeometry(s).cost_matrix(X)[0, 1] == pytest.approx(7.0 + 10.0 * 1.0)


class TestObjective:
    def test_zero_rates(self):
        s = make_line_scenario(rate=0.0)
        S = state_for(s, Q=[[0.5, 0.5]])
        assert PathGeometry(s).objective(S) == 0.0

    def test_one_hot_delivery(self):
        s = make_line_scenario(rate=3.0, alpha=2.0)
        S = state_for(s, Q=[[0.0, 1.0]])
        assert PathGeometry(s).objective(S) == pytest.approx(3.0 * (7.0 + 2.0 * 1.0))

    def test_matches_bruteforce_oracle(self, small_scenario):
        rng = np.random.default_rng(9)
        for _ in range(10):
            S = random_box_state(small_scenario, rng)
            assert PathGeometry(small_scenario).objective(S) == pytest.approx(
                oracle_objective(small_scenario, S.X, S.Q), rel=1e-12)


class TestAvailabilityViolation:
    def test_requested_content_available_at_source(self, line_scenario):
        s = line_scenario
        X = s.source_mask().astype(float)
        S = PrimalState(X, np.ones((1, 2)))
        assert PathGeometry(s).violations(S.X, S.Q)[0, 0] == 0.0

    def test_no_holder_full_violation(self, line_scenario):
        S = state_for(line_scenario, Q=[[1.0, 1.0]])
        # content 1 not cached anywhere and path sources only pin at load
        assert PathGeometry(line_scenario).violations(S.X, S.Q)[0, 1] == 1.0

    def test_fractional_hand_value(self):
        s = make_line_scenario(taus=(2.0,))  # |p| = 2
        S = state_for(s, X=[[0.5, 0.5], [0.5, 0.5]], Q=[[0.5, 0.5]])
        assert PathGeometry(s).violations(S.X, S.Q)[0, 1] == pytest.approx(0.125)

    def test_within_unit_interval(self, small_scenario):
        rng = np.random.default_rng(10)
        geom = PathGeometry(small_scenario)
        for _ in range(20):
            S = random_box_state(small_scenario, rng, lo=0.0, hi=1.0)
            h = geom.violations(S.X, S.Q)
            assert np.all(h >= 0.0) and np.all(h <= 1.0)


class TestLagrangian:
    def test_zero_multipliers_equal_objective(self, small_scenario):
        rng = np.random.default_rng(12)
        S = random_box_state(small_scenario, rng)
        mu = np.zeros((small_scenario.num_requests, small_scenario.num_contents))
        geom = PathGeometry(small_scenario)
        assert geom.lagrangian(S, mu) == geom.objective(S)

    def test_integer_feasible_ignores_mu(self, line_scenario):
        s = line_scenario
        X = s.source_mask().astype(float)
        X[0, 0] = 1.0
        Q = np.array([[1.0, 0.0]])
        S = PrimalState(X, Q)
        mu_a = np.zeros((1, 2))
        mu_b = np.full((1, 2), 17.0)
        geom = PathGeometry(s)
        assert geom.lagrangian(S, mu_a) == pytest.approx(geom.lagrangian(S, mu_b))

    def test_matches_term_oracle(self, small_scenario):
        rng = np.random.default_rng(13)
        for _ in range(10):
            S = random_box_state(small_scenario, rng)
            mu = rng.uniform(0, 3, size=S.Q.shape)
            assert PathGeometry(small_scenario).lagrangian(S, mu) == pytest.approx(
                oracle_lagrangian(small_scenario, S.X, S.Q, mu), rel=1e-12)


class TestAggregates:
    def test_identity_objective_decomposition(self, default_scenario):
        rng = np.random.default_rng(14)
        s = default_scenario
        geom = PathGeometry(s)
        for _ in range(10):
            S = random_box_state(s, rng)
            total = geom.objective(S)
            parts = geom.expected_delay(S) + s.alpha * geom.dissimilarity_cost(S)
            assert total == pytest.approx(parts, rel=1e-9)

    def test_delivering_requested_zero_dissimilarity(self, line_scenario):
        S = state_for(line_scenario, Q=[[1.0, 0.0]])
        assert PathGeometry(line_scenario).dissimilarity_cost(S) == 0.0

    def test_single_request_dissimilarity(self):
        d = [[0.0, 8.0], [8.0, 0.0]]
        s = make_line_scenario(dissimilarity=d)
        S = state_for(s, Q=[[0.0, 1.0]])
        assert PathGeometry(s).dissimilarity_cost(S) == pytest.approx(8.0)

    def test_expected_delay_ingress_hit(self, line_scenario):
        X = np.zeros((3, 2))
        X[0, 1] = 1.0
        S = state_for(line_scenario, X=X, Q=[[0.0, 1.0]])
        assert PathGeometry(line_scenario).expected_delay(S) == 0.0

    def test_expected_delay_one_hot(self):
        s = make_line_scenario(rate=2.0)
        S = state_for(s, Q=[[1.0, 0.0]])
        assert PathGeometry(s).expected_delay(S) == pytest.approx(2.0 * 7.0)


class TestBatchGeometry:
    def test_batch_matches_scalar(self, small_scenario):
        s = small_scenario
        geom = PathGeometry(s)
        rng = np.random.default_rng(15)
        S = random_box_state(s, rng)
        t = geom.delays(S.X)
        avail = geom.availability_products(S.X)
        for r in range(s.num_requests):
            for f in range(s.num_contents):
                assert t[r, f] == pytest.approx(oracle_delay(s, S.X, r, f))
                ref = oracle_h(s, S.X, np.ones_like(S.Q), r, f)
                assert avail[r, f] == pytest.approx(ref)
