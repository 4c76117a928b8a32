import numpy as np
import pytest

from simcache.cost import PathGeometry
from simcache.gradients import grad_mu, grad_q, grad_x
from simcache.hibsa import SolverConfig, initial_state, round_caching, round_delivery
from simcache.online import OnlineConfig, RequestStreams, run_online, stochastic_gradients

from conftest import make_line_scenario
from oracles import oracle_delay


class TestConfig:
    def test_defaults(self):
        cfg = OnlineConfig()
        assert cfg.slot_length == 1.0
        assert cfg.eta_x == 1e-3 and cfg.eta_q == 1e-3
        assert cfg.delay_window == 10

    @pytest.mark.parametrize("kw", [dict(slot_length=0.0), dict(eta_x=-1.0),
                                    dict(eta_q=0.0), dict(num_slots=0),
                                    dict(delay_window=0)])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            OnlineConfig(**kw)


class TestRequestStreams:
    def test_zero_rate_draws_nothing(self):
        streams = RequestStreams(0, 3)
        counts = streams.draw_counts(np.zeros(3), 1.0)
        assert np.array_equal(counts, np.zeros(3, dtype=int))

    def test_poisson_mean(self):
        streams = RequestStreams(1, 1)
        lam, n = 2.5, 4000
        draws = [streams.draw_counts(np.array([lam]), 1.0)[0] for _ in range(n)]
        se = np.sqrt(lam / n)
        assert abs(np.mean(draws) - lam) < 3 * se

    def test_streams_are_decoupled(self):
        # request 0's draws do not depend on how many other streams exist
        a = RequestStreams(7, 1)
        b = RequestStreams(7, 5)
        rates_a, rates_b = np.array([1.5]), np.full(5, 1.5)
        seq_a = [a.draw_counts(rates_a, 1.0)[0] for _ in range(20)]
        seq_b = [b.draw_counts(rates_b, 1.0)[0] for _ in range(20)]
        assert seq_a == seq_b

    def test_deterministic(self):
        rates = np.array([0.5, 2.0])
        a = RequestStreams(3, 2)
        b = RequestStreams(3, 2)
        for _ in range(10):
            assert np.array_equal(a.draw_counts(rates, 1.0),
                                  b.draw_counts(rates, 1.0))


class TestStochasticGradients:
    def test_empty_slot_gives_zeros(self, small_scenario):
        s = small_scenario
        S = initial_state(s, SolverConfig())
        mu = np.zeros((s.num_requests, s.num_contents))
        gx, gq, gmu = stochastic_gradients(PathGeometry(s), S, mu, [], 1.0)
        assert not gx.any() and not gq.any() and not gmu.any()

    def test_single_arrival_matches_bracket_rows(self, line_scenario):
        s = line_scenario
        geom = PathGeometry(s)
        S = initial_state(s, SolverConfig())
        mu = np.full((1, 2), 0.3)
        gx, gq, gmu = stochastic_gradients(geom, S, mu, [0], 2.0)
        # unit weights give the rate-free bracket rows
        ones = np.ones(s.num_requests)
        assert np.allclose(gq[0], grad_q(geom, S, mu, ones)[0] / 2.0)
        assert np.allclose(gmu[0], grad_mu(geom, S, ones)[0] / 2.0)

    def test_unobserved_requests_contribute_nothing(self, small_scenario):
        s = small_scenario
        geom = PathGeometry(s)
        S = initial_state(s, SolverConfig())
        mu = np.zeros((s.num_requests, s.num_contents))
        _, gq, gmu = stochastic_gradients(geom, S, mu, [0], 1.0)
        assert not gq[1:].any() and not gmu[1:].any()

    def test_counts_scale_linearly(self, small_scenario):
        s = small_scenario
        geom = PathGeometry(s)
        S = initial_state(s, SolverConfig())
        mu = np.zeros((s.num_requests, s.num_contents))
        one = stochastic_gradients(geom, S, mu, [0], 1.0)
        three = stochastic_gradients(geom, S, mu, [0] * 3, 1.0)
        for a, b in zip(one, three):
            assert np.allclose(3.0 * a, b)

    def test_mean_matches_analytic_gradient(self, small_scenario):
        # Averaging the per-slot estimates at a frozen state recovers the
        # analytic gradients, because each request's observed arrival count
        # divided by the slot length is an unbiased estimate of its rate.
        s = small_scenario
        geom = PathGeometry(s)
        S = initial_state(s, SolverConfig())
        mu = np.full((s.num_requests, s.num_contents), 0.2)

        streams = RequestStreams(9, s.num_requests)
        n_slots = 2000
        sums = [np.zeros((s.num_nodes, s.num_contents)),
                np.zeros((s.num_requests, s.num_contents)),
                np.zeros((s.num_requests, s.num_contents))]
        for _ in range(n_slots):
            counts = streams.draw_counts(geom.rates, 1.0)
            observed = [r for r in range(s.num_requests)
                        for _ in range(int(counts[r]))]
            for acc, g in zip(sums, stochastic_gradients(geom, S, mu, observed, 1.0)):
                acc += g
        means = [a / n_slots for a in sums]

        gx = grad_x(geom, S, mu)
        gq = grad_q(geom, S, mu)
        gmu = grad_mu(geom, S)
        scale = max(np.abs(gx).max(), 1.0)
        assert np.allclose(means[0], gx, atol=0.2 * scale)
        assert np.allclose(means[1], gq,
                           rtol=0.2, atol=0.05 * max(np.abs(gq).max(), 1.0))
        assert np.allclose(means[2], gmu, atol=0.05)


class TestRunOnline:
    def test_deterministic(self, line_scenario):
        cfg = OnlineConfig(num_slots=50, seed=4)
        a = run_online(line_scenario, cfg)
        b = run_online(line_scenario, cfg)
        assert np.array_equal(a.final_state.X, b.final_state.X)
        assert np.array_equal(a.final_dual, b.final_dual)
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.triples == ob.triples
            assert oa.windowed_delay == ob.windowed_delay

    def test_zero_rate_serves_nothing(self):
        s = make_line_scenario(rate=0.0)
        res = run_online(s, OnlineConfig(num_slots=20, seed=1))
        assert all(not o.triples for o in res.outcomes)
        assert all(o.windowed_delay == 0.0 for o in res.outcomes)

    def test_served_triples_are_feasible_and_priced_correctly(self, small_scenario):
        s = small_scenario
        res = run_online(s, OnlineConfig(num_slots=40, seed=6))
        geom = PathGeometry(s)
        # reconstruct each slot's pre-update rounded caching and delivery
        S0 = initial_state(s, SolverConfig())
        X_prev = round_caching(s, S0.X)
        Q_prev = round_delivery(geom, X_prev, S0.Q)
        for o in res.outcomes:
            avail = geom.availability_products(X_prev) <= 0.0
            for r, f_prime, delay, dis in o.triples:
                req = s.requests[r]
                assert f_prime == int(np.argmax(Q_prev[r]))
                assert avail[r, f_prime] or f_prime == req.content
                assert delay == pytest.approx(oracle_delay(s, X_prev, r, f_prime))
                assert dis == s.dissimilarity[req.content, f_prime]
            X_prev, Q_prev = o.X_rounded, o.Q_rounded
        assert len(res.outcomes) == 40

    def test_state_stays_feasible(self, small_scenario):
        s = small_scenario
        res = run_online(s, OnlineConfig(num_slots=60, seed=2))
        S = res.final_state
        pins = s.source_mask()
        assert np.all(S.X[pins] == 1.0)
        assert np.all(S.X >= -1e-12) and np.all(S.X <= 1 + 1e-12)
        free_load = np.where(pins, 0.0, S.X).sum(axis=1)
        assert np.all(free_load <= s.capacities + 1e-9)
        assert np.allclose(S.Q.sum(axis=1), 1.0)
        assert np.all(res.final_dual >= 0.0)

    def test_windowed_delay_averages_recent_slots(self):
        s = make_line_scenario(rate=3.0)
        cfg = OnlineConfig(num_slots=15, seed=8, delay_window=4)
        res = run_online(s, cfg)
        slot_totals = [sum(t[2] for t in o.triples) for o in res.outcomes]
        for i, o in enumerate(res.outcomes):
            lo = max(0, i - 3)
            window = slot_totals[lo:i + 1]
            assert o.windowed_delay == pytest.approx(sum(window) / len(window))

    def test_learns_to_cache_on_line(self):
        s = make_line_scenario(taus=(4.0, 9.0), rate=5.0, alpha=10.0)
        res = run_online(s, OnlineConfig(num_slots=800, seed=0, eta_x=5e-3))
        X_int, _ = res.final_rounded
        assert X_int[0, 0] == 1.0  # requested content cached at the ingress
        assert res.outcomes[-1].windowed_delay == 0.0
