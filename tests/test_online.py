import gc
import tracemalloc
from collections import deque
from dataclasses import fields
from itertools import groupby

import numpy as np
import pytest

from simcache.baselines import PerCacheConfig
from simcache.cost import PathGeometry
from simcache.gradients import grad_mu, grad_q, grad_x
from simcache.hibsa import (SolverConfig, dual_step, initial_state,
                            projected_primal_update, round_caching, round_delivery)
from simcache.online import (BLOCK_SLOTS, OnlineConfig, RequestStreams, run_online,
                             stochastic_gradients)
from simcache.scenario import GenConfig, generate_scenario, with_capacity

from conftest import MID, allocate_every_evaluation, make_line_scenario
from oracles import oracle_delay, oracle_run_online


class TestConfig:
    def test_defaults(self):
        cfg = OnlineConfig()
        assert cfg.slot_length == 1.0
        assert cfg.eta_x == 1e-3 and cfg.eta_q == 1e-3
        assert cfg.delay_window == 10

    @pytest.mark.parametrize("cls", [OnlineConfig, PerCacheConfig])
    def test_the_window_is_no_option(self, cls):
        assert "delay_window" not in {f.name for f in fields(cls)}
        assert cls().delay_window == 10
        with pytest.raises(TypeError):
            cls(delay_window=4)

    @pytest.mark.parametrize("kw", [dict(slot_length=0.0), dict(eta_x=-1.0),
                                    dict(eta_q=0.0), dict(num_slots=0),
                                    dict(slot_length=np.inf),
                                    dict(slot_length=np.nan), dict(eta_x=np.nan),
                                    dict(eta_q=np.inf), dict(eta_mu=np.nan),
                                    dict(eta_mu=np.inf), dict(seed=-1)])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            OnlineConfig(**kw)


class TestRequestStreams:
    def test_zero_rate_draws_nothing(self):
        streams = RequestStreams(0, np.zeros(3), 1.0)
        counts = streams.draw_counts()
        assert np.array_equal(counts, np.zeros(3, dtype=int))

    def test_poisson_mean(self):
        lam, n = 2.5, 4000
        streams = RequestStreams(1, np.array([lam]), 1.0)
        draws = [streams.draw_counts()[0] for _ in range(n)]
        se = np.sqrt(lam / n)
        assert abs(np.mean(draws) - lam) < 3 * se

    def test_streams_are_decoupled(self):
        # request 0's draws do not depend on how many other streams exist
        a = RequestStreams(7, np.array([1.5]), 1.0)
        b = RequestStreams(7, np.full(5, 1.5), 1.0)
        seq_a = [a.draw_counts()[0] for _ in range(20)]
        seq_b = [b.draw_counts()[0] for _ in range(20)]
        assert seq_a == seq_b

    def test_mean_too_large_to_draw_is_rejected(self):
        # numpy draws no Poisson count above about 9.2e18; nothing is drawn here
        with pytest.raises(ValueError, match=r"request 1: .* = 1e\+19 cannot be drawn"):
            RequestStreams(0, np.array([1.0, 1e19, 2.0]), 1.0)

    def test_run_with_mean_too_large_is_rejected(self, small_scenario):
        with pytest.raises(ValueError, match="request 0: Poisson mean"):
            run_online(small_scenario, OnlineConfig(slot_length=1e300, num_slots=2))

    def test_deterministic(self):
        rates = np.array([0.5, 2.0])
        a = RequestStreams(3, rates, 1.0)
        b = RequestStreams(3, rates, 1.0)
        for _ in range(10):
            assert np.array_equal(a.draw_counts(), b.draw_counts())

    def test_block_draws_equal_scalar_draws(self):
        # rate * T covers zero, numpy's sampler below 10 and its sampler
        # from 10 up; the run crosses several block boundaries
        T = 2.5
        rates = np.array([0.0, 0.3, 4.2, 9.99, 10.0, 37.5, 250.0]) / T
        seed, n_slots = 11, 321
        assert n_slots > 4 * BLOCK_SLOTS
        streams = RequestStreams(seed, rates, T)
        scalar = [np.random.default_rng(ss)
                  for ss in np.random.SeedSequence(seed).spawn(len(rates))]
        for _ in range(n_slots):
            expected = [g.poisson(lam * T) for g, lam in zip(scalar, rates)]
            assert streams.draw_counts().tolist() == expected


class TestStochasticGradients:
    def test_empty_slot_gives_zeros(self, small_scenario):
        s = small_scenario
        S = initial_state(s, SolverConfig())
        mu = np.zeros((s.num_requests, s.num_contents))
        gx, gq, gmu = stochastic_gradients(PathGeometry(s).evaluate(S.X), S.Q, mu,
                                           np.zeros(s.num_requests), 1.0)
        assert not gx.any() and not gq.any() and not gmu.any()

    def test_single_arrival_matches_bracket_rows(self, line_scenario):
        s = line_scenario
        geom = PathGeometry(s)
        S = initial_state(s, SolverConfig())
        mu = np.full((1, 2), 0.3)
        terms = geom.evaluate(S.X)
        gx, gq, gmu = stochastic_gradients(terms, S.Q, mu, np.ones(1), 2.0)
        # unit weights give the rate-free bracket rows
        ones = np.ones(s.num_requests)
        assert np.allclose(gq[0], grad_q(terms, S.Q, mu, ones)[0] / 2.0)
        assert np.allclose(gmu[0], grad_mu(terms, S.Q, ones)[0] / 2.0)

    def test_unobserved_requests_contribute_nothing(self, small_scenario):
        s = small_scenario
        geom = PathGeometry(s)
        S = initial_state(s, SolverConfig())
        mu = np.zeros((s.num_requests, s.num_contents))
        _, gq, gmu = stochastic_gradients(geom.evaluate(S.X), S.Q, mu,
                                         np.eye(s.num_requests)[0], 1.0)
        assert not gq[1:].any() and not gmu[1:].any()

    def test_counts_scale_linearly(self, small_scenario):
        s = small_scenario
        geom = PathGeometry(s)
        S = initial_state(s, SolverConfig())
        mu = np.zeros((s.num_requests, s.num_contents))
        terms = geom.evaluate(S.X)
        one = stochastic_gradients(terms, S.Q, mu, np.eye(s.num_requests)[0], 1.0)
        three = stochastic_gradients(terms, S.Q, mu, 3 * np.eye(s.num_requests)[0], 1.0)
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
        terms = geom.evaluate(S.X)

        streams = RequestStreams(9, geom.rates, 1.0)
        n_slots = 2000
        sums = [np.zeros((s.num_nodes, s.num_contents)),
                np.zeros((s.num_requests, s.num_contents)),
                np.zeros((s.num_requests, s.num_contents))]
        for _ in range(n_slots):
            counts = streams.draw_counts()
            for acc, g in zip(sums, stochastic_gradients(terms, S.Q, mu, counts, 1.0)):
                acc += g
        means = [a / n_slots for a in sums]

        gx = grad_x(terms, S.Q, mu)
        gq = grad_q(terms, S.Q, mu)
        gmu = grad_mu(terms, S.Q)
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
        Q_prev = round_delivery(geom.evaluate(X_prev), S0.Q)
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

    def test_one_slot_is_one_hand_computed_step(self, default_scenario):
        # slot 1: gradients from the slot's arrivals at the initial state,
        # the projected primal step, then the dual step with the mu-gradient
        # of the iterate that served the slot (offline takes it after the
        # primal step)
        s = default_scenario
        cfg = OnlineConfig(num_slots=1, seed=5)
        res = run_online(s, cfg)
        geom = PathGeometry(s)
        R = s.num_requests
        S = initial_state(s, SolverConfig())
        mu = np.zeros((R, s.num_contents))
        counts = RequestStreams(cfg.seed, geom.rates, cfg.slot_length).draw_counts()
        gx, gq, gmu = stochastic_gradients(geom.evaluate(S.X), S.Q, mu, counts,
                                           cfg.slot_length)
        S_next = projected_primal_update(geom, S, gx, gq, cfg.eta_x, cfg.eta_q)
        mu_next = dual_step(mu, gmu, 1, cfg.eta_mu)
        assert np.array_equal(res.final_state.X, S_next.X)
        assert np.array_equal(res.final_state.Q, S_next.Q)
        assert np.array_equal(res.final_dual, mu_next) and mu_next.any()
        # the mu-gradient at the fresh iterate would give another dual
        _, _, gmu_next = stochastic_gradients(geom.evaluate(S_next.X), S_next.Q, mu, counts,
                                              cfg.slot_length)
        assert not np.array_equal(res.final_dual, dual_step(mu, gmu_next, 1, cfg.eta_mu))

    @pytest.mark.parametrize("seed,size,slots", [
        *(pytest.param(seed, {}, 500, id=f"seed{seed}") for seed in (0, 1, 2)),
        pytest.param(0, MID, 10, id="mid-seed0")])
    def test_refilled_terms_give_the_fresh_run(self, seed, size, slots, monkeypatch):
        s = generate_scenario(GenConfig(seed=seed, **size))
        cfg = OnlineConfig(num_slots=slots, seed=seed)
        a = run_online(s, cfg)
        allocate_every_evaluation(monkeypatch)
        b = run_online(s, cfg)
        assert sum(o.cache_churn > 0 for o in a.outcomes) > 1  # the rounded terms are refilled

        def record(o):
            return (repr((o.slot, o.triples, o.windowed_delay, o.windowed_dissimilarity,
                          o.lagrangian, o.cache_churn)),
                    o.X_rounded.tobytes(), o.Q_rounded.tobytes())

        for oa, ob in zip(a.outcomes, b.outcomes, strict=True):
            assert record(oa) == record(ob), oa.slot
        for x, y in ((a.final_state.X, b.final_state.X), (a.final_state.Q, b.final_state.Q),
                     (a.final_dual, b.final_dual)):
            assert x.tobytes() == y.tobytes()

    def test_at_most_two_evaluations_per_slot(self, small_scenario, evaluations):
        for k in (3, 6):
            evaluations.clear()
            run_online(small_scenario, OnlineConfig(num_slots=k, seed=1))
            # per slot: the new fractional iterate and its rounded caching
            assert len(evaluations) <= 2 * k + 2

    def test_unchanged_rounded_caching_is_not_evaluated_again(self, default_scenario,
                                                              evaluations):
        res = run_online(default_scenario, OnlineConfig(num_slots=30, seed=0))
        changed = sum(o.cache_churn > 0 for o in res.outcomes)
        assert 0 < changed < 30
        # the start and its rounding, each fractional iterate, each new rounding
        assert len(evaluations) == 2 + 30 + changed

    def test_unchanged_rounded_decisions_are_shared_read_only(self, default_scenario):
        res = run_online(default_scenario, OnlineConfig(num_slots=200, seed=0))
        out = res.outcomes
        for prev, o, after in zip(out, out[1:], out[2:] + [None]):
            assert (o.X_rounded is prev.X_rounded) == (o.cache_churn == 0)
            same_q = np.array_equal(o.Q_rounded, prev.Q_rounded)
            assert (o.Q_rounded is prev.Q_rounded) == same_q
            if after is not None and o.cache_churn == 0 and same_q:
                # the slot after o is served by the decision that served o
                served = {t[0]: t for t in o.triples}
                assert all(t is served[t[0]] for t in after.triples if t[0] in served)
        shared = sum(o.cache_churn == 0 for o in res.outcomes)
        assert 100 < shared < 200
        arrays = {id(a): a for o in res.outcomes for a in (o.X_rounded, o.Q_rounded)}
        for a in arrays.values():
            with pytest.raises(ValueError):
                a[0, 0] = 0.5

    def test_held_memory_is_the_slot_records(self, default_scenario):
        # Fresh rounded arrays and served tuples in every slot would hold
        # about 9.2 KB per slot.  What stays per slot is its record: one
        # list reference per arrival (40 a slot here), the slot object and
        # its three floats, about 570 bytes, plus the rounded caching of
        # the slots with churn.
        def held(num_slots):
            gc.collect()
            tracemalloc.start()
            try:
                res = run_online(default_scenario, OnlineConfig(num_slots=num_slots))
                gc.collect()
                return tracemalloc.get_traced_memory()[0], res
            finally:
                tracemalloc.stop()

        run_online(default_scenario, OnlineConfig(num_slots=2))  # first-call costs
        short, res = held(1000)
        del res
        long, res = held(3000)
        assert len(res.outcomes) == 3000
        assert short <= 2 * 2**20
        assert (long - short) / 2000 < 800  # bytes per slot

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
        cfg = OnlineConfig(num_slots=15, seed=8)  # the last 5 slots drop the first ones
        res = run_online(s, cfg)
        slot_totals = [sum(t[2] for t in o.triples) for o in res.outcomes]
        for i, o in enumerate(res.outcomes):
            lo = max(0, i + 1 - cfg.delay_window)
            window = slot_totals[lo:i + 1]
            assert o.windowed_delay == pytest.approx(sum(window) / len(window))

    @pytest.mark.parametrize("rho", [1.2, 0.6])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_windowed_sums_are_the_slot_totals(self, seed, rho):
        # each slot total sums count x value per request, in request order
        s = generate_scenario(GenConfig(seed=seed, rho=rho))
        cfg = OnlineConfig(num_slots=200, seed=seed, slot_length=0.5)
        res = run_online(s, cfg)
        delay_hist = deque(maxlen=cfg.delay_window)
        dissim_hist = deque(maxlen=cfg.delay_window)
        for o in res.outcomes:
            slot_delay = slot_dissim = 0.0
            for _, run in groupby(o.triples, key=lambda t: t[0]):
                run = list(run)
                slot_delay += len(run) * run[0][2]
                slot_dissim += len(run) * run[0][3]
            delay_hist.append(slot_delay)
            dissim_hist.append(slot_dissim)
            win = len(delay_hist) * cfg.slot_length
            assert o.windowed_delay == sum(delay_hist) / win, o.slot
            assert o.windowed_dissimilarity == sum(dissim_hist) / win, o.slot
        assert any(o.windowed_dissimilarity > 0 for o in res.outcomes)

    def test_learns_to_cache_on_line(self):
        s = make_line_scenario(taus=(4.0, 9.0), rate=5.0, alpha=10.0)
        res = run_online(s, OnlineConfig(num_slots=800, seed=0, eta_x=5e-3))
        X_int = res.outcomes[-1].X_rounded
        assert X_int[0, 0] == 1.0  # requested content cached at the ingress
        assert res.outcomes[-1].windowed_delay == 0.0


def _default(seed=0, **kw):
    return generate_scenario(GenConfig(seed=seed, **kw))


# (scenario, config, the kinds of slot the run holds): "churn" moves the
# rounded caching, "delivery" the rounded delivery, with or without churn,
# and "delivery only" the delivery alone
ORACLE_CASES = [
    *(pytest.param(lambda k=k: _default(k), OnlineConfig(num_slots=500, seed=k),
                   {"churn", "delivery"} | ({"delivery only"} if k in (0, 3, 4) else set()),
                   id=f"seed{k}") for k in range(5)),
    pytest.param(lambda: _default(topology="torus"), OnlineConfig(num_slots=300),
                 {"churn", "delivery", "delivery only"}, id="torus"),
    # capacity 0 rounds every slot to the pins alone, capacity F to every
    # entry, pinned ones among the chosen: the rounded caching cannot move
    pytest.param(lambda: with_capacity(_default(), 0), OnlineConfig(num_slots=300),
                 {"delivery", "delivery only"}, id="capacity0"),
    pytest.param(lambda: with_capacity(_default(), 1), OnlineConfig(num_slots=300),
                 {"churn", "delivery", "delivery only"}, id="capacity1"),
    pytest.param(lambda: with_capacity(_default(), GenConfig.num_contents),
                 OnlineConfig(num_slots=300), {"delivery", "delivery only"}, id="capacityF"),
    pytest.param(_default, OnlineConfig(num_slots=300, slot_length=0.25),
                 {"churn", "delivery", "delivery only"}, id="slot0.25"),
    pytest.param(_default, OnlineConfig(num_slots=300, slot_length=4.0),
                 {"churn", "delivery"}, id="slot4"),
    pytest.param(lambda: _default(**MID), OnlineConfig(num_slots=20),
                 {"churn", "delivery"}, id="mid-seed0"),
]


class TestWholeRunOracle:
    @pytest.mark.parametrize("make,cfg,kinds", ORACLE_CASES)
    def test_run_matches_the_re_rounding_loop(self, make, cfg, kinds):
        s = make()
        res = run_online(s, cfg)
        slots, X, Q, mu = oracle_run_online(s, cfg)
        for o, (t, triples, wd, wdis, lagrangian, churn, X_int, Q_int) in zip(
                res.outcomes, slots, strict=True):
            assert repr((o.slot, o.triples, o.windowed_delay, o.windowed_dissimilarity,
                         o.lagrangian, o.cache_churn)) == \
                repr((t, triples, wd, wdis, lagrangian, churn)), t
            assert o.X_rounded.tobytes() == X_int.tobytes(), t
            assert o.Q_rounded.tobytes() == Q_int.tobytes(), t
        assert res.final_state.X.tobytes() == X.tobytes()
        assert res.final_state.Q.tobytes() == Q.tobytes()
        assert res.final_dual.tobytes() == mu.tobytes()
        # the kinds of slot the run holds; slot 1 compares with the start
        S0 = initial_state(s, SolverConfig())
        Q_start = round_delivery(PathGeometry(s).evaluate(round_caching(s, S0.X)), S0.Q)
        seen = set()
        for slot, Q_before in zip(slots, [Q_start] + [slot[7] for slot in slots]):
            churn, moved = slot[5] > 0, not np.array_equal(slot[7], Q_before)
            if churn:
                seen.add("churn")
            if moved:
                seen |= {"delivery"} if churn else {"delivery", "delivery only"}
        assert seen == kinds
