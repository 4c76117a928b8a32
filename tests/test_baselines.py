import dataclasses
import warnings

import numpy as np
import pytest

from simcache.baselines import (PerCacheConfig, run_per_cache_baseline,
                                serve_from_cache, solve_adaptive_caching)
from simcache.hibsa import SolverConfig, identity_delivery
from simcache.scenario import GenConfig, generate_scenario, with_alpha

from conftest import make_line_scenario
from oracles import oracle_per_cache_run


class TestAdaptiveCaching:
    def test_delivers_requested_content_only(self, small_scenario):
        res = solve_adaptive_caching(small_scenario, SolverConfig(max_iters=500))
        assert np.array_equal(res.rounded.Q, identity_delivery(small_scenario))
        assert res.rounded.dissimilarity_cost == 0.0
        assert res.rounded.objective == pytest.approx(res.rounded.expected_delay)

    def test_alpha_invariant(self, small_scenario):
        cfg = SolverConfig(max_iters=500)
        a = solve_adaptive_caching(small_scenario, cfg)
        b = solve_adaptive_caching(with_alpha(small_scenario, 1000.0), cfg)
        assert np.array_equal(a.rounded.X, b.rounded.X)
        assert a.rounded.expected_delay == b.rounded.expected_delay

    def test_caches_single_content_at_ingress(self):
        s = make_line_scenario(taus=(4.0, 9.0))
        res = solve_adaptive_caching(s, SolverConfig(eta_s=0.01, max_iters=2000))
        assert res.rounded.X[0, 0] == 1.0
        assert res.rounded.expected_delay == 0.0

    def test_pin_flag_preset_is_accepted(self, small_scenario):
        cfg = SolverConfig(max_iters=200, pin_delivery=True)
        res = solve_adaptive_caching(small_scenario, cfg)
        assert res.rounded.dissimilarity_cost == 0.0


class TestPerCacheConfig:
    @pytest.mark.parametrize("kw", [dict(insert_prob=-0.1), dict(insert_prob=1.5),
                                    dict(num_slots=0), dict(slot_length=0.0),
                                    dict(insert_prob=np.nan),
                                    dict(slot_length=np.nan), dict(slot_length=np.inf),
                                    dict(seed=-1)])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            PerCacheConfig(**kw)


class TestPerCacheBaseline:
    def test_occupancy_never_exceeds_capacity(self, small_scenario):
        s = small_scenario
        res = run_per_cache_baseline(s, PerCacheConfig(num_slots=100, seed=3))
        for v, contents in res.caches.items():
            assert len(contents) <= int(s.capacities[v])
            assert len(set(contents)) == len(contents)

    def test_first_request_pays_full_path_delay(self):
        s = make_line_scenario(taus=(4.0, 9.0), rate=20.0)
        res = run_per_cache_baseline(
            s, PerCacheConfig(num_slots=1, seed=0, insert_prob=1.0))
        slot = res.slots[0]
        # exactly one full-path fetch (4 + 9); every later request in the
        # slot hits the fresh cache at delay zero
        assert slot.num_requests >= 2
        assert slot.windowed_delay == pytest.approx(13.0)
        assert res.caches[0] == [0]

    def test_cache_hits_have_zero_delay_and_logged_dissimilarity(self):
        s = make_line_scenario(taus=(4.0, 9.0), num_contents=2, rate=10.0,
                               content=1)
        res = run_per_cache_baseline(
            s, PerCacheConfig(num_slots=50, seed=1, insert_prob=1.0))
        late = res.slots[-1]
        assert late.windowed_delay == 0.0
        assert late.windowed_dissimilarity == 0.0  # its own content is cached

    def test_never_inserts_with_zero_probability(self, small_scenario):
        res = run_per_cache_baseline(
            small_scenario, PerCacheConfig(num_slots=30, seed=2, insert_prob=0.0))
        assert all(not c for c in res.caches.values())
        assert all(slot.cache_churn == 0 for slot in res.slots)

    def test_most_similar_delivery(self):
        # content 1 requested, only content 0 ever inserted first: after the
        # first insertion all hits deliver content 0 at dissimilarity 1
        dis = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = make_line_scenario(taus=(2.0, 5.0), num_contents=2, rate=5.0,
                               content=0, dissimilarity=dis)
        res = run_per_cache_baseline(
            s, PerCacheConfig(num_slots=40, seed=4, insert_prob=0.3))
        assert res.caches[0] == [0]

    # content 1 requested and only content 0 cached; the full path costs 2 + 5
    def test_cheap_approximation_is_served_from_cache(self):
        s = make_line_scenario(taus=(2.0, 5.0), alpha=1.0, content=1)
        assert serve_from_cache(s, [0], 1, 7.0) == (0, 0.0, 1.0)

    def test_costly_approximation_is_fetched_over_the_path(self):
        s = make_line_scenario(taus=(2.0, 5.0), alpha=10.0, content=1)
        assert serve_from_cache(s, [0], 1, 7.0) == (1, 7.0, 0.0)

    def test_runs_where_alpha_times_d_overflows(self):
        # the instance of `generate --seed 0 --alpha 1e307`, on which alpha * d
        # overflows; the baseline forms no alpha * d matrix, and no
        # approximation is cheaper than a fetch
        s = generate_scenario(GenConfig(seed=0, alpha=1e307))
        cfg = PerCacheConfig(num_slots=50, seed=0, insert_prob=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run_per_cache_baseline(s, cfg)
        assert any(res.caches.values())
        assert all(slot.windowed_dissimilarity == 0.0 for slot in res.slots)
        # at the default alpha the same run serves approximations
        res = run_per_cache_baseline(with_alpha(s, GenConfig.alpha), cfg)
        assert any(slot.windowed_dissimilarity > 0.0 for slot in res.slots)

    def test_slot_length_too_large_is_rejected(self, small_scenario):
        with pytest.raises(ValueError, match="request 0: Poisson mean"):
            run_per_cache_baseline(small_scenario, PerCacheConfig(slot_length=1e300))

    def test_deterministic(self, small_scenario):
        cfg = PerCacheConfig(num_slots=40, seed=9)
        a = run_per_cache_baseline(small_scenario, cfg)
        b = run_per_cache_baseline(small_scenario, cfg)
        assert a.caches == b.caches
        assert [s.windowed_delay for s in a.slots] == \
               [s.windowed_delay for s in b.slots]

    def test_windowed_metrics_are_nonnegative(self, default_scenario):
        res = run_per_cache_baseline(
            default_scenario, PerCacheConfig(num_slots=30, seed=5))
        for slot in res.slots:
            assert slot.windowed_delay >= 0.0
            assert slot.windowed_dissimilarity >= 0.0

    @pytest.mark.parametrize("rho", [1.2, 0.6])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_slot_record_is_the_plain_loops(self, seed, rho):
        s = generate_scenario(GenConfig(seed=seed, rho=rho))
        cfg = PerCacheConfig(num_slots=400, seed=seed)
        res = run_per_cache_baseline(s, cfg)
        slots, caches = oracle_per_cache_run(s, cfg)
        assert sum(slot.cache_churn for slot in res.slots) > 0
        assert [dataclasses.astuple(slot) for slot in res.slots] == slots
        assert res.caches == caches
