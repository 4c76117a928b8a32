"""A tolerance-free metamorphic gate: scaling every delay and alpha by 2.

Doubling every edge delay and alpha doubles every delay, cost, gradient
and Lagrangian exactly, since a power-of-two factor commutes with
floating-point rounding of normal numbers.  Solved with half the primal
step, twice the dual step and twice the stop threshold, the scaled copy
must then take exactly the same primal iterates, with the multipliers
doubled.  A kernel that mixes units (alpha applied twice, a delay added
to an availability, a primal step size in the dual) breaks the identity
at once, with no oracle and no tolerance.  The dual step sets subnormal
multipliers to exactly 0, so mu is pinned on every point, including one
that ends with subnormal multipliers before the flush.
"""

from dataclasses import replace

import numpy as np
import pytest

from simcache.baselines import PerCacheConfig, run_per_cache_baseline
from simcache.hibsa import TRACE_COLUMNS, SolverConfig, solve_offline
from simcache.model import Network
from simcache.online import OnlineConfig, run_online
from simcache.scenario import GenConfig, generate_scenario

DOUBLED = ("lagrangian", "objective", "expected_delay", "dual_norm")
EQUAL = ("n", "dissimilarity_cost", "max_h")


def doubled(s):
    """The instance with every edge delay and alpha times 2."""
    net = Network(s.network.num_nodes, {e: 2.0 * d for e, d in s.network.delays.items()})
    return replace(s, network=net, alpha=2.0 * s.alpha)


def assert_offline_solve_scales(s, cfg):
    a = solve_offline(s, cfg)
    b = solve_offline(doubled(s), replace(cfg, eta_s=cfg.eta_s / 2,
                                          eta_mu=cfg.eta_mu * 2, delta=cfg.delta * 2))
    assert a.trace.stop_reason == b.trace.stop_reason == "converged"
    assert a.trace.iterations == b.trace.iterations
    assert np.array_equal(a.fractional.X, b.fractional.X)
    assert np.array_equal(a.fractional.Q, b.fractional.Q)
    assert np.array_equal(a.rounded.X, b.rounded.X)
    assert np.array_equal(a.rounded.Q, b.rounded.Q)
    assert b.rounded.objective == 2 * a.rounded.objective
    assert b.rounded.expected_delay == 2 * a.rounded.expected_delay
    assert b.rounded.dissimilarity_cost == a.rounded.dissimilarity_cost
    for ra, rb in zip(a.trace.rows, b.trace.rows):
        ra, rb = dict(zip(TRACE_COLUMNS, ra)), dict(zip(TRACE_COLUMNS, rb))
        assert all(rb[c] == 2 * ra[c] for c in DOUBLED), ra["n"]
        assert all(rb[c] == ra[c] for c in EQUAL), ra["n"]
    assert np.array_equal(b.dual, 2 * a.dual)


@pytest.mark.parametrize("pin_delivery", [False, True], ids=["similarity", "adaptive"])
@pytest.mark.parametrize("seed", [4, 1])
def test_offline_solve_scales_exactly(seed, pin_delivery):
    s = generate_scenario(GenConfig(seed=seed, alpha=10.0))
    assert_offline_solve_scales(s, SolverConfig(pin_delivery=pin_delivery))


def test_offline_solve_with_vanishing_multipliers_scales_exactly():
    # converges in 4,423 iterations; without the flush its mu ends with
    # 169 subnormal entries, and the doubled copy's differs from 2 mu at 162
    s = generate_scenario(GenConfig(seed=9, alpha=3.0))
    assert_offline_solve_scales(s, SolverConfig())


@pytest.mark.parametrize("seed", [0, 1])
def test_online_run_scales_exactly(seed):
    s = generate_scenario(GenConfig(seed=seed))
    cfg = OnlineConfig(num_slots=300, seed=seed)
    a = run_online(s, cfg)
    b = run_online(doubled(s), replace(cfg, eta_s=cfg.eta_s / 2, eta_mu=cfg.eta_mu * 2))
    for oa, ob in zip(a.outcomes, b.outcomes, strict=True):
        assert np.array_equal(oa.X_rounded, ob.X_rounded), oa.slot
        assert np.array_equal(oa.Q_rounded, ob.Q_rounded), oa.slot
        assert ob.cache_churn == oa.cache_churn
        assert ob.triples == [(r, f, 2 * t, d) for r, f, t, d in oa.triples], oa.slot
        assert ob.windowed_delay == 2 * oa.windowed_delay, oa.slot
        assert ob.windowed_dissimilarity == oa.windowed_dissimilarity, oa.slot
        assert ob.lagrangian == 2 * oa.lagrangian, oa.slot
    assert np.array_equal(a.final_state.X, b.final_state.X)
    assert np.array_equal(a.final_state.Q, b.final_state.Q)
    assert np.array_equal(b.final_dual, 2 * a.final_dual)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_cache_baseline_scales_exactly(seed):
    s = generate_scenario(GenConfig(seed=seed))
    cfg = PerCacheConfig(num_slots=300, seed=seed)
    a = run_per_cache_baseline(s, cfg)
    b = run_per_cache_baseline(doubled(s), cfg)
    for sa, sb in zip(a.slots, b.slots, strict=True):
        assert sb.windowed_delay == 2 * sa.windowed_delay, sa.slot
        assert (sb.num_requests, sb.windowed_dissimilarity, sb.cache_churn) == \
            (sa.num_requests, sa.windowed_dissimilarity, sa.cache_churn), sa.slot
    assert a.caches == b.caches
