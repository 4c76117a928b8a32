"""Slotted online optimization driven by Poisson request arrivals.

Each slot draws Poisson(rate * T) instances per request and serves them
with the previous slot's rounded delivery (for slot 1, the rounding of the
initial state).  It then evaluates the offline gradient kernels with each
request's rate replaced by its observed arrival count / T, applies the
offline projected primal step and perturbed dual update (slot index as the
iteration counter), and re-rounds for the next slot.  The mu-gradient is
taken at the iterate that served the slot, before the primal step, while
the offline solver takes it at the fresh iterate.  By default both primal
blocks, caching (eta_x) and delivery (eta_q), take the offline step size
``SolverConfig.eta_s``.  Since an arrival count has expectation rate * T,
the estimates are unbiased for the analytic gradients at the current state.

Every request owns an independent RNG stream spawned from the run seed,
so adding or removing requests never perturbs the others' draws.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .cost import PathGeometry, PrimalState
from .gradients import grad_mu, grad_q, grad_x
# not used here: bench/test_bench.py checks that the tracer restores this
# name in every simcache module that holds it, this one included
from .gradients import x_position_contributions  # noqa: F401
from .hibsa import (SolverConfig, initial_state,
                    projected_primal_update, round_caching, round_delivery)
from .model import Scenario
from .projection import clamp_dual


@dataclass
class OnlineConfig:
    slot_length: float = 1.0
    eta_x: float = 1e-3
    eta_q: float = 1e-3
    eta_mu: float = 1.0
    num_slots: int = 1000
    seed: int = 0
    delay_window: int = 10

    def __post_init__(self):
        if self.slot_length <= 0:
            raise ValueError("slot_length must be positive")
        if min(self.eta_x, self.eta_q, self.eta_mu) <= 0:
            raise ValueError("step sizes must be positive")
        if self.num_slots < 1 or self.delay_window < 1:
            raise ValueError("num_slots and delay_window must be >= 1")


@dataclass
class SlotOutcome:
    slot: int
    triples: list  # (request index, delivered content, delay, dissimilarity)
    windowed_delay: float
    windowed_dissimilarity: float
    lagrangian: float
    cache_churn: int
    X_rounded: np.ndarray
    Q_rounded: np.ndarray


class RequestStreams:
    """Per-request RNG streams split from one seed by request index."""

    def __init__(self, seed: int, num_requests: int):
        root = np.random.SeedSequence(seed)
        self.generators = [np.random.default_rng(ss)
                           for ss in root.spawn(num_requests)]

    def draw_counts(self, rates: np.ndarray, T: float) -> np.ndarray:
        return np.array([g.poisson(lam * T)
                         for g, lam in zip(self.generators, rates)], dtype=int)


def stochastic_gradients(
    geom: PathGeometry,
    S: PrimalState,
    mu: np.ndarray,
    observed,
    T: float,
) -> tuple:
    """Unbiased per-slot gradient estimates from observed request arrivals.

    ``observed`` is the multiset of request indices seen this slot.  The
    estimates are the analytic gradients (x, q, mu) with each request's
    rate replaced by its arrival count / T, so requests with no arrivals
    contribute nothing.
    """
    w = np.bincount(observed, minlength=geom.num_requests) / T
    return grad_x(geom, S, mu, w), grad_q(geom, S, mu, w), grad_mu(geom, S, w)


@dataclass
class OnlineResult:
    outcomes: list
    final_state: PrimalState
    final_dual: np.ndarray
    final_rounded: tuple  # (X_int, Q_int)


def run_online(s: Scenario, cfg: OnlineConfig) -> OnlineResult:
    """Run the slotted online scheme; deterministic given the seed."""
    geom = PathGeometry(s)
    S = initial_state(s, SolverConfig())
    mu = np.zeros((s.num_requests, s.num_contents))
    streams = RequestStreams(cfg.seed, s.num_requests)
    X_int = round_caching(s, S.X)
    Q_int = round_delivery(geom, X_int, S.Q)

    delay_hist: deque = deque(maxlen=cfg.delay_window)
    dissim_hist: deque = deque(maxlen=cfg.delay_window)
    outcomes: list[SlotOutcome] = []

    for t in range(1, cfg.num_slots + 1):
        counts = streams.draw_counts(geom.rates, cfg.slot_length)
        rounded_delays = geom.delays(X_int)
        served = Q_int.argmax(axis=1)
        triples = []
        slot_delay = 0.0
        slot_dissim = 0.0
        for r in range(s.num_requests):
            c = int(counts[r])
            if c == 0:
                continue
            f_prime = int(served[r])
            delay = float(rounded_delays[r, f_prime])
            dis = float(s.dissimilarity[geom.req_content[r], f_prime])
            for _ in range(c):
                triples.append((r, f_prime, delay, dis))
            slot_delay += c * delay
            slot_dissim += c * dis

        gx, gq, gmu = stochastic_gradients(
            geom, S, mu, [r for r, _, _, _ in triples], cfg.slot_length)
        S = projected_primal_update(geom, S, gx, gq, cfg.eta_x, cfg.eta_q)
        gamma = 1.0 / (cfg.eta_mu * t ** 0.25)
        mu = clamp_dual((1.0 - gamma * cfg.eta_mu) * mu + cfg.eta_mu * gmu)

        X_new = round_caching(s, S.X)
        churn = int(np.sum(X_new != X_int))
        X_int = X_new
        Q_int = round_delivery(geom, X_int, S.Q)

        delay_hist.append(slot_delay)
        dissim_hist.append(slot_dissim)
        win = len(delay_hist) * cfg.slot_length
        outcomes.append(SlotOutcome(
            slot=t,
            triples=triples,
            windowed_delay=sum(delay_hist) / win,
            windowed_dissimilarity=sum(dissim_hist) / win,
            lagrangian=geom.lagrangian(S, mu),
            cache_churn=churn,
            X_rounded=X_int,
            Q_rounded=Q_int,
        ))

    return OnlineResult(outcomes=outcomes, final_state=S, final_dual=mu,
                        final_rounded=(X_int, Q_int))
