"""Slotted online optimization driven by Poisson request arrivals.

Each slot draws Poisson(rate * T) instances per request and serves them
with the previous slot's rounded delivery (for slot 1, the rounding of the
initial state).  It then evaluates the offline gradient kernels with each
request's rate replaced by its observed arrival count / T, applies the
offline projected primal step and the dual update ``hibsa.dual_step``
(slot index as the iteration counter), and rounds the new iterate for the
next slot.  The dual update takes the mu-gradient at the iterate that
served the slot, before the primal step, while the offline solver takes
it at the fresh iterate; an iterate's violations serve its slot's
Lagrangian and the next slot's mu-gradient.  Path terms are evaluated once
per new iterate and per new rounded caching, each into one set of terms
that the run refills in place.  By default both primal blocks, caching
(eta_x) and delivery (eta_q), take the offline step size
``SolverConfig.eta_s``.  Since an arrival count has expectation rate * T,
the estimates are unbiased for the analytic gradients at the current state.

Every request owns an independent RNG stream spawned from the run seed,
so adding or removing requests never perturbs the others' draws; the
seed's next child is the per-cache baseline's insertion stream.

A slot re-rounds only on change: it compares the two choices of ``hibsa``
with the last ones.  The rounded caching is unchanged exactly when it
holds every chosen entry (each row chooses as many, and pins stay 1), the
delivery when every request's content is.  Only a moved choice builds its
matrix, the churn, the rounded caching's terms and delivery options, and
the served tuples.  So a slot whose rounding did not change records the
previous slot's read-only arrays, and the served tuples are built once per
rounded decision (see ``SlotOutcome``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .cost import PathGeometry, PathTerms, PrimalState
from .gradients import grad_mu, grad_q, grad_x
# not used here: bench/test_bench.py checks that the tracer restores this
# name in every simcache module that holds it, this one included
from .gradients import x_position_contributions  # noqa: F401
from .hibsa import (SolverConfig, caching_choice, delivery_choice, dual_step, initial_state,
                    projected_primal_update, round_caching, round_delivery)
from .model import Scenario


@dataclass
class SlotConfig:
    """Options of a slotted run, shared by ``run_online`` and the per-cache
    baseline; the window of the windowed metrics is a fixed 10 slots."""

    slot_length: float = 1.0
    num_slots: int = 1000
    seed: int = 0
    delay_window = 10  # no annotation: a constant, not a field

    def __post_init__(self):
        if not 0 < self.slot_length < np.inf:
            raise ValueError("slot_length must be positive and finite")
        if self.num_slots < 1 or self.seed < 0:
            raise ValueError("num_slots must be >= 1, seed >= 0")


@dataclass
class OnlineConfig(SlotConfig):
    eta_x: float = SolverConfig.eta_s
    eta_q: float = SolverConfig.eta_s
    eta_mu: float = SolverConfig.eta_mu

    def __post_init__(self):
        super().__post_init__()
        if not all(0 < x < np.inf for x in (self.eta_x, self.eta_q, self.eta_mu)):
            raise ValueError("step sizes must be positive and finite")


@dataclass(slots=True)
class SlotOutcome:
    """One slot's record; its rounding, of the new iterate, serves the next
    slot.  ``X_rounded`` and ``Q_rounded`` are read-only, and are the last
    slot's arrays when the choice did not move; the arrivals and slots
    served by one rounded decision share the tuples in ``triples``."""

    slot: int
    triples: list  # (request index, delivered content, delay, dissimilarity)
    windowed_delay: float
    windowed_dissimilarity: float
    lagrangian: float
    cache_churn: int
    X_rounded: np.ndarray
    Q_rounded: np.ndarray


# slots of arrivals drawn per request in one generator call
BLOCK_SLOTS = 64


class RequestStreams:
    """Per-request Poisson(rate * T) streams split from one seed by request.

    The streams are the first R children of ``root``, the seed's
    SeedSequence; its next child, ``root.spawn(1)[0]``, is the per-cache
    insertion stream.  Each stream draws ``BLOCK_SLOTS`` slots per
    generator call, which gives the same counts as one draw per slot.
    A mean that numpy cannot draw from is a ValueError naming its request,
    raised here, before the first slot.
    """

    def __init__(self, seed: int, rates: np.ndarray, T: float):
        with np.errstate(over="ignore"):  # a mean of inf is rejected below
            self.means = np.asarray(rates, dtype=float) * T
        self.root = np.random.SeedSequence(seed)
        self.generators = [np.random.default_rng(ss)
                           for ss in self.root.spawn(len(self.means))]
        for r, (g, lam) in enumerate(zip(self.generators, self.means.tolist())):
            try:
                g.poisson(lam, size=0)  # numpy's own check of the mean; draws nothing
            except ValueError as exc:
                raise ValueError(f"request {r}: Poisson mean rate * slot_length = {lam!r} "
                                 f"cannot be drawn ({exc})") from None
        self._block = None  # (BLOCK_SLOTS, R) counts, read row by row
        self._next = BLOCK_SLOTS

    def draw_counts(self) -> np.ndarray:
        if self._next == BLOCK_SLOTS:
            cols = [g.poisson(lam, size=BLOCK_SLOTS)
                    for g, lam in zip(self.generators, self.means)]
            self._block = np.array(cols, dtype=int).reshape(-1, BLOCK_SLOTS).T.copy()
            self._next = 0
        counts = self._block[self._next]
        self._next += 1
        return counts


class SlotWindow:
    """The windowed delay and dissimilarity of both slotted runs: ``push``
    adds one slot's totals and returns those of the last ``delay_window``
    slots per unit time, from two float deques summed with ``sum``."""

    def __init__(self, cfg: SlotConfig):
        self.T = cfg.slot_length
        self.delay = deque(maxlen=cfg.delay_window)
        self.dissim = deque(maxlen=cfg.delay_window)

    def push(self, slot_delay: float, slot_dissim: float) -> tuple:
        self.delay.append(slot_delay)
        self.dissim.append(slot_dissim)
        win = len(self.delay) * self.T
        return sum(self.delay) / win, sum(self.dissim) / win


def stochastic_gradients(terms: PathTerms, Q: np.ndarray, mu: np.ndarray,
                         counts: np.ndarray, T: float, h: np.ndarray | None = None) -> tuple:
    """Unbiased per-slot gradient estimates from observed request arrivals.

    ``counts`` holds each request's number of arrivals this slot.  The
    estimates are the analytic gradients (x, q, mu) with each request's
    rate replaced by its arrival count / T, so requests with no arrivals
    contribute nothing.  Pass Q's violations ``h`` if already formed.
    """
    w = counts / T
    return grad_x(terms, Q, mu, w), grad_q(terms, Q, mu, w), grad_mu(terms, Q, w, h)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _served_records(geom: PathGeometry, int_terms: PathTerms, f: np.ndarray,
                    previous=()) -> list:
    """One (request, delivered content f, delay, dissimilarity) tuple per
    request under a rounded decision; a tuple equal to its entry in
    ``previous`` is that entry, so a request whose record did not change
    keeps one tuple across decisions."""
    rows = np.arange(len(f))
    fresh = zip(range(len(f)), f.tolist(), int_terms.delays[rows, f].tolist(),
                geom.d_rows[rows, f].tolist())
    if not previous:
        return list(fresh)
    return [old if old == new else new for old, new in zip(previous, fresh)]


@dataclass
class OnlineResult:
    outcomes: list
    final_state: PrimalState
    final_dual: np.ndarray


def run_online(s: Scenario, cfg: OnlineConfig) -> OnlineResult:
    """Run the slotted online scheme; deterministic given the seed."""
    geom = PathGeometry(s)
    S = initial_state(s, SolverConfig())
    mu = np.zeros((s.num_requests, s.num_contents))
    streams = RequestStreams(cfg.seed, geom.rates, cfg.slot_length)
    terms = geom.evaluate(S.X)
    h = terms.violations(S.Q)
    choose_caching = caching_choice(s)
    X_int = _read_only(round_caching(s, S.X))
    int_terms = geom.evaluate(X_int)
    choose_delivery = delivery_choice(int_terms)
    delivered = choose_delivery(S.Q)
    Q_int = _read_only(round_delivery(int_terms, S.Q))
    served = _served_records(geom, int_terms, delivered)
    window = SlotWindow(cfg)
    outcomes: list[SlotOutcome] = []

    for t in range(1, cfg.num_slots + 1):
        counts = streams.draw_counts()
        hit = np.flatnonzero(counts)  # requests with arrivals, in index order
        triples, slot_delay, slot_dissim = [], 0.0, 0.0
        for r, c in zip(hit.tolist(), counts[hit].tolist()):
            rec = served[r]
            triples += [rec] * c
            slot_delay += c * rec[2]
            slot_dissim += c * rec[3]

        gx, gq, gmu = stochastic_gradients(terms, S.Q, mu, counts, cfg.slot_length, h)
        S = projected_primal_update(geom, S, gx, gq, cfg.eta_x, cfg.eta_q)
        mu = dual_step(mu, gmu, t, cfg.eta_mu)
        terms = geom.evaluate(S.X, out=terms)
        h = terms.violations(S.Q)
        objective, dual = terms.totals((S.Q, terms.costs), (mu, h))

        churn = 0
        if not X_int.take(choose_caching(S.X)).all():
            X_new = round_caching(s, S.X)
            churn = int(np.count_nonzero(X_new != X_int))
            X_int = _read_only(X_new)
            int_terms = geom.evaluate(X_int, out=int_terms)
            choose_delivery = delivery_choice(int_terms)
        choice = choose_delivery(S.Q)
        Q_moved = (choice != delivered).any()
        if Q_moved:
            delivered = choice
            Q_int = _read_only(round_delivery(int_terms, S.Q))
        if churn or Q_moved:
            served = _served_records(geom, int_terms, delivered, served)

        windowed_delay, windowed_dissim = window.push(slot_delay, slot_dissim)
        outcomes.append(SlotOutcome(
            slot=t,
            triples=triples,
            windowed_delay=windowed_delay,
            windowed_dissimilarity=windowed_dissim,
            lagrangian=objective + dual,
            cache_churn=churn,
            X_rounded=X_int,
            Q_rounded=Q_int,
        ))

    return OnlineResult(outcomes=outcomes, final_state=S, final_dual=mu)
