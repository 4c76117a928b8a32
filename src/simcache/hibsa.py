"""Offline solver: alternating projected gradient descent on (X, Q) and
perturbed gradient ascent on the multipliers, followed by greedy rounding.

The dual ascent uses the perturbation schedule gamma(n) = 1/(eta_mu *
n^(1/4)) with the iteration counter starting at 1.  Ties in both rounding
passes break toward the smaller content id so that every run is
reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cost import PathGeometry, PathTerms, PrimalState
from .gradients import grad_mu, grad_q, grad_x
from .model import Scenario
from .projection import project_cache_matrix, project_delivery_matrix


@dataclass
class SolverConfig:
    eta_s: float = 1e-3
    eta_mu: float = 1.0
    delta: float = 1e-6
    max_iters: int = 50_000
    pin_delivery: bool = False  # adaptive-caching mode: Q fixed at identity

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.eta_s, self.eta_mu, self.delta)):
            raise ValueError("step sizes and delta must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


TRACE_COLUMNS = ("n", "lagrangian", "objective", "expected_delay",
                 "dissimilarity_cost", "max_h", "dual_norm")


@dataclass
class SolveTrace:
    rows: list = field(default_factory=list)  # tuples following TRACE_COLUMNS
    stop_reason: str = ""
    iterations: int = 0


@dataclass
class IntegerSolution:
    X: np.ndarray  # |V| x |F| in {0, 1}
    Q: np.ndarray  # |R| x |F| in {0, 1}
    objective: float
    expected_delay: float
    dissimilarity_cost: float


def initial_state(s: Scenario, cfg: SolverConfig) -> PrimalState:
    """Feasible start: capacity-tight uniform caching, uniform delivery."""
    F, pins = s.num_contents, s.source_mask()
    free = F - pins.sum(axis=1)  # non-source contents per node
    X = np.where(pins, 1.0, np.minimum(1.0, s.capacities / np.maximum(free, 1))[:, None])
    Q = identity_delivery(s) if cfg.pin_delivery else np.full((s.num_requests, F), 1.0 / F)
    return PrimalState(X, Q)


def identity_delivery(s: Scenario) -> np.ndarray:
    """One-hot delivery of the requested content for every request."""
    return np.eye(s.num_contents)[[r.content for r in s.requests]]


def projected_primal_update(geom: PathGeometry, S: PrimalState, gx: np.ndarray,
                            gq: np.ndarray | None, eta: float) -> PrimalState:
    """One gradient step of size eta on both blocks, then exact row-wise
    projection.  The step moves source-pinned x entries too: the cache
    projection never reads them and sets them to exactly 1.  Without a
    delivery gradient ``gq``, Q stays as it is."""
    s = geom.scenario
    X = project_cache_matrix(S.X - eta * gx, s.capacities, s.source_mask())
    Q = S.Q if gq is None else project_delivery_matrix(S.Q - eta * gq)
    return PrimalState(X, Q)


def primal_step(terms: PathTerms, S: PrimalState, mu: np.ndarray,
                cfg: SolverConfig) -> PrimalState:
    """One descent step with step eta_s at S.X's terms, on both primal
    blocks, or on X alone in adaptive-caching mode."""
    gx = grad_x(terms, S.Q, mu)
    gq = None if cfg.pin_delivery else grad_q(terms, mu)
    return projected_primal_update(terms.geom, S, gx, gq, cfg.eta_s)


TINY = np.finfo(float).tiny  # the smallest normal float


def dual_step(mu: np.ndarray, g_mu: np.ndarray, n: int,
              eta_mu: float) -> np.ndarray:
    """Perturbed ascent: ((1 - gamma(n) eta_mu) mu + eta_mu g_mu)^+ with
    the caller's mu-gradient g_mu, and every entry below TINY, subnormals
    included, exactly 0 (a NaN stays NaN): a decaying multiplier reaches 0,
    and ``SolveResult.dual`` holds 0 where it once held a subnormal.

    The shrinkage factor (1 - gamma(n) eta_mu) is the ascent step on the
    regularized dual objective L - (gamma/2) ||mu||^2; the regularization
    decays as gamma(n) -> 0 and keeps the multipliers bounded while the
    violations persist."""
    if n < 1:
        raise ValueError("iteration counter starts at 1")
    gamma = 1.0 / (eta_mu * n ** 0.25)
    v = (1.0 - gamma * eta_mu) * mu + eta_mu * g_mu
    np.maximum(v, 0.0, out=v)
    # a product, not v[v < TINY] = 0: that masked assignment costs about
    # 4x the rest of the step
    return np.multiply(v, v >= TINY, out=v)


def caching_choice(s: Scenario):
    """The caching rule of s as a choice: a function of X giving the flat
    indexes that ``round_caching`` sets to 1 beside the pins.  Per node,
    one stable argsort of every row, with values ranked on a 1e-12 grid
    (rounding noise counts as a tie) and pins last, takes the capacity-many
    largest non-source contents, ties to the smaller content id."""
    pins = s.source_mask()
    V, F = pins.shape
    offsets, pinned = np.arange(0, V * F, F)[:, None], np.flatnonzero(pins)
    take = np.arange(F) < s.capacities[:, None]

    def choose(X: np.ndarray) -> np.ndarray:
        keys = X.round(12)
        np.negative(keys, out=keys)
        keys.put(pinned, np.inf)
        order = keys.argsort(axis=1, kind="stable")
        order += offsets
        return order[take]

    return choose


def round_caching(s: Scenario, chosen: np.ndarray) -> np.ndarray:
    """The 0/1 caching of the pins and the ``caching_choice`` indexes ``chosen``."""
    out = s.source_mask().astype(float)
    out.put(chosen, 1.0)
    return out


def delivery_choice(terms: PathTerms):
    """The delivery rule under the rounded caching of ``terms`` as a choice:
    a function of Q giving each request's delivered content, the one with
    the largest Q value (finite; ties to smaller content id) among those
    available on its path, or its requested content if none is.  The mask
    of these options is formed once here, for every Q."""
    options = terms.avail <= 0.0
    none = np.flatnonzero(~options.any(axis=1))
    options[none, terms.geom.req_content[none]] = True
    return lambda Q: np.argmax(np.where(options, Q, -np.inf), axis=1)


def round_delivery(s: Scenario, delivered: np.ndarray) -> np.ndarray:
    """The rounded delivery built from a choice already made: each request's
    ``delivered`` content, as ``delivery_choice`` gives it, one-hot."""
    return np.eye(s.num_contents)[delivered]


@dataclass
class SolveResult:
    fractional: PrimalState
    dual: np.ndarray
    rounded: IntegerSolution
    trace: SolveTrace


def evaluate_integer(terms: PathTerms, X_int: np.ndarray,
                     Q_int: np.ndarray) -> IntegerSolution:
    """The rounded solution and its costs; ``terms`` are those of X_int."""
    return IntegerSolution(X_int, Q_int, *terms.totals(
        (Q_int, terms.costs), (Q_int, terms.delays), (Q_int, terms.geom.d_rows)))


def dual_norm(mu: np.ndarray) -> float:
    """norm(mu) scaled by its top entry (mu >= 0), as dnrm2: no square
    underflows.  The scaled copy lives only in this call."""
    top = float(np.maximum.reduce(mu, axis=None, initial=0.0))
    if not top:
        return 0.0
    scaled = mu / top
    return top * math.sqrt(np.add.reduce(np.square(scaled, out=scaled), axis=None))


def solve_offline(s: Scenario, cfg: SolverConfig | None = None) -> SolveResult:
    """Iterate primal/dual steps until |L(n+1) - L(n)| <= delta or the
    iteration budget runs out, then round greedily; the first overflow or
    invalid value raises FloatingPointError.  One iterate steps X and Q at
    the last path terms, evaluates the new ones once, takes the dual step
    there, and forms its violations once for the mu-gradient and the trace
    row, whose four rate-weighted totals come from one ``PathTerms.totals``
    call; each product is built once.  One set of path terms is refilled in
    place for every iterate, then for the rounded caching."""
    cfg = cfg or SolverConfig()
    with np.errstate(over="raise", invalid="raise"):  # a diverging step stops the run
        geom = PathGeometry(s)
        S = initial_state(s, cfg)
        mu = np.zeros((s.num_requests, s.num_contents))
        terms = geom.evaluate(S.X)
        trace = SolveTrace()
        L_prev = terms.lagrangian(S.Q, mu)
        for n in range(1, cfg.max_iters + 1):  # at least one: max_iters >= 1
            S = primal_step(terms, S, mu, cfg)
            terms = geom.evaluate(S.X, out=terms)
            h = terms.violations(S.Q)
            mu = dual_step(mu, grad_mu(terms, h), n, cfg.eta_mu)
            objective, delay, dissim, dual = terms.totals(
                (S.Q, terms.costs), (S.Q, terms.delays), (S.Q, geom.d_rows), (mu, h))
            L = objective + dual
            trace.rows.append((n, L, objective, delay, dissim,
                               float(np.maximum.reduce(h, axis=None)) if h.size else 0.0,
                               dual_norm(mu)))
            del h  # not held through the next primal step
            if abs(L - L_prev) <= cfg.delta:
                trace.stop_reason = "converged"
                break
            L_prev = L
        else:
            trace.stop_reason = "max_iters"
        trace.iterations = n
        X_int = round_caching(s, caching_choice(s)(S.X))
        int_terms = geom.evaluate(X_int, out=terms)
        Q_int = round_delivery(s, delivery_choice(int_terms)(S.Q))
        rounded = evaluate_integer(int_terms, X_int, Q_int)
        return SolveResult(fractional=S, dual=mu, rounded=rounded, trace=trace)

