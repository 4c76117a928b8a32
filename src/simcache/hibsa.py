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


def projected_primal_update(
    geom: PathGeometry,
    S: PrimalState,
    gx: np.ndarray,
    gq: np.ndarray | None,
    eta_x: float,
    eta_q: float,
) -> PrimalState:
    """Gradient step with per-block steps, then exact row-wise projection.

    The step moves source-pinned x entries too: the cache projection never
    reads them and sets them to exactly 1.  Without a delivery gradient
    ``gq``, Q stays as it is.
    """
    s = geom.scenario
    X = project_cache_matrix(S.X - eta_x * gx, s.capacities, s.source_mask())
    Q = S.Q if gq is None else project_delivery_matrix(S.Q - eta_q * gq)
    return PrimalState(X, Q)


def primal_step(terms: PathTerms, S: PrimalState, mu: np.ndarray,
                cfg: SolverConfig) -> PrimalState:
    """One descent step with step eta_s at S.X's terms, on both primal
    blocks, or on X alone in adaptive-caching mode."""
    gx = grad_x(terms, S.Q, mu)
    gq = None if cfg.pin_delivery else grad_q(terms, S.Q, mu)
    return projected_primal_update(terms.geom, S, gx, gq, cfg.eta_s, cfg.eta_s)


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


def round_caching(s: Scenario, X: np.ndarray) -> np.ndarray:
    """Per node: pin sources, then cache the capacity-many non-source
    contents with largest fractional value (ties to smaller content id).
    Values are ranked on a 1e-12 grid, so rounding noise counts as a tie.
    One stable argsort ranks every row; its first ``capacity`` entries are
    set through their flat indexes."""
    pins = s.source_mask()
    V, F = X.shape
    # stable: ties keep id order; pinned entries sort after the free ones
    order = np.where(pins, np.inf, -X.round(12)).argsort(axis=1, kind="stable")
    order += np.arange(0, V * F, F)[:, None]
    out = pins.astype(float)
    out.put(order[np.arange(F) < s.capacities[:, None]], 1.0)
    return out


def round_delivery(terms: PathTerms, Q: np.ndarray) -> np.ndarray:
    """Per request: among contents available on the path under the rounded
    caching (of path terms ``terms``), pick the largest fractional delivery
    value (ties to smaller content id); the requested content is always a
    feasible fallback."""
    avail = terms.avail <= 0.0
    best = np.argmax(np.where(avail, Q, -np.inf), axis=1)
    choice = np.where(avail.any(axis=1), best, terms.geom.req_content)
    out = np.zeros_like(Q)
    out[np.arange(Q.shape[0]), choice] = 1.0
    return out


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
    iteration budget runs out, then round greedily.  One iterate steps X
    and Q at the last path terms, evaluates the new ones once, takes the
    dual step there, and forms its violations once for the mu-gradient and
    the trace row, whose four rate-weighted totals come from one
    ``PathTerms.totals`` call; each product is built once.  One set of path
    terms is refilled in place for every iterate, then for the rounded
    caching."""
    cfg = cfg or SolverConfig()
    geom = PathGeometry(s)
    S = initial_state(s, cfg)
    mu = np.zeros((s.num_requests, s.num_contents))
    terms = geom.evaluate(S.X)
    trace = SolveTrace()
    L_prev = terms.lagrangian(S.Q, mu)
    stop_reason = "max_iters"
    n = 0
    for n in range(1, cfg.max_iters + 1):
        S = primal_step(terms, S, mu, cfg)
        terms = geom.evaluate(S.X, out=terms)
        h = terms.violations(S.Q)
        mu = dual_step(mu, grad_mu(terms, S.Q, h=h), n, cfg.eta_mu)
        objective, delay, dissim, dual = terms.totals(
            (S.Q, terms.costs), (S.Q, terms.delays), (S.Q, geom.d_rows), (mu, h))
        L = objective + dual
        trace.rows.append((n, L, objective, delay, dissim,
                           float(np.maximum.reduce(h, axis=None)) if h.size else 0.0,
                           dual_norm(mu)))
        if abs(L - L_prev) <= cfg.delta:
            stop_reason = "converged"
            break
        L_prev = L
    trace.stop_reason = stop_reason
    trace.iterations = n
    X_int = round_caching(s, S.X)
    int_terms = geom.evaluate(X_int, out=terms)
    rounded = evaluate_integer(int_terms, X_int, round_delivery(int_terms, S.Q))
    return SolveResult(fractional=S, dual=mu, rounded=rounded, trace=trace)

