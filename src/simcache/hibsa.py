"""Offline solver: alternating projected gradient descent on (X, Q) and
perturbed gradient ascent on the multipliers, followed by greedy rounding.

The dual ascent uses the perturbation schedule gamma(n) = 1/(eta_mu *
n^(1/4)) with the iteration counter starting at 1.  Ties in both rounding
passes break toward the smaller content id so that every run is
reproducible bit-for-bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .cost import PathGeometry, PrimalState
from .gradients import grad_mu, grad_q, grad_x
from .model import Scenario
from .projection import clamp_dual, project_cache_matrix, project_delivery_matrix


@dataclass
class SolverConfig:
    eta_s: float = 1e-3
    eta_mu: float = 1.0
    delta: float = 1e-6
    max_iters: int = 50_000
    seed: int = 0
    random_init: bool = False
    pin_delivery: bool = False  # adaptive-caching mode: Q fixed at identity

    def __post_init__(self):
        if self.eta_s <= 0 or self.eta_mu <= 0 or self.delta <= 0:
            raise ValueError("step sizes and delta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


TRACE_COLUMNS = ("n", "lagrangian", "objective", "expected_delay",
                 "dissimilarity_cost", "max_h", "dual_norm")


@dataclass
class SolveTrace:
    rows: list = field(default_factory=list)  # tuples following TRACE_COLUMNS
    stop_reason: str = ""
    iterations: int = 0

    def lagrangians(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(TRACE_COLUMNS)
            for row in self.rows:
                w.writerow([repr(x) if isinstance(x, float) else x for x in row])


@dataclass
class IntegerSolution:
    X: np.ndarray  # |V| x |F| in {0, 1}
    Q: np.ndarray  # |R| x |F| in {0, 1}
    objective: float
    expected_delay: float
    dissimilarity_cost: float


def initial_state(s: Scenario, cfg: SolverConfig) -> PrimalState:
    """Feasible start: capacity-tight uniform caching, uniform delivery."""
    V, F, R = s.num_nodes, s.num_contents, s.num_requests
    pins = s.source_mask()
    if cfg.random_init:
        rng = np.random.default_rng(cfg.seed)
        X = rng.uniform(size=(V, F))
        Q = rng.uniform(size=(R, F))
        X = project_cache_matrix(X, s.capacities, pins)
        Q = project_delivery_matrix(Q)
    else:
        X = np.zeros((V, F))
        for v in range(V):
            k = F - int(pins[v].sum())
            if k > 0:
                X[v, ~pins[v]] = min(1.0, s.capacities[v] / k)
        X[pins] = 1.0
        Q = np.full((R, F), 1.0 / F)
    if cfg.pin_delivery:
        Q = identity_delivery(s)
    return PrimalState(X, Q)


def identity_delivery(s: Scenario) -> np.ndarray:
    """One-hot delivery of the requested content for every request."""
    Q = np.zeros((s.num_requests, s.num_contents))
    for i, r in enumerate(s.requests):
        Q[i, r.content] = 1.0
    return Q


def projected_primal_update(
    geom: PathGeometry,
    S: PrimalState,
    gx: np.ndarray,
    gq: np.ndarray,
    eta_x: float,
    eta_q: float,
    pin_delivery: bool = False,
) -> PrimalState:
    """Gradient step with per-block steps, then exact row-wise projection.

    Gradient entries of source-pinned x variables are zeroed before the
    step; the projection re-pins them at 1 regardless.
    """
    s = geom.scenario
    pins = s.source_mask()
    gx = gx.copy()
    gx[pins] = 0.0
    X = project_cache_matrix(S.X - eta_x * gx, s.capacities, pins)
    if pin_delivery:
        Q = S.Q
    else:
        Q = project_delivery_matrix(S.Q - eta_q * gq)
    return PrimalState(X, Q)


def primal_step(geom: PathGeometry, S: PrimalState, mu: np.ndarray,
                cfg: SolverConfig) -> PrimalState:
    """One descent step on both primal blocks with step eta_s."""
    gx = grad_x(geom, S, mu)
    gq = grad_q(geom, S, mu) if not cfg.pin_delivery else np.zeros_like(S.Q)
    return projected_primal_update(geom, S, gx, gq, cfg.eta_s, cfg.eta_s,
                                   cfg.pin_delivery)


def dual_step(geom: PathGeometry, S_next: PrimalState, mu: np.ndarray, n: int,
              cfg: SolverConfig) -> np.ndarray:
    """Perturbed ascent: ((1 - gamma(n) eta_mu) mu + eta_mu grad_mu)^+,
    with the mu-gradient evaluated at the fresh primal iterate.

    The shrinkage factor (1 - gamma(n) eta_mu) is the ascent step on the
    regularized dual objective L - (gamma/2) ||mu||^2; the regularization
    decays as gamma(n) -> 0 and keeps the multipliers bounded while the
    violations persist."""
    if n < 1:
        raise ValueError("iteration counter starts at 1")
    gamma = 1.0 / (cfg.eta_mu * n ** 0.25)
    raw = (1.0 - gamma * cfg.eta_mu) * mu + cfg.eta_mu * grad_mu(geom, S_next)
    return clamp_dual(raw)


def round_caching(s: Scenario, X: np.ndarray) -> np.ndarray:
    """Per node: pin sources, then cache the capacity-many non-source
    contents with largest fractional value (ties to smaller content id)."""
    pins = s.source_mask()
    out = np.zeros_like(X)
    out[pins] = 1.0
    F = s.num_contents
    ids = np.arange(F)
    for v in range(s.num_nodes):
        free = np.nonzero(~pins[v])[0]
        if free.size == 0:
            continue
        take = min(int(s.capacities[v]), free.size)
        if take <= 0:
            continue
        order = sorted(free, key=lambda f: (-X[v, f], ids[f]))
        out[v, order[:take]] = 1.0
    return out


def round_delivery(geom: PathGeometry, X_int: np.ndarray,
                   Q: np.ndarray) -> np.ndarray:
    """Per request: among contents available on the path under the rounded
    caching, pick the largest fractional delivery value (ties to smaller
    content id); the requested content is always a feasible fallback."""
    avail = geom.availability_products(X_int) <= 0.0
    best = np.argmax(np.where(avail, Q, -np.inf), axis=1)
    choice = np.where(avail.any(axis=1), best, geom.req_content)
    out = np.zeros_like(Q)
    out[np.arange(Q.shape[0]), choice] = 1.0
    return out


@dataclass
class SolveResult:
    fractional: PrimalState
    dual: np.ndarray
    rounded: IntegerSolution
    trace: SolveTrace


def evaluate_integer(geom: PathGeometry, X_int: np.ndarray,
                     Q_int: np.ndarray) -> IntegerSolution:
    S = PrimalState(X_int, Q_int)
    return IntegerSolution(
        X=X_int,
        Q=Q_int,
        objective=geom.objective(S),
        expected_delay=geom.expected_delay(S),
        dissimilarity_cost=geom.dissimilarity_cost(S),
    )


def solve_offline(s: Scenario, cfg: SolverConfig | None = None) -> SolveResult:
    """Iterate primal/dual steps until |L(n+1) - L(n)| <= delta or the
    iteration budget runs out, then round greedily."""
    cfg = cfg or SolverConfig()
    geom = PathGeometry(s)
    S = initial_state(s, cfg)
    mu = np.zeros((s.num_requests, s.num_contents))
    trace = SolveTrace()
    L_prev = geom.lagrangian(S, mu)
    stop_reason = "max_iters"
    n = 0
    for n in range(1, cfg.max_iters + 1):
        S = primal_step(geom, S, mu, cfg)
        mu = dual_step(geom, S, mu, n, cfg)
        ed, dc = geom.expected_delay(S), geom.dissimilarity_cost(S)
        h = geom.violations(S.X, S.Q)
        obj = ed + s.alpha * dc
        L = obj + float(np.dot(geom.rates, np.sum(mu * h, axis=1)))
        trace.rows.append((
            n, L, obj, ed, dc,
            float(h.max()) if h.size else 0.0, float(np.linalg.norm(mu)),
        ))
        if abs(L - L_prev) <= cfg.delta:
            stop_reason = "converged"
            break
        L_prev = L
    trace.stop_reason = stop_reason
    trace.iterations = n
    X_int = round_caching(s, S.X)
    Q_int = round_delivery(geom, X_int, S.Q)
    rounded = evaluate_integer(geom, X_int, Q_int)
    return SolveResult(fractional=S, dual=mu, rounded=rounded, trace=trace)

