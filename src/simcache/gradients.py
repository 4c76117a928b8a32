"""Analytic Lagrangian gradients and a finite-difference oracle.

Every gradient reads the `PathTerms` of the current caching iterate,
which hold (1 - x) along each path and its prefix products, so none of
them gathers or multiplies along the paths again.  The x-derivatives need
leave-one-out path products; those are built from the prefix products, a
suffix cumulative product and a backward recurrence, so no entry is ever
divided by (1 - x), which would be unstable as x approaches 1.

Each gradient is a sum over requests of a per-request term times that
request's weight.  The weights default to the arrival rates, which gives
the analytic gradient; the online scheme passes observed count / slot
length instead, which gives its stochastic estimate.
"""

from __future__ import annotations

import numpy as np

from .cost import PathGeometry, PathTerms, PrimalState
from .model import Scenario


def x_position_contributions(terms: PathTerms, Q: np.ndarray,
                             mu: np.ndarray) -> np.ndarray:
    """(R, P, F) x-derivative brackets per path position, weight factored out.

    Entry (r, j, f') is the contribution of request r to dL/dx at node
    p_{j+1} of its path (zero at padded positions), excluding the request's
    weight.  Summing weighted entries into their node rows yields the
    gradient.
    """
    geom, Y, CP = terms.geom, terms.Y, terms.CP
    R, P, F = Y.shape
    pref_prev = np.ones_like(CP)
    pref_prev[:, 1:, :] = CP[:, :-1, :]

    # G[j] = sum_{hops k >= j} tau_k * prod_{j < j' <= k} (1 - x_{p_j'}),
    # via G[j] = tau_j + (1 - x_{p_{j+1}}) * G[j+1]; padded taus are 0 so
    # the recurrence self-terminates for short paths.
    G = np.zeros((R, P, F))
    if P >= 2:
        G[:, P - 2, :] = geom.taus[:, P - 2, None]
        for j in range(P - 3, -1, -1):
            G[:, j, :] = geom.taus[:, j, None] + Y[:, j + 1, :] * G[:, j + 1, :]
    delay_part = Q[:, None, :] * pref_prev
    delay_part *= G
    del G

    # leave-one-out availability products over the path positions: prefix
    # times suffix products, formed in pref_prev's buffer (the last
    # position has no suffix); the availability part and the sum are formed
    # in place too, so that no further (R, P, F) array is allocated
    SP = np.cumprod(Y[:, ::-1, :], axis=1)[:, ::-1, :]
    loo = pref_prev
    loo[:, :-1, :] *= SP[:, 1:, :]
    loo[~geom.mask, :] = 0.0
    loo *= (mu * Q)[:, None, :]
    delay_part += loo
    return np.negative(delay_part, out=delay_part)


def grad_x(terms: PathTerms, Q: np.ndarray, mu: np.ndarray,
           weights: np.ndarray | None = None) -> np.ndarray:
    """|V| x |F| matrix of dL/dx_{v,f'}; ``weights`` default to the rates."""
    geom = terms.geom
    w = geom.rates if weights is None else weights
    contrib = x_position_contributions(terms, Q, mu)
    weighted = w[:, None, None] * contrib
    V, F = geom.scenario.num_nodes, geom.scenario.num_contents
    gX = np.bincount(geom.node_content_index, weights=weighted.ravel(),
                     minlength=V * F)
    return gX.reshape(V, F)


def grad_q(terms: PathTerms, Q: np.ndarray, mu: np.ndarray,
           weights: np.ndarray | None = None) -> np.ndarray:
    """|R| x |F| matrix of dL/dq_{(f,p),f'}: weight * (t + alpha*d + mu*prod(1 - x))."""
    w = terms.geom.rates if weights is None else weights
    return w[:, None] * (terms.costs() + mu * terms.avail)


def grad_mu(terms: PathTerms, Q: np.ndarray,
            weights: np.ndarray | None = None) -> np.ndarray:
    """|R| x |F| matrix of dL/dmu: the weighted violations q * prod(1 - x)."""
    w = terms.geom.rates if weights is None else weights
    return w[:, None] * terms.violations(Q)


def fd_gradient(
    s: Scenario,
    S: PrimalState,
    mu: np.ndarray,
    which: str,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient block of the Lagrangian.

    Perturbed coordinates are clamped to their feasible interval ([0,1]
    for x and q, [0, inf) for mu) and the divisor uses the realized
    coordinate spread, so boundary states stay correct.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    blocks = {"x": S.X, "q": S.Q, "mu": mu}
    if which not in blocks:
        raise ValueError(f"unknown block {which!r}")
    geom = PathGeometry(s)
    hi = np.inf if which == "mu" else 1.0
    base = blocks[which]
    work = blocks[which] = base.copy()
    out = np.zeros_like(base)

    def evaluate() -> float:
        return geom.lagrangian(PrimalState(blocks["x"], blocks["q"]), blocks["mu"])

    it = np.nditer(base, flags=["multi_index"])
    for val in it:
        idx = it.multi_index
        v = float(val)
        up = min(v + step, hi)
        dn = max(v - step, 0.0)
        work[idx] = up
        f_up = evaluate()
        work[idx] = dn
        f_dn = evaluate()
        work[idx] = v
        out[idx] = (f_up - f_dn) / (up - dn)
    return out
