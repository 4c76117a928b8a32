"""Analytic Lagrangian gradients and a finite-difference oracle.

Every gradient reads the `PathTerms` of the current caching iterate,
which hold (1 - x) along each path and its prefix products, so none of
them gathers or multiplies along the paths again.  The x-derivative at a
path position is q times the prefix product before it times one bracket,
the downstream delay plus mu times the downstream availability product;
a single backward recurrence along the path builds that bracket, so no
entry is ever divided by (1 - x), which would be unstable as x
approaches 1.

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
    """(R, P, F) contributions to dL/dx per path position of each request.

    ``Q`` is the weighted delivery, each request's row of q scaled by its
    weight.  Entry (r, j, f') is request r's contribution to dL/dx at node
    p_{j+1} of its path, zero at padded positions; summing the entries
    into their node rows yields the gradient.
    """
    geom, Y, CP = terms.geom, terms.Y, terms.CP
    P = Y.shape[1]
    # H[j] = sum_{hops k >= j} tau_k * prod_{j < j' <= k} (1 - x_{p_j'})
    #        + mu * prod_{j' > j} (1 - x_{p_j'}),
    # the delay and availability brackets of position j; padded taus are 0
    # and padded (1 - x) is 1, so H is mu past the end of a short path
    H = np.empty_like(Y)
    H[:, P - 1, :] = mu
    for j in range(P - 2, -1, -1):
        H[:, j, :] = geom.taus[:, j, None] + Y[:, j + 1, :] * H[:, j + 1, :]
    H[:, 1:, :] *= CP[:, :-1, :]
    H *= -Q[:, None, :]
    H[~geom.mask, :] = 0.0
    return H


def grad_x(terms: PathTerms, Q: np.ndarray, mu: np.ndarray,
           weights: np.ndarray | None = None) -> np.ndarray:
    """|V| x |F| matrix of dL/dx_{v,f'}; ``weights`` default to the rates."""
    geom = terms.geom
    w = geom.rates if weights is None else weights
    contrib = x_position_contributions(terms, w[:, None] * Q, mu)
    V, F = geom.scenario.num_nodes, geom.scenario.num_contents
    gX = np.bincount(geom.node_content_index, weights=contrib.ravel(),
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
