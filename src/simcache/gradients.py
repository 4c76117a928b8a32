"""Analytic Lagrangian gradients and a finite-difference oracle.

The x-derivatives need leave-one-out path products; those are built from
prefix/suffix cumulative products and a backward recurrence, so no entry
is ever divided by (1 - x), which would be unstable as x approaches 1.

Each gradient is a sum over requests of a per-request term times that
request's weight.  The weights default to the arrival rates, which gives
the analytic gradient; the online scheme passes observed count / slot
length instead, which gives its stochastic estimate.
"""

from __future__ import annotations

import numpy as np

from .cost import PathGeometry, PrimalState
from .model import Scenario


def x_position_contributions(
    geom: PathGeometry, X: np.ndarray, Q: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    """(R, P, F) x-derivative brackets per path position, weight factored out.

    Entry (r, j, f') is the contribution of request r to dL/dx at node
    p_{j+1} of its path (zero at padded positions), excluding the request's
    weight.  Summing weighted entries into their node rows yields the
    gradient.
    """
    R, P = geom.nodes.shape
    F = X.shape[1]

    Y = geom.one_minus_x(X)  # padded -> 1
    CP = np.cumprod(Y, axis=1)
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
    delay_part = Q[:, None, :] * pref_prev * G

    # leave-one-out availability products over the path positions
    SP = np.cumprod(Y[:, ::-1, :], axis=1)[:, ::-1, :]
    suff = np.ones_like(SP)
    suff[:, :-1, :] = SP[:, 1:, :]
    loo = pref_prev * suff
    loo[~geom.mask, :] = 0.0
    avail_part = (mu * Q)[:, None, :] * loo

    return -(delay_part + avail_part)


def grad_x(geom: PathGeometry, S: PrimalState, mu: np.ndarray,
           weights: np.ndarray | None = None) -> np.ndarray:
    """|V| x |F| matrix of dL/dx_{v,f'}; ``weights`` default to the rates."""
    w = geom.rates if weights is None else weights
    contrib = x_position_contributions(geom, S.X, S.Q, mu)
    weighted = w[:, None, None] * contrib
    V, F = geom.scenario.num_nodes, geom.scenario.num_contents
    gX = np.zeros((V, F))
    np.add.at(gX, geom.nodes.ravel(), weighted.reshape(-1, F))
    return gX


def grad_q(geom: PathGeometry, S: PrimalState, mu: np.ndarray,
           weights: np.ndarray | None = None) -> np.ndarray:
    """|R| x |F| matrix of dL/dq_{(f,p),f'}: weight * (t + alpha*d + mu*prod(1 - x))."""
    w = geom.rates if weights is None else weights
    bracket = (geom.delays(S.X) + geom.scenario.alpha * geom.d_rows
               + mu * geom.availability_products(S.X))
    return w[:, None] * bracket


def grad_mu(geom: PathGeometry, S: PrimalState,
            weights: np.ndarray | None = None) -> np.ndarray:
    """|R| x |F| matrix of dL/dmu: the weighted violations q * prod(1 - x)."""
    w = geom.rates if weights is None else weights
    return w[:, None] * (S.Q * geom.availability_products(S.X))


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
    geom = PathGeometry(s)

    if which == "x":
        base = S.X
        lo, hi = 0.0, 1.0
    elif which == "q":
        base = S.Q
        lo, hi = 0.0, 1.0
    elif which == "mu":
        base = mu
        lo, hi = 0.0, np.inf
    else:
        raise ValueError(f"unknown block {which!r}")

    out = np.zeros_like(base)
    work = base.copy()

    def evaluate() -> float:
        if which == "x":
            return geom.lagrangian(PrimalState(work, S.Q), mu)
        if which == "q":
            return geom.lagrangian(PrimalState(S.X, work), mu)
        return geom.lagrangian(S, work)

    it = np.nditer(base, flags=["multi_index"])
    for val in it:
        idx = it.multi_index
        v = float(val)
        up = min(v + step, hi)
        dn = max(v - step, lo)
        work[idx] = up
        f_up = evaluate()
        work[idx] = dn
        f_dn = evaluate()
        work[idx] = v
        out[idx] = (f_up - f_dn) / (up - dn)
    return out
