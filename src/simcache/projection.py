"""Euclidean projections for the primal feasible set and the dual clamp.

The feasible set factorizes over cache rows (box + capacity budget,
pinned source entries fixed at 1) and delivery rows (probability
simplex), so the joint projection is exact row-wise projection.
"""

from __future__ import annotations

import numpy as np

BISECT_TOL = 1e-10
BISECT_MAX_ITERS = 200


def project_cache_row(x: np.ndarray, capacity: int, pinned=()) -> np.ndarray:
    """Project onto {y in [0,1]^F : sum of non-pinned y <= capacity}, with
    pinned coordinates set to exactly 1 (one row of project_cache_matrix)."""
    x = np.asarray(x, dtype=float)
    pins = np.zeros((1, x.shape[0]), dtype=bool)
    pins[0, list(pinned)] = True
    return project_cache_matrix(x[None, :], np.array([capacity]), pins)[0]


def project_delivery_row(q: np.ndarray) -> np.ndarray:
    """Project onto the probability simplex {y >= 0, sum y = 1}
    (one row of project_delivery_matrix)."""
    return project_delivery_matrix(np.asarray(q, dtype=float)[None, :])[0]


def clamp_dual(mu: np.ndarray) -> np.ndarray:
    """Elementwise (x)^+ = max(0, x)."""
    return np.maximum(mu, 0.0)


def project_cache_matrix(X: np.ndarray, capacities: np.ndarray,
                         source_mask: np.ndarray) -> np.ndarray:
    """Row-wise cache projection over all nodes, vectorized.

    Per row: clipping to [0,1] is the projection unless the clipped budget
    of the non-pinned entries is exceeded; then a uniform shift theta with
    re-clipping is found by bisection (the KKT form of the capped-simplex
    projection), simultaneously on every over-capacity row.  Pinned
    entries are set to exactly 1.
    """
    out = np.clip(X, 0.0, 1.0)
    out[source_mask] = 1.0
    free = ~source_mask
    free_sum = np.where(free, out, 0.0).sum(axis=1)
    caps = capacities.astype(float)
    over = free_sum > caps
    if not np.any(over):
        return out

    Xo, fo = X[over], free[over]

    def shifted(theta):
        """Free entries shifted down by theta and clipped; pinned read 0."""
        return np.where(fo, np.clip(Xo - theta[:, None], 0.0, 1.0), 0.0)

    lo = np.zeros(Xo.shape[0])
    hi = np.where(fo, Xo, 0.0).max(axis=1)
    target = caps[over]
    for _ in range(BISECT_MAX_ITERS):
        if (hi - lo).max() <= BISECT_TOL:
            break
        theta = 0.5 * (lo + hi)
        too_big = shifted(theta).sum(axis=1) > target
        lo = np.where(too_big, theta, lo)
        hi = np.where(too_big, hi, theta)
    out[over] = np.where(fo, shifted(0.5 * (lo + hi)), 1.0)
    return out


def project_delivery_matrix(Q: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection over all requests, vectorized
    (sort-and-threshold)."""
    u = np.sort(Q, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    j = np.arange(1, Q.shape[1] + 1)[None, :]
    cond = u - css / j > 0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(Q.shape[0]), rho] / (rho + 1.0)
    return np.maximum(Q - theta[:, None], 0.0)
