"""Euclidean projections for the primal feasible set.

The feasible set factorizes over cache rows (box + capacity budget,
pinned source entries fixed at 1) and delivery rows (probability
simplex), so the joint projection is exact row-wise projection.  Both
row projections are exact and sort-based, with no iteration or
tolerance: a cache row is shifted by the root of a piecewise-linear
budget function found from its sorted breakpoints (Wang and Lu,
"Projection onto the Capped Simplex", arXiv:1503.01002), and a delivery
row by the sort-and-threshold rule for the simplex.
"""

from __future__ import annotations

import numpy as np


def project_cache_matrix(X: np.ndarray, capacities: np.ndarray,
                         source_mask: np.ndarray) -> np.ndarray:
    """Row-wise cache projection over all nodes, vectorized and exact.

    Per row: clipping to [0,1] is the projection unless the clipped budget
    of the non-pinned entries is exceeded; then the projection is
    clip(x - theta, 0, 1) on the free entries, where theta solves
    g(theta) = capacity for g(theta) = sum over free entries of
    clip(x - theta, 0, 1) (the KKT form of the capped-simplex projection).
    g is piecewise linear and nonincreasing, with breakpoints at x - 1
    (slope falls by 1) and at x (slope rises by 1).  One sort of the
    breakpoints of all over-capacity rows gives the slope of every
    segment by a cumulative sum, a second cumulative sum gives g at every
    breakpoint, and theta is solved in closed form on the last segment
    whose left end still has g >= capacity (Wang and Lu, arXiv:1503.01002).
    Pinned entries read as -1 there, so they add nothing for theta >= 0,
    and are set to exactly 1.
    """
    out = X.clip(0.0, 1.0)
    out[source_mask] = 1.0
    free = ~source_mask
    free_sum = np.where(free, out, 0.0).sum(axis=1)
    caps = capacities.astype(float)
    over = free_sum > caps
    if not over.any():
        return out

    Xo, fo, target = X[over], free[over], caps[over]
    F = X.shape[1]
    z = np.where(fo, Xo, -1.0)
    breaks = np.concatenate([z - 1.0, z], axis=1)
    order = breaks.argsort(axis=1)
    rows = np.arange(len(breaks))
    b = breaks[rows[:, None], order]
    # slope of g right of each breakpoint; at the first one every entry
    # reads 1, so g = F there
    slope = np.where(order < F, -1.0, 1.0).cumsum(axis=1)
    drop = slope[:, :-1] * (b[:, 1:] - b[:, :-1])
    g = F + np.concatenate([np.zeros((len(b), 1)), drop], axis=1).cumsum(axis=1)
    # g is nonincreasing, so its entries >= target are a prefix; the root
    # lies right of the prefix's last breakpoint j.  The slope there is 0
    # only right of the last breakpoint, where g = 0 = target.
    j = (g >= target[:, None]).sum(axis=1) - 1
    theta = b[rows, j] + (g[rows, j] - target) / np.maximum(-slope[rows, j], 1.0)
    out[over] = np.where(fo, (Xo - theta[:, None]).clip(0.0, 1.0), 1.0)
    return out


def project_delivery_matrix(Q: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection over all requests, vectorized
    (sort-and-threshold)."""
    u = np.sort(Q, axis=1)[:, ::-1]
    css = u.cumsum(axis=1) - 1.0
    j = np.arange(1, Q.shape[1] + 1)[None, :]
    cond = u - css / j > 0
    rho = cond.shape[1] - 1 - cond[:, ::-1].argmax(axis=1)
    theta = css[np.arange(Q.shape[0]), rho] / (rho + 1.0)
    return np.maximum(Q - theta[:, None], 0.0)
