"""Euclidean projections for the primal feasible set.

The feasible set factorizes over cache rows (box + capacity budget,
pinned source entries fixed at 1) and delivery rows (probability
simplex), so the joint projection is exact row-wise projection.  Both
row projections are exact and sort-based, with no iteration or
tolerance: a cache row is shifted by the root of a piecewise-linear
budget function found from its sorted breakpoints (Wang and Lu,
"Projection onto the Capped Simplex", arXiv:1503.01002), and a delivery
row by the sort-and-threshold rule for the simplex.

Both run thousands of times per solve on small matrices, where numpy's
per-call overhead outweighs the arithmetic, so they are written for few
calls and temporaries: sorted values and the ones at each row's root are
gathered with one flat ``take`` at row offsets, the cache slopes are a
row of signs gathered at the sort order, and in-place ufuncs replace
fresh arrays.  Every sum and cumulative sum is the same, in the same
order, as in the plainer forms that ``tests/oracles.py`` keeps, so the
bytes are the same.
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
    Pinned entries read as -1 throughout, so they add nothing to the
    clipped budget nor to g for theta >= 0, and are set to exactly 1.
    """
    z = np.where(source_mask, -1.0, X)
    out = z.clip(0.0, 1.0)
    over = np.add.reduce(out, axis=1) > capacities
    if over.any():
        zo, target = z[over], capacities[over]
        k, F = zo.shape
        breaks = np.concatenate([zo - 1.0, zo], axis=1)
        order = breaks.argsort(axis=1)
        first = np.arange(0, 2 * F * k, 2 * F)  # flat index of each row's start
        b = breaks.take(order + first[:, None])
        # slope of g right of each breakpoint; at the first one every entry
        # reads 1, so g = F there
        slope = np.array([-1.0] * F + [1.0] * F).take(order)
        np.add.accumulate(slope, axis=1, out=slope)
        g = np.empty_like(b)
        g[:, 0] = 0.0
        drop = g[:, 1:]
        np.subtract(b[:, 1:], b[:, :-1], out=drop)
        np.multiply(drop, slope[:, :-1], out=drop)
        np.add.accumulate(g, axis=1, out=g)
        g += F
        # g is nonincreasing, so its entries >= target are a prefix; the root
        # lies right of the prefix's last breakpoint j.  The slope there is 0
        # only right of the last breakpoint, where g = 0 = target.
        j = np.add.reduce(g >= target[:, None], axis=1)
        j += first - 1  # flat index of each row's j
        # theta = b + (g - target) / max(-slope, 1), written with min(slope, -1)
        s = slope.take(j)
        theta = g.take(j)
        theta -= target
        theta /= np.minimum(s, -1.0, out=s)
        np.subtract(b.take(j), theta, out=theta)
        np.subtract(zo, theta[:, None], out=zo)
        out[over] = zo.clip(0.0, 1.0, out=zo)
    out[source_mask] = 1.0
    return out


def project_delivery_matrix(Q: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection over all requests, vectorized
    (sort-and-threshold)."""
    R, F = Q.shape
    rank = np.arange(1.0, F + 1.0)
    u = np.sort(Q, axis=1)[:, ::-1]
    css = np.add.accumulate(u, axis=1)
    css -= 1.0
    cond = css / rank
    np.subtract(u, cond, out=cond)
    rho = F - 1 - (cond[:, ::-1] > 0).argmax(axis=1)
    theta = css.take(rho + np.arange(0, R * F, F))  # css[r, rho[r]]
    theta /= rank.take(rho)
    out = Q - theta[:, None]
    return np.maximum(out, 0.0, out=out)
