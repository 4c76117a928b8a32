"""Analytic Lagrangian gradients.

Every gradient reads the `PathTerms` of the current caching iterate, so
none of them gathers or multiplies along the paths again.  dL/dx is the
third recurrence on the suffix trie of `cost`: at trie node u it is
-(W_T(u) * B(u) + W_A(u) * C(u)), where B and C sum w * q and w * mu * q
over the requests through u, each times (1 - x) over its path before u.
Both are seeded at the start nodes and pushed level by level toward the
terminals, times (1 - x) at each step, so nothing is divided by (1 - x),
which would be unstable as x approaches 1.

Each gradient is a sum over requests of a per-request term times that
request's weight.  The weights default to the arrival rates, which gives
the analytic gradient; the online scheme passes observed count / slot
length instead, which gives its stochastic estimate.
"""

from __future__ import annotations

import numpy as np

from .cost import PathTerms


def x_position_contributions(terms: PathTerms, Q: np.ndarray,
                             mu: np.ndarray) -> np.ndarray:
    """(N, F) contributions to dL/dx of each trie node.

    ``Q`` is the weighted delivery, each request's row of q scaled by its
    weight.  Row u is the contribution of every request through trie node
    u to dL/dx at u's network node; summing the rows into their node rows
    yields the gradient.
    """
    geom, Y = terms.geom, terms.Y.ravel()
    N, _, F = terms.Y.shape
    seed = np.empty((Q.shape[0], 2, F))  # [-B | -C] in W's layout: -q | -mu * q
    np.multiply(mu, np.negative(Q, out=seed[:, 0]), out=seed[:, 1])
    BC = np.bincount(geom.start_index, weights=seed.ravel(),
                     minlength=N * 2 * F).astype(float, copy=False)  # ints if no requests
    del seed  # not live at the peak below
    for a, b, pa, pb, index in geom.pushes:
        BC[pa:pb] += np.bincount(index, weights=BC[a:b] * Y[a:b], minlength=pb - pa)
    BC = BC.reshape(N, 2, F)
    BC *= terms.W
    return BC[:, 0] + BC[:, 1]


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


def grad_q(terms: PathTerms, mu: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """|R| x |F| matrix of dL/dq_{(f,p),f'}: weight * (t + alpha*d + mu*prod(1 - x))."""
    w = terms.geom.rates if weights is None else weights
    return w[:, None] * (terms.costs + mu * terms.avail)


def grad_mu(terms: PathTerms, h: np.ndarray,
            weights: np.ndarray | None = None) -> np.ndarray:
    """|R| x |F| matrix of dL/dmu: the weighted violations ``h`` =
    q * prod(1 - x), as ``terms.violations(Q)`` forms them."""
    w = terms.geom.rates if weights is None else weights
    return w[:, None] * h
