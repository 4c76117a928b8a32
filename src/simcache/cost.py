"""Delay, delivery cost, objective, availability constraint, Lagrangian.

`PathGeometry` is a suffix trie of the request paths: trie node u is one
distinct path suffix, shared by every request path that ends in it.  With
y = 1 - x at u's network node and tau(u) the hop delay to u's parent (0
at a terminal), the delay T and the availability A are recursions from
the terminals, T(u) = y * (tau(u) + T(parent)) and A(u) = y * A(parent),
with T = 0 and A = 1 past a terminal.  `PathGeometry.evaluate(X)` gathers
y once per trie node, runs both in one loop over the trie levels and
returns the `PathTerms` of iterate X: T and A at each request's start
node, and each node's bracket W(u) = [tau(u) + T(parent) | A(parent)],
from which the gradients take dL/dx.  Every cost quantity is defined on
`PathTerms`; the tests check them against per-term oracles.

A `PathTerms` owns its arrays, and the caller of `evaluate` owns the
terms.  `evaluate(X, out=terms)`, like numpy's ``out=``, overwrites
``terms`` in place with those of X and changes no other terms, so a solver
loop refills one set per iterate; the level loop's [T | A] is temporary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Scenario


@dataclass
class PrimalState:
    """Relaxed decision variables: caching X (|V|x|F|), delivery Q (|R|x|F|)."""

    X: np.ndarray
    Q: np.ndarray


class PathGeometry:
    """Suffix trie of the request paths: trie node u holds ``node[u]``,
    ``tau[u]`` and ``parent[u]`` (the sentinel N at a terminal).  Nodes are
    numbered level by level from the terminals, siblings contiguous, so
    each level is a slice whose parents lie in the level before; request r
    starts at trie node ``start[r]``."""

    def __init__(self, s: Scenario):
        self.scenario = s
        F = s.num_contents
        lane = np.arange(2 * F)  # the entries of one trie node's row [T | A]
        # by length, then reversed: each level after its parents', siblings together
        suffixes = sorted({p[j:] for p in (r.path.nodes for r in s.requests)
                           for j in range(len(p))}, key=lambda t: (len(t), t[::-1]))
        index = {t: u for u, t in enumerate(suffixes)}
        index[()] = N = len(suffixes)
        self.node = np.array([t[0] for t in suffixes], dtype=np.intp)
        self.parent = np.array([index[t[1:]] for t in suffixes], dtype=np.intp)
        self.tau = np.array([s.network.delay(*t[:2]) if len(t) > 1 else 0.0 for t in suffixes])
        self.start = np.array([index[r.path.nodes] for r in s.requests], dtype=np.intp)
        self.node_rows = self.node.repeat(2)
        bounds = [0, *np.cumsum(np.bincount(np.array([len(t) for t in suffixes], dtype=int))[1:])]
        # (first, end, parents, [tau | 0] as (n, 2, 1)) of each level, terminals first
        tau = np.stack([self.tau, np.zeros(N)], axis=1)[:, :, None]
        self.levels = [(a, b, self.parent[a:b], tau[a:b]) for a, b in zip(bounds, bounds[1:])]
        # levels below the terminals, deepest first: flat slices of it and its parents, index
        self.pushes = [(2 * F * a, 2 * F * b, 2 * F * pa, 2 * F * pb,
                        ((self.parent[a:b] - pa)[:, None] * 2 * F + lane).ravel())
                       for (pa, pb, *_), (a, b, *_) in zip(self.levels, self.levels[1:])][::-1]
        # flat index of (trie node, content) into (V, F), of start rows into (N, 2, F)
        self.node_content_index = (self.node[:, None] * F + lane[:F]).ravel()
        self.start_index = (self.start[:, None] * 2 * F + lane).ravel()
        self.rates = s.rates()
        self.req_content = np.array([r.content for r in s.requests], dtype=int)
        # dissimilarity row of each request's content: (R, F)
        self.d_rows = s.dissimilarity[self.req_content, :].copy()

    def evaluate(self, X: np.ndarray, out: PathTerms | None = None) -> PathTerms:
        """The path terms of caching iterate X; the only gather of (1 - x).
        ``out``, terms of this geometry that the caller no longer reads, is
        overwritten in place and returned; without it, new terms are filled."""
        N, R, F = self.node.size, self.start.size, X.shape[1]
        if out is None:
            out = PathTerms(self, np.empty((N, 2, F)), np.empty((N, 2, F)),
                            np.empty((R, F)), np.empty((R, F)))
        out.__dict__.pop("costs", None)  # formed afresh at the new X
        Y, W = out.Y, out.W
        X.take(self.node_rows, 0, Y.reshape(2 * N, F), 'clip')  # 1 - x, once for each block
        np.subtract(1.0, Y, out=Y)
        Z = np.empty((N + 1, 2, F))  # [T | A], then the sentinel row [0 | 1]
        Z[N, 0], Z[N, 1] = 0.0, 1.0
        for a, b, parents, tau in self.levels:
            w = W[a:b]
            Z.take(parents, 0, w, 'clip')  # parents are in range; 'clip' skips a buffer
            np.add(w, tau, out=w)
            np.multiply(w, Y[a:b], out=Z[a:b])
        Z[:, 0].take(self.start, 0, out.delays, 'clip')
        Z[:, 1].take(self.start, 0, out.avail, 'clip')
        return out

    def delays(self, X: np.ndarray) -> np.ndarray:
        """(R, F) matrix of delivery delays t_{(f,p),f'}(X)."""
        return self.evaluate(X).delays

    def availability_products(self, X: np.ndarray) -> np.ndarray:
        """(R, F) products over path positions of (1 - x)."""
        return self.evaluate(X).avail

    def lagrangian(self, S: PrimalState, mu: np.ndarray) -> float:
        return self.evaluate(S.X).lagrangian(S.Q, mu)


@dataclass
class PathTerms:
    """Path quantities of one caching iterate X, shared by every cost and
    gradient evaluated at X; the delivery Q and multipliers mu are passed in."""

    geom: PathGeometry
    Y: np.ndarray  # (N, 2, F) 1 - x at each trie node, in both blocks
    W: np.ndarray  # (N, 2, F) brackets [tau(u) + T(parent) | A(parent)]
    delays: np.ndarray  # (R, F) delivery delays t_{(f,p),f'}(X)
    avail: np.ndarray  # (R, F) products over the whole path of (1 - x)

    @cached_property
    def costs(self) -> np.ndarray:
        """(R, F) per-delivery costs t + alpha * d, formed on first use."""
        return self.delays + self.geom.scenario.alpha * self.geom.d_rows

    def violations(self, Q: np.ndarray) -> np.ndarray:
        """(R, F) matrix of h_{(f,p),f'}(X, Q)."""
        return Q * self.avail

    def objective(self, Q: np.ndarray) -> float:
        return float(np.dot(self.geom.rates, (Q * self.costs).sum(axis=1)))

    def expected_delay(self, Q: np.ndarray) -> float:
        return float(np.dot(self.geom.rates, (Q * self.delays).sum(axis=1)))

    def dissimilarity_cost(self, Q: np.ndarray) -> float:
        """Rate-weighted dissimilarity component (unweighted by alpha)."""
        return float(np.dot(self.geom.rates, (Q * self.geom.d_rows).sum(axis=1)))

    def lagrangian(self, Q: np.ndarray, mu: np.ndarray, objective=None, h=None) -> float:
        """objective(Q) + rate-weighted <mu, h>; pass Q's objective and h if already formed."""
        h = self.violations(Q) if h is None else h
        objective = self.objective(Q) if objective is None else objective
        return objective + float(np.dot(self.geom.rates, (mu * h).sum(axis=1)))
