"""Delay, delivery cost, objective, availability constraint, Lagrangian.

`PathGeometry` is a suffix trie of the request paths: trie node u is one
distinct path suffix, shared by every request path that ends in it.  With
y = 1 - x at u's network node and tau(u) the hop delay to u's parent (0
at a terminal), the delay T and the availability A are recursions from
the terminals, T(u) = y * (tau(u) + T(parent)) and A(u) = y * A(parent),
with T = 0 and A = 1 past a terminal.  `PathGeometry.evaluate(X)` gathers
y once per trie node, runs both in one loop over the trie levels and
returns the `PathTerms` of iterate X: T and A at each request's start
node, the per-delivery costs T + alpha * d, and each node's bracket
W(u) = [tau(u) + T(parent) | A(parent)], from which the gradients take
dL/dx.  Every cost quantity is defined on `PathTerms`; the tests check
them against per-term oracles.  Every rate-weighted total is one row of
one reduction, `PathTerms.totals`, so a caller that needs several pays
for one multiply by the rates and one sum, and reads only the totals it
asks for.

A `PathTerms` is five arrays that it owns, and the caller of `evaluate`
owns the terms.  `evaluate(X, out=terms)`, like numpy's ``out=``,
overwrites all five, the costs along with the delays, in place with those
of X and changes no other terms, so a solver loop refills one set per
iterate; the level loop's [T | A] is temporary.  The terms take their
shape from the geometry, so an X of another width is an error.

The geometry's flat `np.bincount` indexes, the pushes', the node scatter's
and the start rows', are int32 when their bound max(N, V) * 2F fits it,
intp otherwise: int32 at every size the tests and the benchmark run, half
the bytes of intp.  `np.bincount` casts its index to intp on each call and
adds the weights in the same order whatever the index type, so no sum
moves a bit; the cast is a transient the size of one call's index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import Scenario, edge_key


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
    starts at trie node ``start[r]``.

    The numbering is that of the suffixes sorted by (length, reversed suffix).
    Within one length that order is the order of (parent number, node), so
    each level is one ``np.unique`` over ``parent * V + node`` for the paths
    that reach it, the parent numbered within its level: the sorted keys are
    the level's trie nodes and the inverse is each path's node there.  tau is
    read from the edge map ``Network.delays``: a missing hop raises its KeyError.
    The flat ``bincount`` indexes are int32 where every entry fits, else intp;
    ``bincount`` casts either to intp, so the sums are the same bits."""

    def __init__(self, s: Scenario):
        self.scenario = s
        F, V = s.num_contents, s.num_nodes
        paths = [r.path.nodes for r in s.requests]
        lengths = np.array([len(p) for p in paths], dtype=np.intp)
        if not lengths.all():  # an EmptyPath violation
            raise ValueError(f"request {int(lengths.argmin())} path is empty")
        flat = np.fromiter(chain.from_iterable(paths), np.intp, int(lengths.sum()))
        order = np.argsort(-lengths, kind="stable")  # so the paths reaching a level are a prefix
        last = (lengths.cumsum() - 1)[order]  # each path's terminal node in flat, in that order
        # the number of paths that reach each level, then 0
        reach = np.append(np.bincount(lengths)[::-1].cumsum()[::-1][1:], 0)
        # per level: network nodes and parents numbered within the level before
        node, local, bounds = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [0]
        self.start = np.zeros(len(paths), dtype=np.intp)
        up = np.zeros(reach[0], dtype=np.intp)  # each path's trie node a level up, within it
        for depth, n in enumerate(reach[:-1]):
            keys, up = np.unique(up[:n] * V + flat[last[:n] - depth], return_inverse=True)
            node.append(keys % V)
            local.append(keys // V)
            self.start[order[reach[depth + 1]:n]] = bounds[-1] + up[reach[depth + 1]:n]
            bounds.append(bounds[-1] + keys.size)
        N, terminals = bounds[-1], bounds[min(1, len(bounds) - 1)]
        self.node, local = np.concatenate(node), np.concatenate(local)
        # a level's parents are numbered from the first of the level before; N at the terminals
        self.parent = local + np.repeat(np.array([N, *bounds[:-2]], np.intp)[:len(bounds) - 1],
                                        np.diff(bounds))
        u, v = self.node[terminals:].tolist(), self.node[self.parent[terminals:]].tolist()
        self.tau = np.array([0.0] * terminals + [s.network.delays[k] for k in map(edge_key, u, v)])
        self.node_rows = self.node.repeat(2)
        # (first, end, parents, [tau | 0] as (n, 2, 1)) of each level, terminals first
        tau = np.stack([self.tau, np.zeros(N)], axis=1)[:, :, None]
        self.levels = [(a, b, self.parent[a:b], tau[a:b]) for a, b in zip(bounds, bounds[1:])]
        # every flat index below is under max(N, V) * 2F: int32 where that fits
        itype = np.int32 if max(N, V) * 2 * F <= np.iinfo(np.int32).max else np.intp
        lane = np.arange(2 * F, dtype=itype)  # the entries of one trie node's row [T | A]
        # levels below the terminals, deepest first: flat first, end, parents' first; index
        rows = local[terminals:, None].astype(itype) * (2 * F) + lane  # one block for every level
        self.pushes = [(2 * F * a, 2 * F * b, 2 * F * pa,
                        rows[a - terminals:b - terminals].ravel())
                       for pa, a, b in zip(bounds, bounds[1:], bounds[2:])][::-1]
        # flat index of (trie node, content) into (V, F), of start rows into (N, 2, F)
        self.node_content_index = (self.node[:, None].astype(itype) * F + lane[:F]).ravel()
        self.start_index = (self.start[:, None].astype(itype) * (2 * F) + lane).ravel()
        self.rates = s.rates()
        self.req_content = np.array([r.content for r in s.requests], dtype=int)
        # dissimilarity row of each request's content, and alpha times it: (R, F)
        self.d_rows = s.dissimilarity[self.req_content, :].copy()
        self.alpha_d = s.alpha * self.d_rows

    def evaluate(self, X: np.ndarray, out: PathTerms | None = None) -> PathTerms:
        """The path terms of caching iterate X; the only gather of (1 - x).
        ``out``, terms of this geometry that the caller no longer reads, is
        overwritten in place and returned; without it, new terms are filled."""
        (R, F), N = self.d_rows.shape, self.node.size
        if out is None:
            out = PathTerms(self, *np.empty((2, N, 2, F)), *np.empty((3, R, F)))
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
        np.add(out.delays, self.alpha_d, out=out.costs)
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
    gradient evaluated at X; the delivery Q and multipliers mu are passed in.
    ``PathGeometry.evaluate`` fills every array, the costs after the delays.
    Every rate-weighted total comes from ``totals``, as a numpy pairwise
    sum, so no BLAS kernel sets its bits."""

    geom: PathGeometry
    Y: np.ndarray  # (N, 2, F) 1 - x at each trie node, in both blocks
    W: np.ndarray  # (N, 2, F) brackets [tau(u) + T(parent) | A(parent)]
    delays: np.ndarray  # (R, F) delivery delays t_{(f,p),f'}(X)
    avail: np.ndarray  # (R, F) products over the whole path of (1 - x)
    costs: np.ndarray  # (R, F) per-delivery costs t + alpha * d, refilled with the delays

    def violations(self, Q: np.ndarray) -> np.ndarray:
        """(R, F) matrix of h_{(f,p),f'}(X, Q)."""
        return Q * self.avail

    def totals(self, *pairs) -> list:
        """sum over requests r of rate_r * sum over f of a[r, f] * b[r, f],
        for each (R, F) pair (a, b).  Each pair's row sums fill one row of a
        (pairs, R) buffer; one multiply by the rates and one reduction of
        the rows give every total, each the pairwise sum that ``.sum()``
        takes of that row alone."""
        rows = np.empty((len(pairs), self.geom.rates.size))
        product = np.empty_like(self.costs)
        for (a, b), row in zip(pairs, rows):
            np.add.reduce(np.multiply(a, b, out=product), axis=1, out=row)
        rows *= self.geom.rates
        return np.add.reduce(rows, axis=1).tolist()

    def lagrangian(self, Q: np.ndarray, mu: np.ndarray) -> float:
        """The objective, rate-weighted <Q, costs>, plus rate-weighted <mu, h>."""
        objective, dual = self.totals((Q, self.costs), (mu, self.violations(Q)))
        return objective + dual
