"""Delay, delivery cost, objective, availability constraint, Lagrangian.

`PathGeometry.evaluate(X)` gathers (1 - x) along every padded request
path once and returns the `PathTerms` of caching iterate X, on which every
cost quantity of all (request, content) pairs is defined; the gradients
read the same terms.  The tests check them against per-term oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Scenario


@dataclass
class PrimalState:
    """Relaxed decision variables: caching X (|V|x|F|), delivery Q (|R|x|F|)."""

    X: np.ndarray
    Q: np.ndarray


class PathGeometry:
    """Padded per-request path arrays for vectorized cost/gradient math.

    Paths are padded to a common length; padded positions carry node 0
    with a False mask and contribute neutral factors (1 - x treated as 1,
    tau as 0).
    """

    def __init__(self, s: Scenario):
        self.scenario = s
        R = s.num_requests
        P = max((len(r.path) for r in s.requests), default=1)
        nodes = np.zeros((R, P), dtype=int)
        mask = np.zeros((R, P), dtype=bool)
        taus = np.zeros((R, max(P - 1, 1)), dtype=float)
        for i, r in enumerate(s.requests):
            p = r.path.nodes
            nodes[i, : len(p)] = p
            mask[i, : len(p)] = True
            for k in range(len(p) - 1):
                taus[i, k] = s.network.delay(p[k], p[k + 1])
        self.nodes = nodes
        self.mask = mask
        # flat index into a (V, F) matrix of each (request, position,
        # content) entry of an (R, P, F) tensor, for scattering into node rows
        F = s.num_contents
        self.node_content_index = (nodes.ravel()[:, None] * F + np.arange(F)).ravel()
        self.taus = taus
        self.rates = s.rates()
        self.req_content = np.array([r.content for r in s.requests], dtype=int)
        # dissimilarity row of each request's content: (R, F)
        self.d_rows = s.dissimilarity[self.req_content, :].copy()

    def evaluate(self, X: np.ndarray) -> PathTerms:
        """The path terms of caching iterate X; the only gather of (1 - x)."""
        Y = 1.0 - X[self.nodes, :]
        Y[~self.mask, :] = 1.0
        CP = np.cumprod(Y, axis=1)
        # hop k (0-based) uses the prefix product through position k
        delays = np.einsum("rk,rkf->rf", self.taus, CP[:, : self.taus.shape[1], :])
        return PathTerms(self, Y, CP, delays, CP[:, -1, :])

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
    Y: np.ndarray  # (R, P, F) 1 - x along each path, 1 at padded positions
    CP: np.ndarray  # (R, P, F) prefix products of Y along each path
    delays: np.ndarray  # (R, F) delivery delays t_{(f,p),f'}(X)
    avail: np.ndarray  # (R, F) products over the whole path of (1 - x)

    def costs(self) -> np.ndarray:
        """(R, F) per-delivery costs t + alpha * d."""
        return self.delays + self.geom.scenario.alpha * self.geom.d_rows

    def violations(self, Q: np.ndarray) -> np.ndarray:
        """(R, F) matrix of h_{(f,p),f'}(X, Q)."""
        return Q * self.avail

    def objective(self, Q: np.ndarray) -> float:
        return float(np.dot(self.geom.rates, np.sum(Q * self.costs(), axis=1)))

    def expected_delay(self, Q: np.ndarray) -> float:
        return float(np.dot(self.geom.rates, np.sum(Q * self.delays, axis=1)))

    def dissimilarity_cost(self, Q: np.ndarray) -> float:
        """Rate-weighted dissimilarity component (unweighted by alpha)."""
        return float(np.dot(self.geom.rates, np.sum(Q * self.geom.d_rows, axis=1)))

    def lagrangian(self, Q: np.ndarray, mu: np.ndarray) -> float:
        h = self.violations(Q)
        return self.objective(Q) + float(np.dot(self.geom.rates, np.sum(mu * h, axis=1)))
