"""Delay, delivery cost, objective, availability constraint, Lagrangian.

`PathGeometry` holds padded per-request path arrays and evaluates every
quantity for all (request, content) pairs at once; the tests check it
against independent per-term oracles.
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
        lengths = np.array([len(r.path) for r in s.requests], dtype=int)
        P = int(lengths.max()) if R else 1
        nodes = np.zeros((R, P), dtype=int)
        mask = np.zeros((R, P), dtype=bool)
        taus = np.zeros((R, max(P - 1, 1)), dtype=float)
        for i, r in enumerate(s.requests):
            p = r.path.nodes
            nodes[i, : len(p)] = p
            mask[i, : len(p)] = True
            for k in range(len(p) - 1):
                taus[i, k] = s.network.delay(p[k], p[k + 1])
        self.num_requests = R
        self.max_len = P
        self.lengths = lengths
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

    # -- batch evaluation ---------------------------------------------------

    def one_minus_x(self, X: np.ndarray) -> np.ndarray:
        """(R, P, F) array of (1 - x_{p_k, f'}), 1 at padded positions."""
        Y = 1.0 - X[self.nodes, :]
        Y[~self.mask, :] = 1.0
        return Y

    def delays(self, X: np.ndarray) -> np.ndarray:
        """(R, F) matrix of delivery delays t_{(f,p),f'}(X)."""
        CP = np.cumprod(self.one_minus_x(X), axis=1)
        # hop k (0-based) uses the prefix product through position k
        return np.einsum("rk,rkf->rf", self.taus, CP[:, : self.taus.shape[1], :])

    def availability_products(self, X: np.ndarray) -> np.ndarray:
        """(R, F) products over path positions of (1 - x)."""
        return np.prod(self.one_minus_x(X), axis=1)

    def violations(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """(R, F) matrix of h_{(f,p),f'}(X, Q)."""
        return Q * self.availability_products(X)

    def cost_matrix(self, X: np.ndarray) -> np.ndarray:
        """(R, F) per-delivery costs t + alpha * d."""
        return self.delays(X) + self.scenario.alpha * self.d_rows

    def objective(self, S: PrimalState) -> float:
        return float(np.dot(self.rates, np.sum(S.Q * self.cost_matrix(S.X), axis=1)))

    def expected_delay(self, S: PrimalState) -> float:
        return float(np.dot(self.rates, np.sum(S.Q * self.delays(S.X), axis=1)))

    def dissimilarity_cost(self, S: PrimalState) -> float:
        """Rate-weighted dissimilarity component (unweighted by alpha)."""
        return float(np.dot(self.rates, np.sum(S.Q * self.d_rows, axis=1)))

    def lagrangian(self, S: PrimalState, mu: np.ndarray) -> float:
        h = self.violations(S.X, S.Q)
        return self.objective(S) + float(np.dot(self.rates, np.sum(mu * h, axis=1)))

