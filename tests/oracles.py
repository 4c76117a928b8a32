"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's vectorized evaluation paths: plain
per-term loops over the math, plus exhaustive enumeration for tiny
instances.  They must stay independent of the code they check.
"""

from itertools import combinations, product

import numpy as np


def oracle_delay(s, X, r, f_prime):
    p = s.requests[r].path.nodes
    total = 0.0
    for k in range(len(p) - 1):
        prod = 1.0
        for kk in range(k + 1):
            prod *= 1.0 - X[p[kk], f_prime]
        total += s.network.delay(p[k], p[k + 1]) * prod
    return total


def oracle_objective(s, X, Q):
    total = 0.0
    for r, req in enumerate(s.requests):
        for f_prime in range(s.num_contents):
            c = oracle_delay(s, X, r, f_prime) \
                + s.alpha * s.dissimilarity[req.content, f_prime]
            total += req.rate * Q[r, f_prime] * c
    return total


def oracle_h(s, X, Q, r, f_prime):
    prod = 1.0
    for v in s.requests[r].path.nodes:
        prod *= 1.0 - X[v, f_prime]
    return Q[r, f_prime] * prod


def oracle_lagrangian(s, X, Q, mu):
    total = oracle_objective(s, X, Q)
    for r, req in enumerate(s.requests):
        for f_prime in range(s.num_contents):
            total += req.rate * mu[r, f_prime] \
                * oracle_h(s, X, Q, r, f_prime)
    return total


def enumerate_integer_optimum(s):
    """Exhaustive optimum of the integer program on a tiny instance.

    Enumerates every feasible caching matrix; given the caches, the best
    delivery per request is the cheapest available content, so Q never
    needs explicit enumeration.
    """
    V, F = s.num_nodes, s.num_contents
    pins = s.source_mask()
    per_node_choices = []
    for v in range(V):
        free = [f for f in range(F) if not pins[v, f]]
        cap = int(s.capacities[v])
        choices = []
        for size in range(min(cap, len(free)) + 1):
            choices.extend(combinations(free, size))
        per_node_choices.append(choices)

    best = np.inf
    best_X = None
    for assignment in product(*per_node_choices):
        X = pins.astype(float)
        for v, chosen in enumerate(assignment):
            for f in chosen:
                X[v, f] = 1.0
        total = 0.0
        for r, req in enumerate(s.requests):
            path = req.path.nodes
            available = [f for f in range(F)
                         if any(X[v, f] == 1.0 for v in path)]
            cost = min(oracle_delay(s, X, r, f)
                       + s.alpha * s.dissimilarity[req.content, f]
                       for f in available)
            total += req.rate * cost
        if total < best:
            best = total
            best_X = X
    return best, best_X


def qp_cache_oracle(x, capacity, pinned=()):
    """Exhaustive active-set solve of min ||y - x||^2 over the capped box.

    Every KKT-consistent active-set pattern (each free coordinate at 0, at
    1, or interior; budget tight or slack) yields one closed-form
    candidate; the feasible candidate closest to x is the projection.
    """
    from itertools import product as iproduct
    pinned = set(pinned)
    free_idx = [i for i in range(x.shape[0]) if i not in pinned]
    xf = x[free_idx]
    n = len(free_idx)
    best, best_y = np.inf, np.zeros(n)
    for pattern in iproduct((0, 1, 2), repeat=n):  # 0 -> at 0, 1 -> at 1, 2 -> interior
        interior = [i for i in range(n) if pattern[i] == 2]
        ones = sum(1 for p in pattern if p == 1)
        thetas = [0.0]
        if interior:
            thetas.append((xf[interior].sum() + ones - capacity) / len(interior))
        for theta in thetas:
            y = np.array([0.0 if p == 0 else 1.0 if p == 1 else 0.0
                          for p in pattern])
            for i in interior:
                y[i] = xf[i] - theta
            if np.any(y < -1e-12) or np.any(y > 1 + 1e-12):
                continue
            if y.sum() > capacity + 1e-12:
                continue
            d = np.sum((y - xf) ** 2)
            if d < best:
                best, best_y = d, y
    out = np.ones(x.shape[0])
    out[free_idx] = best_y
    return out


def qp_simplex_oracle(q):
    """Exhaustive active-set solve of the simplex projection."""
    from itertools import product as iproduct
    n = q.shape[0]
    best, best_y = np.inf, None
    for pattern in iproduct((0, 1), repeat=n):  # 1 -> interior
        interior = [i for i in range(n) if pattern[i] == 1]
        if not interior:
            continue
        theta = (q[interior].sum() - 1.0) / len(interior)
        y = np.zeros(n)
        y[interior] = q[interior] - theta
        if np.any(y < -1e-12):
            continue
        d = np.sum((y - q) ** 2)
        if d < best:
            best, best_y = d, y
    return best_y
