"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's vectorized evaluation paths: plain
per-term loops over the math, plus exhaustive enumeration for tiny
instances.  They must stay independent of the code they check.  The
helpers near the end of the file are the exception: they call the package's
Lagrangian, matrix projections, roundings and slot steps, and only the
tests use them.  Last come plainer vectorized forms of the two matrix
projections, the references that the package's kernels must match byte
for byte.
"""

import heapq
import json
from collections import deque
from itertools import combinations, product

import numpy as np

from simcache.cost import PathGeometry, PrimalState
from simcache.hibsa import (SolverConfig, caching_choice, delivery_choice, dual_step,
                            initial_state, projected_primal_update, round_caching,
                            round_delivery)
from simcache.model import Scenario, edge_key
from simcache.online import stochastic_gradients
from simcache.projection import project_cache_matrix, project_delivery_matrix


def left_sum(values):
    """The floats summed one by one from 0.0, the order of the windowed sums."""
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_delay(s, X, r, f_prime):
    p = s.requests[r].path.nodes
    total = 0.0
    for k in range(len(p) - 1):
        prod = 1.0
        for kk in range(k + 1):
            prod *= 1.0 - X[p[kk], f_prime]
        total += s.network.delays[edge_key(p[k], p[k + 1])] * prod
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


def oracle_round_caching(s, X):
    """Per node: pin sources, then cache the capacity-many non-source
    contents with largest value, ties to the smaller id (a Python sort)."""
    pins = s.source_mask()
    out = np.zeros_like(X)
    out[pins] = 1.0
    for v in range(s.num_nodes):
        free = [f for f in range(s.num_contents) if not pins[v, f]]
        take = min(int(s.capacities[v]), len(free))
        if take <= 0:
            continue
        order = sorted(free, key=lambda f: (-X[v, f], f))
        out[v, order[:take]] = 1.0
    return out


def oracle_scatter_rows(nodes, contrib, num_nodes):
    """Sum each row of an (N, F) array into the row of its node, by an
    unbuffered np.add.at."""
    out = np.zeros((num_nodes, contrib.shape[1]))
    np.add.at(out, nodes, contrib)
    return out


def padded_path_oracle(s, X, Q, mu, weights=None):
    """Delays, availability products and dL/dx by the padded layout.

    Every request path is padded to the longest with node 0, where (1 - x)
    reads as 1 and the hop delay as 0.  Prefix products along each path
    give the delays and the availability products; dL/dx at path position
    j is -w * q times the prefix product before j times the bracket H[j],
    built by one backward recurrence H[j] = tau_j + (1 - x_{j+1}) * H[j+1]
    from H = mu at the path end, and scattered into node rows by an
    unbuffered np.add.at.  Returns (delays, avail, grad_x).
    """
    R, F = s.num_requests, s.num_contents
    P = max((len(r.path) for r in s.requests), default=1)
    nodes = np.zeros((R, P), dtype=int)
    mask = np.zeros((R, P), dtype=bool)
    taus = np.zeros((R, P))
    for i, r in enumerate(s.requests):
        p = r.path.nodes
        nodes[i, :len(p)] = p
        mask[i, :len(p)] = True
        for k in range(len(p) - 1):
            taus[i, k] = s.network.delays[edge_key(p[k], p[k + 1])]
    Y = np.where(mask[:, :, None], 1.0 - X[nodes], 1.0)
    CP = np.cumprod(Y, axis=1)
    delays = np.einsum("rk,rkf->rf", taus, CP)
    w = s.rates() if weights is None else weights
    H = np.empty_like(Y)
    H[:, P - 1] = mu
    for j in range(P - 2, -1, -1):
        H[:, j] = taus[:, j, None] + Y[:, j + 1] * H[:, j + 1]
    H[:, 1:] *= CP[:, :-1]
    H *= -(w[:, None] * Q)[:, None, :]
    H[~mask] = 0.0
    gX = np.zeros((s.num_nodes, F))
    np.add.at(gX, nodes.ravel(), H.reshape(-1, F))
    return delays, CP[:, -1], gX


def oracle_shortest_paths(neighbours, src, dsts):
    """{dst: shortest path from src}: Dijkstra over (distance, path) heap
    entries, equal distances popped in node-sequence order, with its state
    in a set and a dict; the search ``scenario.shortest_paths`` must match."""
    todo = set(dsts)
    paths = {}
    done = set()
    shortest = {src: 0.0}
    heap = [(0.0, (src,))]
    while heap and todo:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        if node in todo:
            todo.remove(node)
            paths[node] = path
        for w, tau in neighbours[node]:
            d = dist + tau
            if d <= shortest.get(w, np.inf):
                shortest[w] = d
                heapq.heappush(heap, (d, path + (w,)))
    if todo:
        raise ValueError(f"no path from {src} to {min(todo)}")
    return paths


def oracle_suffix_trie(s):
    """(node, parent, tau, start, level bounds) of the suffix trie, from
    the set of path suffix tuples sorted by length, then reversed tuple."""
    suffixes = sorted({p[j:] for p in (r.path.nodes for r in s.requests)
                       for j in range(len(p))}, key=lambda t: (len(t), t[::-1]))
    index = {t: u for u, t in enumerate(suffixes)}
    index[()] = len(suffixes)
    node = np.array([t[0] for t in suffixes], dtype=np.intp)
    parent = np.array([index[t[1:]] for t in suffixes], dtype=np.intp)
    tau = np.array([s.network.delays[edge_key(*t[:2])] if len(t) > 1 else 0.0
                    for t in suffixes])
    start = np.array([index[r.path.nodes] for r in s.requests], dtype=np.intp)
    sizes = np.bincount(np.array([len(t) for t in suffixes], dtype=int))[1:]
    return node, parent, tau, start, [0, *np.cumsum(sizes).tolist()]


def oracle_per_cache_run(s, cfg):
    """(per-slot (slot, num_requests, windowed delay, windowed dissimilarity,
    churn) tuples, final caches) of the per-cache baseline, by the plain
    slot loop over every request.  Streams: ``SeedSequence(seed).spawn(R + 1)``,
    the first R children one Poisson stream per request (drawn here for all
    slots at once, which gives the same counts as one draw per slot), the
    last one the insertion stream.  The full-path delay sums the hop delays
    from the terminal back to the ingress, the order of the trie recursion."""
    R = s.num_requests
    children = np.random.SeedSequence(cfg.seed).spawn(R + 1)
    counts = np.array([np.random.default_rng(ss).poisson(r.rate * cfg.slot_length,
                                                         size=cfg.num_slots)
                       for ss, r in zip(children, s.requests)], dtype=int).reshape(R, -1)
    insert_rng = np.random.default_rng(children[-1])
    full_path_delay = []
    for r in s.requests:
        p, d = r.path.nodes, 0.0
        for a, b in reversed(list(zip(p, p[1:]))):
            d = d + s.network.delays[edge_key(a, b)]
        full_path_delay.append(d)
    ingress = [r.path.nodes[0] for r in s.requests]
    caches = {v: deque() for v in sorted(set(ingress))}
    delay_hist = deque(maxlen=cfg.delay_window)
    dissim_hist = deque(maxlen=cfg.delay_window)
    slots = []
    for t in range(1, cfg.num_slots + 1):
        slot_delay = slot_dissim = 0.0
        churn = num = 0
        for r in range(R):
            for _ in range(int(counts[r, t - 1])):
                num += 1
                f, cache = s.requests[r].content, caches[ingress[r]]
                f_prime, delay, dis = f, full_path_delay[r], 0.0
                if cache:
                    g = min(cache, key=lambda g: (s.dissimilarity[f, g], g))
                    if s.alpha * float(s.dissimilarity[f, g]) < full_path_delay[r]:
                        f_prime, delay, dis = g, 0.0, float(s.dissimilarity[f, g])
                if f_prime in cache:
                    cache.remove(f_prime)
                    cache.appendleft(f_prime)
                slot_delay += delay
                slot_dissim += dis
                cap = int(s.capacities[ingress[r]])
                if cap > 0 and f not in cache and insert_rng.random() < cfg.insert_prob:
                    if len(cache) >= cap:
                        cache.pop()
                    cache.appendleft(f)
                    churn += 1
        delay_hist.append(slot_delay)
        dissim_hist.append(slot_dissim)
        win = len(delay_hist) * cfg.slot_length
        slots.append((t, num, left_sum(delay_hist) / win, left_sum(dissim_hist) / win, churn))
    return slots, {v: list(c) for v, c in caches.items()}


def reference_scenario_bytes(s):
    """The scenario file as ``json.dump(doc, fh, indent=1)`` plus a newline
    writes it: the byte layout that ``save_scenario`` must keep."""
    doc = {
        "nodes": [f"v{v}" for v in range(s.num_nodes)],
        "edges": [
            {"u": f"v{u}", "v": f"v{v}", "delay": tau}
            for (u, v), tau in sorted(s.network.delays.items())
        ],
        "contents": [f"f{f}" for f in range(s.num_contents)],
        "sources": {
            f"f{f}": [f"v{v}" for v in sorted(nodes)]
            for f, nodes in enumerate(s.sources)
        },
        "capacities": {f"v{v}": int(c) for v, c in enumerate(s.capacities)},
        "requests": [
            {
                "content": f"f{r.content}",
                "path": [f"v{v}" for v in r.path.nodes],
                "rate": r.rate,
            }
            for r in s.requests
        ],
        "dissimilarity": [[float(x) for x in row] for row in s.dissimilarity],
        "alpha": s.alpha,
    }
    return (json.dumps(doc, indent=1) + "\n").encode()


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


# -- test helpers over the package's own kernels --------------------------
# Not independent oracles: central differences of the package's Lagrangian,
# one-row views of its matrix projections for the row-wise QP checks, and
# the online slot loop that re-rounds every slot.


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
    blocks = {"x": S.X, "q": S.Q, "mu": mu}
    if which not in blocks:
        raise ValueError(f"unknown block {which!r}")
    geom = PathGeometry(s)
    hi = np.inf if which == "mu" else 1.0
    base = blocks[which]
    work = blocks[which] = base.copy()
    out = np.zeros_like(base)

    def evaluate() -> float:
        return geom.lagrangian(PrimalState(blocks["x"], blocks["q"]), blocks["mu"])

    it = np.nditer(base, flags=["multi_index"])
    for val in it:
        idx = it.multi_index
        v = float(val)
        up = min(v + step, hi)
        dn = max(v - step, 0.0)
        work[idx] = up
        f_up = evaluate()
        work[idx] = dn
        f_dn = evaluate()
        work[idx] = v
        out[idx] = (f_up - f_dn) / (up - dn)
    return out


def oracle_run_online(s, cfg):
    """(per-slot (slot, triples, windowed delay, windowed dissimilarity,
    Lagrangian, churn, rounded X, rounded Q) tuples, final X, Q, mu) of
    ``run_online`` by the plain slot loop: fresh path terms for every use,
    both blocks re-rounded every slot by the choice functions and the
    builders ``round_caching`` and ``round_delivery``, the served tuples
    built per arrival from the rounded delivery's argmax, the Lagrangian
    from ``PathTerms.lagrangian`` and the mu-gradient from fresh
    violations.  Streams as in ``oracle_per_cache_run``."""
    geom = PathGeometry(s)
    R, T = s.num_requests, cfg.slot_length
    children = np.random.SeedSequence(cfg.seed).spawn(R)
    counts = np.array([np.random.default_rng(ss).poisson(r.rate * T, size=cfg.num_slots)
                       for ss, r in zip(children, s.requests)], dtype=int).reshape(R, -1)
    S = initial_state(s, SolverConfig())
    mu = np.zeros((R, s.num_contents))
    X_int = round_caching(s, caching_choice(s)(S.X))
    Q_int = round_delivery(s, delivery_choice(geom.evaluate(X_int))(S.Q))
    delay_hist = deque(maxlen=cfg.delay_window)
    dissim_hist = deque(maxlen=cfg.delay_window)
    slots = []
    for t in range(1, cfg.num_slots + 1):
        delays = geom.evaluate(X_int).delays
        triples, slot_delay, slot_dissim = [], 0.0, 0.0
        for r in range(R):
            c = int(counts[r, t - 1])
            if c:
                f = int(Q_int[r].argmax())
                rec = (r, f, float(delays[r, f]), float(geom.d_rows[r, f]))
                triples += [rec] * c
                slot_delay += c * rec[2]
                slot_dissim += c * rec[3]
        terms = geom.evaluate(S.X)
        gx, gq, gmu = stochastic_gradients(terms, S.Q, mu, counts[:, t - 1], T,
                                           terms.violations(S.Q))
        S = projected_primal_update(geom, S, gx, gq, cfg.eta_s)
        mu = dual_step(mu, gmu, t, cfg.eta_mu)
        X_new = round_caching(s, caching_choice(s)(S.X))
        churn = int(np.count_nonzero(X_new != X_int))
        X_int = X_new
        Q_int = round_delivery(s, delivery_choice(geom.evaluate(X_int))(S.Q))
        delay_hist.append(slot_delay)
        dissim_hist.append(slot_dissim)
        win = len(delay_hist) * T
        slots.append((t, triples, left_sum(delay_hist) / win, left_sum(dissim_hist) / win,
                      geom.evaluate(S.X).lagrangian(S.Q, mu), churn, X_int, Q_int))
    return slots, S.X, S.Q, mu


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


# -- reference forms of the matrix projections -----------------------------
# A fresh array for every step and fancy indexing in place of flat gathers;
# the package's kernels must give the same bytes, the sign of zero included.


def reference_project_cache_matrix(X: np.ndarray, capacities: np.ndarray,
                                   source_mask: np.ndarray) -> np.ndarray:
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
    slope = np.where(order < F, -1.0, 1.0).cumsum(axis=1)
    drop = slope[:, :-1] * (b[:, 1:] - b[:, :-1])
    g = F + np.concatenate([np.zeros((len(b), 1)), drop], axis=1).cumsum(axis=1)
    j = (g >= target[:, None]).sum(axis=1) - 1
    theta = b[rows, j] + (g[rows, j] - target) / np.maximum(-slope[rows, j], 1.0)
    out[over] = np.where(fo, (Xo - theta[:, None]).clip(0.0, 1.0), 1.0)
    return out


def reference_project_delivery_matrix(Q: np.ndarray) -> np.ndarray:
    u = np.sort(Q, axis=1)[:, ::-1]
    css = u.cumsum(axis=1) - 1.0
    j = np.arange(1, Q.shape[1] + 1)[None, :]
    cond = u - css / j > 0
    rho = cond.shape[1] - 1 - cond[:, ::-1].argmax(axis=1)
    theta = css[np.arange(Q.shape[0]), rho] / (rho + 1.0)
    return np.maximum(Q - theta[:, None], 0.0)
