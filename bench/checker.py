"""Independent correctness checks for rounded solutions and online slots.

Nothing here imports the library: every check reads the raw `Scenario`
fields (paths, edge delays, sources, capacities, dissimilarity, alpha)
and recomputes what it needs with its own hop-by-hop loops.  Each
function returns a list of error strings; an empty list means the
output passed.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-9


def _hop_delay(s, a, b):
    return s.network.delays[(a, b) if a <= b else (b, a)]


def delivery_delay(s, X, nodes, f):
    """Delay of fetching content f along `nodes`: each hop toward the
    source is paid with the probability that no node before it holds f."""
    miss = 1.0
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        miss *= 1.0 - X[a, f]
        total += _hop_delay(s, a, b) * miss
    return total


def objective(s, X, Q):
    """(objective, expected delay, dissimilarity cost) of (X, Q), summed
    request by request over the nonzero delivery entries."""
    delay = 0.0
    dissim = 0.0
    for r, req in enumerate(s.requests):
        for f in np.nonzero(Q[r])[0]:
            w = req.rate * Q[r, f]
            delay += w * delivery_delay(s, X, req.path.nodes, f)
            dissim += w * s.dissimilarity[req.content, f]
    return delay + s.alpha * dissim, delay, dissim


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_caching(s, X):
    """Binary caching that pins every source and respects every capacity."""
    errors = []
    if X.shape != (s.num_nodes, s.num_contents):
        return [f"caching shape {X.shape}"]
    if not np.all((X == 0.0) | (X == 1.0)):
        errors.append("caching is not binary")
    for f, nodes in enumerate(s.sources):
        for v in nodes:
            if X[v, f] != 1.0:
                errors.append(f"source ({v}, {f}) not pinned")
    for v in range(s.num_nodes):
        free = sum(X[v, f] for f in range(s.num_contents)
                   if v not in s.sources[f])
        if free > s.capacities[v]:
            errors.append(f"node {v} caches {free:g} > capacity {s.capacities[v]}")
    return errors


def check_delivery(s, X, Q):
    """One-hot delivery rows, each on a content cached somewhere on the
    request's path or on the requested content itself."""
    if Q.shape != (s.num_requests, s.num_contents):
        return [f"delivery shape {Q.shape}"]
    errors = []
    for r, req in enumerate(s.requests):
        hot = np.nonzero(Q[r])[0]
        if len(hot) != 1 or Q[r, hot[0]] != 1.0:
            errors.append(f"delivery row {r} is not one-hot")
            continue
        f = int(hot[0])
        if f != req.content and not any(X[v, f] == 1.0 for v in req.path.nodes):
            errors.append(f"request {r} delivered content {f}, not on its path")
    return errors


def check_solution(s, X, Q, reported_objective):
    """Feasibility of a rounded offline solution and its objective."""
    errors = check_caching(s, X) + check_delivery(s, X, Q)
    if not math.isfinite(reported_objective):
        errors.append(f"objective {reported_objective} is not finite")
    elif not errors:
        own = objective(s, X, Q)[0]
        if not _close(own, reported_objective):
            errors.append(f"objective {reported_objective!r} != recomputed {own!r}")
    return errors


def prefix_delays(s, nodes):
    """Delay of a fetch that stops at each position of the path."""
    out = [0.0]
    for a, b in zip(nodes, nodes[1:]):
        out.append(out[-1] + _hop_delay(s, a, b))
    return out


def slot_cost(s, X_served, triples):
    """Check one slot's served requests; returns (errors, delay, dissim).

    With the caching that served the slot known, each delivered content
    must be on the path (or requested) and its delay is recomputed hop by
    hop.  Without it (first slot) the delay must still be the delay to
    some position of the path.
    """
    errors = []
    delay = 0.0
    dissim = 0.0
    for r, f, d, dis in triples:
        req = s.requests[r]
        nodes = req.path.nodes
        if X_served is None:
            ok = any(_close(d, p) for p in prefix_delays(s, nodes))
        else:
            if f != req.content and not any(X_served[v, f] == 1.0 for v in nodes):
                errors.append(f"request {r} served content {f}, not on its path")
            ok = _close(d, delivery_delay(s, X_served, nodes, f))
        if not ok:
            errors.append(f"request {r} reported delay {d!r} for content {f}")
        if not _close(dis, s.dissimilarity[req.content, f]):
            errors.append(f"request {r} reported dissimilarity {dis!r}")
        delay += d
        dissim += dis
    return errors, delay, dissim
