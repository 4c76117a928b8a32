"""Comparison schemes: adaptive caching (no similarity) and a simplified
per-cache cost-aware similarity policy.

Adaptive caching pins the delivery matrix to the identity (every request
gets its own content) and optimizes placement only; its dissimilarity
cost is exactly zero by construction.

The per-cache scheme is a q-LRU-style stand-in for coordination-free
similarity caching: each ingress node serves the most similar content in
its local cache when that approximation costs less than fetching the
requested content (alpha * d(f, f') below the full-path delay, its hop
sum), and probabilistically inserts requested contents.  It is labeled
"per-cache (simplified)" in all outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .hibsa import SolveResult, SolverConfig, solve_offline
from .model import Scenario, edge_key
from .online import RequestStreams, SlotConfig, SlotWindow


def solve_adaptive_caching(s: Scenario, cfg: SolverConfig | None = None) -> SolveResult:
    """Offline solve with delivery pinned to the requested content."""
    return solve_offline(s, replace(cfg or SolverConfig(), pin_delivery=True))


@dataclass
class PerCacheConfig(SlotConfig):
    insert_prob: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.insert_prob <= 1.0:
            raise ValueError("insert_prob must lie in [0, 1]")


@dataclass
class PerCacheSlot:
    slot: int
    num_requests: int
    windowed_delay: float
    windowed_dissimilarity: float
    cache_churn: int


@dataclass
class PerCacheResult:
    slots: list
    caches: dict  # ingress node -> list of contents, MRU first


def serve_from_cache(s: Scenario, cache, f: int, fetch_delay: float) -> tuple:
    """(delivered content, delay, dissimilarity) for a request of f.

    The most similar content f' in ``cache`` (ties to the smaller id) is
    served at delay 0 when alpha * d(f, f') < fetch_delay; otherwise f is
    fetched over the whole path (all intermediate caches treated as empty)
    at ``fetch_delay``.
    """
    if cache:
        f_prime = min(cache, key=lambda g: (s.dissimilarity[f, g], g))
        dis = float(s.dissimilarity[f, f_prime])
        if s.alpha * dis < fetch_delay:
            return f_prime, 0.0, dis
    return f, fetch_delay, 0.0


def run_per_cache_baseline(s: Scenario, cfg: PerCacheConfig) -> PerCacheResult:
    """Slotted per-cache simulation.

    Each request at ingress node p_1 is served by :func:`serve_from_cache`
    with its path's hop delays, summed from the source end, as the fetch
    delay.  After serving, the requested content is inserted with
    probability insert_prob, evicting the LRU entry when the cache is full.
    """
    streams = RequestStreams(cfg.seed, s.rates(), cfg.slot_length)
    insert_rng = np.random.default_rng(streams.root.spawn(1)[0])

    full_path_delay = [0.0] * s.num_requests
    for r, p in enumerate(req.path.nodes for req in s.requests):
        for u, v in reversed(list(zip(p, p[1:]))):
            full_path_delay[r] += s.network.delays[edge_key(u, v)]
    ingress = [r.path.nodes[0] for r in s.requests]
    caches: dict[int, deque] = {v: deque() for v in sorted(set(ingress))}
    window = SlotWindow(cfg)
    slots: list[PerCacheSlot] = []

    for t in range(1, cfg.num_slots + 1):
        counts = streams.draw_counts()
        hit = np.flatnonzero(counts)  # requests with arrivals, in index order
        slot_delay = slot_dissim = 0.0
        churn = 0
        for r, c in zip(hit.tolist(), counts[hit].tolist()):
            f, v = s.requests[r].content, ingress[r]
            cache, cap = caches[v], int(s.capacities[v])
            for _ in range(c):
                f_prime, delay, dis = serve_from_cache(s, cache, f, full_path_delay[r])
                if f_prime in cache:
                    cache.remove(f_prime)
                    cache.appendleft(f_prime)  # refresh recency
                slot_delay += delay
                slot_dissim += dis
                if cap > 0 and f not in cache and insert_rng.random() < cfg.insert_prob:
                    if len(cache) >= cap:
                        cache.pop()  # evict LRU
                    cache.appendleft(f)
                    churn += 1
        windowed_delay, windowed_dissim = window.push(slot_delay, slot_dissim)
        slots.append(PerCacheSlot(
            slot=t,
            num_requests=int(counts.sum()),
            windowed_delay=windowed_delay,
            windowed_dissimilarity=windowed_dissim,
            cache_churn=churn,
        ))
    return PerCacheResult(slots=slots, caches={v: list(c) for v, c in caches.items()})
