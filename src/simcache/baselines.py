"""Comparison schemes: adaptive caching (no similarity) and a simplified
per-cache cost-aware similarity policy.

Adaptive caching pins the delivery matrix to the identity (every request
gets its own content) and optimizes placement only; its dissimilarity
cost is exactly zero by construction.

The per-cache scheme is a q-LRU-style stand-in for coordination-free
similarity caching: each ingress node serves the most similar content in
its local cache when that approximation costs less than fetching the
requested content (alpha * d(f, f') below the full-path delay), and
probabilistically inserts requested contents.  It is labeled "per-cache
(simplified)" in all outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .cost import PathGeometry
from .hibsa import SolveResult, SolverConfig, solve_offline
from .model import Scenario
from .online import RequestStreams


def solve_adaptive_caching(s: Scenario, cfg: SolverConfig | None = None) -> SolveResult:
    """Offline solve with delivery pinned to the requested content."""
    return solve_offline(s, replace(cfg or SolverConfig(), pin_delivery=True))


@dataclass
class PerCacheConfig:
    insert_prob: float = 0.5
    num_slots: int = 1000
    seed: int = 0
    slot_length: float = 1.0
    delay_window: int = 10

    def __post_init__(self):
        if not 0.0 <= self.insert_prob <= 1.0:
            raise ValueError("insert_prob must lie in [0, 1]")
        if self.num_slots < 1 or self.slot_length <= 0 or self.delay_window < 1:
            raise ValueError("num_slots, slot_length, delay_window must be positive")


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

    Each request arriving at ingress node p_1 is served by
    :func:`serve_from_cache`.  After serving, the requested content is
    inserted with probability insert_prob, evicting the LRU entry when
    the cache is full.
    """
    geom = PathGeometry(s)
    streams = RequestStreams(cfg.seed, s.num_requests)
    insert_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed).spawn(s.num_requests + 1)[-1])

    full_path_delay = geom.taus.sum(axis=1)  # delay with every cache empty
    ingress = [r.path.nodes[0] for r in s.requests]
    caches: dict[int, deque] = {
        v: deque() for v in sorted(set(ingress))
    }

    delay_hist: deque = deque(maxlen=cfg.delay_window)
    dissim_hist: deque = deque(maxlen=cfg.delay_window)
    slots: list[PerCacheSlot] = []

    for t in range(1, cfg.num_slots + 1):
        counts = streams.draw_counts(geom.rates, cfg.slot_length)
        slot_delay = 0.0
        slot_dissim = 0.0
        churn = 0
        num = 0
        for r in range(s.num_requests):
            for _ in range(int(counts[r])):
                num += 1
                f = s.requests[r].content
                v = ingress[r]
                cache = caches[v]
                f_prime, delay, dis = serve_from_cache(
                    s, cache, f, float(full_path_delay[r]))
                if f_prime in cache:
                    cache.remove(f_prime)
                    cache.appendleft(f_prime)  # refresh recency
                slot_delay += delay
                slot_dissim += dis
                cap = int(s.capacities[v])
                if cap > 0 and f not in cache and insert_rng.random() < cfg.insert_prob:
                    if len(cache) >= cap:
                        cache.pop()  # evict LRU
                    cache.appendleft(f)
                    churn += 1
        delay_hist.append(slot_delay)
        dissim_hist.append(slot_dissim)
        win = len(delay_hist) * cfg.slot_length
        slots.append(PerCacheSlot(
            slot=t,
            num_requests=num,
            windowed_delay=sum(delay_hist) / win,
            windowed_dissimilarity=sum(dissim_hist) / win,
            cache_churn=churn,
        ))
    return PerCacheResult(slots=slots, caches={v: list(c) for v, c in caches.items()})
