"""Scenario generation (grid topology, Zipf requests, power-law
dissimilarity) and the JSON file format.

Generation draws, in fixed order from one seeded generator: edge delays
(uniform on [1, 10]), one source node per content, the origin subset, and
per-request (content, origin) pairs.  Paths are minimum-total-delay
shortest paths with ties broken toward the smaller node sequence.
"""

from __future__ import annotations

import heapq
import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .model import (Catalog, Network, Path, Request, Scenario, edge_key)


class ScenarioFormatError(ValueError):
    """Raised on a malformed scenario file; the message names the key."""


@dataclass
class GenConfig:
    nodes_side: int = 5
    topology: str = "grid"  # "grid" or "torus"
    num_contents: int = 10
    num_requests: int = 40
    num_origins: int = 12
    capacity: int = 2
    beta: float = 3.0
    rho: float = 1.2
    alpha: float = 10.0
    rate: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.nodes_side < 1:
            raise ValueError("nodes_side must be >= 1")
        if self.topology not in ("grid", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.num_contents < 1 or self.num_requests < 1:
            raise ValueError("num_contents and num_requests must be >= 1")
        if not 1 <= self.num_origins <= self.nodes_side ** 2:
            raise ValueError("num_origins must lie in [1, nodes_side^2]")
        if self.capacity < 0:
            raise ValueError("capacity must be nonnegative")
        if self.beta < 0 or self.rho < 0 or self.alpha < 0 or self.rate < 0:
            raise ValueError("beta, rho, alpha, rate must be nonnegative")


def grid_edges(side: int, torus: bool = False) -> list:
    """Undirected edges of a side x side 2D grid (optionally wrapped)."""
    def nid(i, j):
        return i * side + j

    edges = set()
    for i in range(side):
        for j in range(side):
            if j + 1 < side:
                edges.add(edge_key(nid(i, j), nid(i, j + 1)))
            elif torus and side > 2:
                edges.add(edge_key(nid(i, j), nid(i, 0)))
            if i + 1 < side:
                edges.add(edge_key(nid(i, j), nid(i + 1, j)))
            elif torus and side > 2:
                edges.add(edge_key(nid(i, j), nid(0, j)))
    return sorted(edges)


def power_law_dissimilarity(num_contents: int, beta: float) -> np.ndarray:
    """d(f, f') = |f - f'|^beta on content ranks."""
    idx = np.arange(num_contents)
    gaps = np.abs(idx[:, None] - idx[None, :]).astype(float)
    d = gaps ** beta
    np.fill_diagonal(d, 0.0)  # self-dissimilarity stays zero even for beta=0
    return d


def zipf_probabilities(num_contents: int, rho: float) -> np.ndarray:
    """P(rank f) proportional to f^(-rho), ranks 1..num_contents."""
    ranks = np.arange(1, num_contents + 1, dtype=float)
    w = ranks ** (-rho)
    return w / w.sum()


def shortest_path(network: Network, src: int, dst: int) -> tuple:
    """Minimum-total-delay path; equal-cost ties resolved by popping the
    smaller node sequence first, so output is deterministic."""
    if src == dst:
        return (src,)
    adj = network.adjacency()
    done = set()
    heap = [(0.0, (src,))]
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        if node == dst:
            return path
        for w in adj[node]:
            if w not in done:
                heapq.heappush(heap, (dist + network.delay(node, w), path + (w,)))
    raise ValueError(f"no path from {src} to {dst}")


def generate_scenario(g: GenConfig) -> Scenario:
    """Build a random instance following the experimental setup defaults."""
    g.validate()
    rng = np.random.default_rng(g.seed)
    V = g.nodes_side ** 2
    edges = grid_edges(g.nodes_side, torus=(g.topology == "torus"))
    delays = {e: float(d) for e, d in zip(edges, rng.uniform(1.0, 10.0, len(edges)))}
    network = Network(num_nodes=V, delays=delays)

    sources = tuple(frozenset({int(rng.integers(0, V))})
                    for _ in range(g.num_contents))
    origins = sorted(int(v) for v in rng.choice(V, size=g.num_origins, replace=False))

    probs = zipf_probabilities(g.num_contents, g.rho)
    requests = []
    for _ in range(g.num_requests):
        f = int(rng.choice(g.num_contents, p=probs))
        origin = int(origins[rng.integers(0, len(origins))])
        src_node = min(sources[f])
        path = shortest_path(network, origin, src_node)
        requests.append(Request(content=f, path=Path(path), rate=g.rate))

    return Scenario(
        catalog=Catalog(g.num_contents),
        network=network,
        sources=sources,
        requests=tuple(requests),
        dissimilarity=power_law_dissimilarity(g.num_contents, g.beta),
        capacities=np.full(V, g.capacity, dtype=int),
        alpha=g.alpha,
    )


def with_alpha(s: Scenario, alpha: float) -> Scenario:
    """Same instance with a different dissimilarity weight."""
    return Scenario(s.catalog, s.network, s.sources, s.requests,
                    s.dissimilarity.copy(), s.capacities.copy(), alpha)


def with_capacity(s: Scenario, capacity: int) -> Scenario:
    """Same instance with a uniform cache capacity at every node."""
    caps = np.full(s.num_nodes, capacity, dtype=int)
    return Scenario(s.catalog, s.network, s.sources, s.requests,
                    s.dissimilarity.copy(), caps, s.alpha)


# -- file format ---------------------------------------------------------


def _node_name(v: int) -> str:
    return f"v{v}"


def _content_name(f: int) -> str:
    return f"f{f}"


def save_scenario(s: Scenario, path) -> None:
    """Write the JSON scenario document; floats round-trip exactly."""
    doc = {
        "nodes": [_node_name(v) for v in range(s.num_nodes)],
        "edges": [
            {"u": _node_name(u), "v": _node_name(v), "delay": tau}
            for (u, v), tau in sorted(s.network.delays.items())
        ],
        "contents": [_content_name(f) for f in range(s.num_contents)],
        "sources": {
            _content_name(f): [_node_name(v) for v in sorted(nodes)]
            for f, nodes in enumerate(s.sources)
        },
        "capacities": {_node_name(v): int(c) for v, c in enumerate(s.capacities)},
        "requests": [
            {
                "content": _content_name(r.content),
                "path": [_node_name(v) for v in r.path.nodes],
                "rate": r.rate,
            }
            for r in s.requests
        ],
        "dissimilarity": [[float(x) for x in row] for row in s.dissimilarity],
        "alpha": s.alpha,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _require(doc: dict, key: str):
    if key not in doc:
        raise ScenarioFormatError(f"missing required key {key!r}")
    return doc[key]


@contextmanager
def _parsing(key: str):
    """Report an unknown name, a missing field, or a value of the wrong type
    or form under ``key`` as a ScenarioFormatError naming the key."""
    try:
        yield
    except ScenarioFormatError:
        raise
    except LookupError as exc:
        raise ScenarioFormatError(f"unknown or missing name {exc} under {key!r}") from exc
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ScenarioFormatError(f"malformed value under {key!r}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Parse the JSON scenario document back into a Scenario.

    A dissimilarity value of {"power_law": {"beta": b}} is expanded to the
    dense |f - f'|^b matrix on load.  Every malformed document raises
    ScenarioFormatError.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ScenarioFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError("top level must be an object")

    with _parsing("nodes"):
        node_names = _require(doc, "nodes")
        node_index = {name: i for i, name in enumerate(node_names)}
        if len(node_index) != len(node_names):
            raise ScenarioFormatError("duplicate entries under 'nodes'")
    with _parsing("contents"):
        content_names = _require(doc, "contents")
        content_index = {name: i for i, name in enumerate(content_names)}
        if len(content_index) != len(content_names):
            raise ScenarioFormatError("duplicate entries under 'contents'")

    delays = {}
    with _parsing("edges"):
        for e in _require(doc, "edges"):
            u, v, tau = e["u"], e["v"], e["delay"]
            delays[edge_key(node_index[u], node_index[v])] = float(tau)
    network = Network(num_nodes=len(node_names), delays=delays)

    sources = []
    with _parsing("sources"):
        src_doc = _require(doc, "sources")
        for name in content_names:
            sources.append(frozenset(node_index[v] for v in src_doc[name]))

    capacities = np.zeros(len(node_names), dtype=int)
    with _parsing("capacities"):
        for name, c in _require(doc, "capacities").items():
            capacities[node_index[name]] = int(c)

    requests = []
    with _parsing("requests"):
        for r in _require(doc, "requests"):
            f, p, rate = r["content"], r["path"], r["rate"]
            requests.append(Request(
                content=content_index[f],
                path=Path(tuple(node_index[v] for v in p)),
                rate=float(rate),
            ))

    F = len(content_names)
    with _parsing("dissimilarity"):
        d_doc = _require(doc, "dissimilarity")
        if isinstance(d_doc, dict):
            if "power_law" not in d_doc or "beta" not in d_doc.get("power_law", {}):
                raise ScenarioFormatError(
                    "'dissimilarity' object must be {'power_law': {'beta': ...}}")
            dissimilarity = power_law_dissimilarity(F, float(d_doc["power_law"]["beta"]))
        else:
            dissimilarity = np.array(d_doc, dtype=float)
            if dissimilarity.shape != (F, F):
                raise ScenarioFormatError(
                    f"'dissimilarity' must be {F}x{F}, got {dissimilarity.shape}")

    with _parsing("alpha"):
        alpha = float(_require(doc, "alpha"))
    return Scenario(
        catalog=Catalog(F),
        network=network,
        sources=tuple(sources),
        requests=tuple(requests),
        dissimilarity=dissimilarity,
        capacities=capacities,
        alpha=alpha,
    )
