"""Problem-instance types: catalog, network, requests, and validation.

Node, content, and request identifiers are dense 0-based integers
internally; human-readable names live only in the scenario file format.
All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) key for an undirected edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Catalog:
    """Content catalog; contents are indices 0..num_contents-1."""

    num_contents: int


@dataclass(frozen=True)
class Network:
    """Undirected network with a single per-edge delivery delay.

    The same delay applies in both directions of an edge.
    """

    num_nodes: int
    delays: dict  # (u, v) with u <= v -> delay (seconds per content unit)

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.delays

    def delay(self, u: int, v: int) -> float:
        return self.delays[edge_key(u, v)]

    def adjacency(self) -> dict:
        """Neighbor map {node: sorted list of neighbors}."""
        adj: dict[int, list[int]] = {v: [] for v in range(self.num_nodes)}
        for (u, v) in self.delays:
            adj[u].append(v)
            adj[v].append(u)
        for v in adj:
            adj[v].sort()
        return adj

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return False
        adj = self.adjacency()
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.num_nodes


@dataclass(frozen=True)
class Path:
    """Acyclic node sequence; position 1 receives the request."""

    nodes: tuple

    def __len__(self) -> int:
        return len(self.nodes)


ABSENT = -1


def position_in_path(v: int, p: Path) -> int:
    """1-based position of node v in path p, ABSENT (-1) if v not on p."""
    for k, node in enumerate(p.nodes, start=1):
        if node == v:
            return k
    return ABSENT


@dataclass(frozen=True)
class Request:
    """A content together with its fixed forwarding path and arrival rate."""

    content: int
    path: Path
    rate: float


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable problem instance.

    sources[f] is the set of nodes permanently storing content f; every
    request path terminates at one of them.  capacities[v] counts cache
    slots at node v available for non-source contents.  alpha weights the
    dissimilarity cost against delay in the objective.
    """

    catalog: Catalog
    network: Network
    sources: tuple  # tuple of frozenset[int], one per content
    requests: tuple  # tuple of Request
    dissimilarity: np.ndarray  # |F| x |F|
    capacities: np.ndarray  # |V|, nonnegative ints
    alpha: float

    def __post_init__(self):
        self.dissimilarity.setflags(write=False)
        self.capacities.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.network.num_nodes

    @property
    def num_contents(self) -> int:
        return self.catalog.num_contents

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    def rates(self) -> np.ndarray:
        return np.array([r.rate for r in self.requests], dtype=float)

    def source_mask(self) -> np.ndarray:
        """Boolean |V| x |F| mask of permanently pinned (v, f) entries."""
        mask = np.zeros((self.num_nodes, self.num_contents), dtype=bool)
        for f, nodes in enumerate(self.sources):
            for v in nodes:
                mask[v, f] = True
        return mask

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self.catalog == other.catalog
            and self.network == other.network
            and self.sources == other.sources
            and self.requests == other.requests
            and self.dissimilarity.shape == other.dissimilarity.shape
            and bool(np.all(self.dissimilarity == other.dissimilarity))
            and bool(np.all(self.capacities == other.capacities))
            and self.alpha == other.alpha
        )


@dataclass(frozen=True)
class Violation:
    """One failed scenario invariant; violations are data, not exceptions."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


def validate_scenario(s: Scenario) -> list:
    """Check every instance invariant; empty list means well-formed."""
    out: list[Violation] = []
    V, F = s.num_nodes, s.num_contents

    if F < 1:
        out.append(Violation("EmptyCatalog", "num_contents must be >= 1"))
    if V < 1:
        out.append(Violation("EmptyNetwork", "network has no nodes"))

    for (u, v), tau in s.network.delays.items():
        if not (0 <= u < V and 0 <= v < V):
            out.append(Violation("EdgeEndpointUnknown", f"edge ({u},{v}) has undeclared endpoint"))
        if not np.isfinite(tau):
            out.append(Violation("NonfiniteEdgeDelay", f"edge ({u},{v}) has delay {tau}"))
        elif not tau > 0:
            out.append(Violation("NonpositiveEdgeDelay", f"edge ({u},{v}) has delay {tau}"))
    if V >= 1 and not s.network.is_connected():
        out.append(Violation("DisconnectedNetwork", "graph is not connected"))

    if len(s.sources) != F:
        out.append(Violation("SourceMapSize", f"expected {F} source sets, got {len(s.sources)}"))
    for f, nodes in enumerate(s.sources):
        if len(nodes) == 0:
            out.append(Violation("EmptySourceSet", f"content {f} has no source node"))
        for v in nodes:
            if not 0 <= v < V:
                out.append(Violation("SourceNotANode", f"content {f} source {v} undeclared"))

    for i, r in enumerate(s.requests):
        if not 0 <= r.content < F:
            out.append(Violation("UnknownContent", f"request {i} content {r.content}"))
            continue
        p = r.path.nodes
        if len(p) < 1:
            out.append(Violation("EmptyPath", f"request {i} path is empty"))
            continue
        if len(set(p)) != len(p):
            out.append(Violation("PathRepeatsNode", f"request {i} path {p} is cyclic"))
        for a, b in zip(p, p[1:]):
            if not s.network.has_edge(a, b):
                out.append(Violation("PathEdgeMissing", f"request {i} hop ({a},{b}) not an edge"))
        if p[-1] not in s.sources[r.content]:
            out.append(Violation("TerminalNotSource",
                                 f"request {i} path ends at {p[-1]}, not a source of {r.content}"))
        if not np.isfinite(r.rate):
            out.append(Violation("NonfiniteRate", f"request {i} rate {r.rate}"))
        elif r.rate < 0:
            out.append(Violation("NegativeRate", f"request {i} rate {r.rate}"))

    if s.dissimilarity.shape != (F, F):
        out.append(Violation("DissimilarityShape",
                             f"expected {(F, F)}, got {s.dissimilarity.shape}"))
    else:
        if not np.all(np.isfinite(s.dissimilarity)):
            out.append(Violation("NonfiniteDissimilarity", "matrix has NaN or infinite entries"))
        diag = np.diagonal(s.dissimilarity)
        if np.any(diag != 0):
            bad = int(np.nonzero(diag)[0][0])
            out.append(Violation("NonzeroSelfDissimilarity", f"d({bad},{bad}) != 0"))
        if np.any(s.dissimilarity < 0):
            out.append(Violation("NegativeDissimilarity", "matrix has negative entries"))

    if s.capacities.shape != (V,):
        out.append(Violation("CapacitiesShape", f"expected ({V},), got {s.capacities.shape}"))
    elif np.any(s.capacities < 0):
        out.append(Violation("NegativeCapacity", "capacities must be nonnegative"))

    if not np.isfinite(s.alpha):
        out.append(Violation("NonfiniteAlpha", f"alpha {s.alpha}"))
    elif s.alpha < 0:
        out.append(Violation("NegativeAlpha", f"alpha {s.alpha}"))
    return out
