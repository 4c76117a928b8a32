"""Problem-instance types: network, requests, and validation.

Node, content, and request identifiers are dense 0-based integers
internally; human-readable names live only in the scenario file format.
The contents are a count, ``Scenario.num_contents``.  All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) key for an undirected edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Network:
    """Undirected network with a single per-edge delivery delay.

    The same delay applies in both directions of an edge.
    """

    num_nodes: int
    delays: dict  # edge_key(u, v) -> delay (seconds per content unit)

    def neighbours(self) -> dict:
        """{node: [(neighbour, delay), ...]} in ascending neighbour order."""
        nbrs: dict[int, list] = {v: [] for v in range(self.num_nodes)}
        for (u, v), tau in self.delays.items():
            nbrs[u].append((v, tau))
            nbrs[v].append((u, tau))
        for v in nbrs:
            nbrs[v].sort()
        return nbrs

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return False
        nbrs, seen, todo = self.neighbours(), {0}, [0]
        while todo:
            for w, _ in nbrs[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == self.num_nodes


@dataclass(frozen=True)
class Path:
    """Acyclic node sequence; position 1 receives the request."""

    nodes: tuple

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Request:
    """A content together with its fixed forwarding path and arrival rate."""

    content: int
    path: Path
    rate: float


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable problem instance.

    The contents are a count: indices 0..num_contents-1.  sources[f] is the
    set of nodes permanently storing content f; every request path
    terminates at one of them.  capacities[v] counts cache slots at node v
    available for non-source contents.  alpha weights the dissimilarity
    cost against delay in the objective.
    """

    num_contents: int
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
    def num_requests(self) -> int:
        return len(self.requests)

    def rates(self) -> np.ndarray:
        return np.array([r.rate for r in self.requests], dtype=float)

    def source_mask(self) -> np.ndarray:
        """Read-only boolean |V| x |F| mask of permanently pinned (v, f) entries,
        built once on first use, so that a bad source still reaches validation."""
        if "_source_mask" not in self.__dict__:
            mask = np.zeros((self.num_nodes, self.num_contents), dtype=bool)
            for f, nodes in enumerate(self.sources):
                mask[list(nodes), f] = True
            mask.setflags(write=False)
            object.__setattr__(self, "_source_mask", mask)  # frozen dataclass
        return self._source_mask

    def __reduce__(self):  # rebuilt through __init__, so a copy is read-only too
        return Scenario, tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self.num_contents == other.num_contents
            and self.network == other.network
            and self.sources == other.sources
            and self.requests == other.requests
            and np.array_equal(self.dissimilarity, other.dissimilarity)
            and np.array_equal(self.capacities, other.capacities)
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

    stray = False  # an undeclared endpoint leaves connectivity undefined
    for (u, v), tau in s.network.delays.items():
        if not (0 <= u < V and 0 <= v < V):
            stray = True
            out.append(Violation("EdgeEndpointUnknown", f"edge ({u},{v}) has undeclared endpoint"))
        if not np.isfinite(tau):
            out.append(Violation("NonfiniteEdgeDelay", f"edge ({u},{v}) has delay {tau}"))
        elif not tau > 0:
            out.append(Violation("NonpositiveEdgeDelay", f"edge ({u},{v}) has delay {tau}"))
    if V >= 1 and not stray and not s.network.is_connected():
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
            if edge_key(a, b) not in s.network.delays:
                out.append(Violation("PathEdgeMissing", f"request {i} hop ({a},{b}) not an edge"))
        if r.content < len(s.sources) and p[-1] not in s.sources[r.content]:
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
