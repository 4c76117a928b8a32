"""Scenario generation (grid topology, Zipf requests, power-law
dissimilarity) and the JSON file format.

Generation draws, in fixed order from one seeded generator: edge delays
(uniform on [1, 10]), one source node per content, the origin subset, and
per-request (content, origin) pairs.  Paths are minimum-total-delay
shortest paths with ties broken toward the smaller node sequence.  They
come from one search per distinct origin, which settles every source that
origin's requests need.  Up to a node's first pop that search makes the
same pops as a search for that node alone, so each path, its tie-break and
its float length are those of a separate per-request search.

The file writer lays the document out itself, with the bytes that
``json.dump`` writes; it forms the text of each distinct dissimilarity
value once.  The reader turns every malformed document into a
ScenarioFormatError that names the key.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .model import Network, Path, Request, Scenario, edge_key


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
    seed: int = 0

    def __post_init__(self):
        if self.nodes_side < 1:
            raise ValueError("nodes_side must be >= 1")
        if self.topology not in ("grid", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.num_contents < 1 or self.num_requests < 1:
            raise ValueError("num_contents and num_requests must be >= 1")
        if not 1 <= self.num_origins <= self.nodes_side ** 2:
            raise ValueError("num_origins must lie in [1, nodes_side^2]")
        if self.capacity < 0 or self.seed < 0:
            raise ValueError("capacity and seed must be nonnegative")
        if not all(0 <= x < np.inf for x in (self.beta, self.rho, self.alpha)):
            raise ValueError("beta, rho, alpha must be finite and nonnegative")


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


def shortest_paths(neighbours: dict, src: int, dsts) -> dict:
    """{dst: minimum-total-delay path from src} for every node in dsts.

    Dijkstra over (distance, path) heap entries that pops until every
    destination is settled.  Equal-cost ties pop the smaller node sequence
    first, so output is deterministic.  An entry is pushed only when its
    distance is no larger than that of every entry already pushed for its
    node: a longer one could never be its node's first pop, so the pops
    that settle nodes, and with them the tie rule, are those of a search
    that pushes every entry.  The pops up to a destination's first one do
    not depend on the other destinations, so each path is the one a search
    for that destination alone returns.  The settled flags and the smallest
    pushed distances are lists indexed by node id (the nodes of
    ``neighbours`` are 0..V-1).
    """
    todo = set(dsts)
    paths = {}
    done = [False] * len(neighbours)
    shortest = [np.inf] * len(neighbours)  # smallest distance pushed for each node
    shortest[src] = 0.0
    heap = [(0.0, (src,))]
    pop, push = heapq.heappop, heapq.heappush
    while heap and todo:
        dist, path = pop(heap)
        node = path[-1]
        if done[node]:
            continue
        done[node] = True
        if node in todo:
            todo.remove(node)
            paths[node] = path
        for w, tau in neighbours[node]:
            d = dist + tau
            if d <= shortest[w]:
                shortest[w] = d
                push(heap, (d, path + (w,)))
    if todo:
        raise ValueError(f"no path from {src} to {min(todo)}")
    return paths


def generate_scenario(g: GenConfig) -> Scenario:
    """Build a random instance following the experimental setup defaults, every rate 1."""
    rng = np.random.default_rng(g.seed)
    V = g.nodes_side ** 2
    edges = grid_edges(g.nodes_side, torus=(g.topology == "torus"))
    delays = {e: float(d) for e, d in zip(edges, rng.uniform(1.0, 10.0, len(edges)))}
    network = Network(num_nodes=V, delays=delays)

    sources = tuple(frozenset({int(rng.integers(0, V))})
                    for _ in range(g.num_contents))
    origins = sorted(int(v) for v in rng.choice(V, size=g.num_origins, replace=False))

    # Generator.choice(F, p=probs) forms this CDF and looks up one uniform
    cdf = zipf_probabilities(g.num_contents, g.rho).cumsum()
    cdf = (cdf / cdf[-1]).tolist()
    draws = []  # (content, origin, source node) per request
    wanted: dict[int, set] = {}  # origin -> the source nodes its requests need
    for _ in range(g.num_requests):
        f = bisect_right(cdf, rng.random())  # as searchsorted(side="right")
        origin = int(origins[rng.integers(0, len(origins))])
        src_node = min(sources[f])
        draws.append((f, origin, src_node))
        wanted.setdefault(origin, set()).add(src_node)

    neighbours = network.neighbours()
    paths = {origin: shortest_paths(neighbours, origin, dsts)
             for origin, dsts in wanted.items()}

    return Scenario(
        num_contents=g.num_contents,
        network=network,
        sources=sources,
        requests=tuple(Request(content=f, path=Path(paths[origin][src_node]), rate=1.0)
                       for f, origin, src_node in draws),
        dissimilarity=power_law_dissimilarity(g.num_contents, g.beta),
        capacities=np.full(V, g.capacity, dtype=int),
        alpha=g.alpha,
    )


def with_alpha(s: Scenario, alpha: float) -> Scenario:
    """Same instance with a different dissimilarity weight."""
    return replace(s, alpha=alpha)


def with_capacity(s: Scenario, capacity: int) -> Scenario:
    """Same instance with a uniform cache capacity at every node."""
    return replace(s, capacities=np.full(s.num_nodes, capacity, dtype=int))


# -- file format ---------------------------------------------------------


def _json_numbers(values: list) -> list:
    """Each number as json writes it (float repr, NaN, Infinity), from one
    call of the C encoder; no number's text holds the ", " it splits on."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _layout(items: list, depth: int, brackets: str = "[]") -> str:
    """json's indent=1 layout of a list (an object with brackets "{}")
    opened at indent ``depth``, from its items already laid out."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * depth + brackets[1]


def save_scenario(s: Scenario, path) -> None:
    """Write the JSON scenario document; floats round-trip exactly.

    The file holds the bytes of ``json.dump(doc, fh, indent=1)`` and a
    newline, laid out here from the document's fixed shape and written
    section by section.  The dissimilarity matrix is laid out from the text
    of each distinct value, formed once; values are told apart by their
    bits, so -0.0 keeps its sign next to 0.0.
    """
    edges = sorted(s.network.delays.items())
    delays = _json_numbers([tau for _, tau in edges])
    rates = _json_numbers([r.rate for r in s.requests])
    with open(path, "w") as fh:
        fh.write('{\n "nodes": ' + _layout([f'"v{v}"' for v in range(s.num_nodes)], 1))
        fh.write(',\n "edges": ' + _layout([
            f'{{\n   "u": "v{u}",\n   "v": "v{v}",\n   "delay": {tau}\n  }}'
            for ((u, v), _), tau in zip(edges, delays)], 1))
        fh.write(',\n "contents": ' + _layout([f'"f{f}"' for f in range(s.num_contents)], 1))
        fh.write(',\n "sources": ' + _layout([
            f'"f{f}": ' + _layout([f'"v{v}"' for v in sorted(nodes)], 2)
            for f, nodes in enumerate(s.sources)], 1, "{}"))
        fh.write(',\n "capacities": ' + _layout([
            f'"v{v}": {int(c)}' for v, c in enumerate(s.capacities)], 1, "{}"))
        fh.write(',\n "requests": ' + _layout([
            f'{{\n   "content": "f{r.content}",\n   "path": '
            + ('[\n    "v' + '",\n    "v'.join(map(str, r.path.nodes)) + '"\n   ]'
               if r.path.nodes else "[]")  # _layout of the names, by one join
            + f',\n   "rate": {rate}\n  }}'
            for r, rate in zip(s.requests, rates)], 1))
        d = np.asarray(s.dissimilarity, dtype=float)
        bits, inverse = np.unique(d.view(np.int64).ravel(), return_inverse=True)
        texts = np.array(_json_numbers(bits.view(float).tolist()), dtype=object)
        rows = texts[inverse].reshape(d.shape).tolist()
        fh.write(',\n "dissimilarity": ' + _layout(
            [_layout(row, 2) for row in rows], 1) + ',\n "alpha": '
            + _json_numbers([s.alpha])[0] + "\n}\n")


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


def _number(value) -> float:
    """A JSON number (int or float, not bool) as a float."""
    if type(value) not in (int, float):  # float() would load "2" and true
        raise ValueError(f"{value!r} is no number")
    return float(value)


def _names(doc: dict, key: str) -> tuple:
    """The list of names under ``key`` and each name's index in it."""
    with _parsing(key):
        names = _require(doc, key)
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ScenarioFormatError(f"duplicate entries under {key!r}")
    return names, index


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

    node_names, node_index = _names(doc, "nodes")
    content_names, content_index = _names(doc, "contents")

    delays = {}
    with _parsing("edges"):
        for e in _require(doc, "edges"):
            key = edge_key(node_index[e["u"]], node_index[e["v"]])
            if key in delays:
                raise ScenarioFormatError(f"duplicate edge {e['u']}-{e['v']} under 'edges'")
            delays[key] = _number(e["delay"])
    network = Network(num_nodes=len(node_names), delays=delays)

    with _parsing("sources"):
        src_doc = _require(doc, "sources")
        sources = tuple(frozenset(node_index[v] for v in src_doc[name]) for name in content_names)

    capacities = np.zeros(len(node_names), dtype=int)
    with _parsing("capacities"):
        for name, c in _require(doc, "capacities").items():
            if type(c) is not int:  # int(c) would load 1.5 and true as 1
                raise ScenarioFormatError(f"capacity {c!r} under 'capacities' is no integer")
            capacities[node_index[name]] = c

    requests = []
    with _parsing("requests"):
        for r in _require(doc, "requests"):
            f, p, rate = r["content"], r["path"], r["rate"]
            requests.append(Request(
                content=content_index[f],
                path=Path(tuple(map(node_index.__getitem__, p))),
                rate=_number(rate),
            ))

    F = len(content_names)
    with _parsing("dissimilarity"):
        d_doc = _require(doc, "dissimilarity")
        if isinstance(d_doc, dict):
            if "power_law" not in d_doc or "beta" not in d_doc.get("power_law", {}):
                raise ScenarioFormatError(
                    "'dissimilarity' object must be {'power_law': {'beta': ...}}")
            dissimilarity = power_law_dissimilarity(F, _number(d_doc["power_law"]["beta"]))
        else:
            if not set(map(type, chain.from_iterable(d_doc))) <= {int, float}:
                raise ScenarioFormatError("an entry of 'dissimilarity' is no number")
            dissimilarity = np.array(d_doc, dtype=float)
            if dissimilarity.shape != (F, F):
                raise ScenarioFormatError(
                    f"'dissimilarity' must be {F}x{F}, got {dissimilarity.shape}")

    with _parsing("alpha"):
        alpha = _number(_require(doc, "alpha"))
    return Scenario(
        num_contents=F,
        network=network,
        sources=sources,
        requests=tuple(requests),
        dissimilarity=dissimilarity,
        capacities=capacities,
        alpha=alpha,
    )
