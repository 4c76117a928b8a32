import numpy as np
import pytest

from simcache.cost import PathGeometry, PrimalState
from simcache.model import Network, Path, Request, Scenario
from simcache.projection import project_cache_matrix, project_delivery_matrix
from simcache.scenario import GenConfig, generate_scenario

# GenConfig fields of the mid-size instances (400 requests, 100 contents)
MID = dict(nodes_side=10, num_contents=100, num_requests=400, num_origins=40, capacity=5)


def make_line_scenario(taus=(2.0, 5.0), num_contents=2, capacity=1,
                       alpha=1.0, rate=1.0, content=0, dissimilarity=None):
    """Path-graph scenario 0 - 1 - ... - n with one request along the line;
    every content is sourced at the last node."""
    n = len(taus) + 1
    delays = {(k, k + 1): float(t) for k, t in enumerate(taus)}
    if dissimilarity is None:
        idx = np.arange(num_contents)
        dissimilarity = np.abs(idx[:, None] - idx[None, :]).astype(float)
    return Scenario(
        num_contents=num_contents,
        network=Network(num_nodes=n, delays=delays),
        sources=tuple(frozenset({n - 1}) for _ in range(num_contents)),
        requests=(Request(content=content, path=Path(tuple(range(n))), rate=rate),),
        dissimilarity=np.asarray(dissimilarity, dtype=float),
        capacities=np.full(n, capacity, dtype=int),
        alpha=alpha,
    )


def make_tiny_scenario(rng):
    """Random 3-node path instance small enough to enumerate exhaustively:
    2 contents sourced at the far end, unit capacities, 2 requests."""
    taus = rng.uniform(1.0, 10.0, size=2)
    delays = {(0, 1): float(taus[0]), (1, 2): float(taus[1])}
    requests = tuple(
        Request(content=int(rng.integers(2)),
                path=Path(tuple(range(int(rng.integers(2)), 3))),
                rate=float(rng.uniform(0.5, 2.0)))
        for _ in range(2))
    return Scenario(
        num_contents=2,
        network=Network(num_nodes=3, delays=delays),
        sources=(frozenset({2}), frozenset({2})),
        requests=requests,
        dissimilarity=np.array([[0.0, 1.0], [1.0, 0.0]]),
        capacities=np.ones(3, dtype=int),
        alpha=float(rng.choice([0.1, 1.0, 10.0])),
    )


def random_feasible_state(s, rng):
    """Random primal state satisfying box, capacity, pin, and simplex rows."""
    X = project_cache_matrix(rng.uniform(size=(s.num_nodes, s.num_contents)),
                             s.capacities, s.source_mask())
    Q = project_delivery_matrix(rng.uniform(size=(s.num_requests, s.num_contents)))
    return PrimalState(X, Q)


def random_box_state(s, rng, lo=0.05, hi=0.95):
    """Random interior state of the [0,1] box (not necessarily feasible)."""
    X = rng.uniform(lo, hi, size=(s.num_nodes, s.num_contents))
    Q = rng.uniform(lo, hi, size=(s.num_requests, s.num_contents))
    return PrimalState(X, Q)


@pytest.fixture(scope="session")
def default_scenario():
    return generate_scenario(GenConfig(seed=0))


@pytest.fixture(scope="session")
def small_scenario():
    return generate_scenario(GenConfig(
        nodes_side=3, num_contents=4, num_requests=8, num_origins=4,
        capacity=1, seed=2))


@pytest.fixture
def line_scenario():
    return make_line_scenario()


@pytest.fixture
def evaluations(monkeypatch):
    """A list that grows by one on every `PathGeometry.evaluate` call."""
    calls = []
    evaluate = PathGeometry.evaluate

    def counted(self, X, out=None):
        calls.append(X)
        return evaluate(self, X, out)

    monkeypatch.setattr(PathGeometry, "evaluate", counted)
    return calls


def allocate_every_evaluation(monkeypatch):
    """Make `PathGeometry.evaluate` ignore ``out``, so that every call
    returns freshly allocated terms and none is refilled."""
    evaluate = PathGeometry.evaluate
    monkeypatch.setattr(PathGeometry, "evaluate", lambda self, X, out=None: evaluate(self, X))
