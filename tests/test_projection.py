import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import MID
from oracles import (project_cache_row, project_delivery_row, qp_cache_oracle,
                     qp_simplex_oracle, reference_project_cache_matrix,
                     reference_project_delivery_matrix)
from simcache import hibsa
from simcache.hibsa import SolverConfig, solve_offline
from simcache.model import Network, Scenario
from simcache.projection import project_cache_matrix, project_delivery_matrix
from simcache.scenario import GenConfig, generate_scenario

finite_rows = arrays(
    np.float64, st.integers(min_value=1, max_value=8),
    elements=st.floats(min_value=-5, max_value=5, allow_nan=False))

# a grid whose values repeat, sit exactly at 0 and 1, and lie exactly 1
# apart, so breakpoints x - 1 and x of different entries coincide
GRID = [-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]


@st.composite
def cache_matrices(draw):
    """(X, capacities, pins): grid or free float values, capacities from 0
    up to above the row length, random pins."""
    V = draw(st.integers(1, 4))
    F = draw(st.integers(1, 6))
    values = st.one_of(st.sampled_from(GRID),
                       st.floats(min_value=-2, max_value=3, allow_nan=False))
    X = draw(arrays(float, (V, F), elements=values))
    caps = draw(arrays(int, V, elements=st.integers(0, F + 1)))
    pins = draw(arrays(bool, (V, F)))
    return X, caps, pins


# delivery rows with exact zeros of both signs and repeated values
delivery_matrices = arrays(
    float, st.tuples(st.integers(1, 5), st.integers(1, 7)),
    elements=st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0]),
                       st.floats(min_value=-3, max_value=3, allow_nan=False)))


class TestCacheRow:
    def test_clip_suffices(self):
        out = project_cache_row(np.array([1.2, 0.5, -0.1]), 2)
        assert np.allclose(out, [1.0, 0.5, 0.0])

    def test_symmetric_shift(self):
        out = project_cache_row(np.array([1.0, 1.0, 1.0]), 1)
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_pinned_coordinate(self):
        out = project_cache_row(np.array([0.9, 0.2]), 1, pinned=[0])
        assert np.allclose(out, [1.0, 0.2])

    def test_zero_capacity(self):
        out = project_cache_row(np.array([0.7, 0.9]), 0)
        assert np.allclose(out, [0.0, 0.0])

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            x = rng.uniform(-2, 3, size=n)
            cap = int(rng.integers(0, n + 1))
            pinned = [i for i in range(n) if rng.random() < 0.2]
            ours = project_cache_row(x, cap, pinned)
            ref = qp_cache_oracle(x, cap, pinned)
            assert np.linalg.norm(ours - ref) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(finite_rows, st.integers(min_value=0, max_value=8))
    def test_idempotent_and_feasible(self, x, cap):
        once = project_cache_row(x, cap)
        twice = project_cache_row(once, cap)
        assert np.allclose(once, twice, atol=1e-10)
        assert np.all(once >= -1e-9) and np.all(once <= 1 + 1e-9)
        assert once.sum() <= cap + 1e-9

    def test_nonexpansive(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            a, b = rng.uniform(-2, 3, size=(2, n))
            cap = int(rng.integers(0, n + 1))
            pa = project_cache_row(a, cap)
            pb = project_cache_row(b, cap)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


class TestCacheMatrix:
    @settings(max_examples=200, deadline=None)
    @given(cache_matrices())
    @example((np.array([[0.7, 0.9, 0.7]]), np.array([0]),
              np.zeros((1, 3), bool)))  # capacity 0
    @example((np.array([[1.5, 0.5, -1.0], [0.25, 2.0, 0.25]]), np.array([2, 4]),
              np.array([[False, True, False], [False] * 3])))  # at and above the free count
    @example((np.array([[0.3, 0.9], [1.5, 1.5]]), np.array([0, 1]),
              np.array([[True, True], [False, True]])))  # every entry of row 0 pinned
    @example((np.array([[1.5, 1.5, 0.25, 0.0], [2.0, 1.25, 0.0, 0.125]]), np.array([2, 2]),
              np.zeros((2, 4), bool)))  # g flat at the capacity on [0.25, 0.5] and [0.125, 0.25]
    @example((np.array([[0.0, 1.0, 2.0, 1.0, 0.0]]), np.array([1]),
              np.zeros((1, 5), bool)))  # repeated values exactly 1 apart
    def test_rows_match_qp_oracle(self, case):
        X, caps, pins = case
        out = project_cache_matrix(X, caps, pins)
        for v in range(X.shape[0]):
            ref = qp_cache_oracle(X[v], int(caps[v]), np.nonzero(pins[v])[0])
            assert np.linalg.norm(out[v] - ref) <= 1e-8

    def test_budget_is_met_exactly(self):
        # where clipping exceeds the budget, the projection meets it with
        # equality up to rounding, not up to a search tolerance
        rng = np.random.default_rng(27)
        worst = 0.0
        for _ in range(2000):
            F = int(rng.integers(1, 12))
            X = rng.uniform(-1, 2, size=(5, F))
            pins = rng.random((5, F)) < 0.2
            caps = rng.integers(0, F + 1, size=5)
            out = project_cache_matrix(X, caps, pins)
            over = np.where(pins, 0.0, np.clip(X, 0, 1)).sum(axis=1) > caps
            free_sum = np.where(pins, 0.0, out).sum(axis=1)
            if over.any():
                worst = max(worst, np.abs(free_sum[over] - caps[over]).max())
        assert worst <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(cache_matrices(), st.data())
    def test_pinned_inputs_are_ignored(self, case, data):
        # the primal step relies on this: it hands over pinned x entries
        # moved by their gradient instead of zeroing that gradient first
        X, caps, pins = case
        other = data.draw(arrays(float, X.shape, elements=st.floats(
            allow_nan=False, allow_infinity=False)))
        moved = np.where(pins, other, X)
        assert np.array_equal(project_cache_matrix(moved, caps, pins),
                              project_cache_matrix(X, caps, pins))

    def test_source_mask_is_read_only_and_matches_the_sources(self):
        sources = (frozenset({0, 2}), frozenset({3}), frozenset({0, 1, 2, 3}))
        s = Scenario(num_contents=3, network=Network(num_nodes=4, delays={}),
                     sources=sources, requests=(), dissimilarity=np.zeros((3, 3)),
                     capacities=np.ones(4, dtype=int), alpha=1.0)
        ref = np.zeros((4, 3), dtype=bool)
        for f, nodes in enumerate(sources):
            for v in nodes:
                ref[v, f] = True
        mask = s.source_mask()
        assert np.array_equal(mask, ref)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[1, 0] = True
        assert s.source_mask() is mask  # built once per scenario


class TestDeliveryRow:
    def test_symmetric_pair(self):
        assert np.allclose(project_delivery_row(np.array([0.8, 0.8])), [0.5, 0.5])

    def test_already_on_simplex(self):
        q = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_delivery_row(q), q)

    def test_vertex(self):
        assert np.allclose(project_delivery_row(np.array([2.0, 0.0, 0.0])),
                           [1.0, 0.0, 0.0])

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            q = rng.uniform(-2, 3, size=n)
            ours = project_delivery_row(q)
            ref = qp_simplex_oracle(q)
            assert np.linalg.norm(ours - ref) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(finite_rows)
    def test_idempotent_and_feasible(self, q):
        once = project_delivery_row(q)
        assert np.allclose(project_delivery_row(once), once, atol=1e-10)
        assert np.all(once >= -1e-12)
        assert once.sum() == pytest.approx(1.0, abs=1e-9)

    def test_nonexpansive(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            a, b = rng.uniform(-2, 3, size=(2, n))
            pa, pb = project_delivery_row(a), project_delivery_row(b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


class TestMatrixForms:
    def test_cache_matrix_matches_rows(self, small_scenario):
        s = small_scenario
        rng = np.random.default_rng(25)
        pins = s.source_mask()
        X = rng.uniform(-1, 2, size=(s.num_nodes, s.num_contents))
        full = project_cache_matrix(X, s.capacities, pins)
        for v in range(s.num_nodes):
            pinned = np.nonzero(pins[v])[0]
            ref = project_cache_row(X[v], int(s.capacities[v]), pinned)
            assert np.allclose(full[v], ref, atol=1e-9)

    def test_delivery_matrix_matches_rows(self):
        rng = np.random.default_rng(26)
        Q = rng.uniform(-1, 2, size=(12, 6))
        full = project_delivery_matrix(Q)
        for r in range(Q.shape[0]):
            assert np.allclose(full[r], project_delivery_row(Q[r]), atol=1e-9)


class TestSameBytesAsTheReference:
    """The matrix projections give the bytes of the reference forms in
    ``oracles``, the sign of zero included, not only values within a
    tolerance."""

    @settings(max_examples=300, deadline=None)
    @given(cache_matrices())
    def test_cache_matrix(self, case):
        X, caps, pins = case
        assert (project_cache_matrix(X, caps, pins).tobytes()
                == reference_project_cache_matrix(X, caps, pins).tobytes())

    @settings(max_examples=300, deadline=None)
    @given(delivery_matrices)
    def test_delivery_matrix(self, Q):
        assert (project_delivery_matrix(Q).tobytes()
                == reference_project_delivery_matrix(Q).tobytes())

    def test_on_solver_iterates(self, monkeypatch):
        # every projection of a 20-iteration mid solve, on its own input
        seen = []

        def checked(project, reference):
            def run(*args):
                out = project(*args)
                seen.append(out.tobytes() == reference(*args).tobytes())
                return out
            return run

        monkeypatch.setattr(hibsa, "project_cache_matrix", checked(
            project_cache_matrix, reference_project_cache_matrix))
        monkeypatch.setattr(hibsa, "project_delivery_matrix", checked(
            project_delivery_matrix, reference_project_delivery_matrix))
        solve_offline(generate_scenario(GenConfig(seed=0, **MID)), SolverConfig(max_iters=20))
        assert len(seen) == 40 and all(seen)
