import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcache.cost import PathGeometry, PrimalState
from simcache.gradients import grad_x
from simcache.model import Network, Path, Request, Scenario, edge_key
from simcache.scenario import GenConfig, generate_scenario

from conftest import MID, make_line_scenario, random_box_state
from oracles import (oracle_delay, oracle_h, oracle_lagrangian, oracle_objective,
                     oracle_suffix_trie, padded_path_oracle)

BIG = dict(nodes_side=20, num_contents=300, num_requests=2000, num_origins=100, capacity=10)


def state_for(s, X=None, Q=None):
    V, F, R = s.num_nodes, s.num_contents, s.num_requests
    return PrimalState(
        np.zeros((V, F)) if X is None else np.asarray(X, dtype=float),
        np.zeros((R, F)) if Q is None else np.asarray(Q, dtype=float),
    )


class TestDeliveryDelay:
    def test_content_at_ingress_kills_delay(self, line_scenario):
        X = np.zeros((3, 2))
        X[0, 1] = 1.0
        assert PathGeometry(line_scenario).delays(X)[0, 1] == 0.0

    def test_empty_caches_sum_all_edges(self, line_scenario):
        X = np.zeros((3, 2))
        assert PathGeometry(line_scenario).delays(X)[0, 1] == pytest.approx(7.0)

    def test_fractional_hand_value(self, line_scenario):
        # tau = (2, 5); x = 0.5 at both upstream nodes:
        # 2 * 0.5 + 5 * 0.25 = 2.25
        X = np.zeros((3, 2))
        X[0, 1] = X[1, 1] = 0.5
        assert PathGeometry(line_scenario).delays(X)[0, 1] == pytest.approx(2.25)

    def test_monotone_nonincreasing_in_x(self, small_scenario):
        rng = np.random.default_rng(7)
        s = small_scenario
        geom = PathGeometry(s)
        for _ in range(30):
            S = random_box_state(s, rng)
            r = int(rng.integers(0, s.num_requests))
            f = int(rng.integers(0, s.num_contents))
            v = s.requests[r].path.nodes[
                rng.integers(0, len(s.requests[r].path))]
            before = geom.delays(S.X)[r, f]
            S.X[v, f] = min(1.0, S.X[v, f] + 0.3)
            assert geom.delays(S.X)[r, f] <= before + 1e-12

    def test_bounded_by_path_delay(self, small_scenario):
        rng = np.random.default_rng(8)
        s = small_scenario
        for _ in range(30):
            S = random_box_state(s, rng, lo=0.0, hi=1.0)
            r = int(rng.integers(0, s.num_requests))
            f = int(rng.integers(0, s.num_contents))
            p = s.requests[r].path.nodes
            full = sum(s.network.delays[edge_key(a, b)] for a, b in zip(p, p[1:]))
            assert -1e-12 <= PathGeometry(s).delays(S.X)[r, f] <= full + 1e-12


class TestDeliveryCost:
    def test_requested_content_is_delay_only(self, line_scenario):
        X = np.zeros((3, 2))
        assert PathGeometry(line_scenario).evaluate(X).costs[0, 0] == pytest.approx(7.0)

    def test_alpha_zero_equals_delay(self):
        s = make_line_scenario(alpha=0.0)
        X = np.zeros((3, 2))
        terms = PathGeometry(s).evaluate(X)
        assert terms.costs[0, 1] == terms.delays[0, 1]

    def test_weighted_dissimilarity(self):
        s = make_line_scenario(alpha=10.0)
        X = np.zeros((3, 2))
        assert PathGeometry(s).evaluate(X).costs[0, 1] == pytest.approx(7.0 + 10.0 * 1.0)


class TestObjective:
    def test_zero_rates(self):
        s = make_line_scenario(rate=0.0)
        S = state_for(s, Q=[[0.5, 0.5]])
        terms = PathGeometry(s).evaluate(S.X)
        assert terms.totals((S.Q, terms.costs)) == [0.0]

    def test_one_hot_delivery(self):
        s = make_line_scenario(rate=3.0, alpha=2.0)
        S = state_for(s, Q=[[0.0, 1.0]])
        terms = PathGeometry(s).evaluate(S.X)
        assert terms.totals((S.Q, terms.costs))[0] == pytest.approx(3.0 * (7.0 + 2.0 * 1.0))

    def test_matches_bruteforce_oracle(self, small_scenario):
        rng = np.random.default_rng(9)
        for _ in range(10):
            S = random_box_state(small_scenario, rng)
            terms = PathGeometry(small_scenario).evaluate(S.X)
            assert terms.totals((S.Q, terms.costs))[0] == pytest.approx(
                oracle_objective(small_scenario, S.X, S.Q), rel=1e-12)


class TestAvailabilityViolation:
    def test_requested_content_available_at_source(self, line_scenario):
        s = line_scenario
        X = s.source_mask().astype(float)
        S = PrimalState(X, np.ones((1, 2)))
        assert PathGeometry(s).evaluate(S.X).violations(S.Q)[0, 0] == 0.0

    def test_no_holder_full_violation(self, line_scenario):
        S = state_for(line_scenario, Q=[[1.0, 1.0]])
        # content 1 not cached anywhere and path sources only pin at load
        assert PathGeometry(line_scenario).evaluate(S.X).violations(S.Q)[0, 1] == 1.0

    def test_fractional_hand_value(self):
        s = make_line_scenario(taus=(2.0,))  # |p| = 2
        S = state_for(s, X=[[0.5, 0.5], [0.5, 0.5]], Q=[[0.5, 0.5]])
        assert PathGeometry(s).evaluate(S.X).violations(S.Q)[0, 1] == pytest.approx(0.125)

    def test_within_unit_interval(self, small_scenario):
        rng = np.random.default_rng(10)
        geom = PathGeometry(small_scenario)
        for _ in range(20):
            S = random_box_state(small_scenario, rng, lo=0.0, hi=1.0)
            h = geom.evaluate(S.X).violations(S.Q)
            assert np.all(h >= 0.0) and np.all(h <= 1.0)


class TestLagrangian:
    def test_zero_multipliers_equal_objective(self, small_scenario):
        rng = np.random.default_rng(12)
        S = random_box_state(small_scenario, rng)
        mu = np.zeros((small_scenario.num_requests, small_scenario.num_contents))
        geom = PathGeometry(small_scenario)
        terms = geom.evaluate(S.X)
        assert [geom.lagrangian(S, mu)] == terms.totals((S.Q, terms.costs))

    def test_integer_feasible_ignores_mu(self, line_scenario):
        s = line_scenario
        X = s.source_mask().astype(float)
        X[0, 0] = 1.0
        Q = np.array([[1.0, 0.0]])
        S = PrimalState(X, Q)
        mu_a = np.zeros((1, 2))
        mu_b = np.full((1, 2), 17.0)
        geom = PathGeometry(s)
        assert geom.lagrangian(S, mu_a) == pytest.approx(geom.lagrangian(S, mu_b))

    def test_matches_term_oracle(self, small_scenario):
        rng = np.random.default_rng(13)
        for _ in range(10):
            S = random_box_state(small_scenario, rng)
            mu = rng.uniform(0, 3, size=S.Q.shape)
            assert PathGeometry(small_scenario).lagrangian(S, mu) == pytest.approx(
                oracle_lagrangian(small_scenario, S.X, S.Q, mu), rel=1e-12)


class TestAggregates:
    def test_identity_objective_decomposition(self, default_scenario):
        rng = np.random.default_rng(14)
        s = default_scenario
        geom = PathGeometry(s)
        for _ in range(10):
            S = random_box_state(s, rng)
            terms = geom.evaluate(S.X)
            total, delay, dissim = terms.totals(
                (S.Q, terms.costs), (S.Q, terms.delays), (S.Q, geom.d_rows))
            assert total == pytest.approx(delay + s.alpha * dissim, rel=1e-9)

    def test_delivering_requested_zero_dissimilarity(self, line_scenario):
        S = state_for(line_scenario, Q=[[1.0, 0.0]])
        geom = PathGeometry(line_scenario)
        assert geom.evaluate(S.X).totals((S.Q, geom.d_rows)) == [0.0]

    def test_single_request_dissimilarity(self):
        d = [[0.0, 8.0], [8.0, 0.0]]
        s = make_line_scenario(dissimilarity=d)
        S = state_for(s, Q=[[0.0, 1.0]])
        geom = PathGeometry(s)
        assert geom.evaluate(S.X).totals((S.Q, geom.d_rows))[0] == pytest.approx(8.0)

    def test_expected_delay_ingress_hit(self, line_scenario):
        X = np.zeros((3, 2))
        X[0, 1] = 1.0
        S = state_for(line_scenario, X=X, Q=[[0.0, 1.0]])
        terms = PathGeometry(line_scenario).evaluate(S.X)
        assert terms.totals((S.Q, terms.delays)) == [0.0]

    def test_expected_delay_one_hot(self):
        s = make_line_scenario(rate=2.0)
        S = state_for(s, Q=[[1.0, 0.0]])
        terms = PathGeometry(s).evaluate(S.X)
        assert terms.totals((S.Q, terms.delays))[0] == pytest.approx(2.0 * 7.0)


class TestBatchGeometry:
    def test_batch_matches_scalar(self, small_scenario):
        s = small_scenario
        geom = PathGeometry(s)
        rng = np.random.default_rng(15)
        S = random_box_state(s, rng)
        t = geom.delays(S.X)
        avail = geom.availability_products(S.X)
        for r in range(s.num_requests):
            for f in range(s.num_contents):
                assert t[r, f] == pytest.approx(oracle_delay(s, S.X, r, f))
                ref = oracle_h(s, S.X, np.ones_like(S.Q), r, f)
                assert avail[r, f] == pytest.approx(ref)


TERM_ARRAYS = ("Y", "W", "delays", "avail", "costs")


class TestTermsReuse:
    @pytest.fixture(params=["line", "default", "mid"])
    def scenario(self, request):
        if request.param == "line":
            return make_line_scenario(num_contents=3)
        return generate_scenario(GenConfig(seed=0, **({} if request.param == "default" else MID)))

    def test_refill_equals_fresh_evaluation(self, scenario):
        s = scenario
        geom = PathGeometry(s)
        rng = np.random.default_rng(3)
        X1, X2 = rng.uniform(size=(2, s.num_nodes, s.num_contents))
        X2[:, 0] = 1.0  # a fully cached content zeroes its delays
        Q = rng.uniform(size=(s.num_requests, s.num_contents))
        terms = geom.evaluate(X1)
        before = terms.costs.copy()
        owned = [getattr(terms, k) for k in TERM_ARRAYS]
        assert geom.evaluate(X2, out=terms) is terms
        assert all(getattr(terms, k) is a for k, a in zip(TERM_ARRAYS, owned))
        fresh = geom.evaluate(X2)
        for k in TERM_ARRAYS:
            assert getattr(terms, k).tobytes() == getattr(fresh, k).tobytes(), k
        assert not np.array_equal(terms.costs, before)
        assert terms.totals((Q, terms.costs)) == fresh.totals((Q, fresh.costs))

    def test_other_terms_are_never_changed(self, scenario):
        s = scenario
        geom = PathGeometry(s)
        rng = np.random.default_rng(4)
        X1, X2, X3 = rng.uniform(size=(3, s.num_nodes, s.num_contents))
        kept = geom.evaluate(X1)
        owned = [getattr(kept, k) for k in TERM_ARRAYS]
        copies = {k: getattr(kept, k).copy() for k in TERM_ARRAYS}
        other = geom.evaluate(X2)
        geom.evaluate(X3, out=other)
        geom.evaluate(X2)
        assert all(getattr(kept, k) is a for k, a in zip(TERM_ARRAYS, owned))
        for k, a in copies.items():
            assert getattr(kept, k).tobytes() == a.tobytes(), k

    def test_caching_of_another_width_is_rejected(self, scenario):
        # the terms take their width from the geometry, not from X
        geom = PathGeometry(scenario)
        with pytest.raises(ValueError):
            geom.evaluate(np.zeros((scenario.num_nodes, scenario.num_contents + 1)))


@st.composite
def tree_scenarios(draw):
    """Requests routed up a random tree toward its root, stopping at the
    first source of their content.  Requests that start at one node for one content share the
    whole path, requests from different branches share only the suffix
    from where the branches meet, and a request that starts at a source
    has a one-node path; path lengths mix freely."""
    V = draw(st.integers(1, 12))
    F = draw(st.integers(1, 5))
    up = [None] + [draw(st.integers(0, k - 1)) for k in range(1, V)]
    hop = st.floats(0.5, 10.0)
    delays = {(up[k], k): draw(hop) for k in range(1, V)}
    extra = st.lists(st.integers(0, V - 1), max_size=2)
    sources = tuple(frozenset({0, *draw(extra)}) for _ in range(F))
    requests = []
    for _ in range(draw(st.integers(1, 15))):
        f = draw(st.integers(0, F - 1))
        path = [draw(st.integers(0, V - 1))]
        while path[-1] not in sources[f]:
            path.append(up[path[-1]])
        rate = draw(st.one_of(st.just(0.0), st.floats(0.1, 3.0)))
        requests.append(Request(f, Path(tuple(path)), rate))
    return Scenario(
        num_contents=F,
        network=Network(V, delays),
        sources=sources,
        requests=tuple(requests),
        dissimilarity=np.zeros((F, F)),
        capacities=np.ones(V, dtype=int),
        alpha=1.0,
    )


generated_scenarios = st.builds(
    lambda size, seed: generate_scenario(GenConfig(seed=seed, **size)),
    st.sampled_from([{}, MID]), st.integers(0, 20))


def hand_trie_scenario(*paths):
    """One content at node 3 of a five-node tree, one request per path."""
    return Scenario(
        num_contents=1,
        network=Network(5, {(0, 1): 2.0, (1, 2): 5.0, (2, 3): 1.5, (2, 4): 3.0}),
        sources=(frozenset({3}),),
        requests=tuple(Request(0, Path(p), 1.0) for p in paths),
        dissimilarity=np.zeros((1, 1)),
        capacities=np.ones(5, dtype=int),
        alpha=1.0,
    )


SHARED_SUFFIXES = ((0, 1, 2, 3), (4, 2, 3), (0, 1, 2, 3), (3,))


def assert_numbered_as_sorted_suffixes(s):
    """The trie arrays, byte for byte, and the level bounds of the oracle's
    sort of the path suffixes by length, then reversed tuple."""
    geom = PathGeometry(s)
    node, parent, tau, start, bounds = oracle_suffix_trie(s)
    for got, want in ((geom.node, node), (geom.parent, parent), (geom.tau, tau),
                      (geom.start, start)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert [(a, b) for a, b, *_ in geom.levels] == list(zip(bounds, bounds[1:]))


class TestSuffixTrie:
    def test_shared_suffixes_share_nodes(self):
        # paths 0-1-2-3 and 4-2-3 share the suffix 2-3; 3 alone is the terminal
        geom = PathGeometry(hand_trie_scenario(*SHARED_SUFFIXES))
        # levels: (3), (2 3), (1 2 3) and (4 2 3), (0 1 2 3)
        assert geom.node.tolist() == [3, 2, 1, 4, 0]
        assert geom.parent.tolist() == [5, 0, 1, 1, 2]
        assert geom.tau.tolist() == [0.0, 1.5, 5.0, 3.0, 2.0]
        assert geom.start.tolist() == [4, 3, 4, 0]
        assert [(a, b) for a, b, *_ in geom.levels] == [(0, 1), (1, 2), (2, 4), (4, 5)]

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda seed=seed, topology=topology: generate_scenario(
            GenConfig(seed=seed, topology=topology)), id=f"{topology}-{seed}")
          for seed in range(3) for topology in ("grid", "torus")),
        *(pytest.param(lambda seed=seed: generate_scenario(GenConfig(seed=seed, **MID)),
                       id=f"mid-{seed}") for seed in range(3)),
        pytest.param(lambda: hand_trie_scenario(*SHARED_SUFFIXES), id="shared-suffixes"),
        pytest.param(lambda: hand_trie_scenario((3,), (1,), (3,), (4,)), id="one-node-paths"),
        pytest.param(lambda: hand_trie_scenario(), id="no-requests"),
    ])
    def test_numbering_equals_the_sorted_suffixes(self, make):
        assert_numbered_as_sorted_suffixes(make())

    def test_a_hop_that_is_no_edge_raises(self):
        # the edge map's own KeyError, naming the missing hop
        with pytest.raises(KeyError) as err:
            PathGeometry(hand_trie_scenario((4, 2, 3), (0, 3)))
        assert err.value.args == ((0, 3),)

    def test_an_empty_path_raises(self):
        # validate_scenario reports it as EmptyPath; the geometry has no node for it
        with pytest.raises(ValueError, match="request 1 path is empty"):
            PathGeometry(hand_trie_scenario((2, 3), (), ()))

    @settings(max_examples=100, deadline=None)
    @given(tree_scenarios())
    def test_tree_numbering_equals_the_sorted_suffixes(self, s):
        assert_numbered_as_sorted_suffixes(s)

    @pytest.mark.parametrize("size", [{}, MID])
    def test_levels_follow_their_parents(self, size):
        geom = PathGeometry(generate_scenario(GenConfig(seed=0, **size)))
        prev = (geom.node.size, geom.node.size + 1)  # the sentinel
        for a, b, parents, _ in geom.levels:
            assert prev[0] <= parents.min() and parents.max() < prev[1]
            assert np.all(np.diff(parents) >= 0)  # siblings are contiguous
            prev = (a, b)
        assert prev[1] == geom.node.size

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(tree_scenarios(), generated_scenarios), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_matches_padded_oracle(self, s, seed, rate_weights):
        rng = np.random.default_rng(seed)
        V, F, R = s.num_nodes, s.num_contents, s.num_requests
        X = rng.uniform(size=(V, F))
        Q = rng.uniform(size=(R, F))
        mu = rng.uniform(0.0, 2.0, size=(R, F))
        w = None if rate_weights else rng.uniform(0.0, 3.0, size=R)
        terms = PathGeometry(s).evaluate(X)
        got = (terms.delays, terms.avail, grad_x(terms, Q, mu, w))
        # every term is a sum of nonnegative products, so a relative bound holds
        for a, b in zip(got, padded_path_oracle(s, X, Q, mu, w)):
            assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b))

    def test_big_instance_memory(self):
        s = generate_scenario(GenConfig(seed=0, **BIG))
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(s.num_nodes, s.num_contents))
        Q = rng.uniform(size=(s.num_requests, s.num_contents))
        mu = rng.uniform(size=Q.shape)
        geom = PathGeometry(s)
        tracemalloc.start()
        try:
            grad_x(geom.evaluate(X), Q, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the padded (R, P, F) layout needs more than 1 GB here
        assert peak < 250e6
