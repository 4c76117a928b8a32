import json
from itertools import permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from simcache.model import Network, validate_scenario
from simcache.scenario import (GenConfig, ScenarioFormatError, generate_scenario,
                               grid_edges, load_scenario, power_law_dissimilarity,
                               save_scenario, shortest_path, with_alpha,
                               with_capacity, zipf_probabilities)


class TestGenConfig:
    @pytest.mark.parametrize("kw", [
        dict(nodes_side=0), dict(topology="ring"), dict(num_contents=0),
        dict(num_requests=0), dict(num_origins=0), dict(num_origins=26),
        dict(capacity=-1), dict(beta=-1.0), dict(rho=-0.5), dict(alpha=-1.0),
        dict(rate=-1.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            GenConfig(**kw).validate()


class TestGridEdges:
    def test_grid_counts(self):
        assert len(grid_edges(5)) == 40
        assert len(grid_edges(2)) == 4
        assert len(grid_edges(1)) == 0

    def test_torus_counts(self):
        assert len(grid_edges(5, torus=True)) == 50
        # wrap edges would duplicate existing ones on a 2x2 board
        assert grid_edges(2, torus=True) == grid_edges(2)

    def test_edges_are_sorted_canonical_pairs(self):
        edges = grid_edges(4)
        assert edges == sorted(edges)
        assert all(u < v for u, v in edges)

    def test_grid_is_connected(self):
        edges = grid_edges(3)
        net = Network(num_nodes=9, delays={e: 1.0 for e in edges})
        assert net.is_connected()


class TestDissimilarity:
    def test_cubic_values(self):
        d = power_law_dissimilarity(10, 3.0)
        assert d[0, 1] == 1.0
        assert d[1, 4] == 27.0
        assert d[0, 9] == 729.0

    def test_symmetric_zero_diagonal(self):
        d = power_law_dissimilarity(7, 2.5)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_beta_zero_is_indicator(self):
        d = power_law_dissimilarity(4, 0.0)
        assert np.array_equal(d, 1.0 - np.eye(4))


class TestZipf:
    def test_uniform_when_flat(self):
        assert np.allclose(zipf_probabilities(10, 0.0), 0.1)

    def test_normalized_and_decreasing(self):
        p = zipf_probabilities(10, 1.2)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) < 0)
        assert p[0] / p[1] == pytest.approx(2.0 ** 1.2)

    @pytest.mark.parametrize("rho", [0.6, 1.2])
    def test_samples_match_distribution(self, rho):
        p = zipf_probabilities(10, rho)
        rng = np.random.default_rng(17)
        draws = rng.choice(10, size=20_000, p=p)
        observed = np.bincount(draws, minlength=10)
        _, pval = stats.chisquare(observed, 20_000 * p)
        assert pval > 0.01


class TestShortestPath:
    def brute_force(self, net, src, dst):
        best, best_path = np.inf, None
        others = [v for v in range(net.num_nodes) if v not in (src, dst)]
        for k in range(len(others) + 1):
            for mid in permutations(others, k):
                path = (src,) + mid + (dst,)
                if all(net.has_edge(a, b) for a, b in zip(path, path[1:])):
                    cost = sum(net.delay(a, b) for a, b in zip(path, path[1:]))
                    if cost < best - 1e-12 or (cost < best + 1e-12
                                               and path < best_path):
                        best, best_path = cost, path
        return best, best_path

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            edges = grid_edges(2) + [(0, 3)]
            net = Network(num_nodes=4, delays={
                e: float(rng.uniform(1, 10)) for e in edges})
            src, dst = rng.choice(4, size=2, replace=False)
            got = shortest_path(net, int(src), int(dst))
            cost = sum(net.delay(a, b) for a, b in zip(got, got[1:]))
            best, best_path = self.brute_force(net, int(src), int(dst))
            assert cost == pytest.approx(best)
            assert got == best_path

    def test_trivial_and_tie_break(self):
        net = Network(num_nodes=3, delays={(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0})
        assert shortest_path(net, 1, 1) == (1,)
        # both routes cost 2; the lexicographically smaller sequence wins
        assert shortest_path(net, 0, 2) == (0, 1, 2)

    def test_unreachable_raises(self):
        net = Network(num_nodes=3, delays={(0, 1): 1.0})
        with pytest.raises(ValueError):
            shortest_path(net, 0, 2)


class TestGenerateScenario:
    def test_default_shape(self, default_scenario):
        s = default_scenario
        assert s.num_nodes == 25
        assert s.num_contents == 10
        assert s.num_requests == 40
        assert len(s.network.delays) == 40
        assert np.all(s.capacities == 2)
        assert s.alpha == 10.0
        assert all(1.0 <= t <= 10.0 for t in s.network.delays.values())

    def test_origin_subset_size(self, default_scenario):
        origins = {r.path.nodes[0] for r in default_scenario.requests}
        assert len(origins) <= 12

    def test_paths_terminate_at_a_source(self, default_scenario):
        for r in default_scenario.requests:
            assert r.path.nodes[-1] in default_scenario.sources[r.content]

    def test_torus_edge_count(self):
        s = generate_scenario(GenConfig(topology="torus", seed=1))
        assert len(s.network.delays) == 50

    def test_validates_across_seeds(self):
        for seed in range(30):
            g = GenConfig(seed=seed, topology="torus" if seed % 3 == 0 else "grid",
                          nodes_side=3 + seed % 3, num_origins=4,
                          num_contents=4, num_requests=6)
            assert validate_scenario(generate_scenario(g)) == []

    def test_deterministic(self):
        assert generate_scenario(GenConfig(seed=5)) == generate_scenario(GenConfig(seed=5))

    def test_seed_changes_instance(self):
        assert generate_scenario(GenConfig(seed=5)) != generate_scenario(GenConfig(seed=6))


class TestVariants:
    def test_with_alpha(self, small_scenario):
        t = with_alpha(small_scenario, 99.0)
        assert t.alpha == 99.0
        assert t.requests == small_scenario.requests
        assert np.array_equal(t.dissimilarity, small_scenario.dissimilarity)

    def test_with_capacity(self, small_scenario):
        t = with_capacity(small_scenario, 3)
        assert np.all(t.capacities == 3)
        assert t.alpha == small_scenario.alpha


class TestFileFormat:
    def test_roundtrip(self, tmp_path, small_scenario):
        p = tmp_path / "scenario.json"
        save_scenario(small_scenario, p)
        assert load_scenario(p) == small_scenario

    def test_roundtrip_preserves_float_delays(self, tmp_path, default_scenario):
        p = tmp_path / "scenario.json"
        save_scenario(default_scenario, p)
        loaded = load_scenario(p)
        assert loaded.network.delays == default_scenario.network.delays

    def test_power_law_shorthand(self, tmp_path, small_scenario):
        p = tmp_path / "scenario.json"
        save_scenario(small_scenario, p)
        doc = json.loads(p.read_text())
        doc["dissimilarity"] = {"power_law": {"beta": 3.0}}
        p.write_text(json.dumps(doc))
        loaded = load_scenario(p)
        F = small_scenario.num_contents
        assert np.array_equal(loaded.dissimilarity,
                              power_law_dissimilarity(F, 3.0))

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.pop("alpha"), "alpha"),
        (lambda d: d.pop("nodes"), "nodes"),
        (lambda d: d.pop("sources"), "sources"),
        (lambda d: d["edges"][0].pop("delay"), "edges"),
        (lambda d: d["requests"][0].update(path=["v0", "nope"]), "nope"),
        (lambda d: d.update(dissimilarity=[[0.0]]), "dissimilarity"),
        (lambda d: d.update(dissimilarity={"power_law": {}}), "dissimilarity"),
        (lambda d: d["nodes"].append(d["nodes"][0]), "duplicate"),
        pytest.param(lambda d: d["requests"][0].update(rate="fast"), "requests",
                     id="rate-not-a-number"),
        pytest.param(lambda d: d["capacities"].update(v0="big"), "capacities",
                     id="capacity-not-an-int"),
        pytest.param(lambda d: d.update(capacities=list(d["capacities"].values())),
                     "capacities", id="capacities-as-list"),
        pytest.param(lambda d: d.update(edges=5), "edges", id="edges-not-a-list"),
        pytest.param(lambda d: d["dissimilarity"][0].pop(), "dissimilarity",
                     id="ragged-dissimilarity"),
    ])
    def test_malformed_documents(self, tmp_path, small_scenario, mutate, fragment):
        p = tmp_path / "scenario.json"
        save_scenario(small_scenario, p)
        doc = json.loads(p.read_text())
        mutate(doc)
        p.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match=fragment):
            load_scenario(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioFormatError, match="JSON"):
            load_scenario(p)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_fuzz_raises_only_format_errors(tmp_path, small_scenario, data):
    # one field of a valid document, at the top level or inside an entry,
    # replaced by an arbitrary JSON value
    p = tmp_path / "scenario.json"
    save_scenario(small_scenario, p)
    doc = json.loads(p.read_text())
    key = data.draw(st.sampled_from(sorted(doc)))
    target, field = doc, key
    if isinstance(doc[key], (list, dict)) and doc[key] and data.draw(st.booleans()):
        target = doc[key]
        field = data.draw(st.sampled_from(
            range(len(target)) if isinstance(target, list) else sorted(target)))
        if isinstance(target[field], dict) and data.draw(st.booleans()):
            target = target[field]
            field = data.draw(st.sampled_from(sorted(target)))
    target[field] = data.draw(json_values)
    p.write_text(json.dumps(doc))
    try:
        loaded = load_scenario(p)
    except ScenarioFormatError:
        return
    assert loaded.num_contents == len(doc["contents"])
