import numpy as np
import pytest

from simcache.model import (ABSENT, Catalog, Network, Path, Request, Scenario,
                            position_in_path, validate_scenario)

from conftest import make_line_scenario


class TestPositionInPath:
    def test_first_element(self):
        p = Path((4, 7, 9))
        assert position_in_path(4, p) == 1

    def test_last_element(self):
        p = Path((4, 7, 9))
        assert position_in_path(9, p) == 3

    def test_absent(self):
        p = Path((4, 7, 9))
        assert position_in_path(5, p) == ABSENT

    def test_random_paths_exhaustive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            nodes = tuple(rng.permutation(20)[: rng.integers(1, 9)])
            p = Path(nodes)
            for v in range(20):
                k = position_in_path(v, p)
                if v in nodes:
                    assert nodes[k - 1] == v
                else:
                    assert k == ABSENT


class TestValidateScenario:
    def test_default_scenario_clean(self, default_scenario):
        assert validate_scenario(default_scenario) == []

    def _codes(self, s):
        return {v.code for v in validate_scenario(s)}

    def test_terminal_not_source(self):
        s = make_line_scenario()
        bad = Scenario(s.catalog, s.network,
                       sources=(frozenset({0}), frozenset({s.num_nodes - 1})),
                       requests=s.requests, dissimilarity=s.dissimilarity,
                       capacities=s.capacities, alpha=s.alpha)
        assert "TerminalNotSource" in self._codes(bad)

    def test_nonzero_self_dissimilarity(self):
        s = make_line_scenario()
        d = s.dissimilarity.copy()
        d[1, 1] = 0.5
        bad = Scenario(s.catalog, s.network, s.sources, s.requests,
                       d, s.capacities, s.alpha)
        assert "NonzeroSelfDissimilarity" in self._codes(bad)

    def test_negative_dissimilarity(self):
        s = make_line_scenario()
        d = s.dissimilarity.copy()
        d[0, 1] = -1.0
        bad = Scenario(s.catalog, s.network, s.sources, s.requests,
                       d, s.capacities, s.alpha)
        assert "NegativeDissimilarity" in self._codes(bad)

    def test_missing_path_edge(self):
        s = make_line_scenario()
        req = Request(content=0, path=Path((0, 2)), rate=1.0)
        bad = Scenario(s.catalog, s.network, s.sources, (req,),
                       s.dissimilarity, s.capacities, s.alpha)
        assert "PathEdgeMissing" in self._codes(bad)

    def test_cyclic_path(self):
        s = make_line_scenario()
        req = Request(content=0, path=Path((0, 1, 0, 1, 2)), rate=1.0)
        bad = Scenario(s.catalog, s.network, s.sources, (req,),
                       s.dissimilarity, s.capacities, s.alpha)
        assert "PathRepeatsNode" in self._codes(bad)

    def test_negative_rate(self):
        s = make_line_scenario()
        req = Request(content=0, path=s.requests[0].path, rate=-2.0)
        bad = Scenario(s.catalog, s.network, s.sources, (req,),
                       s.dissimilarity, s.capacities, s.alpha)
        assert "NegativeRate" in self._codes(bad)

    def test_empty_source_set(self):
        s = make_line_scenario()
        bad = Scenario(s.catalog, s.network,
                       sources=(frozenset({s.num_nodes - 1}), frozenset()),
                       requests=s.requests, dissimilarity=s.dissimilarity,
                       capacities=s.capacities, alpha=s.alpha)
        assert "EmptySourceSet" in self._codes(bad)

    def test_nonpositive_edge_delay(self):
        s = make_line_scenario()
        net = Network(s.num_nodes, {(0, 1): 0.0, (1, 2): 5.0})
        bad = Scenario(s.catalog, net, s.sources, s.requests,
                       s.dissimilarity, s.capacities, s.alpha)
        assert "NonpositiveEdgeDelay" in self._codes(bad)

    def test_disconnected(self):
        net = Network(3, {(0, 1): 1.0})
        s = make_line_scenario()
        bad = Scenario(s.catalog, net,
                       sources=(frozenset({1}), frozenset({1})),
                       requests=(Request(0, Path((0, 1)), 1.0),),
                       dissimilarity=s.dissimilarity,
                       capacities=s.capacities, alpha=s.alpha)
        assert "DisconnectedNetwork" in self._codes(bad)

    def test_negative_alpha_and_capacity(self):
        s = make_line_scenario()
        bad = Scenario(s.catalog, s.network, s.sources, s.requests,
                       s.dissimilarity, np.array([-1, 1, 1]), -2.0)
        codes = self._codes(bad)
        assert "NegativeCapacity" in codes and "NegativeAlpha" in codes

    @pytest.mark.parametrize("field,code", [
        ("alpha", "NonfiniteAlpha"), ("rate", "NonfiniteRate"),
        ("delay", "NonfiniteEdgeDelay"), ("dissimilarity", "NonfiniteDissimilarity"),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_values(self, field, code, value):
        s = make_line_scenario()
        net, reqs, d, alpha = s.network, s.requests, s.dissimilarity, s.alpha
        if field == "alpha":
            alpha = value
        elif field == "rate":
            reqs = (Request(reqs[0].content, reqs[0].path, value),)
        elif field == "delay":
            net = Network(s.num_nodes, {(0, 1): value, (1, 2): 5.0})
        else:
            d = s.dissimilarity.copy()
            d[0, 1] = value
        bad = Scenario(s.catalog, net, s.sources, reqs, d, s.capacities, alpha)
        assert code in self._codes(bad)

    def test_corrupt_one_field_randomized(self, small_scenario):
        # soundness: corrupting exactly one field is always detected
        s = small_scenario
        rng = np.random.default_rng(5)
        for _ in range(20):
            kind = rng.integers(0, 3)
            if kind == 0:
                d = s.dissimilarity.copy()
                f = int(rng.integers(0, s.num_contents))
                d[f, f] = 1.0
                bad = Scenario(s.catalog, s.network, s.sources, s.requests,
                               d, s.capacities, s.alpha)
            elif kind == 1:
                i = int(rng.integers(0, s.num_requests))
                reqs = list(s.requests)
                reqs[i] = Request(reqs[i].content, reqs[i].path, -1.0)
                bad = Scenario(s.catalog, s.network, s.sources, tuple(reqs),
                               s.dissimilarity, s.capacities, s.alpha)
            else:
                caps = s.capacities.copy()
                caps[int(rng.integers(0, s.num_nodes))] = -1
                bad = Scenario(s.catalog, s.network, s.sources, s.requests,
                               s.dissimilarity, caps, s.alpha)
            assert validate_scenario(bad) != []


def test_network_delay_symmetric(default_scenario):
    net = default_scenario.network
    (u, v), tau = next(iter(net.delays.items()))
    assert net.delay(u, v) == net.delay(v, u) == tau
