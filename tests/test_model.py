import pickle
from dataclasses import replace

import numpy as np
import pytest

from simcache.model import (Network, Path, Request, Scenario, edge_key,
                            validate_scenario)

from conftest import make_line_scenario


class TestValidateScenario:
    def test_default_scenario_clean(self, default_scenario):
        assert validate_scenario(default_scenario) == []

    def _codes(self, s):
        return {v.code for v in validate_scenario(s)}

    def test_terminal_not_source(self):
        s = make_line_scenario()
        bad = Scenario(s.num_contents, s.network,
                       sources=(frozenset({0}), frozenset({s.num_nodes - 1})),
                       requests=s.requests, dissimilarity=s.dissimilarity,
                       capacities=s.capacities, alpha=s.alpha)
        assert "TerminalNotSource" in self._codes(bad)

    def test_nonzero_self_dissimilarity(self):
        s = make_line_scenario()
        d = s.dissimilarity.copy()
        d[1, 1] = 0.5
        bad = Scenario(s.num_contents, s.network, s.sources, s.requests,
                       d, s.capacities, s.alpha)
        assert "NonzeroSelfDissimilarity" in self._codes(bad)

    def test_negative_dissimilarity(self):
        s = make_line_scenario()
        d = s.dissimilarity.copy()
        d[0, 1] = -1.0
        bad = Scenario(s.num_contents, s.network, s.sources, s.requests,
                       d, s.capacities, s.alpha)
        assert "NegativeDissimilarity" in self._codes(bad)

    def test_missing_path_edge(self):
        s = make_line_scenario()
        req = Request(content=0, path=Path((0, 2)), rate=1.0)
        bad = Scenario(s.num_contents, s.network, s.sources, (req,),
                       s.dissimilarity, s.capacities, s.alpha)
        assert "PathEdgeMissing" in self._codes(bad)

    def test_cyclic_path(self):
        s = make_line_scenario()
        req = Request(content=0, path=Path((0, 1, 0, 1, 2)), rate=1.0)
        bad = Scenario(s.num_contents, s.network, s.sources, (req,),
                       s.dissimilarity, s.capacities, s.alpha)
        assert "PathRepeatsNode" in self._codes(bad)

    def test_negative_rate(self):
        s = make_line_scenario()
        req = Request(content=0, path=s.requests[0].path, rate=-2.0)
        bad = Scenario(s.num_contents, s.network, s.sources, (req,),
                       s.dissimilarity, s.capacities, s.alpha)
        assert "NegativeRate" in self._codes(bad)

    def test_empty_source_set(self):
        s = make_line_scenario()
        bad = Scenario(s.num_contents, s.network,
                       sources=(frozenset({s.num_nodes - 1}), frozenset()),
                       requests=s.requests, dissimilarity=s.dissimilarity,
                       capacities=s.capacities, alpha=s.alpha)
        assert "EmptySourceSet" in self._codes(bad)

    def test_nonpositive_edge_delay(self):
        s = make_line_scenario()
        net = Network(s.num_nodes, {(0, 1): 0.0, (1, 2): 5.0})
        bad = Scenario(s.num_contents, net, s.sources, s.requests,
                       s.dissimilarity, s.capacities, s.alpha)
        assert "NonpositiveEdgeDelay" in self._codes(bad)

    def test_disconnected(self):
        net = Network(3, {(0, 1): 1.0})
        s = make_line_scenario()
        bad = Scenario(s.num_contents, net,
                       sources=(frozenset({1}), frozenset({1})),
                       requests=(Request(0, Path((0, 1)), 1.0),),
                       dissimilarity=s.dissimilarity,
                       capacities=s.capacities, alpha=s.alpha)
        assert "DisconnectedNetwork" in self._codes(bad)

    @pytest.mark.parametrize("edge", [(0, 99), (-1, 0)])
    def test_undeclared_edge_endpoint(self, edge):
        s = make_line_scenario()
        bad = replace(s, network=Network(s.num_nodes, {**s.network.delays, edge: 1.0}))
        assert self._codes(bad) == {"EdgeEndpointUnknown"}

    def test_fewer_source_sets_than_contents(self):
        # the request's content 1 has no source set to end at
        bad = replace(make_line_scenario(content=1), sources=(frozenset({2}),))
        assert self._codes(bad) == {"SourceMapSize"}

    def test_negative_alpha_and_capacity(self):
        s = make_line_scenario()
        bad = Scenario(s.num_contents, s.network, s.sources, s.requests,
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
        bad = Scenario(s.num_contents, net, s.sources, reqs, d, s.capacities, alpha)
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
                bad = Scenario(s.num_contents, s.network, s.sources, s.requests,
                               d, s.capacities, s.alpha)
            elif kind == 1:
                i = int(rng.integers(0, s.num_requests))
                reqs = list(s.requests)
                reqs[i] = Request(reqs[i].content, reqs[i].path, -1.0)
                bad = Scenario(s.num_contents, s.network, s.sources, tuple(reqs),
                               s.dissimilarity, s.capacities, s.alpha)
            else:
                caps = s.capacities.copy()
                caps[int(rng.integers(0, s.num_nodes))] = -1
                bad = Scenario(s.num_contents, s.network, s.sources, s.requests,
                               s.dissimilarity, caps, s.alpha)
            assert validate_scenario(bad) != []


def test_network_delay_symmetric(default_scenario):
    net = default_scenario.network
    (u, v), tau = next(iter(net.delays.items()))
    assert net.delays[edge_key(u, v)] == net.delays[edge_key(v, u)] == tau


def test_unpickled_scenario_is_read_only(default_scenario):
    # sweep workers receive their instances pickled
    s = pickle.loads(pickle.dumps(default_scenario))
    assert s == default_scenario
    assert not s.dissimilarity.flags.writeable and not s.capacities.flags.writeable


@pytest.mark.parametrize("field,value", [("capacities", np.ones(4, dtype=int)),
                                         ("dissimilarity", np.zeros((3, 3)))])
def test_scenarios_of_other_shapes_are_unequal(default_scenario, field, value):
    other = replace(default_scenario, **{field: value})
    assert other != default_scenario and default_scenario != other
