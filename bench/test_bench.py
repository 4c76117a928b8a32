"""Self-test of the benchmark: `python -m pytest bench/test_bench.py`.

Runs every workload on a tiny budget, plain and traced, and checks that
the checker rejects deliberately corrupted solutions.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.cap_threads()
run.import_library()

import checker  # noqa: E402
import workloads  # noqa: E402
from simcache import hibsa, online, scenario  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

TINY = {
    "offline-small": dict(instance_seeds=(0,), alphas=(10.0,), max_iters=30),
    "offline-mid": dict(instance_seeds=(0,), max_iters=2),
    "online-small": dict(instance_seeds=(0,), slots=20),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, changes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workloads.WORKLOADS[name], **changes))


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_tiny(capsys, name, trace):
    assert run.main(["--workload", name, "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workload_names_agree():
    declared = [w["name"] for w in spec()["workloads"]]
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS) == declared


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(tiny, capsys, name):
    lines, result = run_tiny(capsys, name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {line.split()[0]: line.split()[-1] for line in lines}
    for m in spec()["end_to_end"]:
        assert printed[m["name"]] == m["unit"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert printed["failed_frac"] == "frac"
    if workloads.WORKLOADS[name].slots:
        assert {"slot_ms", "online_cost"} <= printed.keys()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_matches_plain_run_and_gives_every_layer(tiny, capsys, name):
    lines, result = run_tiny(capsys, name, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert {m["name"] for m in spec()["per_layer"]} == result["metrics"].keys()
    printed = {line.split()[0] for line in lines}
    for layer in TRACED:
        assert {f"{layer}.calls", f"{layer}.total_s", f"{layer}.self_s"} <= printed


def test_tracer_restores_the_library():
    before = (hibsa.grad_x, online.x_position_contributions, hibsa.solve_offline)
    with Tracer() as tracer:
        assert hibsa.grad_x is not before[0]
        hibsa.solve_offline(scenario.generate_scenario(scenario.GenConfig()),
                            hibsa.SolverConfig(max_iters=3))
    assert (hibsa.grad_x, online.x_position_contributions, hibsa.solve_offline) == before
    assert tracer.calls["gradients.grad_x"] == 3
    assert tracer.calls["gradients.x_position_contributions"] == 3
    assert tracer.total_s["hibsa.solve_offline"] >= tracer.total_s["hibsa.primal_step"]
    assert tracer.peak_mb > 0


@pytest.fixture(scope="module")
def solved():
    s = scenario.generate_scenario(scenario.GenConfig(seed=0))
    res = hibsa.solve_offline(s, hibsa.SolverConfig(max_iters=50))
    return s, res.rounded


def test_checker_accepts_the_solver_output(solved):
    s, rounded = solved
    assert checker.check_solution(s, rounded.X, rounded.Q, rounded.objective) == []


def test_checker_rejects_capacity_violation(solved):
    s, rounded = solved
    X = rounded.X.copy()
    v = 0
    free = [f for f in range(s.num_contents) if X[v, f] == 0.0]
    X[v, free[0]] = 1.0
    errors = checker.check_caching(s, X)
    assert any("capacity" in e for e in errors)


def test_checker_rejects_unpinned_source(solved):
    s, rounded = solved
    X = rounded.X.copy()
    (v,) = s.sources[0]
    X[v, 0] = 0.0
    assert any("not pinned" in e for e in checker.check_caching(s, X))


def test_checker_rejects_delivery_of_unavailable_content(solved):
    s, rounded = solved
    Q = rounded.Q.copy()
    for r, req in enumerate(s.requests):
        missing = [f for f in range(s.num_contents) if f != req.content
                   and not any(rounded.X[v, f] == 1.0 for v in req.path.nodes)]
        if missing:
            Q[r] = 0.0
            Q[r, missing[0]] = 1.0
            break
    else:
        pytest.fail("every content is available to every request")
    errors = checker.check_solution(s, rounded.X, Q, rounded.objective)
    assert any("not on its path" in e for e in errors)


def test_checker_rejects_fractional_delivery_and_wrong_objective(solved):
    s, rounded = solved
    Q = rounded.Q.copy()
    Q[0] = 1.0 / s.num_contents
    assert any("one-hot" in e for e in checker.check_delivery(s, rounded.X, Q))
    errors = checker.check_solution(s, rounded.X, rounded.Q, rounded.objective * 1.001)
    assert any("recomputed" in e for e in errors)


def test_checker_objective_matches_a_direct_sum(solved):
    s, rounded = solved
    own, delay, dissim = checker.objective(s, rounded.X, rounded.Q)
    assert own == pytest.approx(rounded.objective, rel=1e-12)
    assert delay == pytest.approx(rounded.expected_delay, rel=1e-12)
    assert dissim == pytest.approx(rounded.dissimilarity_cost, rel=1e-12)


def test_checker_rejects_a_misreported_slot(solved):
    s, rounded = solved
    r = 0
    f = s.requests[r].content
    d = checker.delivery_delay(s, rounded.X, s.requests[r].path.nodes, f)
    good = [(r, f, d, 0.0)]
    assert checker.slot_cost(s, rounded.X, good)[0] == []
    bad = [(r, f, d + 1.0, 0.0)]
    assert checker.slot_cost(s, rounded.X, bad)[0]
    assert checker.slot_cost(s, None, bad)[0]


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "offline-small",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
