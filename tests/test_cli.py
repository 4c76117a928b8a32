import json
import os
import platform
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from click.testing import CliRunner

import simcache
from simcache import cli
from simcache.cli import main

# the generator flags of generate and sweep; sweep takes its seeds from --seeds
GEN_FLAGS = ["--nodes-side", "3", "--contents", "4", "--requests", "6",
             "--origins", "4", "--capacity", "1"]
GENERATE = ["generate", *GEN_FLAGS, "--seed", "2"]


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def write_scenario(tmp_path, extra=()):
    p = tmp_path / "scenario.json"
    res = run([*GENERATE, *extra, "--out", str(p)])
    assert res.exit_code == 0
    return p


class TestGenerate:
    def test_writes_valid_scenario(self, tmp_path):
        p = tmp_path / "s.json"
        res = run([*GENERATE, "--out", str(p)])
        assert res.exit_code == 0
        assert "validation: ok" in res.output
        doc = json.loads(p.read_text())
        assert len(doc["nodes"]) == 9
        assert len(doc["requests"]) == 6

    def test_rejects_bad_topology(self, tmp_path):
        res = run(["generate", "--topology", "ring",
                   "--out", str(tmp_path / "s.json")])
        assert res.exit_code == 2

    def test_rejects_inconsistent_origins(self, tmp_path):
        res = run(["generate", "--nodes-side", "2", "--origins", "9",
                   "--out", str(tmp_path / "s.json")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flag", [["--rho", "nan"], ["--beta", "inf"],
                                      ["--alpha", "nan"]])
    def test_rejects_nonfinite_options_before_writing(self, tmp_path, flag):
        out = tmp_path / "s.json"
        res = run([*GENERATE, *flag, "--out", str(out)])
        assert res.exit_code == 2
        assert "finite" in res.output
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run([*GENERATE, "--out", str(a)])
        run([*GENERATE, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestValidate:
    def test_ok(self, tmp_path):
        p = write_scenario(tmp_path)
        res = run(["validate", "--scenario", str(p)])
        assert res.exit_code == 0
        assert res.output.strip() == "ok"

    def test_reports_violations(self, tmp_path):
        p = write_scenario(tmp_path)
        doc = json.loads(p.read_text())
        doc["capacities"]["v0"] = -1
        p.write_text(json.dumps(doc))
        res = run(["validate", "--scenario", str(p)])
        assert res.exit_code == 1
        assert "NegativeCapacity" in res.output

    def test_malformed_file_is_io_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        res = run(["validate", "--scenario", str(p)])
        assert res.exit_code == 3

    def test_missing_file_is_usage_error(self, tmp_path):
        res = run(["validate", "--scenario", str(tmp_path / "nope.json")])
        assert res.exit_code == 2


    @pytest.mark.parametrize("mutate", [
        lambda d: d["requests"][0].update(rate="fast"),
        lambda d: d["capacities"].update(v0="big"),
        lambda d: d.update(capacities=list(d["capacities"].values())),
        lambda d: d.update(edges=5),
        lambda d: d["dissimilarity"][0].pop(),
        lambda d: d["capacities"].update(v0=1.5),
        lambda d: d["capacities"].update(v0=True),
        lambda d: d["edges"].append(dict(d["edges"][0], delay=1.0)),
        lambda d: d["requests"][0].update(rate="2"),
        lambda d: d["edges"][0].update(delay=True),
        lambda d: d.update(alpha="10"),
        lambda d: d["dissimilarity"][0].__setitem__(1, "1.0"),
        lambda d: d["dissimilarity"][1].__setitem__(0, False),
    ])
    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_malformed_field_is_io_error(self, tmp_path, mutate, command):
        p = write_scenario(tmp_path)
        doc = json.loads(p.read_text())
        mutate(doc)
        p.write_text(json.dumps(doc))
        args = [command, "--scenario", str(p)]
        if command == "solve":
            args += ["--out", str(tmp_path / "run")]
        assert run(args).exit_code == 3


class TestNonfiniteScenario:
    @pytest.mark.parametrize("mutate,code", [
        (lambda d: d.update(alpha=float("nan")), "NonfiniteAlpha"),
        (lambda d: d["requests"][0].update(rate=float("inf")), "NonfiniteRate"),
    ])
    @pytest.mark.parametrize("command", ["solve", "online"])
    def test_rejected_before_solving(self, tmp_path, mutate, code, command):
        p = write_scenario(tmp_path)
        doc = json.loads(p.read_text())
        mutate(doc)
        p.write_text(json.dumps(doc))
        out = tmp_path / "run"
        res = run([command, "--scenario", str(p), "--max-iters", "50",
                   "--out", str(out)])
        assert res.exit_code == 1
        assert f"violation: {code}" in res.output
        assert not out.exists()


class TestOptionErrors:
    """An out-of-range or non-finite option is a usage error, reported
    before anything is written."""

    @pytest.mark.parametrize("args", [
        ["solve", "--eta-s", "0"],
        ["solve", "--eta-s", "nan"],
        ["online", "--slots", "0"],
        ["online", "--baseline", "per-cache", "--insert-prob", "2"],
        ["online", "--slot-length", "inf"],
        ["online", "--eta-s", "nan"],
        ["online", "--seed", "-1"],
        ["online", "--baseline", "per-cache", "--seed", "-1"],
    ])
    def test_exits_2_without_writing(self, tmp_path, args):
        p = write_scenario(tmp_path)
        out = tmp_path / "run"
        command, *flags = args
        res = run([command, "--scenario", str(p), *flags, "--out", str(out)])
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert "must" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["generate", "--seed", "-1"],
        ["sweep", "--values", "10", "--seeds=-1"],
    ])
    def test_negative_seed_writes_nothing(self, tmp_path, args):
        out = tmp_path / "x"
        res = run([*args, "--out", str(out)])
        assert res.exit_code == 2
        assert "must" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["solve", "--seed", "0"],
        ["online", "--eta-x", "1e-3"],
        ["online", "--eta-q", "1e-3"],
    ])
    def test_removed_option_is_unknown(self, tmp_path, args):
        # solve's start is deterministic, and both online primal blocks
        # take the one step --eta-s
        p = write_scenario(tmp_path)
        out = tmp_path / "run"
        command, *flags = args
        res = run([command, "--scenario", str(p), *flags, "--out", str(out)])
        assert res.exit_code == 2
        assert "No such option" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "online"])
    def test_diverging_step_writes_nothing(self, tmp_path, command):
        p = write_scenario(tmp_path)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run([command, "--scenario", str(p), "--eta-s", "1e300", "--out", str(out)])
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert "diverge at --eta-s 1e+300, --eta-mu 1.0" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("command, scenario_flags, flags", [
        ("solve", [], ["--alpha", "1e307"]),
        ("online", ["--alpha", "1e307"], []),  # online takes alpha from the scenario
    ])
    def test_set_up_overflow_names_alpha(self, tmp_path, command, scenario_flags, flags):
        # alpha * d overflows before any step, so the steps are not to blame;
        # 27.0 is the largest dissimilarity of the GENERATE instance
        p = write_scenario(tmp_path, scenario_flags)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run([command, "--scenario", str(p), *flags, "--out", str(out)])
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert ("alpha 1e+307 times the largest dissimilarity 27.0 overflows "
                "(overflow encountered in multiply)") in res.output
        assert "--eta-s" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-3", "0"])
    def test_sweep_has_no_seed_option(self, tmp_path, seed):
        # --seeds picks a sweep's instances; a lone --seed is unknown
        out = tmp_path / "x"
        res = run(["sweep", "--values", "10", "--seeds", "0", "--seed", seed,
                   "--out", str(out)])
        assert res.exit_code == 2
        assert "No such option" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1", "2"])
    def test_sweep_has_no_workers_option(self, tmp_path, workers):
        # the pool takes its size from the CPUs the sweep may run on
        out = tmp_path / "x"
        res = run(["sweep", "--values", "10", "--seeds", "0", "--workers", workers,
                   "--out", str(out)])
        assert res.exit_code == 2
        assert "No such option" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("baseline", [[], ["--baseline", "per-cache"]],
                             ids=["online", "per-cache"])
    @pytest.mark.parametrize("rate,slot_length", [("1.0", "1e300"), ("1e19", "1.0"),
                                                  ("1e300", "1e10")])
    def test_poisson_mean_too_large_writes_nothing(self, tmp_path, monkeypatch, baseline,
                                                   rate, slot_length):
        p = write_scenario(tmp_path)
        doc = json.loads(p.read_text())
        doc["requests"][0].update(rate=float(rate))
        p.write_text(json.dumps(doc))
        assert run(["validate", "--scenario", str(p)]).exit_code == 0

        def solve_offline(*args):
            raise AssertionError("the offline reference solve ran")
        monkeypatch.setattr(cli, "solve_offline", solve_offline)
        out = tmp_path / "run"
        res = run(["online", "--scenario", str(p), *baseline, "--slot-length", slot_length,
                   "--offline-ref", "--out", str(out)])
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert "request 0: Poisson mean rate * slot_length" in res.output
        assert not out.exists()


class TestSolve:
    def test_writes_artifacts(self, tmp_path):
        p = write_scenario(tmp_path)
        out = tmp_path / "run"
        res = run(["solve", "--scenario", str(p), "--max-iters", "400",
                   "--out", str(out)])
        assert res.exit_code == 0
        for name in ("trace.csv", "solution.json", "summary.csv", "manifest.json"):
            assert (out / name).exists()
        sol = json.loads((out / "solution.json").read_text())
        assert all(v in (0, 1) for row in sol["X"] for v in row)
        assert all(sum(row) == 1 for row in sol["Q"])

    def test_deterministic_bytes(self, tmp_path):
        p = write_scenario(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run(["solve", "--scenario", str(p), "--max-iters", "300",
                 "--out", str(out)])
            outs.append(out)
        for name in ("trace.csv", "summary.csv", "solution.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_adaptive_baseline_has_zero_dissimilarity(self, tmp_path):
        p = write_scenario(tmp_path)
        out = tmp_path / "adaptive"
        res = run(["solve", "--scenario", str(p), "--baseline", "adaptive",
                   "--max-iters", "400", "--out", str(out)])
        assert res.exit_code == 0
        header, row = (out / "summary.csv").read_text().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["scheme"] == "adaptive"
        assert float(record["dissimilarity_cost"]) == 0.0

    def test_huge_alpha_matches_adaptive_delivery(self, tmp_path):
        p = write_scenario(tmp_path)
        out = tmp_path / "huge"
        res = run(["solve", "--scenario", str(p), "--alpha", "1e6",
                   "--max-iters", "800", "--out", str(out)])
        assert res.exit_code == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["dissimilarity_cost"] == 0.0

    def test_manifest_records_options(self, tmp_path):
        p = write_scenario(tmp_path)
        out = tmp_path / "run"
        run(["solve", "--scenario", str(p), "--max-iters", "200", "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "solve"
        assert doc["options"]["max_iters"] == 200
        assert "seed" not in doc["options"]


class TestManifest:
    """The full ``options`` record of each writing command."""

    @staticmethod
    def manifest(args, out):
        assert run([*args, "--out", str(out)]).exit_code == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["version"] == "0.1.0"
        return doc

    def test_solve(self, tmp_path):
        p = write_scenario(tmp_path)
        doc = self.manifest(["solve", "--scenario", str(p), "--alpha", "5",
                             "--eta-s", "0.002", "--max-iters", "200"], tmp_path / "run")
        assert doc["command"] == "solve"
        assert doc["options"] == {
            "scenario": str(p), "alpha": 5.0, "baseline": None,
            "eta_s": 0.002, "eta_mu": 1.0, "delta": 1e-6, "max_iters": 200,
        }

    @pytest.mark.parametrize("baseline", [None, "per-cache"])
    def test_online(self, tmp_path, baseline):
        p = write_scenario(tmp_path)
        extra = ["--baseline", baseline] if baseline else []
        doc = self.manifest(["online", "--scenario", str(p), "--slots", "12",
                             "--seed", "3", "--insert-prob", "0.25",
                             "--eta-s", "0.01", *extra], tmp_path / "run")
        assert doc["command"] == "online"
        assert doc["options"] == {
            "scenario": str(p), "baseline": baseline, "slots": 12, "seed": 3,
            "slot_length": 1.0, "eta_s": 0.01, "eta_mu": 1.0,
            "insert_prob": 0.25, "offline_ref": False, "max_iters": 50000,
        }

    def test_sweep(self, tmp_path):
        doc = self.manifest(["sweep", *GEN_FLAGS, "--param", "capacity",
                             "--values", "1,2", "--seeds", "0",
                             "--schemes", "similarity", "--delta", "1e-5",
                             "--max-iters", "100"], tmp_path / "run")
        assert doc["command"] == "sweep"
        assert doc["options"] == {
            "param": "capacity", "values": "1,2", "seeds": "0",
            "schemes": "similarity",
            "gen": {"nodes_side": 3, "topology": "grid", "num_contents": 4,
                    "num_requests": 6, "num_origins": 4, "capacity": 1,
                    "beta": 3.0, "rho": 1.2, "alpha": 10.0},
            "solver": {"eta_s": 1e-3, "eta_mu": 1.0, "delta": 1e-5,
                       "max_iters": 100},
        }


class TestSweep:
    def test_grid_and_determinism(self, tmp_path):
        args = ["sweep", *GEN_FLAGS, "--param", "alpha", "--values", "1,10",
                "--seeds", "0,1", "--schemes", "similarity,adaptive",
                "--max-iters", "250"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run([*args, "--out", str(a)]).exit_code == 0
        assert run([*args, "--out", str(b)]).exit_code == 0
        text = (a / "sweep.csv").read_text()
        assert text == (b / "sweep.csv").read_text()
        lines = text.splitlines()
        assert len(lines) == 1 + 2 * 2 * 2
        assert lines[0].startswith("param,value,seed,scheme")

    def test_diverging_point_is_an_error_row(self, tmp_path):
        # alpha * d overflows at 1e307; the other point is solved as usual
        out = tmp_path / "sweep"
        res = run(["sweep", *GEN_FLAGS, "--values", "10,1e307", "--seeds", "0",
                   "--schemes", "similarity", "--max-iters", "50", "--out", str(out)])
        assert res.exit_code == 0
        ok, bad = (out / "sweep.csv").read_text().splitlines()[1:]
        assert ok.startswith("alpha,10.0,0,similarity,") and ok.endswith(",50,max_iters")
        assert bad == "alpha,1e+307,0,similarity,,,,0,error: overflow encountered in multiply"

    def test_single_point_matches_solve(self, tmp_path):
        p = write_scenario(tmp_path)
        solve_out = tmp_path / "solve"
        run(["solve", "--scenario", str(p), "--max-iters", "300",
             "--out", str(solve_out)])
        sweep_out = tmp_path / "sweep"
        run(["sweep", *GEN_FLAGS, "--param", "alpha", "--values", "10",
             "--seeds", "2", "--schemes", "similarity", "--max-iters", "300",
             "--out", str(sweep_out)])
        header, row = (solve_out / "summary.csv").read_text().splitlines()
        solve_rec = dict(zip(header.split(","), row.split(",")))
        header, row = (sweep_out / "sweep.csv").read_text().splitlines()
        sweep_rec = dict(zip(header.split(","), row.split(",")))
        assert sweep_rec["expected_delay"] == solve_rec["expected_delay"]
        assert sweep_rec["objective"] == solve_rec["objective"]

    def test_rejects_unknown_scheme(self, tmp_path):
        res = run(["sweep", "--values", "1", "--schemes", "magic",
                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_rejects_bad_values(self, tmp_path):
        res = run(["sweep", "--values", "1,abc",
                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("grid,code", [
        (["--values", "nan"], "NonfiniteAlpha"),
        (["--param", "capacity", "--values", "-1"], "NegativeCapacity"),
    ])
    def test_rejects_grid_value_that_breaks_the_instance(self, tmp_path, grid, code):
        out = tmp_path / "x"
        res = run(["sweep", *GEN_FLAGS, *grid, "--seeds", "0", "--max-iters", "50",
                   "--out", str(out)])
        assert res.exit_code == 1
        assert f"violation: {code}" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1.5", "1,1.5,1.9", "1e20"])
    def test_rejects_capacity_that_is_no_integer(self, tmp_path, value):
        out = tmp_path / "x"
        res = run(["sweep", *GEN_FLAGS, "--param", "capacity", "--values", value,
                   "--seeds", "0", "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid", [
        ["--values", "10", "--seeds", ""],
        ["--values", ","],
        ["--values", "10", "--schemes", ""],
        ["--values", "nan", "--seeds", ""],
    ])
    def test_rejects_empty_grid(self, tmp_path, grid):
        out = tmp_path / "x"
        res = run(["sweep", *GEN_FLAGS, *grid, "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_generates_each_seed_once(self, tmp_path, monkeypatch):
        seeds = []
        generate = cli.generate_scenario

        def counting(g):
            seeds.append(g.seed)
            return generate(g)

        monkeypatch.setattr(cli, "generate_scenario", counting)
        res = run(["sweep", *GEN_FLAGS, "--values", "1,10", "--seeds", "0,1,2",
                   "--max-iters", "50", "--out", str(tmp_path / "x")])
        assert res.exit_code == 0
        assert sorted(seeds) == [0, 1, 2]

    @staticmethod
    def pool_sizes(monkeypatch, cpus):
        """Let the sweep see ``cpus`` CPUs; the list of its pools' sizes."""
        sizes = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        return sizes

    def test_process_pool_matches_serial(self, tmp_path, monkeypatch):
        args = ["sweep", *GEN_FLAGS, "--param", "capacity", "--values", "0,1",
                "--seeds", "0,1", "--max-iters", "150"]
        a, b = tmp_path / "serial", tmp_path / "pool"
        inline = self.pool_sizes(monkeypatch, 1)
        assert run([*args, "--out", str(a)]).exit_code == 0
        pooled = self.pool_sizes(monkeypatch, 2)
        assert run([*args, "--out", str(b)]).exit_code == 0
        assert inline == [] and pooled == [2]
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_pool_has_no_more_workers_than_points(self, tmp_path, monkeypatch):
        sizes = self.pool_sizes(monkeypatch, 3)
        res = run(["sweep", *GEN_FLAGS, "--values", "10", "--seeds", "0",
                   "--max-iters", "50", "--out", str(tmp_path / "x")])
        assert res.exit_code == 0
        assert sizes == [2]  # two schemes at one grid point

    def test_usable_cpus(self, monkeypatch):
        # the affinity set where the platform has one, else the CPU count
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
        assert cli.usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli.usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert cli.usable_cpus() == 1


class TestOnline:
    def test_writes_slot_log(self, tmp_path):
        p = write_scenario(tmp_path)
        out = tmp_path / "online"
        res = run(["online", "--scenario", str(p), "--slots", "30",
                   "--out", str(out)])
        assert res.exit_code == 0
        lines = (out / "slots.csv").read_text().splitlines()
        assert lines[0] == "t,num_requests,avg_delay_window," \
            "dissimilarity_window,lagrangian_estimate,cache_churn,offline_delay"
        assert len(lines) == 31

    def test_deterministic_bytes(self, tmp_path):
        p = write_scenario(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run(["online", "--scenario", str(p), "--slots", "25", "--seed", "4",
             "--out", str(a)])
        run(["online", "--scenario", str(p), "--slots", "25", "--seed", "4",
             "--out", str(b)])
        assert (a / "slots.csv").read_bytes() == (b / "slots.csv").read_bytes()

    def test_per_cache_baseline(self, tmp_path):
        p = write_scenario(tmp_path)
        out = tmp_path / "baseline"
        res = run(["online", "--scenario", str(p), "--baseline", "per-cache",
                   "--slots", "20", "--insert-prob", "1.0", "--out", str(out)])
        assert res.exit_code == 0
        lines = (out / "slots.csv").read_text().splitlines()
        assert len(lines) == 21
        # the baseline has no multiplier estimate
        assert lines[1].split(",")[4] == ""

    def test_per_cache_baseline_runs_where_alpha_times_d_overflows(self, tmp_path):
        # the alpha that stops the online scheme in its set-up; the baseline
        # forms no alpha * d product, so it runs
        p = tmp_path / "scenario.json"
        assert run(["generate", "--seed", "0", "--alpha", "1e307",
                    "--out", str(p)]).exit_code == 0
        out = tmp_path / "baseline"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run(["online", "--scenario", str(p), "--baseline", "per-cache",
                       "--slots", "5", "--out", str(out)])
        assert res.exit_code == 0
        assert len((out / "slots.csv").read_text().splitlines()) == 6

    def test_offline_reference_column(self, tmp_path):
        p = write_scenario(tmp_path)
        out = tmp_path / "ref"
        res = run(["online", "--scenario", str(p), "--slots", "10",
                   "--offline-ref", "--max-iters", "400", "--out", str(out)])
        assert res.exit_code == 0
        lines = (out / "slots.csv").read_text().splitlines()
        ref = lines[1].split(",")[-1]
        assert ref != ""
        assert float(ref) >= 0.0


# the name of the BLAS kernel that numpy's OpenBLAS loaded, printed by a child
# process; numpy's wheels bundle OpenBLAS under numpy.libs
CORENAME = """
import ctypes, glob, os, numpy
lib, = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "*openblas*"))
name = ctypes.CDLL(lib).scipy_openblas_get_corename64_
name.restype = ctypes.c_char_p
print(name().decode())
"""

# run each command line of argv[1] (a JSON list) in one process
RUN_COMMANDS = """
import json, sys
from simcache.cli import main
for args in json.loads(sys.argv[1]):
    main(args, standalone_mode=False)
"""


def run_child(script, *args, coretype=None):
    """``python -c script *args`` on this checkout's simcache, under the
    OpenBLAS kernel ``coretype`` (None: the one OpenBLAS picks for the CPU)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(simcache.__file__).parents[1]), env.get("PYTHONPATH", "")])
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)


class TestBlasKernel:
    """The output bytes do not depend on the BLAS kernel.  OpenBLAS built
    with DYNAMIC_ARCH picks its kernel at run time, from the CPU or from
    OPENBLAS_CORETYPE; Prescott (SSE3) loads on every x86-64 CPU."""

    FORCED = "Prescott"

    def test_outputs_do_not_depend_on_the_kernel(self, tmp_path):
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip(f"OpenBLAS has no {self.FORCED} kernel on {platform.machine()}")
        names = [run_child(CORENAME, coretype=c) for c in (None, self.FORCED)]
        for n in names:
            if n.returncode:
                pytest.skip("numpy's OpenBLAS does not report its kernel: " + n.stderr)
        if names[0].stdout == names[1].stdout:
            pytest.skip(f"OPENBLAS_CORETYPE={self.FORCED} loads no other kernel than "
                        f"{names[0].stdout.strip()}: not a DYNAMIC_ARCH build")
        p = tmp_path / "scenario.json"
        assert run(["generate", "--seed", "1", "--out", str(p)]).exit_code == 0
        outs = []
        for kernel in ("default", self.FORCED):
            out = tmp_path / kernel
            commands = [
                ["solve", "--scenario", str(p), "--max-iters", "300",
                 "--out", str(out / "solve")],
                ["online", "--scenario", str(p), "--slots", "200",
                 "--out", str(out / "online")],
                ["sweep", "--values", "10", "--seeds", "1", "--schemes", "similarity",
                 "--max-iters", "300", "--out", str(out / "sweep")],
            ]
            res = run_child(RUN_COMMANDS, json.dumps(commands),
                            coretype=None if kernel == "default" else kernel)
            assert res.returncode == 0, res.stderr
            outs.append({f.relative_to(out): f.read_bytes()
                         for f in sorted(out.rglob("*")) if f.is_file()})
        assert len(outs[0]) == 8  # trace, solution, summary, slots, sweep, 3 manifests
        assert outs[0].keys() == outs[1].keys()
        assert [str(f) for f in outs[0] if outs[0][f] != outs[1][f]] == []
