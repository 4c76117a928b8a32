import json

import pytest
from click.testing import CliRunner

from simcache.cli import main

GEN_FLAGS = ["--nodes-side", "3", "--contents", "4", "--requests", "6",
             "--origins", "4", "--capacity", "1", "--seed", "2"]


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def write_scenario(tmp_path, extra=()):
    p = tmp_path / "scenario.json"
    res = run(["generate", *GEN_FLAGS, *extra, "--out", str(p)])
    assert res.exit_code == 0
    return p


class TestGenerate:
    def test_writes_valid_scenario(self, tmp_path):
        p = tmp_path / "s.json"
        res = run(["generate", *GEN_FLAGS, "--out", str(p)])
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

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["generate", *GEN_FLAGS, "--out", str(a)])
        run(["generate", *GEN_FLAGS, "--out", str(b)])
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
        run(["solve", "--scenario", str(p), "--max-iters", "200",
             "--seed", "7", "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "solve"
        assert doc["options"]["max_iters"] == 200
        assert doc["options"]["seed"] == 7


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
