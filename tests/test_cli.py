"""Command-line interface: subcommands, exit codes, outputs, determinism."""
import json
import math
import os

import pytest

from pabid.cli import main


def write_scenario(tmp_path, name="tiny", rounds=60, replications=2, **overrides):
    document = {
        "name": name,
        "grid_size": 11,
        "rounds": rounds,
        "replications": replications,
        "master_seed": 99,
        "supply": 3,
        "agents": [
            {"algorithm": "ew", "feedback": "full", "valuation": [1.0, 1.0, 1.0]},
        ],
        "environment": {
            "kind": "stochastic",
            "support": [[0.1, 0.1, 0.1], [0.3, 0.3, 1.0], [0.4, 1.0, 1.0]],
            "probs": [0.5, 0.25, 0.25],
            "tie": "agent_wins",
        },
    }
    document.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(document))
    return path, document


class TestRun:
    def test_successful_run_writes_logs_metrics_manifest(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "runlog_r000.csv").exists()
        assert (out / "runlog_r001.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["replications"]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"config_hash", "master_seed", "library_version"} <= set(manifest)

    def test_malformed_file_exits_2_without_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "mystery": true}')
        out = tmp_path / "nope"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "mystery" in err

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_jobs_do_not_change_bytes(self, tmp_path):
        path, _ = write_scenario(tmp_path, rounds=40, replications=3)
        out1 = tmp_path / "subdir1"
        out8 = tmp_path / "subdir8"
        assert main(["run", str(path), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["run", str(path), "--out", str(out8), "--jobs", "8"]) == 0
        for r in range(3):
            name = f"runlog_r{r:03d}.csv"
            assert (out1 / name).read_bytes() == (out8 / name).read_bytes()

    def test_repeat_runs_identical(self, tmp_path):
        path, _ = write_scenario(tmp_path, rounds=30, replications=1)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["run", str(path), "--out", str(out)]) == 0
        assert (outs[0] / "runlog_r000.csv").read_bytes() == (outs[1] / "runlog_r000.csv").read_bytes()

    def test_seed_override_changes_hash_and_log(self, tmp_path):
        path, document = write_scenario(tmp_path, rounds=30, replications=1)
        base = tmp_path / "base"
        reseeded = tmp_path / "reseeded"
        assert main(["run", str(path), "--out", str(base)]) == 0
        assert main(["run", str(path), "--out", str(reseeded), "--seed", "4242"]) == 0
        h1 = json.loads((base / "manifest.json").read_text())["config_hash"]
        h2 = json.loads((reseeded / "manifest.json").read_text())["config_hash"]
        assert h1 != h2
        assert (base / "runlog_r000.csv").read_bytes() != (reseeded / "runlog_r000.csv").read_bytes()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path, rounds=5, replications=1)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--seed", "-5"]) == 2
        assert "scenario error: master_seed: must be a non-negative integer" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_manifest_hash_tracks_content(self, tmp_path):
        path_a, _ = write_scenario(tmp_path, name="va", rounds=30, replications=1)
        path_b, _ = write_scenario(tmp_path, name="vb", rounds=31, replications=1)
        out_a, out_b = tmp_path / "oa", tmp_path / "ob"
        assert main(["run", str(path_a), "--out", str(out_a)]) == 0
        assert main(["run", str(path_b), "--out", str(out_b)]) == 0
        hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
        hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
        assert hash_a != hash_b
        # identical content (even reordered keys) hashes identically
        from pabid import canonical_hash

        doc = json.loads(path_a.read_text())
        reordered = dict(reversed(list(doc.items())))
        assert canonical_hash(doc) == canonical_hash(reordered)

    def test_bundled_scenarios_resolve_and_validate(self):
        from pabid.cli import _resolve_scenario_path
        from pabid.scenario import load_scenario

        for name in ("benchmark_stochastic", "market_n3_m5", "lower_bound_m3"):
            scenario = load_scenario(_resolve_scenario_path(name))
            assert scenario.name == name

    def test_json_format_output(self, tmp_path):
        path, _ = write_scenario(tmp_path, rounds=10, replications=1)
        out = tmp_path / "json_out"
        assert main(["run", str(path), "--out", str(out), "--format", "json"]) == 0
        payload = json.loads((out / "runlog_r000.json").read_text())
        assert payload["rows"]


STOCHASTIC_ROWS = [[0.1, 0.1, 0.1], [0.3, 0.3, 1.0], [0.4, 1.0, 1.0]]


def stochastic_environment(rows):
    return {"kind": "stochastic", "support": rows, "probs": [0.5, 0.25, 0.25],
            "tie": "agent_wins"}


# Scenarios that cannot run, with the field validation must name. Each once
# passed validation and then failed at round 0 with a runtime error (exit 1),
# or ran on NaN.
UNRUNNABLE = {
    "demand_above_supply_stochastic": (
        {"agents": [{"algorithm": "ew", "feedback": "full", "valuation": [1.0] * 4}]},
        "agents[0].valuation"),
    "demand_above_supply_self_play": (
        {"agents": [{"algorithm": "ew", "feedback": "full",
                     "valuation": {"kind": "uniform_sorted", "demand": 4}}] * 2,
         "environment": {"kind": "self_play"}},
        "agents[0].valuation"),
    "support_value_off_grid": (
        {"environment": stochastic_environment([[0.15, 0.1, 0.1]] + STOCHASTIC_ROWS[1:])},
        "environment.support[0]"),
    "support_row_shorter_than_supply": (
        {"environment": stochastic_environment([[0.1, 0.1]] + STOCHASTIC_ROWS[1:])},
        "environment.support[0]"),
    "lower_bound_demand_not_supply": (
        {"grid_size": 4, "supply": 6,
         "environment": {"kind": "lower_bound", "demand": 3}},
        "environment.demand"),
    "ew_bandit_eta_at_least_inverse_demand": (
        {"agents": [{"algorithm": "ew", "feedback": "bandit_ipw", "valuation": [1.0] * 3,
                     "eta": 0.5}]},
        "agents[0].eta"),
    "gamma_without_bandit_ix": (
        {"agents": [{"algorithm": "omd", "feedback": "bandit_ipw", "valuation": [1.0] * 3,
                     "gamma": 0.1}]},
        "agents[0].gamma"),
    "negative_master_seed": ({"master_seed": -1}, "master_seed"),
    "omd_eta_infinite": (
        {"agents": [{"algorithm": "omd", "feedback": "bandit_ix", "valuation": [1.0] * 3,
                     "eta": math.inf}]},
        "agents[0].eta"),
    "ew_full_info_eta_infinite": (
        {"agents": [{"algorithm": "ew", "feedback": "full", "valuation": [1.0] * 3,
                     "eta": math.inf}]},
        "agents[0].eta"),
    "ew_eta_beyond_float_range": (
        {"agents": [{"algorithm": "ew", "feedback": "full", "valuation": [1.0] * 3,
                     "eta": 10**400}]},
        "agents[0].eta"),
    "gamma_infinite": (
        {"agents": [{"algorithm": "ew", "feedback": "bandit_ix", "valuation": [1.0] * 3,
                     "gamma": math.inf}]},
        "agents[0].gamma"),
}


class TestUnrunnableScenarios:
    @pytest.mark.parametrize("case", sorted(UNRUNNABLE))
    def test_rejected_at_validation_with_exit_2(self, case, tmp_path, capsys):
        from pabid import ScenarioError, validate_scenario

        overrides, field = UNRUNNABLE[case]
        path, document = write_scenario(tmp_path, rounds=5, replications=1, **overrides)
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(document)
        assert any(p.startswith(field + ":") for p in excinfo.value.problems)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert f"scenario error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    def test_bundled_scenarios_still_run(self, tmp_path):
        from pabid.cli import _resolve_scenario_path

        for name in ("benchmark_stochastic", "market_n3_m5", "lower_bound_m3"):
            with open(_resolve_scenario_path(name)) as fh:
                document = json.load(fh)
            document.update(rounds=20, replications=1)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(document))
            assert main(["run", str(path), "--out", str(tmp_path / name)]) == 0


class TestHindsight:
    def test_all_ones_history_worth_nothing(self, tmp_path, capsys):
        history = tmp_path / "h.txt"
        history.write_text("1 1 1\n")
        assert main(["hindsight", str(history), "--valuation", "0.9,0.9,0.9",
                     "--grid-size", "11"]) == 0
        out = capsys.readouterr().out
        assert "total utility: 0" in out

    def test_benchmark_history_json(self, tmp_path, capsys):
        history = tmp_path / "h.txt"
        history.write_text("0.1 0.1 0.1\n0.1 0.1 0.1\n0.3 0.3 1.0\n0.4 1.0 1.0\n")
        assert main(["hindsight", str(history), "--valuation", "1,1,1",
                     "--grid-size", "11", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_utility"] == pytest.approx(6.3)
        assert payload["bid"] == pytest.approx([0.4, 0.3, 0.1])

    def test_cli_matches_in_process_regret_benchmark(self, tmp_path, capsys):
        """Round-trip: run a scenario, feed the env rows of its log back."""
        from pabid import regret_report, run_experiment, validate_scenario

        path, document = write_scenario(tmp_path, rounds=80, replications=1)
        scenario = validate_scenario(document)
        log = run_experiment(scenario)
        report = regret_report(log, 0)
        rows = []
        for t in range(log.rounds):
            values = log.grid.values[log.env_bids[t]]
            rows.append(" ".join(repr(float(v)) for v in values))
        history = tmp_path / "replayed.txt"
        history.write_text("\n".join(rows) + "\n")
        assert main(["hindsight", str(history), "--valuation", "1,1,1",
                     "--grid-size", "11", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_utility"] == pytest.approx(report.benchmark_utility)
        assert payload["bid"] == pytest.approx(list(report.benchmark_bid.values))

    def test_shape_errors_exit_2(self, tmp_path, capsys):
        history = tmp_path / "h.txt"
        history.write_text("0.5 0.5\n0.5\n")
        assert main(["hindsight", str(history), "--valuation", "1,1",
                     "--grid-size", "11"]) == 2


class TestGridAdvice:
    def test_full_info_example(self, capsys):
        assert main(["grid-advice", "--mode", "full", "--m", "4", "--t", "10000"]) == 0
        out = capsys.readouterr().out
        assert "suggested grid size: 50" in out
        assert "816.327" in out  # M*T/(D-1) = 4*10000/49

    def test_omd_cube_root(self, capsys):
        assert main(["grid-advice", "--mode", "omd-bandit", "--m", "3", "--t", "1000"]) == 0
        assert "suggested grid size: 10" in capsys.readouterr().out

    def test_floor_at_two(self, capsys):
        assert main(["grid-advice", "--mode", "full", "--m", "1", "--t", "1"]) == 0
        assert "suggested grid size: 2" in capsys.readouterr().out
