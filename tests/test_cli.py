"""Command-line interface: subcommands, exit codes, outputs, determinism."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pabid
from pabid.cli import main, numpy_build, suggested_grid_size
from pabid.scenario import MAX_CELLS, MAX_REPLICATIONS


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
        assert manifest["numpy"] == numpy_build()
        assert manifest["numpy"]["version"] == np.__version__

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

    def test_a_directory_exits_2_without_outputs(self, tmp_path, capsys):
        folder = tmp_path / "folder.json"
        folder.mkdir()
        out = tmp_path / "out"
        assert main(["run", str(folder), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("scenario error: file: cannot be read (")
        assert not out.exists()

    def test_non_object_document_with_seed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["run", str(bad), "--out", str(tmp_path / "nope"), "--seed", "3"]) == 2
        assert "scenario error: scenario: document must be a JSON object" in (
            capsys.readouterr().err)

    def test_scenario_is_validated_once_with_the_seed_applied(self, tmp_path, monkeypatch):
        from pabid import cli

        seen = []

        def counting(document):
            seen.append(document["master_seed"])
            return validate(document)

        validate = cli.validate_scenario
        monkeypatch.setattr(cli, "validate_scenario", counting)
        path, _ = write_scenario(tmp_path, rounds=5, replications=3)
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "5"]) == 0
        assert seen == [5]

    @pytest.mark.parametrize("environment, overrides", [
        ({"kind": "lower_bound", "demand": 3, "variant": "G"}, {"grid_size": 10}),
        ({"kind": "stochastic", "support": [[0.1] * 3, [0.3, 0.3, 1.0]], "probs": [0.5, 0.5]}, {}),
    ], ids=["lower_bound", "stochastic"])
    def test_set_up_happens_once_per_run(self, tmp_path, monkeypatch, environment, overrides):
        from pabid import scenario

        calls = []

        def counting(name):
            call = getattr(scenario, name)
            return lambda *args: calls.append(name) or call(*args)

        for name in ("canonical_hash", "lower_bound_rows"):
            monkeypatch.setattr(scenario, name, counting(name))
        path, _ = write_scenario(tmp_path, rounds=5, replications=3, environment=environment,
                                 **overrides)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert calls.count("canonical_hash") == 1
        assert calls.count("lower_bound_rows") <= 1

    def test_jobs_do_not_change_bytes(self, tmp_path):
        path, _ = write_scenario(tmp_path, rounds=40, replications=3)
        out1 = tmp_path / "subdir1"
        out8 = tmp_path / "subdir8"
        assert main(["run", str(path), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["run", str(path), "--out", str(out8), "--jobs", "8"]) == 0
        for r in range(3):
            name = f"runlog_r{r:03d}.csv"
            assert (out1 / name).read_bytes() == (out8 / name).read_bytes()

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        path, _ = write_scenario(tmp_path, rounds=5)
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--jobs", str(jobs)]) == 2
        assert capsys.readouterr().err == "error: --jobs must be at least 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs, replications, cpus, workers", [
        (8, 3, 2, 2), (8, 3, 64, 3), (2, 5, 64, 2), (1, 3, 64, None), (8, 1, 64, None),
        (8, 3, None, None),
    ])
    def test_the_pool_is_no_larger_than_the_replications_or_the_cpus(
            self, tmp_path, monkeypatch, jobs, replications, cpus, workers):
        """The pool is a stand-in that runs the replications in this process
        and records its size; no worker process starts."""
        import concurrent.futures

        sizes = []

        class RecordedPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        path, _ = write_scenario(tmp_path, rounds=5, replications=replications)
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--jobs", str(jobs)]) == 0
        assert sizes == ([] if workers is None else [workers])
        assert len(list((tmp_path / "out").glob("runlog_r*.csv"))) == replications

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
        from pabid.scenario import canonical_hash

        doc = json.loads(path_a.read_text())
        reordered = dict(reversed(list(doc.items())))
        assert canonical_hash(doc) == canonical_hash(reordered)

    def test_bundled_scenarios_resolve_and_validate(self):
        from pabid.cli import _resolve_scenario_path
        from pabid.scenario import read_document, validate_scenario

        for name in ("benchmark_stochastic", "market_n3_m5", "lower_bound_m3"):
            scenario = validate_scenario(read_document(_resolve_scenario_path(name)))
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
    "master_seed_of_2p128": ({"master_seed": 2**128}, "master_seed"),
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
    "support_entry_beyond_float_range": (
        {"environment": stochastic_environment([[0.1, 0.1, 10**400]] + STOCHASTIC_ROWS[1:])},
        "environment.support[0]"),
    "demand_beyond_float_range": (
        {"agents": [{"algorithm": "ew", "feedback": "bandit_ix", "eta": 0.1,
                     "valuation": {"kind": "uniform_sorted", "demand": 10**400}}]},
        "agents[0].valuation"),
    "grid_size_beyond_numpy": ({"grid_size": 10**30}, "grid_size"),
    "grid_size_beyond_numpy_index": ({"grid_size": 2**63}, "grid_size"),
}


class TestUnrunnableScenarios:
    @pytest.mark.parametrize("case", sorted(UNRUNNABLE))
    def test_rejected_at_validation_with_exit_2(self, case, tmp_path, capsys):
        from pabid.scenario import ScenarioError, validate_scenario

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


AGENT = {"algorithm": "ew", "feedback": "full", "valuation": [1.0, 1.0, 1.0]}
LOWER_BOUND = {"kind": "lower_bound", "demand": 3}


def agent_with(**keys):
    return {"agents": [{**AGENT, **keys}]}


# Overrides of `write_scenario`'s document, and the exact problems validation lists.
REJECTIONS = {
    "bool_for_an_int": ({"rounds": True}, ["rounds: expected int"]),
    "zero_replications": ({"replications": 0}, ["replications: must be a positive integer"]),
    "agent_not_an_object": ({"agents": [5]}, ["agents[0]: must be an object"]),
    "unknown_agent_key": (agent_with(plot=1), ["agents[0].plot: unknown key"]),
    "unknown_feedback": (agent_with(feedback="partial"), [
        "agents[0].feedback: must be one of ['bandit_ipw', 'bandit_ix', 'full']"]),
    "increasing_valuation": (agent_with(valuation=[0.5, 0.9]), [
        "agents[0].valuation: must be a non-increasing list in [0, 1]"]),
    "valuation_kind": (agent_with(valuation={"kind": "normal", "demand": 2}), [
        "agents[0].valuation.kind: only 'uniform_sorted' is supported"]),
    "valuation_demand": (agent_with(valuation={"kind": "uniform_sorted", "demand": 0}), [
        "agents[0].valuation.demand: must be a positive integer"]),
    "valuation_key": (agent_with(valuation={"kind": "uniform_sorted", "demand": 2, "seed": 1}), [
        "agents[0].valuation.seed: unknown key"]),
    "valuation_string": (agent_with(valuation="high"), [
        "agents[0].valuation: must be a list or a generator object"]),
    "tie": ({"environment": {**stochastic_environment(STOCHASTIC_ROWS), "tie": "sometimes"}}, [
        "environment.tie: must be 'agent_wins' or 'agent_loses'"]),
    "empty_support_row": ({"environment": stochastic_environment(
        [STOCHASTIC_ROWS[0], [], STOCHASTIC_ROWS[2]])}, [
        "environment.support: must be a non-empty list of bid rows"]),
    "support_entry_not_a_number": ({"environment": stochastic_environment(
        [[0.1, "0.1", 0.1]] + STOCHASTIC_ROWS[1:])}, [
        "environment.support[0]: entries must be numbers"]),
    "probs": ({"environment": {**stochastic_environment(STOCHASTIC_ROWS), "probs": [0.5] * 3}}, [
        "environment.probs: must be non-negative and sum to 1, one per support row"]),
    "lower_bound_demand": ({"grid_size": 10, "environment": {**LOWER_BOUND, "demand": 4}}, [
        "environment.demand: must be a positive multiple of 3"]),
    "lower_bound_delta": ({"grid_size": 10, "environment": {**LOWER_BOUND, "delta": 0.5}}, [
        "environment.delta: must lie in [0, 1/6)"]),
    "lower_bound_variant": ({"grid_size": 10, "environment": {**LOWER_BOUND, "variant": "H"}}, [
        "environment.variant: must be 'F' or 'G'"]),
    "lower_bound_grid_size": ({"environment": LOWER_BOUND}, [
        "grid_size: lower-bound environments need the price 2/3 on the grid (grid_size must be "
        "1 mod 3)"]),
}


class TestValidationProblems:
    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_problems_are_listed_exactly(self, tmp_path, case):
        from pabid.scenario import ScenarioError, validate_scenario

        overrides, problems = REJECTIONS[case]
        _, document = write_scenario(tmp_path, **{"rounds": 5, "replications": 1, **overrides})
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(document)
        assert excinfo.value.problems == problems

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        from pabid.scenario import ScenarioError, read_document

        path = tmp_path / "broken.json"
        path.write_text('{"name": "broken",')
        with pytest.raises(json.JSONDecodeError) as parse:
            json.loads(path.read_text())
        with pytest.raises(ScenarioError) as excinfo:
            read_document(path)
        assert excinfo.value.problems == [f"file: not valid JSON ({parse.value})"]
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "scenario error: file: not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_a_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xff"}')
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "scenario error: " in capsys.readouterr().err

    @pytest.mark.parametrize("replication", [-1, 2])
    def test_build_market_rejects_a_replication_out_of_range(self, tmp_path, replication):
        from pabid.scenario import build_market, validate_scenario

        _, document = write_scenario(tmp_path, rounds=5, replications=2)
        with pytest.raises(ValueError, match="replication index out of range"):
            build_market(validate_scenario(document), replication)


# Each environment kind with every key it reads; grid_size 10 puts 2/3 on the grid.
ENVIRONMENTS = {
    "self_play": ({"kind": "self_play"}, {}),
    "stochastic": (stochastic_environment(STOCHASTIC_ROWS), {}),
    "lower_bound": ({"kind": "lower_bound", "demand": 3, "delta": 0.1, "variant": "G",
                     "tie": "agent_loses"}, {"grid_size": 10}),
}
ENV_VALUES = {**ENVIRONMENTS["stochastic"][0], **ENVIRONMENTS["lower_bound"][0]}
FOREIGN_KEYS = [(kind, key) for kind, (env, _) in sorted(ENVIRONMENTS.items())
                for key in sorted(ENV_VALUES) if key not in env]


class TestEnvironmentKeys:
    """Each environment kind accepts only the keys it reads."""

    @staticmethod
    def rejected(tmp_path, capsys, kind, extra):
        from pabid.scenario import ScenarioError, validate_scenario

        env, overrides = ENVIRONMENTS[kind]
        path, document = write_scenario(tmp_path, rounds=5, replications=1,
                                        environment={**env, **extra}, **overrides)
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(document)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "scenario error:" in capsys.readouterr().err
        return excinfo.value.problems

    @pytest.mark.parametrize("kind", sorted(ENVIRONMENTS))
    def test_every_key_of_the_kind_is_accepted(self, tmp_path, kind):
        env, overrides = ENVIRONMENTS[kind]
        path, _ = write_scenario(tmp_path, rounds=5, replications=1, environment=env,
                                 **overrides)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("kind,key", FOREIGN_KEYS)
    def test_key_of_another_kind_exits_2(self, tmp_path, capsys, kind, key):
        problems = self.rejected(tmp_path, capsys, kind, {key: ENV_VALUES[key]})
        assert problems == [f"environment.{key}: not valid for {kind}"]

    @pytest.mark.parametrize("kind", sorted(ENVIRONMENTS))
    def test_supply_is_an_unknown_key(self, tmp_path, capsys, kind):
        problems = self.rejected(tmp_path, capsys, kind, {"supply": 3})
        assert problems == ["environment.supply: unknown key"]

    @pytest.mark.parametrize("kind", ["adversarial", None, ["stochastic"]])
    def test_invalid_kind_reports_only_the_kind(self, tmp_path, capsys, kind):
        extra = {"kind": kind, "supply": 3, "tie": "sometimes", "variant": "H"}
        problems = self.rejected(tmp_path, capsys, "stochastic", extra)
        assert problems == ["environment.kind: must be 'self_play', 'stochastic', or "
                            "'lower_bound'"]


# Values of every JSON type, each put in place of one field of a valid document.
JUNK = [[], {}, ["x"], {"a": 1}, None, True, -1, 0, 1.5, "x", 10**400, -10**400]
# Valid documents that between them hold every top-level, agent, valuation and
# environment field, with the paths of the fields to replace.
JUNK_BASES = {
    "stochastic": {
        "name": "junk", "grid_size": 11, "rounds": 5, "replications": 1, "master_seed": 1,
        "supply": 3,
        "agents": [{"algorithm": "omd", "feedback": "bandit_ix", "valuation": [1.0, 0.5],
                    "eta": 0.1, "gamma": 0.1}],
        "environment": stochastic_environment(STOCHASTIC_ROWS)},
    "lower_bound": {
        "name": "junk", "grid_size": 10, "rounds": 5, "supply": 3,
        "agents": [{"algorithm": "ew", "feedback": "bandit_ipw", "eta": 0.1,
                    "valuation": {"kind": "uniform_sorted", "demand": 3}}],
        "environment": {"kind": "lower_bound", "demand": 3, "delta": 0.1, "variant": "G",
                        "tie": "agent_loses"}},
    "self_play": {
        "name": "junk", "grid_size": 11, "rounds": 5, "supply": 3,
        "agents": [{"algorithm": "ew", "feedback": "full", "valuation": [0.9, 0.6]}] * 2,
        "environment": {"kind": "self_play"}},
}


def junk_paths(value, path=()):
    """The path of every field below `value`: dict keys and list entries, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from junk_paths(child, path + (key,))


JUNK_FIELDS = [(base, path) for base in sorted(JUNK_BASES)
               for path in junk_paths(JUNK_BASES[base])]


class TestJunkValues:
    """`validate_scenario` answers any JSON document with a Scenario or a ScenarioError."""

    def test_the_bases_are_valid(self):
        from pabid.scenario import validate_scenario

        for document in JUNK_BASES.values():
            validate_scenario(document)

    @pytest.mark.parametrize("base,path", JUNK_FIELDS,
                             ids=[f"{base}-{'.'.join(map(str, path))}"
                                  for base, path in JUNK_FIELDS])
    def test_every_value_in_the_field_validates_or_is_rejected(self, base, path):
        from pabid.scenario import ScenarioError, validate_scenario

        for junk in JUNK:
            document = json.loads(json.dumps(JUNK_BASES[base]))
            parent = document
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = junk
            try:
                validate_scenario(document)  # a Scenario, or
            except ScenarioError:            # a rejection; anything else fails the test
                pass

    @pytest.mark.parametrize("agent, support, field", [
        ({**AGENT, "feedback": ["full"]}, STOCHASTIC_ROWS, "agents[0].feedback"),
        (AGENT, 5, "environment.support"),
    ])
    def test_run_exits_2(self, tmp_path, capsys, agent, support, field):
        path, _ = write_scenario(tmp_path, rounds=5, replications=1, agents=[agent],
                                 environment=stochastic_environment(support))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"scenario error: {field}:" in capsys.readouterr().err


class TestGroupKey:
    """EW agents share a learner group when their demand, feedback, eta and
    gamma are equal, so every group runs at one rate."""

    @staticmethod
    def groups(agents):
        from pabid.scenario import validate_scenario

        return validate_scenario({"name": "groups", "grid_size": 21, "rounds": 750, "supply": 5,
                                  "agents": agents, "environment": {"kind": "self_play"}}).groups

    FULL = {"algorithm": "ew", "feedback": "full",
            "valuation": {"kind": "uniform_sorted", "demand": 5}}

    def test_the_market_selfplay_shape_is_one_group(self):
        """Three EW full-information agents on the scheduled eta, the
        `market_selfplay` workload's document, stack in one group."""
        assert self.groups([self.FULL] * 3) == ((0, 1, 2),)

    def test_user_rates_group_by_value(self):
        assert self.groups([{**self.FULL, "eta": eta} for eta in (0.5, 0.5, 2)]) == ((0, 1), (2,))
        assert self.groups([{**self.FULL, "eta": eta} for eta in (2, 2.0)]) == ((0, 1),)
        ix = {**self.FULL, "feedback": "bandit_ix"}
        assert self.groups([{**ix, "gamma": 0.1}, ix, {**ix, "gamma": 0.1}]) == ((0, 2), (1,))

    @pytest.mark.parametrize("rate", ["eta", "gamma"])
    def test_an_unhashable_rate_is_a_scenario_error(self, rate):
        from pabid.scenario import ScenarioError

        ix = {**self.FULL, "feedback": "bandit_ix"}
        with pytest.raises(ScenarioError) as excinfo:
            self.groups([ix, {**ix, rate: [0.1]}])
        assert excinfo.value.problems == [f"agents[1].{rate}: must be a positive finite number"]


class TestArraySizeBounds:
    """`grid_size`, `rounds` and `supply` size arrays: each agent's (demand, grid_size)
    learner tables and the log's (rounds, supply) columns, at most `MAX_CELLS` entries
    each. Sizes at the bound are only validated, never run: a run there allocates
    gigabytes. The documents are self-play, whose validation builds no grid."""

    @staticmethod
    def document(grid_size=11, rounds=5, supply=1, demand=1):
        return {"name": "sizes", "grid_size": grid_size, "rounds": rounds, "supply": supply,
                "agents": [{"algorithm": "ew", "feedback": "full",
                            "valuation": {"kind": "uniform_sorted", "demand": demand}}],
                "environment": {"kind": "self_play"}}

    @staticmethod
    def rejected(tmp_path, capsys, document, field):
        from pabid.scenario import ScenarioError, validate_scenario

        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(document)
        assert [p for p in excinfo.value.problems if p.startswith(field + ":")]
        path = tmp_path / "sizes.json"
        path.write_text(json.dumps(document))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"scenario error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [
        {"grid_size": MAX_CELLS},
        {"grid_size": MAX_CELLS // 4, "supply": 4, "demand": 4},
        {"rounds": MAX_CELLS},
        {"rounds": MAX_CELLS // 4, "supply": 4},
    ], ids=["grid", "table", "rounds", "log"])
    def test_sizes_at_the_bound_validate(self, sizes):
        from pabid.scenario import validate_scenario

        validate_scenario(self.document(**sizes))

    @pytest.mark.parametrize("sizes, field", [
        ({"grid_size": MAX_CELLS + 1}, "grid_size"),
        ({"grid_size": 10**30}, "grid_size"),
        ({"grid_size": 2**63}, "grid_size"),
        ({"grid_size": MAX_CELLS // 4 + 1, "supply": 4, "demand": 4}, "agents[0].valuation"),
        ({"rounds": MAX_CELLS + 1}, "rounds"),
        ({"rounds": 10**30}, "rounds"),
        ({"rounds": MAX_CELLS // 4 + 1, "supply": 4}, "rounds"),
        ({"supply": MAX_CELLS + 1}, "supply"),
    ], ids=["grid", "grid_1e30", "grid_2p63", "table", "rounds", "rounds_1e30", "log", "supply"])
    def test_sizes_above_the_bound_exit_2(self, tmp_path, capsys, sizes, field):
        self.rejected(tmp_path, capsys, self.document(**sizes), field)

    @pytest.mark.parametrize("supply, demand, problem", [
        (3, 4, "demand 4 exceeds supply 3"),
        (3, 10**400, f"demand over {MAX_CELLS} exceeds supply 3"),
        (3, 10**5000, f"demand over {MAX_CELLS} exceeds supply 3"),
        (0, MAX_CELLS, f"the (demand, grid_size) learner tables of {MAX_CELLS} x 11 entries "
                       f"exceed {MAX_CELLS}"),
        (0, 10**5000, f"the (demand, grid_size) learner tables of over {MAX_CELLS} x 11 "
                      f"entries exceed {MAX_CELLS}"),
    ], ids=["ordinary", "1e400", "1e5000", "table", "table_1e5000"])
    def test_a_demand_above_the_bound_is_not_printed(self, supply, demand, problem):
        """Python converts no int of more than 4,300 digits to a string."""
        from pabid.scenario import ScenarioError, validate_scenario

        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(self.document(supply=supply, demand=demand))
        assert f"agents[0].valuation: {problem}" in excinfo.value.problems

    @pytest.mark.parametrize("size", ["rounds", "demand"])
    def test_a_file_with_an_integer_too_long_to_read_exits_2(self, tmp_path, capsys, size):
        path = tmp_path / "long.json"
        text = json.dumps(self.document(**{size: 987654321}))
        path.write_text(text.replace("987654321", "1" + "0" * 5000))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "scenario error: file: not valid JSON (" in capsys.readouterr().err


class TestSeedAndReplicationBounds:
    """`master_seed` lies below 2**128, and `replications` is at most
    `MAX_REPLICATIONS`, so `pabid run` can hold a task and a metrics.json entry
    per replication. A rejection prints the bound, never the value."""

    @staticmethod
    def problems(**fields):
        from pabid.scenario import ScenarioError, validate_scenario

        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario({**TestArraySizeBounds.document(), **fields})
        return excinfo.value.problems

    @pytest.mark.parametrize("seed", [2**128, 10**400, 10**5000], ids=["2p128", "1e400", "1e5000"])
    def test_a_seed_of_2p128_or_more_is_rejected(self, seed):
        assert self.problems(master_seed=seed) == ["master_seed: must be below 2**128"]

    @pytest.mark.parametrize("replications", [MAX_REPLICATIONS + 1, 10**400, 10**5000],
                             ids=["bound", "1e400", "1e5000"])
    def test_replications_above_the_bound_are_rejected(self, replications):
        assert self.problems(replications=replications) == [
            f"replications: must be at most {MAX_REPLICATIONS}"]

    def test_the_largest_seed_and_replications_validate(self):
        from pabid.scenario import validate_scenario

        scenario = validate_scenario({**TestArraySizeBounds.document(),
                                      "master_seed": 2**128 - 1,
                                      "replications": MAX_REPLICATIONS})
        assert (scenario.master_seed, scenario.replications) == (2**128 - 1, MAX_REPLICATIONS)


class TestAtomicWrite:
    def test_a_failed_write_raises_and_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        from pabid import cli

        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(PermissionError, match="cannot replace"):
            cli._atomic_write(str(tmp_path / "metrics.json"), "{}\n")
        assert list(tmp_path.iterdir()) == []


def huge_eta_scenario(tmp_path, eta):
    """One EW full-information agent at a user-set eta, 50 rounds."""
    agent = {"algorithm": "ew", "feedback": "full", "valuation": [1.0, 0.8, 0.5], "eta": eta}
    environment = {"kind": "stochastic", "support": [[0.1] * 3, [0.3, 0.3, 1.0]],
                   "probs": [0.5, 0.5], "tie": "agent_wins"}
    path, _ = write_scenario(tmp_path, rounds=50, replications=1, master_seed=1,
                             agents=[agent], environment=environment)
    return path


class TestOmdEtaRange:
    """An OMD step exponentiates eta times an estimate of at most 1 under full
    information and 1 / (Q_FLOOR + gamma) under bandit feedback, so validation
    bounds their product; gamma is 0 under IPW and about 0.04 on the IX
    schedule here (11 grid points, 50 rounds)."""

    @staticmethod
    def scenario(tmp_path, feedback, eta, **extra):
        agent = {"algorithm": "omd", "feedback": feedback, "valuation": [1.0, 0.8, 0.5],
                 "eta": eta, **extra}
        environment = {"kind": "stochastic", "support": [[0.1] * 3, [0.3, 0.3, 1.0]],
                       "probs": [0.5, 0.5], "tie": "agent_wins"}
        path, _ = write_scenario(tmp_path, rounds=50, replications=1, master_seed=99,
                                 agents=[agent], environment=environment)
        return path

    def test_bandit_eta_whose_step_overflows_exits_2(self, tmp_path, capsys):
        # eta * estimate is inf, and the shifted step would give inf - inf = NaN in round 0
        out = tmp_path / "out"
        assert main(["run", str(self.scenario(tmp_path, "bandit_ipw", 1e308)),
                     "--out", str(out)]) == 2
        assert "scenario error: agents[0].eta:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("feedback, eta, gamma, rejected", [
        ("bandit_ipw", 8.99e295, None, True), ("bandit_ipw", 8.98e295, None, False),
        ("bandit_ix", 8.99e295, 1e-300, True), ("bandit_ix", 8.98e295, 1e-300, False),
        ("bandit_ix", 1e307, None, True), ("bandit_ix", 1e300, None, False),
        ("full", 8.99e307, None, True), ("full", 8.98e307, None, False)])
    def test_bound_is_eta_times_the_largest_estimate(self, tmp_path, feedback, eta, gamma,
                                                     rejected):
        from pabid.scenario import ScenarioError, validate_scenario

        extra = {} if gamma is None else {"gamma": gamma}
        document = json.loads(self.scenario(tmp_path, feedback, eta, **extra).read_text())
        if rejected:
            with pytest.raises(ScenarioError, match=r"agents\[0\]\.eta: mirror descent"):
                validate_scenario(document)
        else:
            validate_scenario(document)


    @pytest.mark.parametrize("feedback, eta, master_seed, tie", [
        ("full", 1e3, 5, "agent_wins"), ("full", 1e10, 5, "agent_wins"),
        ("full", 1e300, 5, "agent_wins"), ("bandit_ix", 1e3, 99, "agent_loses")])
    def test_huge_eta_inside_the_bound_runs(self, tmp_path, feedback, eta, master_seed, tie):
        """Round 0's step leaves rows 0 and 1 near point masses at the win
        threshold and row 2 spread to its IR cap: dominance moves mass by
        factors near e^100, where coordinate ascent stalled at gap 2.8e-5."""
        document = json.loads(self.scenario(tmp_path, feedback, eta).read_text())
        document["master_seed"] = master_seed
        document["environment"]["tie"] = tie
        path = tmp_path / "huge_eta.json"
        path.write_text(json.dumps(document))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("master_seed", [125, 129, 131, 139, 195])
    def test_full_information_seeds_that_stalled_run(self, tmp_path, master_seed):
        """`benchmark_stochastic` with OMD: on these seeds coordinate ascent
        stalled one projection for 200,000 sweeps, 8.6-14.2 s, and exited 1."""
        from pabid.cli import _resolve_scenario_path

        document = json.loads(Path(_resolve_scenario_path("benchmark_stochastic")).read_text())
        document["agents"][0]["algorithm"] = "omd"
        document.update(rounds=1_000, replications=1, master_seed=master_seed)
        path = tmp_path / "omd_full.json"
        path.write_text(json.dumps(document))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


class TestFullInfoEtaRange:
    """Every log tail sum of a full-information EW agent is at most
    eta * M * T + log C(M + D - 1, M), so validation bounds eta * M * T."""

    def test_eta_whose_weights_overflow_exits_2(self, tmp_path, capsys):
        # eta * W overflows from round 1 on, and the tables fill with inf and NaN
        out = tmp_path / "out"
        assert main(["run", str(huge_eta_scenario(tmp_path, 1e308)), "--out", str(out)]) == 2
        assert "scenario error: agents[0].eta:" in capsys.readouterr().err
        assert not out.exists()

    def test_eta_inside_the_bound_still_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(huge_eta_scenario(tmp_path, 1e300)), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["replications"][0]["regret"][0]["realized_utility"] == pytest.approx(68.6)


class TestRuntimeFailure:
    def test_failure_names_the_agent_and_the_round(self, tmp_path, capsys, monkeypatch):
        """EW, EW, OMD: the EW agents form group 0, so the OMD agent is
        agent 2 of group 1. Its fifth projection is made to fail."""
        from pabid import mirror_descent

        project = mirror_descent.project_dual_ascent
        calls = []

        def fail_fifth_call(*args):
            q, lam, nu, sweeps, gap = project(*args)
            calls.append(sweeps)
            return (q, lam, nu, 777, 1.0) if len(calls) == 5 else (q, lam, nu, sweeps, gap)

        monkeypatch.setattr(mirror_descent, "project_dual_ascent", fail_fifth_call)
        ew = {"algorithm": "ew", "feedback": "full", "valuation": [0.9, 0.6]}
        omd = {"algorithm": "omd", "feedback": "bandit_ix", "valuation": [0.8, 0.5]}
        path, _ = write_scenario(tmp_path, rounds=10, replications=1, supply=4,
                                 agents=[ew, ew, omd], environment={"kind": "self_play"})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "runtime failure: agent 2, round 4: projection stopped at gap "
            "1.000e+00 after 777 sweeps (tol 1.0e-08)\n")

    def test_ir_violation_names_the_agent_and_the_round(self, tmp_path, capsys, monkeypatch):
        """The EW group of agents 0 and 1 is made to bid 1.0 on both slots
        for agent 1 in round 3, above its valuation [0.9, 0.6]."""
        from pabid.exp_weights import ExpWeightsBidder

        propose = ExpWeightsBidder.propose
        calls = []

        def overbid_in_round_3(self):
            bids = propose(self)
            calls.append(None)
            if len(calls) == 4:
                bids[1] = [self.grid.count - 1] * len(bids[1])
            return bids

        monkeypatch.setattr(ExpWeightsBidder, "propose", overbid_in_round_3)
        ew = {"algorithm": "ew", "feedback": "full", "valuation": [0.9, 0.6]}
        omd = {"algorithm": "omd", "feedback": "bandit_ix", "valuation": [0.8, 0.5]}
        path, _ = write_scenario(tmp_path, rounds=10, replications=1, supply=4,
                                 agents=[ew, ew, omd], environment={"kind": "self_play"})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "runtime failure: agent 1, round 3: bid violates individual rationality\n")

    def test_a_short_bid_row_names_the_agent_and_the_round(self, tmp_path, capsys, monkeypatch):
        """The EW group of agents 0 and 1 is made to propose one slot of agent
        1's two in round 3; the run stops there, before the row is pooled or logged."""
        from pabid.exp_weights import ExpWeightsBidder

        propose = ExpWeightsBidder.propose
        calls = []

        def short_row_in_round_3(self):
            bids = propose(self)
            calls.append(None)
            if len(calls) == 4:
                bids[1] = bids[1][:1]
            return bids

        monkeypatch.setattr(ExpWeightsBidder, "propose", short_row_in_round_3)
        ew = {"algorithm": "ew", "feedback": "full", "valuation": [0.9, 0.6]}
        omd = {"algorithm": "omd", "feedback": "bandit_ix", "valuation": [0.8, 0.5]}
        path, _ = write_scenario(tmp_path, rounds=10, replications=1, supply=4,
                                 agents=[ew, ew, omd], environment={"kind": "self_play"})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "runtime failure: agents 0, 1, round 3: agent 1 proposed a bid row of width 1 "
            "for a demand of 2\n")

    def test_failure_keeps_its_type_and_names_every_agent_of_the_group(self, monkeypatch):
        from pabid import _kernels
        from pabid.auction import ValuationProfile
        from pabid.exp_weights import ExpWeightsBidder
        from pabid.grids import make_even_grid
        from pabid.simulator import SelfPlayMarket

        grid = make_even_grid(5)
        valuations = [ValuationProfile(np.array([1.0, 0.5]))] * 2
        group = ExpWeightsBidder(valuations, grid, 10, [1, 2])
        market = SelfPlayMarket([group], valuations, grid, supply=4, members=[[0, 1]])
        sample = _kernels.sample_monotone
        rounds = []

        def fail_in_round_3(*args):
            rounds.append(None)
            if len(rounds) == 4:
                raise FloatingPointError("sampler stopped")
            return sample(*args)

        monkeypatch.setattr(_kernels, "sample_monotone", fail_in_round_3)
        with pytest.raises(FloatingPointError) as excinfo:
            market.play(10)
        assert str(excinfo.value) == "agents 0, 1, round 3: sampler stopped"


class TestHindsight:
    def test_all_ones_history_worth_nothing(self, tmp_path, capsys):
        history = tmp_path / "h.txt"
        history.write_text("1 1 1\n")
        assert main(["hindsight", str(history), "--valuation", "0.9,0.9,0.9",
                     "--grid-size", "11"]) == 0
        out = capsys.readouterr().out
        assert "total utility: 0" in out

    def test_a_total_of_zero_prints_without_a_sign(self, tmp_path, capsys):
        """Valuation 0.3 lies just below its grid value 0.30000000000000004,
        and with ties lost no bid wins a 1.0 row."""
        history = tmp_path / "never.txt"
        history.write_text("1.0\n1.0\n")
        args = ["hindsight", str(history), "--valuation", "0.3", "--grid-size", "11", "--tie", "loses"]
        assert main(args + ["--json"]) == 0
        assert '"total_utility": 0.0' in capsys.readouterr().out
        assert main(args) == 0
        assert "total utility: 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("valuation, size", [("0.3", MAX_CELLS + 1), ("0.3", 10**11),
                                                 ("1,1,1", MAX_CELLS // 2)])
    def test_grid_size_above_the_scenario_bound_exits_2(self, tmp_path, capsys, valuation, size):
        """Demand x grid size is bounded by `MAX_CELLS` before any table is built."""
        history = tmp_path / "h.txt"
        history.write_text("1.0 1.0 1.0\n")
        assert main(["hindsight", str(history), "--valuation", valuation,
                     "--grid-size", str(size)]) == 2
        demand = valuation.count(",") + 1
        assert (f"--grid-size must be at most {MAX_CELLS // demand}: the (demand, grid_size) "
                f"tables of {demand} x {size} entries exceed {MAX_CELLS}\n"
                in capsys.readouterr().err)

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
        from pabid.scenario import run_experiment, validate_scenario
        from pabid.simulator import regret_report

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

    @pytest.mark.parametrize("tie, bid, total", [("wins", 0.4, 1.8), ("loses", 0.5, 1.5)])
    def test_tie_rule_moves_the_optimal_bid(self, tmp_path, capsys, tie, bid, total):
        """Rivals all at 0.4: winning ties, bidding 0.4 wins every unit;
        losing them, the best bid is the next grid point."""
        history = tmp_path / "h.txt"
        history.write_text("0.4 0.4 0.4\n")
        assert main(["hindsight", str(history), "--valuation", "1,1,1", "--grid-size", "11",
                     "--tie", tie, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bid"] == pytest.approx([bid] * 3)
        assert payload["total_utility"] == pytest.approx(total)

    def test_shape_errors_exit_2(self, tmp_path, capsys):
        history = tmp_path / "h.txt"
        history.write_text("0.5 0.5\n0.5\n")
        assert main(["hindsight", str(history), "--valuation", "1,1",
                     "--grid-size", "11"]) == 2

    def test_comment_only_history_exits_2(self, tmp_path, capsys):
        history = tmp_path / "h.txt"
        history.write_text("# rounds to come\n\n#\n")
        assert main(["hindsight", str(history), "--valuation", "1", "--grid-size", "11"]) == 2
        assert "history file contains no rows" in capsys.readouterr().err

    def test_valuation_longer_than_the_rows_exits_2(self, tmp_path, capsys):
        history = tmp_path / "h.txt"
        history.write_text("0.1 0.5\n0.2 0.3\n")
        assert main(["hindsight", str(history), "--valuation", "1,1,1",
                     "--grid-size", "11"]) == 2
        assert "valuation longer than competing-bid rows" in capsys.readouterr().err

    @pytest.mark.parametrize("valuation", ["nan", "1,nan"])
    def test_nan_valuation_exits_2(self, tmp_path, capsys, valuation):
        history = tmp_path / "h.txt"
        history.write_text("0.5 0.5\n")
        assert main(["hindsight", str(history), "--valuation", valuation,
                     "--grid-size", "11"]) == 2
        assert "valuations must lie in [0, 1]" in capsys.readouterr().err


class TestGridAdvice:
    def test_the_module_entry_point_exits_with_mains_status(self):
        """`python -m pabid.cli` passes `main`'s status to the shell: 0 with the
        suggestion printed, and 2 from argparse on an unknown flag."""
        env = dict(os.environ, PYTHONPATH=str(Path(pabid.__file__).resolve().parents[1]))
        command = [sys.executable, "-m", "pabid.cli", "grid-advice", "--mode", "full",
                   "--m", "3", "--t", "100"]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert f"suggested grid size: {suggested_grid_size('full', 3, 100)}\n" in done.stdout
        done = subprocess.run(command + ["--no-such-flag"], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 2
        assert "unrecognized arguments: --no-such-flag" in done.stderr

    def test_full_info_example(self, capsys):
        assert main(["grid-advice", "--mode", "full", "--m", "4", "--t", "10000"]) == 0
        out = capsys.readouterr().out
        assert "suggested grid size: 50" in out
        assert "816.327" in out  # M*T/(D-1) = 4*10000/49

    def test_omd_cube_root(self, capsys):
        assert main(["grid-advice", "--mode", "omd-bandit", "--m", "3", "--t", "1000"]) == 0
        assert "suggested grid size: 10" in capsys.readouterr().out

    def test_ew_bandit_rate(self, capsys):
        """ceil(M^(-1/3) T^(1/3)) = ceil(7.94) at M = 2, T = 1000."""
        assert main(["grid-advice", "--mode", "ew-bandit", "--m", "2", "--t", "1000"]) == 0
        out = capsys.readouterr().out
        assert "suggested grid size: 8" in out
        assert "285.714" in out  # M*T/(D-1) = 2*1000/7

    @pytest.mark.parametrize("m, t", [(0, 100), (2, 0), (-1, 5)])
    def test_non_positive_demand_or_horizon_exits_2(self, capsys, m, t):
        assert main(["grid-advice", "--mode", "full", "--m", str(m), "--t", str(t)]) == 2
        assert "--t and --m must be positive" in capsys.readouterr().err

    def test_a_bound_past_float_range_exits_2(self, capsys):
        """M*T/(D-1) at T = 10**1000 is about 10**667, past the largest float."""
        assert main(["grid-advice", "--mode", "omd-bandit", "--m", "1", "--t", str(10**1000)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: M*T/(D-1) exceeds the largest float, "
                                "1.79769e+308\n")

    def test_floor_at_two(self, capsys):
        assert main(["grid-advice", "--mode", "full", "--m", "1", "--t", "1"]) == 0
        assert "suggested grid size: 2" in capsys.readouterr().out

    def test_an_exact_cube_root_is_not_rounded_up(self, capsys):
        """(T/M)^(1/3) = 3 at M = 19, T = 513, where the float product
        19**(-1/3) * 513**(1/3) reads 3.0000000000000004."""
        assert main(["grid-advice", "--mode", "ew-bandit", "--m", "19", "--t", "513"]) == 0
        assert "suggested grid size: 3\n" in capsys.readouterr().out

    def test_huge_horizons_give_the_exact_smallest_root(self):
        """Exact roots, and one past them, at horizons whose float cube root
        is off by far more than 1: at T = 10**100 it reads 9.1e18 below the
        integer root."""
        assert suggested_grid_size("omd-bandit", 1, 10**99) == 10**33
        assert suggested_grid_size("omd-bandit", 1, 10**99 + 1) == 10**33 + 1
        assert suggested_grid_size("ew-bandit", 8, 8 * 10**99) == 10**33
        assert suggested_grid_size("full", 1, 10**100) == 10**50
        assert suggested_grid_size("full", 3, 3 * 10**100 + 1) == 10**50 + 1
        k = suggested_grid_size("omd-bandit", 1, 10**100)
        assert k == 2154434690031883721759293566519351
        assert (k - 1) ** 3 < 10**100 <= k**3

    def test_every_mode_matches_an_integer_reference(self):
        """The smallest k >= 2 with k**2 M >= T, k**3 M >= T or k**3 >= T, found
        by counting up, for every M < 30 and T < 3,000."""
        powers = {"full": (2, True), "ew-bandit": (3, True), "omd-bandit": (3, False)}
        for mode, (power, per_unit) in powers.items():
            for m in range(1, 30):
                k = 2
                for t in range(1, 3000):
                    while k**power * (m if per_unit else 1) < t:
                        k += 1
                    assert suggested_grid_size(mode, m, t) == k, (mode, m, t)
