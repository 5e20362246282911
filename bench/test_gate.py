"""Self-test of the benchmark's correctness gate.

Run from the repository root:

    python3 -m pytest -q bench/test_gate.py
"""
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

bench.import_pabid()
from pabid import simulator  # noqa: E402


@pytest.fixture
def short_market(monkeypatch):
    """A one-replication, 30-round market so the gate runs in about a second."""
    name = "market_selfplay"
    short = dataclasses.replace(bench.WORKLOADS[name], rounds=30, replications=1)
    monkeypatch.setitem(bench.WORKLOADS, name, short)
    return name


def test_clean_short_run_passes_the_gate(short_market):
    result = bench.run_workload(short_market, seed=3, seconds=0.1, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1


def test_corrupted_allocation_counts_the_replication_as_failed(short_market, monkeypatch):
    play = simulator.SelfPlayMarket.play

    def play_and_corrupt(self, *args, **kwargs):
        log = play(self, *args, **kwargs)
        log.allocations[-1, 1] += 1
        return log

    monkeypatch.setattr(simulator.SelfPlayMarket, "play", play_and_corrupt)
    run = bench.WorkloadRun(short_market, seed=3)
    run.first_pass()
    assert list(run.failures) == [0]
    assert "replay_matches" in run.failures[0]

    result = bench.run_workload(short_market, seed=3, seconds=0.1, trace=False)
    assert result["failed"] == 1 and not result["correct"]


def test_projection_failure_is_counted_with_its_location(monkeypatch):
    from pabid import mirror_descent

    name = "omd_bandit"
    monkeypatch.setitem(bench.WORKLOADS, name,
                        dataclasses.replace(bench.WORKLOADS[name], rounds=20, replications=1))
    project = mirror_descent.project_dual_ascent
    calls = []

    def fail_twelfth_projection(*args):
        q, lam, nu, sweeps, gap = project(*args)
        calls.append(sweeps)
        return (q, lam, nu, 777, 1.0) if len(calls) % 12 == 0 else (q, lam, nu, sweeps, gap)

    monkeypatch.setattr(mirror_descent, "project_dual_ascent", fail_twelfth_projection)
    run = bench.WorkloadRun(name, seed=1)
    run.first_pass()
    assert run.projection_failures == 1
    assert "[agent 0, round 11, sweeps 777, gap 1.000e+00]" in run.failures[0]
