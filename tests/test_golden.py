"""Golden outputs: each bundled scenario, shortened to 300 rounds, must keep its bytes.

Two more scenarios are written out below: a mixed market whose EW agents of
equal demand and feedback are not adjacent, against an environment that
wins ties, so the grouping of agents cannot change anyone's draws unseen;
and one OMD bandit agent at the `omd_bandit` benchmark shape whose
projections often take many sweeps (64 of 300 take more than one, up to
111), so a change to the projection cannot move its multi-sweep path unseen.

A performance change must leave every run log and every regret report
bit-identical. The digests below hash the replication-0 CSV plus the repr of
each agent's regret report, with the JSON log appended, and separately every
market-metrics series. A change that moves one must say why and record the
new digest.
"""
import hashlib
import json

import numpy as np
import pytest

from pabid import market_metrics, regret_report, run_experiment, validate_scenario
from pabid.cli import _resolve_scenario_path

ROUNDS = 300

# Agents in the order EW full, OMD bandit-IX, EW full, EW bandit-IX.
INLINE_SCENARIOS = {
    "mixed_groups": {
        "name": "mixed_groups",
        "grid_size": 11,
        "rounds": ROUNDS,
        "master_seed": 20230727,
        "supply": 4,
        "agents": [
            {"algorithm": "ew", "feedback": "full", "valuation": [0.9, 0.6]},
            {"algorithm": "omd", "feedback": "bandit_ix",
             "valuation": {"kind": "uniform_sorted", "demand": 3}},
            {"algorithm": "ew", "feedback": "full",
             "valuation": {"kind": "uniform_sorted", "demand": 2}},
            {"algorithm": "ew", "feedback": "bandit_ix", "valuation": [0.8]},
        ],
        "environment": {
            "kind": "stochastic",
            "support": [[0.1, 0.1, 0.2, 0.3], [0.2, 0.3, 0.5, 0.9], [0.0, 0.4, 0.7, 1.0]],
            "probs": [0.5, 0.25, 0.25],
            "tie": "agent_loses",
        },
    },
    "omd_multisweep": {
        "name": "omd_multisweep",
        "grid_size": 21,
        "rounds": ROUNDS,
        "master_seed": 9,
        "supply": 5,
        "agents": [{"algorithm": "omd", "feedback": "bandit_ix", "valuation": [1] * 5}],
        "environment": {
            "kind": "stochastic",
            "support": [[0.1] * 5, [0.3, 0.3, 0.3, 0.3, 1], [0.4, 0.4, 0.4, 1, 1]],
            "probs": [0.5, 0.25, 0.25],
            "tie": "agent_wins",
        },
    },
}

# scenario -> (sha256 of CSV + regret reports + JSON, sha256 of market metrics)
GOLDEN = {
    "market_n3_m5": (
        "febf573053b048177ae727eb16ee48a1d4e834d5329dd250f6346f0825a9156f",
        "e0811fe1ff1135e8df2695b1344fb946323efd4cb30d095342bc721ebafeb24f",
    ),
    "benchmark_stochastic": (
        "e0843c0d8ad2f4bd4fcb6ba4c9718f6200b61bc4e778f993ef2d629ded7200f2",
        "a200ee82fee06c4f115277c9f613415637324393ab938625645b329e929df044",
    ),
    "lower_bound_m3": (
        "98c3f709a24447572b162cba24798022b6b738b7206d1f186342513de81eaddb",
        "a97c52add1f78c773a6c86bce15b81fd4dc001d3f69af934f8c7cc7a237d32e3",
    ),
    "mixed_groups": (
        "1f5fa2813577aac4f865d180faa44f7bf957c1480d05dce9801f88c5f5ecdb8f",
        "5dda029ce84c38fe50b6bcbf30780e3ad500e8c20052f5844b1e27cb0e08a173",
    ),
    "omd_multisweep": (
        "854fbe83c5efd4af5873012c055695a8e080083408c250ee55a71a84d4584664",
        "f2f7edf8df5260bd29828dcf48bca16cf730b8d537d0e8a5e7994b3f977d369b",
    ),
}


def report_tuple(report) -> tuple:
    return (
        report.discretized_regret,
        report.continuous_regret_upper,
        report.benchmark_utility,
        report.realized_utility,
        tuple(int(j) for j in report.benchmark_bid.indices),
        report.running_average_utility.tolist(),
    )


def golden_digests(name: str) -> tuple[str, str]:
    document = INLINE_SCENARIOS.get(name)
    if document is None:
        with open(_resolve_scenario_path(name)) as fh:
            document = json.load(fh)
    log = run_experiment(validate_scenario({**document, "rounds": ROUNDS}), replication=0)
    reports = [report_tuple(regret_report(log, n)) for n in range(log.num_agents)]
    run_digest = hashlib.sha256(log.to_csv_text().encode() + repr(reports).encode())
    run_digest.update(log.to_json_text().encode())
    metrics = market_metrics(log)
    metrics_digest = hashlib.sha256(repr(metrics.max_welfare).encode())
    for series in (metrics.welfare, metrics.revenue, metrics.total_utility,
                   metrics.normalized_welfare, metrics.normalized_revenue,
                   metrics.cumulative_average_welfare, metrics.cumulative_average_revenue,
                   metrics.log2_win_spread, metrics.log2_price_gap):
        metrics_digest.update(np.ascontiguousarray(series, dtype=float).tobytes())
    return run_digest.hexdigest(), metrics_digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_outputs_are_byte_identical(name):
    assert golden_digests(name) == GOLDEN[name]
