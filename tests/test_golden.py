"""Golden outputs: each bundled scenario, shortened to 300 rounds, must keep its bytes.

Five more scenarios are written out below: a mixed market whose EW agents
of equal demand, feedback and rates are not adjacent, against an environment
that wins ties, so the grouping of agents cannot change anyone's draws
unseen; one OMD bandit agent at the `omd_bandit` benchmark shape whose
projections often need Newton steps after the lambda = 0 check (64 of 300,
up to 2 steps), so a change to the projection cannot move its Newton path
unseen; two EW full-information agents at user-set rates 2 and 0.5, a group
each, the first of which carries its table past the linear range bound at
round 116, so the switch from linear tail sums to logs cannot move a bid
unseen; and one EW
bandit-IX agent of demand 2 against a supply of 3 that wins ties, so a
lone agent's thresholds, read from the environment's rows alone, cannot
drop the tie rule or the rows' unsold tail unseen; and a self-play market of
one EW bandit-IX and one EW bandit-IPW agent of demand 3, two groups whose
tables have the same shape, so groups that shared per-round tables would
update from each other's marginals, and not unseen.

A last run pins a bandit agent's rounds in logs, which no run above
reaches: one EW bandit-IX agent whose tables leave the linear range, so
676 of its 1,600 rounds sample from log tail sums and take the marginals'
`_log_marginals`.

A performance change must leave every run log and every regret report
bit-identical. The digests below hash the replication-0 CSV plus the repr of
each agent's regret report, with the JSON log appended, and separately every
market-metrics series. A change that moves one must say why and record the
new digest. Those pin replication 0 only, so one more digest hashes the same
run bytes of replications 0-4 of `benchmark_stochastic` at 50 rounds: a
replication past 0 cannot change its seeds unseen. The run digests pin only
the q of each projection that reaches the bids, so a last digest hashes
every output of every projection (q, lambda, nu, steps and gap) in
replication 0 of `omd_multisweep` and `mixed_groups`, whose IR-masked OMD
agent leaves layer pairs whose excess is positive by roundoff alone, which
the lambda = 0 check certifies.

The projection digest and the bandit agent's log rounds depend on the bits
of numpy's `exp` and `log`, which its SIMD dispatch chooses per host, so
every digest assertion names the target the digests were recorded on and
this run's.
"""
import hashlib
import json

import numpy as np
import pytest

from pabid import _kernels, mirror_descent
from pabid.cli import _resolve_scenario_path
from pabid.scenario import build_market, run_experiment, validate_scenario
from pabid.simulator import market_metrics, regret_report

from conftest import TARGETS

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
    "full_info_crossing": {
        "name": "full_info_crossing",
        "grid_size": 11,
        "rounds": ROUNDS,
        "master_seed": 116,
        "supply": 3,
        "agents": [
            {"algorithm": "ew", "feedback": "full", "valuation": [1.0, 0.8, 0.5], "eta": 2},
            {"algorithm": "ew", "feedback": "full",
             "valuation": {"kind": "uniform_sorted", "demand": 3}, "eta": 0.5},
        ],
        "environment": {
            "kind": "stochastic",
            "support": [[0.1, 0.1, 0.1], [0.3, 0.3, 1.0], [0.2, 0.6, 0.9]],
            "probs": [0.5, 0.25, 0.25],
            "tie": "agent_wins",
        },
    },
    "ew_bandit_short_demand": {
        "name": "ew_bandit_short_demand",
        "grid_size": 11,
        "rounds": ROUNDS,
        "master_seed": 2307,
        "supply": 3,
        "agents": [{"algorithm": "ew", "feedback": "bandit_ix", "valuation": [0.9, 0.7]}],
        "environment": {
            "kind": "stochastic",
            "support": [[0.1, 0.2, 0.3], [0.3, 0.5, 0.8], [0.0, 0.6, 0.6]],
            "probs": [0.5, 0.25, 0.25],
            "tie": "agent_loses",
        },
    },
    "ew_bandit_two_groups": {
        "name": "ew_bandit_two_groups",
        "grid_size": 11,
        "rounds": ROUNDS,
        "master_seed": 2607,
        "supply": 4,
        "agents": [
            {"algorithm": "ew", "feedback": "bandit_ix", "valuation": [0.9, 0.6, 0.4]},
            {"algorithm": "ew", "feedback": "bandit_ipw", "valuation": [0.8, 0.7, 0.3]},
        ],
        "environment": {"kind": "self_play"},
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
    "full_info_crossing": (
        "bd6e42b636c1249377b90fb747c35a902044856977258c380f58877d1864b46b",
        "a7c354cec51d6f475d11a205329d93ec9bdb6396396ae0e782ea84b0d09fd95d",
    ),
    "mixed_groups": (
        "1f5fa2813577aac4f865d180faa44f7bf957c1480d05dce9801f88c5f5ecdb8f",
        "5dda029ce84c38fe50b6bcbf30780e3ad500e8c20052f5844b1e27cb0e08a173",
    ),
    "omd_multisweep": (
        "854fbe83c5efd4af5873012c055695a8e080083408c250ee55a71a84d4584664",
        "f2f7edf8df5260bd29828dcf48bca16cf730b8d537d0e8a5e7994b3f977d369b",
    ),
    "ew_bandit_short_demand": (
        "e557652fef49af1e16bab4e8bdc400ad7e6890e713e11c4a2e8788ec9ea8e301",
        "484d9437db68933d9109bba3f94f0701e1bb9938f37052f4c454ec26ea71e2fc",
    ),
    "ew_bandit_two_groups": (
        "5b68b48f95066ee427b5ba05c38dc18183ca4f6447ab37c6633ac5839ca41b07",
        "11ecda56f3caeabf18867bf5b843578ffdcc7488256357ce738e1442e84d9da7",
    ),
}

# sha256 of CSV + regret reports + JSON for each of replications 0-4 in turn
REPLICATIONS_SCENARIO = "benchmark_stochastic"
REPLICATIONS = 5
REPLICATION_ROUNDS = 50
REPLICATIONS_DIGEST = "9f9ecd59e4008998dce6d986142dc58c76742e5c5eb4cdd99b24d9cd36cec171"

# sha256 of the bytes of (q, lambda, nu, steps, gap) of every projection, in call order, of
# projected Newton on the dual, recorded on RECORDED_TARGET (numpy's AVX-512 dispatch)
PROJECTION_SCENARIOS = ("omd_multisweep", "mixed_groups")
PROJECTION_DIGEST = "55299519ab03607a239bb13f854207862b571870b8258f0758d75b4cba07a54d"

# sha256 of CSV + regret reports + JSON of a bandit agent with rounds in logs
LOG_ROUNDS_SCENARIO = {
    "name": "ew_bandit_log_rounds",
    "grid_size": 11,
    "rounds": 1600,
    "master_seed": 3,
    "supply": 3,
    "agents": [{"algorithm": "ew", "feedback": "bandit_ix", "valuation": [1.0, 0.8, 0.5],
                "eta": 0.33, "gamma": 1e-4}],
    "environment": {"kind": "stochastic", "support": [[0.1] * 3, [0.3, 0.3, 1.0]],
                    "probs": [0.5, 0.5], "tie": "agent_wins"},
}
LOG_ROUNDS_DIGEST = "9accffe3433af49348cf5eccd63da4d111f67a16027e53f83ff9d87499592928"


def report_tuple(report) -> tuple:
    return (
        report.discretized_regret,
        report.continuous_regret_upper,
        report.benchmark_utility,
        report.realized_utility,
        tuple(int(j) for j in report.benchmark_bid.indices),
        report.running_average_utility.tolist(),
    )


def load_document(name: str) -> dict:
    document = INLINE_SCENARIOS.get(name)
    if document is None:
        with open(_resolve_scenario_path(name)) as fh:
            document = json.load(fh)
    return document


def update_run_digest(digest, log) -> None:
    reports = [report_tuple(regret_report(log, n)) for n in range(log.num_agents)]
    digest.update(log.to_csv_text().encode() + repr(reports).encode())
    digest.update(log.to_json_text().encode())


def golden_digests(name: str) -> tuple[str, str]:
    log = run_experiment(validate_scenario({**load_document(name), "rounds": ROUNDS}),
                         replication=0)
    run_digest = hashlib.sha256()
    update_run_digest(run_digest, log)
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
    assert golden_digests(name) == GOLDEN[name], TARGETS


def test_replications_past_zero_are_byte_identical():
    scenario = validate_scenario({**load_document(REPLICATIONS_SCENARIO),
                                  "rounds": REPLICATION_ROUNDS, "replications": REPLICATIONS})
    digest = hashlib.sha256()
    for replication in range(REPLICATIONS):
        update_run_digest(digest, run_experiment(scenario, replication=replication))
    assert digest.hexdigest() == REPLICATIONS_DIGEST, TARGETS


def test_projections_are_byte_identical(monkeypatch):
    project = mirror_descent.project_dual_ascent
    digest = hashlib.sha256()

    def recorded(*args):
        q, lam, nu, sweeps, gap = result = project(*args)
        for array in (q, lam, nu, np.array([sweeps, gap], dtype=float)):
            digest.update(np.ascontiguousarray(array).tobytes())
        return result

    monkeypatch.setattr(mirror_descent, "project_dual_ascent", recorded)
    for name in PROJECTION_SCENARIOS:
        run_experiment(validate_scenario({**load_document(name), "rounds": ROUNDS}),
                       replication=0)
    assert digest.hexdigest() == PROJECTION_DIGEST, TARGETS


def test_bandit_log_rounds_are_byte_identical(monkeypatch):
    log_marginals = _kernels._log_marginals
    calls = []

    def counted(s):
        calls.append(s.shape)
        return log_marginals(s)

    monkeypatch.setattr(_kernels, "_log_marginals", counted)
    scenario = validate_scenario(LOG_ROUNDS_SCENARIO)
    market, seed, config = build_market(scenario, 0)
    log = market.play(scenario.rounds, config=config, seed=seed)
    digest = hashlib.sha256()
    update_run_digest(digest, log)
    assert market.learners[0].log_rounds.tolist() == [676], TARGETS
    assert len(calls) == 676, TARGETS
    assert digest.hexdigest() == LOG_ROUNDS_DIGEST, TARGETS
