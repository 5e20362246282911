"""Benchmark workloads: scenario documents generated from the workload seed.

Each workload is a fixed set of replications of one scenario. The seed
becomes the scenario's `master_seed`, so it drives every random draw of the
run (valuations, learner sampling, adversary draws) and nothing else. Rounds
and replications are fixed per workload: the OMD projection cost grows
faster than linearly in the horizon, so changing them changes the work, not
just the run length.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    demand: int
    grid_size: int
    rounds: int
    replications: int
    agents: int


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "market_selfplay",
            "3 EW full-information agents in self-play (M=5, D=21): call-overhead-bound "
            "kernels, rival-bid pooling, settlement, and the only long log to report on",
            demand=5, grid_size=21, rounds=750, replications=8, agents=3,
        ),
        Workload(
            "ew_bandit_large",
            "one EW bandit-IX agent at M=20, D=101 against a stochastic adversary: "
            "compute-bound O(M*D) tail sums, marginals and sampling",
            demand=20, grid_size=101, rounds=100, replications=4, agents=1,
        ),
        Workload(
            "omd_bandit",
            "one OMD bandit-IX agent at M=5, D=21 against a stochastic adversary: "
            "the KL projection (heavy-tailed sweep count) and the transport plan",
            demand=5, grid_size=21, rounds=100, replications=24, agents=1,
        ),
    )
}


def stochastic_support(supply: int) -> tuple[list, list]:
    """The `benchmark_stochastic` support stretched to `supply` units.

    Rows (ascending, as competing bids): all 0.1 with probability 1/2; a
    third of the units at 1.0 and the rest at 0.3; two thirds at 1.0 and the
    rest at 0.4, each with probability 1/4. At supply 3 this is exactly the
    bundled scenario's support.
    """
    third = supply // 3
    low = [0.1] * supply
    mid = [0.3] * (supply - third) + [1.0] * third
    high = [0.4] * (supply - 2 * third) + [1.0] * (2 * third)
    return [low, mid, high], [0.5, 0.25, 0.25]


def scenario_document(workload: Workload, seed: int) -> dict:
    """The scenario document of one workload for one seed."""
    doc = {
        "name": workload.name,
        "grid_size": workload.grid_size,
        "rounds": workload.rounds,
        "replications": workload.replications,
        "master_seed": seed,
        "supply": workload.demand,
    }
    if workload.name == "market_selfplay":
        doc["agents"] = [
            {"algorithm": "ew", "feedback": "full",
             "valuation": {"kind": "uniform_sorted", "demand": workload.demand}}
            for _ in range(workload.agents)
        ]
        doc["environment"] = {"kind": "self_play"}
    else:
        algorithm = "ew" if workload.name == "ew_bandit_large" else "omd"
        support, probs = stochastic_support(workload.demand)
        doc["agents"] = [{"algorithm": algorithm, "feedback": "bandit_ix",
                          "valuation": [1.0] * workload.demand}]
        doc["environment"] = {"kind": "stochastic", "support": support, "probs": probs,
                              "tie": "agent_wins"}
    return doc
