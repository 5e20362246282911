"""Experiment orchestration: run loops, logging, and reporting.

A run is a sequence of synchronous rounds. Every agent proposes a bid, each
agent is settled against the pooled rival bids (learner agents plus an
optional exogenous environment), and feedback is dispatched according to
each agent's mode. Everything that happened is captured in a `RunLog` that
can be replayed, persisted, and scored for regret, welfare, and revenue.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__ as _library_version
from .auction import (
    PAD_PRIORITY,
    CompetingBids,
    BidVector,
    TieBreak,
    ValuationProfile,
    competing_bids,
    settle,
)
from .grids import BidGrid
from .hindsight import accumulate_weights_history, hindsight_optimal

# Priority assigned to exogenous environment bids relative to agents 0..N-1.
ENV_WINS_PRIORITY = 2**30
ENV_LOSES_PRIORITY = -(2**30)

RUNLOG_COLUMNS = ("t", "agent", "slot_bids", "allocation", "utility", "payment")


@dataclass
class RunLog:
    """Complete record of one run: per-round, per-agent settlement plus context.

    Environment bids (when an exogenous adversary participates) are kept
    alongside so every agent's competing-bid history can be reconstructed
    exactly, priorities included.
    """

    grid: BidGrid
    valuations: list[ValuationProfile]
    bids: list[np.ndarray]          # per agent: (T, M_n) int indices
    allocations: np.ndarray         # (T, N) int
    utilities: np.ndarray           # (T, N) float
    payments: np.ndarray            # (T, N) float
    rewards: np.ndarray             # (T, N) float
    env_bids: Optional[np.ndarray]  # (T, supply) int indices, or None
    env_wins_ties: bool
    supply: int
    seed: int
    config: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return int(self.allocations.shape[0])

    @property
    def num_agents(self) -> int:
        return int(self.allocations.shape[1])

    def competing_history(self, agent: int) -> tuple[np.ndarray, np.ndarray]:
        """(T, supply) competing-bid indices and owner priorities for one agent."""
        t_rounds = self.rounds
        comp_idx = np.empty((t_rounds, self.supply), dtype=np.int64)
        comp_pri = np.empty((t_rounds, self.supply), dtype=np.int64)
        env_priority = ENV_WINS_PRIORITY if self.env_wins_ties else ENV_LOSES_PRIORITY
        for t in range(t_rounds):
            entries = []
            for n in range(self.num_agents):
                if n == agent:
                    continue
                for idx in self.bids[n][t]:
                    entries.append((int(idx), n))
            if self.env_bids is not None:
                for idx in self.env_bids[t]:
                    entries.append((int(idx), env_priority))
            entries.sort(reverse=True)
            entries = entries[: self.supply]
            while len(entries) < self.supply:
                entries.append((0, PAD_PRIORITY))
            entries.sort()
            comp_idx[t] = [e[0] for e in entries]
            comp_pri[t] = [e[1] for e in entries]
        return comp_idx, comp_pri

    def replay_matches(self) -> bool:
        """Re-settle every logged bid and compare with the logged outcomes."""
        for agent in range(self.num_agents):
            comp_idx, comp_pri = self.competing_history(agent)
            for t in range(self.rounds):
                competing = CompetingBids(comp_idx[t], self.grid, comp_pri[t])
                bid = BidVector(self.bids[agent][t], self.grid)
                out = settle(self.valuations[agent], bid, competing,
                             bidder_priority=agent)
                if (out.allocation != self.allocations[t, agent]
                        or out.utility != self.utilities[t, agent]
                        or out.payment != self.payments[t, agent]):
                    return False
        return True

    def to_csv_text(self) -> str:
        """Fixed column order: t, agent, bid_1..bid_Mmax, allocation, utility, payment.

        One row per agent per round; environment bids appear as agent -1 with
        zero allocation and payments. Floats use shortest round-trip repr, so
        identical runs serialize byte-identically.
        """
        max_m = max(v.demand for v in self.valuations)
        if self.env_bids is not None:
            max_m = max(max_m, self.supply)
        lines = ["t,agent," + ",".join(f"bid_{m+1}" for m in range(max_m))
                 + ",allocation,utility,payment"]
        for t in range(self.rounds):
            for n in range(self.num_agents):
                vals = self.grid.values[self.bids[n][t]]
                cells = [repr(float(v)) for v in vals] + [""] * (max_m - vals.size)
                lines.append(
                    f"{t},{n}," + ",".join(cells)
                    + f",{self.allocations[t, n]},{float(self.utilities[t, n])!r},{float(self.payments[t, n])!r}"
                )
            if self.env_bids is not None:
                vals = self.grid.values[self.env_bids[t]][::-1]  # report non-increasing
                cells = [repr(float(v)) for v in vals] + [""] * (max_m - vals.size)
                lines.append(f"{t},-1," + ",".join(cells) + ",0,0.0,0.0")
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        rows = []
        for t in range(self.rounds):
            for n in range(self.num_agents):
                rows.append({
                    "t": t, "agent": n,
                    "bids": [float(v) for v in self.grid.values[self.bids[n][t]]],
                    "allocation": int(self.allocations[t, n]),
                    "utility": float(self.utilities[t, n]),
                    "payment": float(self.payments[t, n]),
                })
            if self.env_bids is not None:
                rows.append({
                    "t": t, "agent": -1,
                    "bids": [float(v) for v in self.grid.values[self.env_bids[t]][::-1]],
                    "allocation": 0, "utility": 0.0, "payment": 0.0,
                })
        return json.dumps({"seed": self.seed, "rows": rows}, sort_keys=True,
                          separators=(",", ":")) + "\n"

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_text())

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json_text())

    def summary(self) -> dict:
        return {
            "library_version": _library_version,
            "seed": self.seed,
            "rounds": self.rounds,
            "supply": self.supply,
            "agents": [
                {
                    "id": n,
                    "demand": self.valuations[n].demand,
                    "cumulative_utility": float(math.fsum(self.utilities[:, n])),
                    "cumulative_payment": float(math.fsum(self.payments[:, n])),
                    "cumulative_reward": float(math.fsum(self.rewards[:, n])),
                }
                for n in range(self.num_agents)
            ],
        }


@dataclass(frozen=True)
class RegretReport:
    """Realized performance of one agent against the fixed-bid hindsight optimum."""

    discretized_regret: float
    continuous_regret_upper: float
    benchmark_utility: float
    realized_utility: float
    benchmark_bid: BidVector
    running_average_utility: np.ndarray


@dataclass(frozen=True)
class MarketMetrics:
    """Per-round market health series.

    Total utility is reported as welfare minus revenue, so the accounting
    identity (sum of utilities + revenue = welfare) holds exactly by
    construction; per-agent logged utilities are reconciled to it in tests.
    Ratio entries are NaN in rounds where they are undefined (no winning or
    no losing bids), never zero.
    """

    welfare: np.ndarray
    revenue: np.ndarray
    total_utility: np.ndarray
    max_welfare: float
    normalized_welfare: np.ndarray
    normalized_revenue: np.ndarray
    cumulative_average_welfare: np.ndarray
    cumulative_average_revenue: np.ndarray
    log2_win_spread: np.ndarray   # log2(largest winning / smallest winning)
    log2_price_gap: np.ndarray    # log2(smallest winning / largest losing)


class SelfPlayMarket:
    """Synchronous-round market over learner agents plus an optional adversary."""

    def __init__(
        self,
        learners: Sequence,
        valuations: Sequence[ValuationProfile],
        grid: BidGrid,
        supply: int,
        environment=None,
        env_wins_ties: bool = False,
    ):
        if len(learners) != len(valuations):
            raise ValueError("one valuation per learner required")
        self.learners = list(learners)
        self.valuations = list(valuations)
        self.grid = grid
        self.supply = supply
        self.environment = environment
        self.env_wins_ties = env_wins_ties

    def play(self, rounds: int, config: Optional[dict] = None, seed: int = 0) -> RunLog:
        n_agents = len(self.learners)
        bids = [np.empty((rounds, v.demand), dtype=np.int64) for v in self.valuations]
        allocations = np.empty((rounds, n_agents), dtype=np.int64)
        utilities = np.empty((rounds, n_agents))
        payments = np.empty((rounds, n_agents))
        rewards = np.empty((rounds, n_agents))
        env_bids = (np.empty((rounds, self.supply), dtype=np.int64)
                    if self.environment is not None else None)
        env_priority = ENV_WINS_PRIORITY if self.env_wins_ties else ENV_LOSES_PRIORITY
        full_info = [_learner_wants_full_info(learner) for learner in self.learners]

        for t in range(rounds):
            proposals = [learner.propose() for learner in self.learners]
            env_draw = self.environment.draw(t) if self.environment is not None else None
            if env_draw is not None:
                env_bids[t] = env_draw.indices
            round_alloc = 0
            for n, learner in enumerate(self.learners):
                entries = []
                for r, bid in enumerate(proposals):
                    if r == n:
                        continue
                    for idx in bid.indices:
                        entries.append((int(idx), r))
                if env_draw is not None:
                    for idx in env_draw.indices:
                        entries.append((int(idx), env_priority))
                entries.sort(reverse=True)
                entries = entries[: self.supply]
                while len(entries) < self.supply:
                    entries.append((0, PAD_PRIORITY))
                entries.sort()
                competing = CompetingBids(
                    np.array([e[0] for e in entries], dtype=np.int64),
                    self.grid,
                    np.array([e[1] for e in entries], dtype=np.int64),
                )
                outcome = settle(self.valuations[n], proposals[n], competing,
                                 bidder_priority=n)
                bids[n][t] = proposals[n].indices
                allocations[t, n] = outcome.allocation
                utilities[t, n] = outcome.utility
                payments[t, n] = outcome.payment
                rewards[t, n] = outcome.reward
                round_alloc += outcome.allocation
                learner.observe(
                    outcome.allocation,
                    competing if full_info[n] else None,
                    bidder_priority=n,
                )
            if round_alloc > self.supply:
                raise RuntimeError("settlement granted more units than the supply")
            notify = getattr(self.environment, "notify", None)
            if notify is not None and n_agents == 1:
                notify(proposals[0])
        return RunLog(
            grid=self.grid, valuations=self.valuations, bids=bids,
            allocations=allocations, utilities=utilities, payments=payments,
            rewards=rewards, env_bids=env_bids, env_wins_ties=self.env_wins_ties,
            supply=self.supply, seed=seed, config=config or {},
        )


def _learner_wants_full_info(learner) -> bool:
    from .exp_weights import FeedbackMode
    wants_full = getattr(learner, "wants_full_info", None)
    if wants_full is not None:
        return wants_full
    mode = getattr(learner, "mode", None)
    if mode is None and hasattr(learner, "config"):
        mode = learner.config.mode
    return mode is FeedbackMode.FULL_INFO


def run_experiment(scenario, replication: int = 0) -> RunLog:
    """Materialize one replication of a validated scenario into a RunLog."""
    from .scenario import build_market  # deferred: scenario imports this module

    market, seed, config = build_market(scenario, replication)
    return market.play(scenario.rounds, config=config, seed=seed)


def regret_report(log: RunLog, agent: int) -> RegretReport:
    """Score one agent against the best fixed grid bid for its realized history."""
    comp_idx, comp_pri = log.competing_history(agent)
    valuation = log.valuations[agent]
    table = accumulate_weights_history(
        valuation, comp_idx, log.grid, comp_priorities=comp_pri,
        bidder_priority=agent,
    )
    best = hindsight_optimal(table)
    realized = float(math.fsum(log.utilities[:, agent]))
    discretized = best.total_utility - realized
    # Rounding each slot of the continuous optimum up to the next grid point,
    # or down to the largest IR grid point when up would break IR, keeps the
    # vector monotone and IR and costs at most the widest grid gap per unit
    # per round: 1/(D-1) on the even grid.
    gap = float(np.max(np.diff(log.grid.values)))
    continuous_upper = discretized + valuation.demand * log.rounds * gap
    running = np.cumsum(log.utilities[:, agent]) / np.arange(1, log.rounds + 1)
    return RegretReport(
        discretized_regret=discretized,
        continuous_regret_upper=continuous_upper,
        benchmark_utility=best.total_utility,
        realized_utility=realized,
        benchmark_bid=best.bid,
        running_average_utility=running,
    )


def market_metrics(log: RunLog, valuations: Optional[Sequence[ValuationProfile]] = None) -> MarketMetrics:
    """Welfare, revenue, and bid-ratio series for a multi-agent log."""
    valuations = list(valuations) if valuations is not None else log.valuations
    t_rounds, n_agents = log.allocations.shape
    welfare = np.array([math.fsum(log.rewards[t]) for t in range(t_rounds)])
    revenue = np.array([math.fsum(log.payments[t]) for t in range(t_rounds)])
    total_utility = welfare - revenue

    pooled = np.sort(np.concatenate([v.values for v in valuations]))[::-1]
    max_welfare = float(math.fsum(pooled[: log.supply]))

    steps = np.arange(1, t_rounds + 1)
    cum_welfare = np.cumsum(welfare) / steps
    cum_revenue = np.cumsum(revenue) / steps

    win_spread = np.full(t_rounds, np.nan)
    price_gap = np.full(t_rounds, np.nan)
    for t in range(t_rounds):
        winning: list[float] = []
        losing: list[float] = []
        for n in range(n_agents):
            x = int(log.allocations[t, n])
            vals = log.grid.values[log.bids[n][t]]
            winning.extend(vals[:x])
            losing.extend(vals[x:])
        if winning:
            top, bottom = max(winning), min(winning)
            if bottom > 0.0:
                win_spread[t] = math.log2(top / bottom)
            if losing:
                worst_losing = max(losing)
                if worst_losing > 0.0 and bottom > 0.0:
                    price_gap[t] = math.log2(bottom / worst_losing)
    scale = max_welfare if max_welfare > 0 else 1.0
    return MarketMetrics(
        welfare=welfare,
        revenue=revenue,
        total_utility=total_utility,
        max_welfare=max_welfare,
        normalized_welfare=welfare / scale,
        normalized_revenue=revenue / scale,
        cumulative_average_welfare=cum_welfare,
        cumulative_average_revenue=cum_revenue,
        log2_win_spread=win_spread,
        log2_price_gap=price_gap,
    )
