"""Experiment orchestration: the run loop, logging, and reporting.

A run is a sequence of synchronous rounds of `SelfPlayMarket.play`, the one
loop from a learner to a settled round; a single learner against an
environment is a one-agent market. Everything that happened is captured in a
`RunLog` that can be replayed, persisted, and scored for regret, welfare,
and revenue.

Learners come in groups. A group holds k >= 1 agents of the market and has:

- `propose()`: a (k, M) array of grid indices, one monotone bid row per
  agent;
- `observe(allocations, thresholds)`: the agents' k allocations and, when
  the group's `wants_full_info` is set, their per-slot win thresholds (k
  rows of M, as returned by `auction.round_thresholds`), else None.

An EW group stacks agents of one demand and feedback mode into one weight
table; an OMD agent is a group of its own. A round collects every group's
rows, pools them with the environment's bids in one sort of integer keys
(`round_thresholds`), settles every agent against its thresholds and hands
each group its feedback.

`round_thresholds` is the only routine that pools rival bids. The log keeps
every agent's (T, M) win thresholds as the round settled them, so scoring
over all T rounds at once never pools again: the regret table counts wins
from the logged thresholds, and the market metrics read each agent's
winning and losing bids as whole columns. `RunLog.replay_matches` checks a
log by the paper's global rule instead, with no code shared with `play`:
sort every cleared bid of a round in decreasing order and give the m-th
unit to the m-th highest.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__ as _library_version
from .auction import BidVector, ValuationProfile, round_thresholds, settle_prefix
from .grids import BidGrid
from .hindsight import accumulate_weights_history, hindsight_optimal

# Priority assigned to exogenous environment bids relative to agents 0..N-1.
ENV_WINS_PRIORITY = 2**30
ENV_LOSES_PRIORITY = -(2**30)

RUNLOG_COLUMNS = ("t", "agent", "slot_bids", "allocation", "utility", "payment")


@dataclass
class RunLog:
    """Complete record of one run: per-round, per-agent settlement plus context.

    Each agent's per-slot win thresholds are kept as `play` settled with
    them, and environment bids (when an exogenous adversary participates)
    alongside, so every round can be scored or re-cleared without pooling.
    """

    grid: BidGrid
    valuations: list[ValuationProfile]
    bids: list[np.ndarray]          # per agent: (T, M_n) int indices
    thresholds: list[np.ndarray]    # per agent: (T, M_n) int win thresholds
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

    def replay_matches(self) -> bool:
        """Re-clear every logged round by the global rule and compare with the log.

        Every cleared bid of a round, the environment's included, becomes the
        key index * L + rank of its owner's priority among the L owners. One
        sort per round puts the top `supply` keys, the units sold, last; an
        agent's allocation is its count among them, fewer bids than `supply`
        all winning. Reward and payment are `math.fsum` sums over the won
        prefix of its bid and utility is their difference, as logged. The
        logged thresholds must give the logged allocations too.
        """
        owners = list(range(self.num_agents))
        blocks = list(self.bids)
        if self.env_bids is not None:
            owners.append(ENV_WINS_PRIORITY if self.env_wins_ties else ENV_LOSES_PRIORITY)
            blocks.append(self.env_bids)
        rank = {owner: r for r, owner in enumerate(sorted(owners))}
        width = len(owners)
        keys = np.concatenate([block * width + rank[owner]
                               for block, owner in zip(blocks, owners)], axis=1)
        keys.sort(axis=1)
        sold = keys[:, max(keys.shape[1] - self.supply, 0):] % width
        grid_values = self.grid.values.tolist()
        for n, bids in enumerate(self.bids):
            won = np.count_nonzero(sold == rank[n], axis=1)
            prefix = np.logical_and.accumulate(bids >= self.thresholds[n], axis=1)
            if not (np.array_equal(won, self.allocations[:, n])
                    and np.array_equal(prefix.sum(axis=1), won)):
                return False
            values = self.valuations[n].values.tolist()
            reward_of = [math.fsum(values[:x]) for x in range(len(values) + 1)]
            won = won.tolist()
            rewards = [reward_of[x] for x in won]
            payments = [math.fsum([grid_values[j] for j in row[:x]])
                        for row, x in zip(bids.tolist(), won)]
            utilities = [reward - payment for reward, payment in zip(rewards, payments)]
            if [self.rewards[:, n].tolist(), self.payments[:, n].tolist(),
                    self.utilities[:, n].tolist()] != [rewards, payments, utilities]:
                return False
        return True

    def _as_lists(self) -> tuple:
        """Bids, allocations, utilities, payments and environment bids as Python lists.

        Serializers read these once per call instead of indexing numpy per cell.
        """
        env_rows = self.env_bids.tolist() if self.env_bids is not None else None
        return ([rows.tolist() for rows in self.bids], self.allocations.tolist(),
                self.utilities.tolist(), self.payments.tolist(), env_rows)

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
        reprs = [repr(v) for v in self.grid.values.tolist()]
        blanks = [","] * max_m
        bids, allocations, utilities, payments, env_rows = self._as_lists()
        for t in range(self.rounds):
            for n, agent_bids in enumerate(bids):
                row = agent_bids[t]
                lines.append(f"{t},{n}," + ",".join([reprs[j] for j in row])
                             + "".join(blanks[len(row):])
                             + f",{allocations[t][n]},{utilities[t][n]!r},{payments[t][n]!r}")
            if env_rows is not None:
                row = env_rows[t][::-1]  # report non-increasing
                lines.append(f"{t},-1," + ",".join([reprs[j] for j in row])
                             + "".join(blanks[len(row):]) + ",0,0.0,0.0")
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        values = self.grid.values.tolist()
        bids, allocations, utilities, payments, env_rows = self._as_lists()
        rows = []
        for t in range(self.rounds):
            for n, agent_bids in enumerate(bids):
                rows.append({
                    "t": t, "agent": n,
                    "bids": [values[j] for j in agent_bids[t]],
                    "allocation": allocations[t][n],
                    "utility": utilities[t][n],
                    "payment": payments[t][n],
                })
            if env_rows is not None:
                rows.append({
                    "t": t, "agent": -1,
                    "bids": [values[j] for j in env_rows[t][::-1]],
                    "allocation": 0, "utility": 0.0, "payment": 0.0,
                })
        return json.dumps({"seed": self.seed, "rows": rows}, sort_keys=True,
                          separators=(",", ":")) + "\n"

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
    """Synchronous-round market over learner groups plus an optional adversary.

    `learners` are groups (see the module docstring); `members[g]` lists the
    market agents of group g, in the order of its rows, and defaults to one
    agent per group. `valuations[n]` belongs to agent n, whose tie priority is
    n; the environment's bids rank above or below every agent's.
    """

    def __init__(
        self,
        learners: Sequence,
        valuations: Sequence[ValuationProfile],
        grid: BidGrid,
        supply: int,
        environment=None,
        env_wins_ties: bool = False,
        members: Optional[Sequence[Sequence[int]]] = None,
    ):
        self.learners = list(learners)
        self.valuations = list(valuations)
        self.members = [tuple(m) for m in members or [[g] for g in range(len(self.learners))]]
        if (len(self.members) != len(self.learners)
                or sorted(n for m in self.members for n in m) != list(range(len(valuations)))):
            raise ValueError("every agent must belong to exactly one group")
        if any(v.demand > supply for v in self.valuations):
            raise ValueError("an agent's demand exceeds the supply")
        self.grid = grid
        self.supply = supply
        self.environment = environment
        self.env_wins_ties = env_wins_ties

    def play(self, rounds: int, config: Optional[dict] = None, seed: int = 0) -> RunLog:
        n_agents = len(self.valuations)
        values = [v.values.tolist() for v in self.valuations]
        grid_values = self.grid.values.tolist()
        owners = list(range(n_agents))
        widths = [v.demand for v in self.valuations]
        if self.environment is not None:
            owners.append(ENV_WINS_PRIORITY if self.env_wins_ties else ENV_LOSES_PRIORITY)
            widths.append(self.supply)
        played = []    # per round: agent and environment bid rows, then agent thresholds
        outcomes = []  # per round: (allocation, utility, payment, reward) of each agent
        for t in range(rounds):
            rows = [None] * len(owners)
            for group, members in zip(self.learners, self.members):
                for n, row in zip(members, group.propose().tolist()):
                    rows[n] = row
            if self.environment is not None:
                rows[-1] = self.environment.draw(t).indices.tolist()
            thresholds = round_thresholds(rows, owners, self.supply, n_agents)
            settled = [settle_prefix(values[n], rows[n], [grid_values[j] for j in rows[n]],
                                     thresholds[n]) for n in range(n_agents)]
            if sum(outcome[0] for outcome in settled) > self.supply:
                raise RuntimeError("settlement granted more units than the supply")
            for group, members in zip(self.learners, self.members):
                group.observe([settled[n][0] for n in members],
                              [thresholds[n] for n in members] if group.wants_full_info else None)
            played.append(rows + thresholds)
            outcomes.append(settled)
        columns = [np.array([rows[k] for rows in played], dtype=np.int64).reshape(rounds, width)
                   for k, width in enumerate(widths + widths[:n_agents])]
        allocated, utilities, payments, rewards = np.array(outcomes, dtype=float).reshape(
            rounds, n_agents, 4).transpose(2, 0, 1).copy()
        return RunLog(
            grid=self.grid, valuations=self.valuations, bids=columns[:n_agents],
            thresholds=columns[len(owners):],
            allocations=allocated.astype(np.int64), utilities=utilities, payments=payments,
            rewards=rewards, env_bids=columns[n_agents] if self.environment is not None else None,
            env_wins_ties=self.env_wins_ties, supply=self.supply, seed=seed, config=config or {},
        )


def run_experiment(scenario, replication: int = 0) -> RunLog:
    """Materialize one replication of a validated scenario into a RunLog."""
    from .scenario import build_market  # deferred: scenario imports this module

    market, seed, config = build_market(scenario, replication)
    return market.play(scenario.rounds, config=config, seed=seed)


def regret_report(log: RunLog, agent: int) -> RegretReport:
    """Score one agent against the best fixed grid bid for its realized history."""
    valuation = log.valuations[agent]
    table = accumulate_weights_history(valuation, log.thresholds[agent], log.grid)
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


def market_metrics(log: RunLog) -> MarketMetrics:
    """Welfare, revenue, and bid-ratio series for a multi-agent log."""
    t_rounds = log.rounds
    welfare = np.array(list(map(math.fsum, log.rewards.tolist())), dtype=float)
    revenue = np.array(list(map(math.fsum, log.payments.tolist())), dtype=float)
    total_utility = welfare - revenue

    pooled = np.sort(np.concatenate([v.values for v in log.valuations]))[::-1]
    max_welfare = float(math.fsum(pooled[: log.supply]))

    steps = np.arange(1, t_rounds + 1)
    cum_welfare = np.cumsum(welfare) / steps
    cum_revenue = np.cumsum(revenue) / steps

    # Per round over all agents: the largest and smallest winning bid and
    # the largest losing bid. Bids are non-increasing, so per agent these are
    # its first bid and the bids just before and at its allocation.
    top = np.full(t_rounds, -np.inf)
    bottom = np.full(t_rounds, np.inf)
    worst_losing = np.full(t_rounds, -np.inf)
    rows = np.arange(t_rounds)
    for n, agent_bids in enumerate(log.bids):
        x = log.allocations[:, n]
        vals = log.grid.values[agent_bids]
        demand = vals.shape[1]
        won, lost = x > 0, x < demand
        top = np.maximum(top, np.where(won, vals[:, 0], -np.inf))
        bottom = np.minimum(bottom, np.where(won, vals[rows, np.maximum(x - 1, 0)], np.inf))
        worst_losing = np.maximum(
            worst_losing, np.where(lost, vals[rows, np.minimum(x, demand - 1)], -np.inf))
    spread = (bottom > 0.0) & (bottom < np.inf)  # some bid won, at a positive price
    gap = spread & (worst_losing > 0.0)
    win_spread = np.full(t_rounds, np.nan)
    price_gap = np.full(t_rounds, np.nan)
    win_spread[spread] = list(map(math.log2, (top[spread] / bottom[spread]).tolist()))
    price_gap[gap] = list(map(math.log2, (bottom[gap] / worst_losing[gap]).tolist()))
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
