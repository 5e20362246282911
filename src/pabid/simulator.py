"""Experiment orchestration: the run loop, logging, and reporting.

A run is a sequence of synchronous rounds of `SelfPlayMarket.play`, the one
loop from a learner to a settled round; a single learner against an
environment is a one-agent market. Everything that happened is captured in a
`RunLog` that can be replayed, persisted, and scored for regret, welfare,
and revenue.

Learners come in groups. A group holds k >= 1 agents of the market and has:

- `propose()`: k lists of M grid indices, one monotone bid row per agent,
  as Python ints: `play` pools them and fills its columns without an array
  in between;
- `observe(allocations, thresholds)`: a bandit group gets its agents' k
  allocations and None; a group whose `wants_full_info` is set gets None
  and its agents' per-slot win thresholds (k rows of M, as returned by
  `auction.round_thresholds`).

An EW group stacks agents of one demand, feedback mode and rate into one
weight table; an OMD agent is a group of its own. A round keeps only what
the learners read: it pools every group's rows with the environment's bids in
one sort of integer keys (`round_thresholds`), stops the run at a bid above
its IR cap (naming the agent and the round) before any learner observes,
counts each bandit agent's won prefix and hands each group its feedback.
A row of the wrong width stops the run, naming its group and the round.
Rows and thresholds fill (T, M) arrays a block at a time, one `np.fromiter`
per agent and column.

Settlement runs once per run, after the last round, on those columns:
`auction.settle_columns` gives each agent's allocations, rewards and
payments for all T rounds, and utility is reward minus payment. A round
that granted more units than the supply is then named with its agents.

The environment is oblivious, so `play` reads its bids a block of
`adversaries.ENV_BLOCK` rounds at a time (`draws`), the chunk in which a
`StochasticAdversary` draws them, and the log keeps those blocks. A block
holding an index outside the grid stops the run, naming its first such
round. A market of one agent has nothing to pool: its rivals are the
environment's row, and its thresholds for a block are one
`auction.win_thresholds` call on that block, the rule `round_thresholds`
applies once an agent's own keys are left out. The agent's learner still
proposes and observes once per round.

Ties go by rank, laid out once in the `auction` module docstring from the
market's `env_wins_ties`; `round_thresholds` is the only routine that pools
rival bids. The log keeps every agent's (T, M) win thresholds as its rounds
pooled them, so scoring over all T rounds at once never pools again: the
regret table counts wins from the logged thresholds, and the market
metrics read each agent's winning and losing bids as whole columns.
`RunLog.replay_matches` checks a log by the paper's global rule instead,
with no code shared with `play`: sort every cleared bid of a round in
decreasing order and give the m-th unit to the m-th highest, numbering the
owners as `play` does less one, as it has no padding level.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import chain, repeat
from string import Formatter
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__ as _library_version
from .adversaries import ENV_BLOCK
from .auction import BidVector, ValuationProfile, round_thresholds, settle_columns, win_thresholds
from .grids import BidGrid
from .hindsight import accumulate_weights_history, hindsight_optimal


@dataclass
class RunLog:
    """Complete record of one run: per-round, per-agent settlement plus context.

    Each agent's bids and per-slot win thresholds are kept as `play` pooled
    them, and environment bids (when an exogenous adversary participates)
    alongside, so every round can be scored or re-cleared without pooling.
    The settlement columns (allocations, utilities, payments, rewards) come
    from one `auction.settle_columns` pass per agent after the run's last
    round. The serializers build their text from these arrays on each call:
    each column is rendered once and each line is one `str.join` over them.
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
        key index * L + rank of its owner among the L owners: the ranks of
        the `auction` module docstring less its padding level, numbered here
        on their own. One sort per round puts the top `supply` keys, the
        units sold, last; an agent's allocation is its count among them,
        fewer bids than `supply` all winning. Reward and payment are
        `math.fsum` sums over the won prefix of its bid and utility is their
        difference, as logged. The logged thresholds must give the logged
        allocations too.
        """
        loses = self.env_bids is not None and not self.env_wins_ties
        ranks = [n + loses for n in range(self.num_agents)]
        blocks = list(self.bids)
        if self.env_bids is not None:
            ranks.append(0 if loses else self.num_agents)
            blocks.append(self.env_bids)
        width = len(ranks)
        keys = np.concatenate([block * width + rank for block, rank in zip(blocks, ranks)],
                              axis=1)
        keys.sort(axis=1)
        sold = keys[:, max(keys.shape[1] - self.supply, 0):] % width
        grid_values = self.grid.values.tolist()
        for n, bids in enumerate(self.bids):
            won = np.count_nonzero(sold == ranks[n], axis=1)
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

    def to_csv_text(self) -> str:
        """Fixed column order: t, agent, bid_1..bid_Mmax, allocation, utility, payment.

        One row per agent per round; environment bids appear as agent -1 with
        zero allocation and payments. Floats use shortest round-trip repr, so
        identical runs serialize byte-identically.
        """
        width = max(v.demand for v in self.valuations)
        if self.env_bids is not None:
            width = max(width, self.supply)
        header = ("t,agent," + ",".join(f"bid_{m + 1}" for m in range(width))
                  + ",allocation,utility,payment\n")
        lines = self._lines(lambda agent, demand: (
            "{t}," + str(agent) + ",{bids}" + "," * (width - demand)
            + ",{allocation},{utility},{payment}\n"))
        return "".join([header, *lines])

    def to_json_text(self) -> str:
        """`{"rows": [...], "seed": seed}` with the rows of `to_csv_text`, keys sorted.
        A utility or payment that is not finite, which JSON cannot spell, raises ValueError."""
        if not (np.isfinite(self.utilities).all() and np.isfinite(self.payments).all()):
            raise ValueError("a JSON log holds only finite utilities and payments")
        rows = self._lines(lambda agent, demand: (
            ',{{"agent":' + str(agent) + ',"allocation":{allocation},"bids":[{bids}],'
            '"payment":{payment},"t":{t},"utility":{utility}}}'))
        if rows:  # each row is led by its separator, which the first row drops
            rows[0] = rows[0][1:]
        return "".join(['{"rows":[', *rows, '],"seed":', json.dumps(self.seed), "}\n"])

    def _lines(self, template: Callable[[int, int], str]) -> list[str]:
        """Every agent's line of each round, then the environment's, each one `str.join`.

        Each column is rendered once per call: the steps; each agent's bid
        text, its grid cells joined by commas, each grid value written once;
        its allocations; and its utilities and payments, every distinct float
        (by its bits) written once by `repr`, which is a finite float's JSON
        text too. `template(agent, demand)` is the format string of one
        writer's lines, with fields t, bids, allocation, utility and payment.
        It is parsed once per agent, and a line joins its literal text,
        repeated, with that round's entry of each column. The environment is
        agent -1, with its bids non-increasing and zero allocation, utility
        and payment.
        """
        def written(values):
            """`repr` of every entry of `values`, called once per distinct bit pattern."""
            distinct, inverse = np.unique(values.view(f"u{values.itemsize}").reshape(-1),
                                          return_inverse=True)
            return np.array(list(map(repr, distinct.view(values.dtype).tolist())),
                            dtype=object)[inverse.reshape(values.shape)]

        def joined(rows):
            return list(map(",".join, cells[rows].tolist()))

        cells = np.array(list(map(repr, self.grid.values.tolist())), dtype=object)
        utilities, payments = written(np.stack([self.utilities, self.payments]))
        allocations = written(self.allocations)
        steps = list(map(str, range(self.rounds)))
        owners = [(n, bids, allocations[:, n].tolist(), utilities[:, n].tolist(),
                   payments[:, n].tolist()) for n, bids in enumerate(self.bids)]
        if self.env_bids is not None:
            owners.append((-1, self.env_bids[:, ::-1], repeat("0"), repeat("0.0"), repeat("0.0")))
        writers = []
        for agent, bids, *settled in owners:
            columns = dict(zip(("t", "bids", "allocation", "utility", "payment"),
                               (steps, joined(bids), *settled)))
            fields, text = [], ""  # text: the literal since the last field
            for literal, name, _, _ in Formatter().parse(template(agent, bids.shape[1])):
                text += literal
                if name is not None:
                    fields += [repeat(text), columns[name]] if text else [columns[name]]
                    text = ""
            writers.append(map("".join, zip(*fields, repeat(text))))
        return [line for lines in zip(*writers) for line in lines]

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
                    "cumulative_utility": math.fsum(self.utilities[:, n].tolist()),
                    "cumulative_payment": math.fsum(self.payments[:, n].tolist()),
                    "cumulative_reward": math.fsum(self.rewards[:, n].tolist()),
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
    agent per group. `valuations[n]` belongs to agent n; ties go by the
    ranks of the `auction` module docstring. The environment gives the bids
    of rounds t0..t1-1 as `draws(t0, t1)`, a (rounds, supply) array of
    non-decreasing grid-index rows; `play` checks that every index lies on
    the grid. An error raised by a group's `propose` or `observe` names its
    agents and the round.
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
        caps = [v.ir_caps(self.grid) for v in self.valuations]
        widths = [v.demand for v in self.valuations]
        env = self.environment
        loses = env is not None and not self.env_wins_ties
        ranks = [n + 1 + loses for n in range(n_agents)]
        if env is not None:
            ranks.append(1 if loses else n_agents + 1)
        # A lone agent's rivals are the environment's row, so its thresholds
        # are the one-bidder rule on that row, a block of rounds at a time.
        solo = env is not None and n_agents == 1
        full_info = [group.wants_full_info for group in self.learners]
        bids = [np.empty((rounds, width), dtype=np.int64) for width in widths]
        thresholds = [np.empty((rounds, width), dtype=np.int64) for width in widths]
        env_bids = np.empty((rounds, self.supply), dtype=np.int64) if env is not None else None
        for start in range(0, rounds, ENV_BLOCK):
            stop = min(start + ENV_BLOCK, rounds)
            if env is not None:
                block, drawn = env_bids[start:stop], env.draws(start, stop)
                if np.shape(drawn) != block.shape:
                    raise ValueError(f"round {start}: the environment drew bids of shape "
                                     f"{np.shape(drawn)}; rounds {start}-{stop - 1} at supply "
                                     f"{self.supply} need {block.shape}")
                block[:] = drawn
                outside = np.flatnonzero(((block < 0) | (block >= self.grid.count)).any(axis=1))
                if outside.size:
                    t = start + int(outside[0])
                    raise ValueError(f"round {t}: environment bids {env_bids[t].tolist()} leave "
                                     f"the grid of {self.grid.count} values")
                env_rows = block.tolist()
            if solo:
                thresholds[0][start:stop] = win_thresholds(block, widths[0], self.env_wins_ties)
                solo_rows = thresholds[0][start:stop].tolist()
            played = []  # per round: the agents' bid rows, then their thresholds
            for t in range(start, stop):
                rows = [None] * len(ranks)
                try:
                    for group, members in zip(self.learners, self.members):
                        proposal = group.propose()
                        if len(proposal) != len(members):
                            raise ValueError(f"proposed {len(proposal)} bid rows for a group "
                                             f"of {len(members)}")
                        for n, row in zip(members, proposal):
                            if len(row) != widths[n]:
                                raise ValueError(f"agent {n} proposed a bid row of width "
                                                 f"{len(row)} for a demand of {widths[n]}")
                            rows[n] = row
                except Exception as err:
                    _locate(err, members, t)
                    raise
                if env is not None:
                    rows[-1] = env_rows[t - start]
                pooled = ([solo_rows[t - start]] if solo
                          else round_thresholds(rows, ranks, self.supply, n_agents))
                for n in range(n_agents):
                    if any(map(operator.gt, rows[n], caps[n])):
                        err = ValueError("bid violates individual rationality")
                        _locate(err, (n,), t)
                        raise err
                try:
                    for group, members, full in zip(self.learners, self.members, full_info):
                        if full:
                            group.observe(None, [pooled[n] for n in members])
                        else:
                            group.observe([_won(rows[n], pooled[n]) for n in members], None)
                except Exception as err:
                    _locate(err, members, t)
                    raise
                played.append(rows[:n_agents] + pooled)
            for n, width in enumerate(widths):
                bids[n][start:stop] = _column(played, n, width)
                if not solo:
                    thresholds[n][start:stop] = _column(played, n_agents + n, width)

        allocations = np.empty((rounds, n_agents), dtype=np.int64)
        rewards, payments = np.empty((rounds, n_agents)), np.empty((rounds, n_agents))
        grid_values = self.grid.values.tolist()
        for n, valuation in enumerate(self.valuations):
            allocations[:, n], rewards[:, n], payments[:, n] = settle_columns(
                bids[n], thresholds[n], valuation.reward_prefix(), grid_values)
        over = np.flatnonzero(allocations.sum(axis=1) > self.supply)
        if over.size:
            t = int(over[0])
            err = RuntimeError("settlement granted more units than the supply")
            _locate(err, np.flatnonzero(allocations[t]).tolist(), t)
            raise err
        return RunLog(
            grid=self.grid, valuations=self.valuations, bids=bids, thresholds=thresholds,
            allocations=allocations, utilities=rewards - payments, payments=payments,
            rewards=rewards, env_bids=env_bids, env_wins_ties=self.env_wins_ties,
            supply=self.supply, seed=seed, config=config or {},
        )


def _column(played: list, index: int, width: int) -> np.ndarray:
    """Entry `index` of every round in `played`, rows of `width` ints, as a (rounds, width) array."""
    cells = chain.from_iterable(map(operator.itemgetter(index), played))
    return np.fromiter(cells, np.int64, len(played) * width).reshape(-1, width)


def _won(bid: list, thresholds: list) -> int:
    """Slots a monotone bid wins: the length of its prefix with b_m >= thr_m."""
    x = 0
    for b, threshold in zip(bid, thresholds):
        if b < threshold:
            break
        x += 1
    return x


def _locate(err: Exception, members: Sequence[int], t: int) -> None:
    """Open `err`'s message with the failing group's agents and the round; keep its type."""
    agents = ", ".join(map(str, members))
    err.args = (f"agent{'s' if len(members) > 1 else ''} {agents}, round {t}: {err}",)


def regret_report(log: RunLog, agent: int) -> RegretReport:
    """Score one agent against the best fixed grid bid for its realized history."""
    valuation = log.valuations[agent]
    table = accumulate_weights_history(valuation, log.thresholds[agent], log.grid)
    best = hindsight_optimal(table)
    realized = math.fsum(log.utilities[:, agent].tolist())
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
