"""Reference forms of the settlement rules and the hindsight optimum.

The library settles with per-slot win thresholds, pools rival bids with one
sort of integer keys and finds the best fixed bid by dynamic programming.
These loops state the same rules the long way: entry by entry, round by
round, agent by agent, and the optimum by enumerating every monotone bid.
Tests check the library against them.

The owner-priority tie rule lives here, as the reference that
`auction.round_thresholds` is checked against. Agent n bids at priority n,
the environment at ENV_WINS_PRIORITY or ENV_LOSES_PRIORITY, above or below
every agent, and padding at PAD_PRIORITY, below every real bidder; the
library orders the same owners by rank. `PooledBids` is a
`CompetingBids` row with the owner priority of each entry, and
`priority_thresholds` is the win rule over such rows (the library's
`win_thresholds` knows only whether the rivals win ties). Every `tie`
argument here is that bool: True when the rivals win ties, as in a
market whose environment has `env_wins_ties`. `settle_prefix` is
settlement as the round loop once did it, one bid against its slot
thresholds; `auction.settle_columns` must give its numbers for every round
of a column at once. `settle` scores one bidder against a row through
`priority_thresholds` and `settle_prefix`. `loop_round` is the market round
as it was played one agent at a time: a list pool of (index, owner)
entries, a `PooledBids` per agent and `settle`.

`csv_text` and `json_text` are the run-log serializers written cell by
cell, formatting every float where it appears; `RunLog.to_csv_text` and
`to_json_text` must give their bytes.

`sweep_dual_ascent` is the cyclic coordinate ascent that the KL projection
kernel ran before projected Newton replaced it: every sweep visits every
layer pair and ends on the KKT gap. It stays as the frozen reference: where
it certifies, the kernel must certify the same optimum. `count_rule_indices`
is the mirror-descent sampler's index rule as a count over the whole CDF
table, which the library must match bit for bit.

A mirror-descent bandit round once converted or rebuilt whole (M, D) tables;
the library touches only the cells it plays. Its former forms stay here:
`list_sample_from_marginals`, the sampler on the CDF table's `tolist()` with
the running minimum by `np.minimum.accumulate`; `all_slot_bandit_step`, the
bandit step that exponentiates all M played cells, the lost ones too; and
`row_list_dual_ascent`, the projection whose first-sweep certificate takes
each row's largest excess and row-sum error as Python floats. The library
must give the bits of the first two, and of the last wherever it certifies
at zero multipliers.

`PerRoundDrawBidder` is the EW group with each agent's uniforms drawn one
round at a time, as `rng.random(M)`; the library draws them in blocks of
rounds and must bid the same. `bandit_step` is the group's bandit update on
one agent's `NodeWeightTable`, and `path_log_probability` the exact law of
the EW sampler on log tail sums.

`spawn_all_replication_seeds` is the seeding of one replication as it was
once derived: spawn every replication's sequence from the master seed, keep
one, then spawn its children. `scenario.replication_seeds` builds the kept
sequence from its spawn key and must give the same sequences.

`drawn_row` is one round of a stochastic environment derived on its own
from the round's chunk seed; `StochasticAdversary.draws` must give its rows
for every range of rounds. `expected_total_utility` is the closed form the
lower-bound tests check Monte Carlo settlement against.
"""
from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from pabid.auction import (
    BidVector,
    CompetingBids,
    ValuationProfile,
    win_thresholds,
)
from pabid.grids import VALUE_EPS, BidGrid
from pabid.exp_weights import ExpWeightsBidder, _bandit_step
from pabid.hindsight import NEG_INF, HindsightSolution, NodeWeightTable
from pabid.mirror_descent import MAX_PLAIN_EXPONENT, Q_FLOOR, unconstrained_step
from pabid.simulator import MarketMetrics, RunLog

# Refuse enumeration beyond this many monotone grid vectors.
BRUTE_FORCE_CAP = 2_000_000

# Owner priorities of the environment's bids, relative to agents 0..N-1.
ENV_WINS_PRIORITY = 2**30
ENV_LOSES_PRIORITY = -(2**30)
# Priority of padded (absent) competing bids: strictly below every real
# participant, so an absent bid can never win a unit.
PAD_PRIORITY = -(2**62)


@dataclass(frozen=True)
class PooledBids(CompetingBids):
    """Competing bids with the owner priority of each entry; a bidder wins a
    tie against an entry of lower priority."""

    priorities: Optional[np.ndarray] = None


def priority_thresholds(
    indices: np.ndarray,
    priorities: Optional[np.ndarray],
    demand: int,
    tie: bool = False,
    bidder_priority: Optional[int] = None,
) -> np.ndarray:
    """`win_thresholds` with owner priorities along the last axis: the bidder
    wins a tie against a rival entry of lower priority. Without priorities, or
    without its own, the bidder's tie mode decides."""
    if priorities is None:
        return win_thresholds(indices, demand, tie)
    if bidder_priority is None:
        bidder_priority = -(2**31) if tie else 2**31
    return indices[..., :demand] + (np.asarray(priorities)[..., :demand] >= bidder_priority)


def competing_thresholds(competing: CompetingBids, demand: int,
                         tie: bool = False,
                         bidder_priority: Optional[int] = None) -> np.ndarray:
    """`priority_thresholds` of one row, by its owners' priorities when it has them."""
    return priority_thresholds(competing.indices, getattr(competing, "priorities", None), demand,
                               tie, bidder_priority)


def settle_prefix(bid: list, thresholds: list, caps: list,
                  rewards: list, grid_values: list) -> tuple[int, float, float, float]:
    """(allocation, utility, payment, reward) of one bid against its slot thresholds.

    Arguments are Python lists: the bid's grid indices and its slot
    thresholds, the valuation's `ir_caps` and `reward_prefix`, and the grid's
    values. A bid is individually rational when no index exceeds its slot's
    cap. The allocation is the length of the prefix of slots with b_m >=
    thr_m; the reward is read off `rewards` and the payment is the
    `math.fsum` of the won bids.
    """
    if any(map(operator.gt, bid, caps)):
        raise ValueError("bid violates individual rationality")
    x = 0
    for b, threshold in zip(bid, thresholds):
        if b < threshold:
            break  # monotone inputs: the winning slots form a prefix
        x += 1
    payment = math.fsum([grid_values[j] for j in bid[:x]])
    reward = rewards[x]
    return x, reward - payment, payment, reward


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of settling one bidder against the competing bids."""

    allocation: int
    utility: float
    payment: float
    reward: float


def settle(
    valuation: ValuationProfile,
    bid: BidVector,
    competing: CompetingBids,
    tie: bool = False,
    bidder_priority: Optional[int] = None,
) -> AuctionOutcome:
    """Settle one bidder: allocation, gross reward, payment, and utility."""
    m = bid.indices.size
    if m != valuation.values.size:
        raise ValueError("bid and valuation lengths differ")
    if m > competing.indices.size:
        raise ValueError("bidder demand exceeds supply of competing bids")
    thresholds = competing_thresholds(competing, m, tie, bidder_priority)
    return AuctionOutcome(*settle_prefix(bid.indices.tolist(), thresholds.tolist(),
                                         valuation.ir_caps(bid.grid), valuation.reward_prefix(),
                                         bid.grid.values.tolist()))


def win_mask(
    bid: BidVector,
    competing: CompetingBids,
    tie: bool = False,
    bidder_priority: Optional[int] = None,
) -> np.ndarray:
    """Per-slot win indicators; monotone inputs make this a prefix."""
    m = bid.indices.size
    if m > competing.supply:
        raise ValueError("bidder demand exceeds supply of competing bids")
    b = bid.indices
    c = competing.indices[:m]
    greater = b > c
    equal = b == c
    priorities = getattr(competing, "priorities", None)
    if priorities is None:
        return greater | (equal & (not tie))
    rival_pri = np.asarray(priorities)[:m]
    if bidder_priority is None:
        bidder_priority = -(2**31) if tie else 2**31
    return greater | (equal & (bidder_priority > rival_pri))


def win_matrix(
    competing: CompetingBids,
    demand: int,
    tie: bool = False,
    bidder_priority: Optional[int] = None,
) -> np.ndarray:
    """Boolean (demand, D) matrix: does grid bid j win slot m this round."""
    thresholds = competing_thresholds(competing, demand, tie, bidder_priority)
    return np.arange(competing.grid.count) >= thresholds[:, None]


def competing_bids(
    rival_bids: Iterable[BidVector],
    supply: int,
    grid: BidGrid,
    rival_priorities: Optional[Sequence[int]] = None,
) -> CompetingBids:
    """Collect the `supply` largest rival bids, sorted non-decreasing.

    Fewer than `supply` rival bids are padded with the grid minimum at a
    priority below every real bidder, so a padded entry can never win a tie.
    """
    entries = []
    for r, bid in enumerate(rival_bids):
        owner = 0 if rival_priorities is None else int(rival_priorities[r])
        entries += [(int(j), owner) for j in bid.indices]
    entries.sort(reverse=True)
    entries = entries[:supply]
    entries += [(0, PAD_PRIORITY)] * (supply - len(entries))
    entries.reverse()  # ascending, padding first
    idx = np.array([e[0] for e in entries], dtype=np.int64)
    if rival_priorities is None and entries[0][1] != PAD_PRIORITY:
        return CompetingBids(idx, grid)  # uniform priorities: the two-mode tie rule
    return PooledBids(idx, grid, np.array([e[1] for e in entries], dtype=np.int64))


def loop_round(
    rows: Sequence[Sequence[int]],
    valuations: Sequence[ValuationProfile],
    grid: BidGrid,
    supply: int,
    env_row: Optional[Sequence[int]] = None,
    env_wins_ties: bool = False,
) -> list[tuple[PooledBids, list[int], AuctionOutcome]]:
    """One market round, agent by agent: each agent's pool, thresholds and outcome.

    Agent n bids `rows[n]` at priority n; the environment's ascending row
    ranks above or below every agent.
    """
    env_priority = ENV_WINS_PRIORITY if env_wins_ties else ENV_LOSES_PRIORITY
    entries = [(int(j), r) for r, row in enumerate(rows) for j in row]
    if env_row is not None:
        entries += [(int(j), env_priority) for j in env_row]
    entries.sort(reverse=True)
    pad = [(0, PAD_PRIORITY)] * supply
    out = []
    for n, row in enumerate(rows):
        pool = [e for e in entries if e[1] != n][:supply]
        pool += pad[len(pool):]
        pool.reverse()  # ascending, padding first
        competing = PooledBids(np.array([e[0] for e in pool]), grid,
                               np.array([e[1] for e in pool]))
        outcome = settle(valuations[n], BidVector(np.array(row), grid), competing,
                         bidder_priority=n)
        thresholds = competing_thresholds(competing, len(row), bidder_priority=n)
        out.append((competing, thresholds.tolist(), outcome))
    return out


def allocate(
    bid: BidVector,
    competing: CompetingBids,
    tie: bool = False,
    bidder_priority: Optional[int] = None,
) -> int:
    """Number of units won; equals the length of the winning prefix."""
    return int(np.sum(win_mask(bid, competing, tie, bidder_priority)))


def slot_reward(
    valuation_m: float,
    bid_value: float,
    competing_value: float,
    tie: bool = False,
) -> float:
    """Utility from slot m alone: (v_m - b) if the bid wins the slot, else 0."""
    won = bid_value > competing_value if tie else bid_value >= competing_value
    return (valuation_m - bid_value) if won else 0.0


def merge_settle(
    bids: Sequence[BidVector],
    supply: int,
) -> np.ndarray:
    """Allocations for all bidders by the global rule: sort every submitted
    bid descending (ties to the higher bidder index) and grant the top
    `supply`. Slot-wise settlement must agree with it.
    """
    entries = []
    for n, bid in enumerate(bids):
        for idx in bid.indices:
            entries.append((int(idx), n))
    entries.sort(reverse=True)
    alloc = np.zeros(len(bids), dtype=np.int64)
    for _, n in entries[:supply]:
        alloc[n] += 1
    return alloc


def loop_competing_history(log: RunLog, agent: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, supply) competing-bid indices and owner priorities, one round at a time."""
    t_rounds = log.rounds
    comp_idx = np.empty((t_rounds, log.supply), dtype=np.int64)
    comp_pri = np.empty((t_rounds, log.supply), dtype=np.int64)
    env_priority = ENV_WINS_PRIORITY if log.env_wins_ties else ENV_LOSES_PRIORITY
    for t in range(t_rounds):
        entries = []
        for n in range(log.num_agents):
            if n == agent:
                continue
            for idx in log.bids[n][t]:
                entries.append((int(idx), n))
        if log.env_bids is not None:
            for idx in log.env_bids[t]:
                entries.append((int(idx), env_priority))
        entries.sort(reverse=True)
        entries = entries[: log.supply]
        while len(entries) < log.supply:
            entries.append((0, PAD_PRIORITY))
        entries.sort()
        comp_idx[t] = [e[0] for e in entries]
        comp_pri[t] = [e[1] for e in entries]
    return comp_idx, comp_pri


def loop_market_metrics(log: RunLog) -> MarketMetrics:
    """Welfare, revenue, and bid-ratio series, one (round, agent) at a time."""
    t_rounds, n_agents = log.allocations.shape
    welfare = np.array([math.fsum(log.rewards[t]) for t in range(t_rounds)])
    revenue = np.array([math.fsum(log.payments[t]) for t in range(t_rounds)])
    total_utility = welfare - revenue

    pooled = np.sort(np.concatenate([v.values for v in log.valuations]))[::-1]
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


def _log_lists(log: RunLog) -> tuple:
    env_rows = log.env_bids.tolist() if log.env_bids is not None else None
    return ([rows.tolist() for rows in log.bids], log.allocations.tolist(),
            log.utilities.tolist(), log.payments.tolist(), env_rows)


def csv_text(log: RunLog) -> str:
    """`RunLog.to_csv_text`, one cell at a time."""
    max_m = max(v.demand for v in log.valuations)
    if log.env_bids is not None:
        max_m = max(max_m, log.supply)
    lines = ["t,agent," + ",".join(f"bid_{m+1}" for m in range(max_m))
             + ",allocation,utility,payment"]
    reprs = [repr(v) for v in log.grid.values.tolist()]
    blanks = [","] * max_m
    bids, allocations, utilities, payments, env_rows = _log_lists(log)
    for t in range(log.rounds):
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


def json_text(log: RunLog) -> str:
    """`RunLog.to_json_text`, one row dict at a time through `json.dumps`."""
    values = log.grid.values.tolist()
    bids, allocations, utilities, payments, env_rows = _log_lists(log)
    rows = []
    for t in range(log.rounds):
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
    return json.dumps({"seed": log.seed, "rows": rows}, sort_keys=True,
                      separators=(",", ":")) + "\n"


def accumulate_weights(
    valuation: ValuationProfile,
    history: Iterable[CompetingBids],
    grid: BidGrid,
    tie: bool = False,
    bidder_priority: Optional[int] = None,
) -> NodeWeightTable:
    """Per-slot utilities of every (unit, bid) cell summed over the history.

    Wins are counted round by round with `win_mask`, column j from the
    constant bid j, and multiplied by the margin once, so the table equals
    `accumulate_weights_history` bit for bit.
    """
    m = valuation.demand
    constant_bids = [BidVector(np.full(m, j), grid) for j in range(grid.count)]
    wins = np.zeros((m, grid.count), dtype=np.int64)
    for competing in history:
        for j, bid in enumerate(constant_bids):
            wins[:, j] += win_mask(bid, competing, tie, bidder_priority)
    weights = wins * (valuation.values[:, None] - grid.values[None, :])
    allowed = valuation.ir_mask(grid)
    weights[~allowed] = 0.0
    return NodeWeightTable(weights=weights, allowed=allowed, grid=grid, valuation=valuation)


class PerRoundDrawBidder(ExpWeightsBidder):
    """`ExpWeightsBidder` whose agents draw their M uniforms round by round."""

    def _draw_uniforms(self) -> None:
        self._uniforms = [np.array([rng.random(self.demand) for rng in self.rngs])]


def iter_monotone_indices(demand: int, grid_size: int):
    """All non-increasing index vectors of the given length, ascending lexicographically."""
    for combo in itertools.combinations_with_replacement(range(grid_size), demand):
        yield np.array(combo[::-1], dtype=np.int64)


def monotone_vector_count(demand: int, grid_size: int) -> int:
    return math.comb(grid_size + demand - 1, demand)


def path_utility(table: NodeWeightTable, indices: Sequence[int]) -> float:
    """Total weight of a monotone index vector, summed deepest slot first.

    The right-to-left order reproduces the DP's accumulation exactly, so
    enumeration and DP agree bit for bit and break ties identically.
    """
    total = 0.0
    for m in range(len(indices) - 1, -1, -1):
        if not table.allowed[m, indices[m]]:
            return NEG_INF
        total = table.weights[m, indices[m]] + total
    return total


def brute_force_optimal(
    valuation: ValuationProfile,
    history: Iterable[CompetingBids],
    grid: BidGrid,
    tie: bool = False,
    bidder_priority: Optional[int] = None,
    cap: int = BRUTE_FORCE_CAP,
) -> HindsightSolution:
    """Exhaustive maximizer over all monotone IR grid vectors; ties go to the
    lexicographically smallest, as in `hindsight_optimal`."""
    count = monotone_vector_count(valuation.demand, grid.count)
    if count > cap:
        raise ValueError(f"{count} candidate vectors exceed the enumeration cap {cap}")
    table = accumulate_weights(valuation, history, grid, tie, bidder_priority)
    best_idx = None
    best_util = NEG_INF
    for indices in iter_monotone_indices(valuation.demand, grid.count):
        util = path_utility(table, indices)
        if util == NEG_INF:
            continue
        if util > best_util or (util == best_util and best_idx is not None
                                and tuple(indices) < tuple(best_idx)):
            best_util = util
            best_idx = indices
    if best_idx is None:
        raise ValueError("no individually rational bid vector exists")
    return HindsightSolution(bid=BidVector(best_idx, grid), total_utility=float(best_util))


def masked(table: NodeWeightTable) -> np.ndarray:
    """Weights with forbidden cells shown as -inf."""
    out = table.weights.copy()
    out[~table.allowed] = NEG_INF
    return out


def check_ir(bid: BidVector, valuation: ValuationProfile) -> None:
    """Raise unless the bid has the valuation's length and never bids above it."""
    if bid.indices.size != valuation.demand:
        raise ValueError("bid and valuation lengths differ")
    if np.any(bid.values > valuation.values + VALUE_EPS):
        raise ValueError("bid violates individual rationality")


def path_log_probability(log_sums: np.ndarray, log_prefix: np.ndarray,
                         indices: Sequence[int]) -> float:
    """Exact log-probability that the EW sampler emits this index vector from
    the log tail sums and prefix table of `_kernels.ew_tail_sums`."""
    total = 0.0
    cap = log_sums.shape[1] - 1
    for m, idx in enumerate(indices):
        if idx > cap:
            return NEG_INF
        total += log_sums[m, idx] - log_prefix[m, cap]
        cap = int(idx)
    return total


def bandit_step(table: NodeWeightTable, probs: np.ndarray, played: BidVector, allocation: int,
                gamma: Optional[np.ndarray] = None) -> np.ndarray:
    """`ExpWeightsBidder`'s bandit update of one agent's table, in place, from
    marginals `probs` of log tail sums; returns the played cells' increments."""
    m_units, d = table.weights.shape
    return _bandit_step(table.weights[:, None], np.arange(m_units)[None] * d,
                        table.allowed[:, None].astype(float), probs[:, None],
                        played.indices[None], np.array([allocation]),
                        table.valuation.values[None], table.grid.values,
                        0.0 if gamma is None else gamma, np.array([False]))[0]


def unnormalized_kl(q: np.ndarray, q_tilde: np.ndarray) -> float:
    """D(q || q_tilde) = sum q log(q/q_tilde) - q + q_tilde over supported cells."""
    q = np.asarray(q, dtype=float)
    q_tilde = np.asarray(q_tilde, dtype=float)
    total = float(np.sum(q_tilde) - np.sum(q))
    pos = q > 0
    if np.any(pos & (q_tilde <= 0)):
        return float("inf")
    total += float(np.sum(q[pos] * np.log(q[pos] / q_tilde[pos])))
    return total


def sweep_dual_ascent(qt, allowed, tol, max_sweeps):
    """Cyclic dual coordinate ascent that visits every layer pair every sweep.

    The frozen coordinate-ascent reference for the projected Newton kernel,
    `_kernels.project_dual_ascent`: same dual, multipliers and certificate, a
    different path to them. Returns (q, lam, nu, sweeps_used, gap).
    """
    m_units, d = qt.shape
    q = np.where(allowed, qt, 0.0)
    lam = np.zeros((max(m_units - 1, 1), max(d - 1, 1)))
    nu = np.zeros(m_units)
    gap = np.inf
    for sweep in range(max_sweeps):
        s = q.sum(axis=1)
        q /= s[:, None]
        nu -= np.log(s)
        forward = sweep % 2 == 0
        for mi in range(m_units - 1):
            m = mi if forward else m_units - 2 - mi
            _sweep_balance_pair(q, lam, m, forward)
        gap = _sweep_kkt_gap(q, lam)
        if not gap > tol:
            return q, lam, nu, sweep + 1, gap
    return q, lam, nu, max_sweeps, gap


def _sweep_balance_pair(q, lam, m, forward):
    """One pass over the d - 1 dominance constraints between rows m, m + 1."""
    n = q.shape[1] - 1
    lams = lam[m, :n].tolist()
    deltas = [0.0] * n
    if forward:
        shallow_cells = q[m, :n].tolist()
        deep_cells = q[m + 1, :n].tolist()
        shallow = deep = 0.0
        for j in range(n):
            shallow += shallow_cells[j]
            deep += deep_cells[j]
            lj = lams[j]
            if lj == 0.0 and shallow <= deep:
                continue
            delta = _sweep_dominance_step(lj, shallow, deep)
            if delta != 0.0:
                lams[j] = lj + delta
                deltas[j] = delta
                up = math.exp(delta)
                shallow /= up
                deep *= up
    else:
        shallow_prefix = np.cumsum(q[m, :n]).tolist()
        deep_prefix = np.cumsum(q[m + 1, :n]).tolist()
        up_so_far = 1.0
        for j in range(n - 1, -1, -1):
            shallow = shallow_prefix[j] / up_so_far
            deep = deep_prefix[j] * up_so_far
            lj = lams[j]
            if lj == 0.0 and shallow <= deep:
                continue
            delta = _sweep_dominance_step(lj, shallow, deep)
            if delta != 0.0:
                lams[j] = lj + delta
                deltas[j] = delta
                up_so_far *= math.exp(delta)
    if any(deltas):
        lam[m, :n] = lams
        up = np.exp(np.cumsum(deltas[::-1])[::-1])
        q[m, :n] /= up
        q[m + 1, :n] *= up


def _sweep_dominance_step(lam_j, shallow, deep):
    """Clipped dual update of one constraint: log(P/A)/2, lambda kept >= 0."""
    if shallow <= 0.0:
        return -lam_j
    if deep <= 0.0:
        return 0.0
    return max(0.5 * (math.log(shallow) - math.log(deep)), -lam_j)


def _sweep_kkt_gap(q, lam):
    """Max of row-sum error, dominance violation and |lambda (A - P)|."""
    gap = float(np.max(np.abs(q.sum(axis=1) - 1.0)))
    if q.shape[0] > 1 and q.shape[1] > 1:
        prefix = np.cumsum(q[:, :-1], axis=1)
        violation = prefix[:-1] - prefix[1:]
        gap = max(gap, float(violation.max()), float(np.max(np.abs(lam * violation))))
    return gap


def count_rule_indices(q: np.ndarray, u: float) -> np.ndarray:
    """Slot indices of the quantile coupling at uniform `u`, by counting.

    Slot m takes the number of CDF entries at or below u times the row total,
    then the running minimum over slots.
    """
    cdf = np.cumsum(q, axis=1)
    threshold = u * cdf[:, -1:]
    return np.minimum.accumulate(np.count_nonzero(cdf <= threshold, axis=1))


def list_sample_from_marginals(q: np.ndarray, rng) -> np.ndarray:
    """`mirror_descent.sample_from_marginals` on lists: one `bisect_right` per row
    of the CDF table's `tolist()`, then the running minimum over slots."""
    u = rng.random()
    picks = [bisect.bisect_right(row, u * row[-1]) for row in q.cumsum(axis=1).tolist()]
    return np.minimum.accumulate(picks)


def all_slot_bandit_step(q: np.ndarray, bid: np.ndarray, allocation: int, values: np.ndarray,
                         grid_values: np.ndarray, gamma: np.ndarray, eta: float) -> np.ndarray:
    """`OmdBidder`'s bandit step over all M played cells of `bid`.

    Slot m's estimate is (v_m - B_j if m < allocation else 0) over max(q,
    Q_FLOOR) + gamma_m, in Python floats. When every eta times an estimate is
    at most `MAX_PLAIN_EXPONENT`, the played cells of a copy of q are
    multiplied by their `np.exp`; otherwise (a NaN too) it is
    `unconstrained_step` on the dense estimate table.
    """
    slots = np.arange(len(bid))
    played = q[slots, bid].tolist()
    estimates = [(v - grid_values[j] if m < allocation else 0.0) / (max(qm, Q_FLOOR) + g)
                 for m, (v, j, qm, g) in enumerate(zip(values.tolist(), bid.tolist(), played,
                                                       gamma.tolist()))]
    exponents = [eta * est for est in estimates]
    if not all(x <= MAX_PLAIN_EXPONENT for x in exponents):
        dense = np.zeros(q.shape)
        dense[slots, bid] = estimates
        return unconstrained_step(q, dense, eta)
    q_tilde = q.copy()
    q_tilde[slots, bid] = [qm * f for qm, f in zip(played, np.exp(exponents).tolist())]
    return q_tilde


def row_list_dual_ascent(qt, allowed, tol, max_sweeps):
    """The projection's zero-multiplier check taken row by row, then `sweep_dual_ascent`.

    After one normalization, each row's largest dominance excess P - A and
    each row's |sum - 1| become Python floats, and their maxima are NaN when
    one is NaN (`_list_max`). When no excess is positive and the larger of
    the two maxima certifies, that is the result; otherwise
    `sweep_dual_ascent` from the start. Returns (q, lam, nu, sweeps_used, gap).
    """
    m_units, d = qt.shape
    q = np.where(allowed, qt, 0.0)
    s = q.sum(axis=1)
    q /= s[:, None]
    prefix = q[:, :-1].cumsum(axis=1)
    top = _list_max((prefix[:-1] - prefix[1:]).max(axis=1, initial=-math.inf).tolist())
    if top <= 0.0:
        gap = max(_list_max([abs(total - 1.0) for total in q.sum(axis=1).tolist()]), top)
        if not gap > tol:
            return q, np.zeros((max(m_units - 1, 1), max(d - 1, 1))), 0.0 - np.log(s), 1, gap
    return sweep_dual_ascent(qt, allowed, tol, max_sweeps)


def _list_max(values: list) -> float:
    """numpy's max of a list of floats: NaN when one is NaN, -inf when it is empty."""
    return math.nan if any(map(math.isnan, values)) else max(values, default=-math.inf)


def spawn_all_replication_seeds(master_seed: int, replications: int, replication: int,
                                agents: int) -> list[np.random.SeedSequence]:
    """Per-agent, environment and valuation sequences of one replication, by
    spawning all `replications` sequences of the master seed."""
    root = np.random.SeedSequence(master_seed)
    return root.spawn(replications)[replication].spawn(agents + 2)


def drawn_row(rows: Sequence, probabilities: Sequence[float], seed: int, t: int):
    """Round t's row of `StochasticAdversary(rows, probabilities, seed)`, alone.

    Round t reads uniform t % 4096 of the stream seeded by
    `SeedSequence((seed, t // 4096))` and takes the first row whose running
    probability total exceeds it, or the last row when roundoff leaves the
    total at or below it.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, t // 4096)))
    u = rng.random(4096)[t % 4096]
    total = 0.0
    for row, p in zip(rows, probabilities):
        total += p
        if u < total:
            return row
    return rows[-1]


def expected_total_utility(demand: int, low_probability: float, price_slots: int,
                           horizon: int) -> float:
    """Closed-form expected cumulative utility, on the hard two-point family
    whose low row (M - M/3 zeros, then the price c = 2/3) has probability
    `low_probability`, of a fixed bid with `price_slots` entries at c and the
    rest at zero."""
    zeros_beyond = max(0, demand - demand // 3 - price_slots)
    per_round = (1.0 - 2.0 / 3.0) * price_slots + low_probability * zeros_beyond
    return horizon * per_round
