"""Reference forms of the settlement rules and the hindsight optimum.

The library settles with per-slot win thresholds, pools rival bids with one
sort of integer keys and finds the best fixed bid by dynamic programming.
These loops state the same rules the long way: entry by entry, round by
round, agent by agent, and the optimum by enumerating every monotone bid.
Tests check the library against them.

`settle` scores one bidder against a `CompetingBids` row through
`win_thresholds` and `settle_prefix`. `loop_round` is the market round as it
was played one agent at a time: a list pool of (index, owner) entries, a
`CompetingBids` per agent, `settle` and `win_thresholds`.

`sweep_dual_ascent` is the KL projection kernel without its idle-pair skip:
every sweep visits every layer pair and recomputes the certificate's prefix
table. `count_rule_indices` is the mirror-descent sampler's index rule as a
count over the whole CDF table. The library must match both bit for bit.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from pabid.auction import (
    PAD_PRIORITY,
    BidVector,
    CompetingBids,
    TieBreak,
    ValuationProfile,
    settle_prefix,
    win_thresholds,
)
from pabid.grids import VALUE_EPS, BidGrid
from pabid.exp_weights import PartialSumTable
from pabid.hindsight import NEG_INF, HindsightSolution, NodeWeightTable
from pabid.simulator import ENV_LOSES_PRIORITY, ENV_WINS_PRIORITY, MarketMetrics, RunLog

# Refuse enumeration beyond this many monotone grid vectors.
BRUTE_FORCE_CAP = 2_000_000


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
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> AuctionOutcome:
    """Settle one bidder: allocation, gross reward, payment, and utility."""
    m = bid.indices.size
    if m != valuation.values.size:
        raise ValueError("bid and valuation lengths differ")
    if m > competing.indices.size:
        raise ValueError("bidder demand exceeds supply of competing bids")
    thresholds = win_thresholds(competing.indices, competing.priorities, m, tie,
                                bidder_priority)
    return AuctionOutcome(*settle_prefix(valuation.values.tolist(), bid.indices.tolist(),
                                         bid.grid.values[bid.indices].tolist(),
                                         thresholds.tolist()))


def win_mask(
    bid: BidVector,
    competing: CompetingBids,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> np.ndarray:
    """Per-slot win indicators; monotone inputs make this a prefix."""
    m = bid.demand
    if m > competing.supply:
        raise ValueError("bidder demand exceeds supply of competing bids")
    b = bid.indices
    c = competing.indices[:m]
    greater = b > c
    equal = b == c
    if competing.priorities is None:
        tie_won = tie is TieBreak.BIDDER_WINS
        return greater | (equal & tie_won)
    rival_pri = competing.priorities[:m]
    if bidder_priority is None:
        bidder_priority = 2**31 if tie is TieBreak.BIDDER_WINS else -(2**31)
    return greater | (equal & (bidder_priority > rival_pri))


def win_matrix(
    competing: CompetingBids,
    demand: int,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> np.ndarray:
    """Boolean (demand, D) matrix: does grid bid j win slot m this round."""
    thresholds = win_thresholds(competing.indices, competing.priorities, demand, tie,
                                bidder_priority)
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
    return CompetingBids(idx, grid, np.array([e[1] for e in entries], dtype=np.int64))


def loop_round(
    rows: Sequence[Sequence[int]],
    valuations: Sequence[ValuationProfile],
    grid: BidGrid,
    supply: int,
    env_row: Optional[Sequence[int]] = None,
    env_wins_ties: bool = False,
) -> list[tuple[CompetingBids, list[int], AuctionOutcome]]:
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
        competing = CompetingBids(np.array([e[0] for e in pool]), grid,
                                  np.array([e[1] for e in pool]))
        outcome = settle(valuations[n], BidVector(np.array(row), grid), competing,
                         bidder_priority=n)
        thresholds = win_thresholds(competing.indices, competing.priorities, len(row),
                                    bidder_priority=n)
        out.append((competing, thresholds.tolist(), outcome))
    return out


def allocate(
    bid: BidVector,
    competing: CompetingBids,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> int:
    """Number of units won; equals the length of the winning prefix."""
    return int(np.sum(win_mask(bid, competing, tie, bidder_priority)))


def slot_reward(
    valuation_m: float,
    bid_value: float,
    competing_value: float,
    tie: TieBreak = TieBreak.BIDDER_WINS,
) -> float:
    """Utility from slot m alone: (v_m - b) if the bid wins the slot, else 0."""
    if tie is TieBreak.BIDDER_WINS:
        won = bid_value >= competing_value
    else:
        won = bid_value > competing_value
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


def accumulate_weights(
    valuation: ValuationProfile,
    history: Iterable[CompetingBids],
    grid: BidGrid,
    tie: TieBreak = TieBreak.BIDDER_WINS,
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
    tie: TieBreak = TieBreak.BIDDER_WINS,
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
    if bid.demand != valuation.demand:
        raise ValueError("bid and valuation lengths differ")
    if np.any(bid.values > valuation.values + VALUE_EPS):
        raise ValueError("bid violates individual rationality")


def path_log_probability(partial: PartialSumTable, indices: Sequence[int]) -> float:
    """Exact log-probability that `sample_bid` emits this index vector."""
    logs = partial.log_sums
    total = 0.0
    cap = logs.shape[1] - 1
    for m, idx in enumerate(indices):
        if idx > cap:
            return NEG_INF
        total += logs[m, idx] - partial.log_prefix[m, cap]
        cap = int(idx)
    return total


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

    Same sweep order, pair passes and certificate as
    `_kernels.project_dual_ascent`, without its idle-pair skip. Returns
    (q, lam, nu, sweeps_used, gap).
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
