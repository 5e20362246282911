"""Hindsight-optimal fixed bid vector over a history of competing bids.

The cumulative utility of a fixed monotone bid decomposes slot by slot, so
the optimum is a maximum-weight monotone path through a layered graph: one
layer per unit, one node per (unit, grid bid), with an edge from (m, b) to
(m+1, b') whenever b' <= b and both cells are individually rational. A
backward pass of running prefix maxima solves it in O(M D) per layer with
O(M D) space; an exhaustive enumerator doubles as the test oracle.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .auction import CompetingBids, BidVector, TieBreak, ValuationProfile, win_thresholds
from .grids import BidGrid

NEG_INF = float("-inf")

# Refuse enumeration beyond this many monotone grid vectors.
BRUTE_FORCE_CAP = 2_000_000


@dataclass(frozen=True)
class NodeWeightTable:
    """Cumulative per-slot utilities W[m, b]; `allowed` masks IR-feasible cells.

    Forbidden cells (bid above the marginal valuation) are flagged rather than
    stored as floating-point -inf so that downstream arithmetic stays total.
    """

    weights: np.ndarray
    allowed: np.ndarray
    grid: BidGrid
    valuation: ValuationProfile

    @property
    def demand(self) -> int:
        return int(self.weights.shape[0])

    def masked(self) -> np.ndarray:
        """Weights with forbidden cells shown as -inf (for display/tests)."""
        out = self.weights.copy()
        out[~self.allowed] = NEG_INF
        return out


@dataclass(frozen=True)
class HindsightSolution:
    bid: BidVector
    total_utility: float


def _win_matrix(
    competing: CompetingBids,
    demand: int,
    tie: TieBreak,
    bidder_priority: Optional[int],
) -> np.ndarray:
    """Boolean (demand, D) matrix: does grid bid j win slot m this round."""
    thresholds = win_thresholds(competing.indices, competing.priorities, demand, tie,
                                bidder_priority)
    return np.arange(competing.grid.count) >= thresholds[:, None]


def _weight_table(valuation: ValuationProfile, wins: np.ndarray, grid: BidGrid) -> NodeWeightTable:
    """W[m, j] = wins[m, j] * (v_m - B_j) from exact integer win counts."""
    weights = wins * (valuation.values[:, None] - grid.values[None, :])
    allowed = valuation.ir_mask(grid)
    weights[~allowed] = 0.0
    return NodeWeightTable(weights=weights, allowed=allowed, grid=grid, valuation=valuation)


def accumulate_weights(
    valuation: ValuationProfile,
    history: Iterable[CompetingBids],
    grid: BidGrid,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> NodeWeightTable:
    """Sum per-slot rewards of every (unit, bid) cell across the history.

    Wins are counted round by round and multiplied by the margin once, so
    the table equals `accumulate_weights_history` bit for bit.
    """
    m = valuation.demand
    wins = np.zeros((m, grid.count), dtype=np.int64)
    for competing in history:
        if competing.supply < m:
            raise ValueError("competing bids shorter than bidder demand")
        wins += _win_matrix(competing, m, tie, bidder_priority)
    return _weight_table(valuation, wins, grid)


def accumulate_weights_history(
    valuation: ValuationProfile,
    comp_indices: np.ndarray,
    grid: BidGrid,
    comp_priorities: Optional[np.ndarray] = None,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> NodeWeightTable:
    """Vectorized table build from a (T, supply) matrix of competing-bid indices.

    Counting form of `accumulate_weights`: bid j wins slot m in every round
    whose threshold is at most j, so one bincount of the slot-offset
    thresholds and a running sum give every win count in O(T M + M D).
    """
    comp_indices = np.asarray(comp_indices, dtype=np.int64)
    if comp_indices.ndim != 2:
        raise ValueError("history must be a (rounds, supply) index matrix")
    m = valuation.demand
    if comp_indices.shape[1] < m:
        raise ValueError("competing bids shorter than bidder demand")
    d = grid.count
    thresholds = win_thresholds(comp_indices, comp_priorities, m, tie, bidder_priority)
    # thresholds lie in [0, D]; D (nothing wins) gets its own column, dropped
    offsets = np.arange(m) * (d + 1)
    counts = np.bincount((thresholds + offsets).ravel(), minlength=m * (d + 1))
    wins = np.cumsum(counts.reshape(m, d + 1), axis=1)[:, :d]
    return _weight_table(valuation, wins, grid)


def hindsight_optimal(table: NodeWeightTable) -> HindsightSolution:
    """Exact maximizer of the summed node weights over monotone IR bids.

    Backward pass: U_m(b) = max_{b' <= b} W_m(b') + U_{m+1}(b'), computed as a
    running prefix maximum. Forward pass re-derives the argmax chain, taking
    the smallest bid on ties so the result is the lexicographically smallest
    optimal vector (matching `brute_force_optimal` exactly).
    """
    m_units, d = table.weights.shape
    if not table.allowed[:, 0].all():
        raise ValueError("grid minimum must be individually rational in every layer")
    # u_next[b] = U_{m+1}(b); candidates c[b'] = W_m(b') + U_{m+1}(b')
    u_levels = np.zeros((m_units + 1, d))
    for m in range(m_units - 1, -1, -1):
        cand = np.where(table.allowed[m], table.weights[m] + u_levels[m + 1], NEG_INF)
        u_levels[m] = np.maximum.accumulate(cand)
    total = float(u_levels[0, d - 1])

    indices = np.empty(m_units, dtype=np.int64)
    cap = d - 1
    for m in range(m_units):
        cand = np.where(
            table.allowed[m, : cap + 1],
            table.weights[m, : cap + 1] + u_levels[m + 1, : cap + 1],
            NEG_INF,
        )
        cap = int(np.argmax(cand))  # first occurrence = smallest bid on ties
        indices[m] = cap
    return HindsightSolution(bid=BidVector(indices, table.grid), total_utility=total)


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
    """Exhaustive maximizer over all monotone IR grid vectors (test oracle)."""
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
