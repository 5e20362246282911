"""Hindsight-optimal fixed bid vector over a history of win thresholds.

The cumulative utility of a fixed monotone bid decomposes slot by slot, so
the optimum is a maximum-weight monotone path through a layered graph: one
layer per unit, one node per (unit, grid bid), with an edge from (m, b) to
(m+1, b') whenever b' <= b and both cells are individually rational. A
backward pass of running prefix maxima solves it in O(M D) per layer with
O(M D) space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .auction import BidVector, ValuationProfile
from .grids import BidGrid

NEG_INF = float("-inf")


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


@dataclass(frozen=True)
class HindsightSolution:
    bid: BidVector
    total_utility: float


def accumulate_weights_history(
    valuation: ValuationProfile,
    thresholds: np.ndarray,
    grid: BidGrid,
) -> NodeWeightTable:
    """Cumulative per-slot utilities from a (T, M) matrix of per-slot win thresholds.

    W[m, j] = (#rounds bid j wins slot m) * (v_m - B_j). Bid j wins slot m in
    every round whose threshold is at most j, so one bincount of the
    slot-offset thresholds and a running sum give every win count in
    O(T M + M D). `auction.win_thresholds` turns competing bids into
    thresholds; a run log keeps the ones each agent settled against.
    """
    thresholds = np.asarray(thresholds, dtype=np.int64)
    m = valuation.demand
    if thresholds.ndim != 2 or thresholds.shape[1] != m:
        raise ValueError("history must be a (rounds, demand) threshold matrix")
    d = grid.count
    # thresholds lie in [0, D]; D (nothing wins) gets its own column, dropped
    offsets = np.arange(m) * (d + 1)
    counts = np.bincount((thresholds + offsets).ravel(), minlength=m * (d + 1))
    wins = np.cumsum(counts.reshape(m, d + 1), axis=1)[:, :d]
    weights = wins * (valuation.values[:, None] - grid.values[None, :])
    allowed = valuation.ir_mask(grid)
    weights[~allowed] = 0.0
    return NodeWeightTable(weights=weights, allowed=allowed, grid=grid, valuation=valuation)


def hindsight_optimal(table: NodeWeightTable) -> HindsightSolution:
    """Exact maximizer of the summed node weights over monotone IR bids.

    Backward pass: U_m(b) = max_{b' <= b} W_m(b') + U_{m+1}(b'), computed as a
    running prefix maximum. Forward pass re-derives the argmax chain, taking
    the smallest bid on ties so the result is the lexicographically smallest
    optimal vector.
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

