"""Hindsight-optimal fixed bid vector over a history of win thresholds.

The cumulative utility of a fixed monotone bid decomposes slot by slot, so
the optimum is a maximum-weight monotone path through a layered graph: one
layer per unit, one node per (unit, grid bid), with an edge from (m, b) to
(m+1, b') whenever b' <= b and both cells are individually rational. The
max-plus `_kernels.backward_pass` solves it in O(M D) time and space: the pass
that gives exponential weights its tail sums in the sum-product semiring.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import backward_pass, slot_rewards
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
    O(T M + M D), the counts a full-information EW learner holds. A run log
    keeps the thresholds each agent settled against (`auction.win_thresholds`).
    """
    thresholds = np.asarray(thresholds, dtype=np.int64)
    m = valuation.demand
    if thresholds.ndim != 2 or thresholds.shape[1] != m:
        raise ValueError("history must be a (rounds, demand) threshold matrix")
    d = grid.count
    if thresholds.size and not (0 <= thresholds.min() and thresholds.max() <= d):
        t, slot = np.argwhere((thresholds < 0) | (thresholds > d))[0].tolist()
        raise ValueError(f"round {t}, slot {slot}: threshold {thresholds[t, slot]} lies "
                         f"outside [0, {d}]")
    # thresholds lie in [0, D]; D (nothing wins) gets its own column, dropped
    offsets = np.arange(m) * (d + 1)
    counts = np.bincount((thresholds + offsets).ravel(), minlength=m * (d + 1))
    wins = np.cumsum(counts.reshape(m, d + 1), axis=1)[:, :d]
    allowed = valuation.ir_mask(grid)
    weights = wins * slot_rewards(allowed, valuation.values, grid.values)
    return NodeWeightTable(weights=weights, allowed=allowed, grid=grid, valuation=valuation)


def hindsight_optimal(table: NodeWeightTable) -> HindsightSolution:
    """Exact maximizer of the summed node weights over monotone IR bids.

    Backward pass: U_m(b) = max_{b' <= b} W_m(b') + U_{m+1}(b'), computed as a
    running prefix maximum of each slot's candidate row. The forward pass
    reads those candidate rows back: slot m takes the argmax of its row up to
    the previous slot's bid, the smallest bid on ties, so the result is the
    lexicographically smallest optimal vector.
    """
    m_units, d = table.weights.shape
    if not table.allowed[:, 0].all():
        raise ValueError("grid minimum must be individually rational in every layer")
    # cand[m, b'] = W_m(b') + U_{m+1}(b') and best[m, b] = U_m(b). + 0.0 makes a -0.0
    # weight (0 wins of a cell whose v_m - B_j rounds below 0) +0.0: no total is -0.0.
    cand = np.where(table.allowed, table.weights + 0.0, NEG_INF)
    best = np.empty_like(cand)
    backward_pass(zip(cand[::-1], best[::-1]), np.maximum.accumulate, np.add)
    total = float(best[0, d - 1])

    indices = np.empty(m_units, dtype=np.int64)
    cap = d - 1
    for m in range(m_units):
        cap = int(np.argmax(cand[m, : cap + 1]))  # first occurrence = smallest bid on ties
        indices[m] = cap
    return HindsightSolution(bid=BidVector(indices, table.grid), total_utility=total)
