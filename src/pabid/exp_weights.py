"""Decoupled exponential-weights bidders.

Maintaining a weight per whole bid vector is exponential in the number of
units, but the per-slot decomposition of pay-as-bid utility lets exponential
weights run with one weight per (unit, grid bid) cell. A backward recursion
computes, for every cell, the exponentially weighted mass of all monotone
completions; sampling slot by slot against those partial sums then draws
whole vectors from exactly the softmax-over-paths law.

Feedback modes:
  * full information: the realized competing bids update every cell;
  * bandit: only the own allocation is observed, and cells are updated with a
    shifted inverse-probability-weighted estimator whose increments never
    exceed 1 (an implicit-exploration variant divides by q + gamma instead).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .auction import CompetingBids, BidVector, TieBreak, ValuationProfile, trusted
from .grids import BidGrid
from .hindsight import NodeWeightTable, _win_matrix

LOG_ZERO = float("-inf")


class FeedbackMode(enum.Enum):
    FULL_INFO = "full_info"
    BANDIT_IPW = "bandit_ipw"
    BANDIT_IX = "bandit_ix"


@dataclass(frozen=True)
class PartialSumTable:
    """log S[m, b]: exponentially weighted mass of monotone tails from (m, b).

    S_m(b) = exp(eta * W_m(b)) * sum_{b' <= b} S_{m+1}(b'); forbidden cells
    carry log-domain zero. `log_prefix[m, b]` is log sum_{b' <= b} S_m(b'),
    the normalizer of slot m's law when the previous slot bid b. Everything
    stays in logs so cumulative weights of order eta * T never overflow.
    """

    log_sums: np.ndarray
    log_prefix: np.ndarray
    allowed: np.ndarray
    grid: BidGrid

    @property
    def demand(self) -> int:
        return int(self.log_sums.shape[0])


@dataclass(frozen=True)
class SlotMarginals:
    """q[m, b]: unconditional probability that the sampled vector bids b at slot m."""

    probs: np.ndarray


@dataclass
class LearnerConfig:
    mode: FeedbackMode = FeedbackMode.FULL_INFO
    eta: Optional[float] = None
    gamma: Optional[float] = None  # scalar override; None = per-layer schedule (IX only)
    ix_delta: float = 0.05
    seed: int = 0


def eta_schedule(mode: FeedbackMode, demand: int, grid_size: int, horizon: int) -> float:
    """Theorem-rate learning rates; bandit modes are capped strictly below 1/M."""
    if demand < 1 or grid_size < 1 or horizon < 1:
        raise ValueError("demand, grid size, and horizon must be positive")
    if mode is FeedbackMode.FULL_INFO:
        return math.sqrt(math.log(grid_size) / (demand * horizon))
    raw = math.sqrt(math.log(grid_size) / (demand * grid_size * horizon))
    return min(raw, 0.999 / demand)


def ix_gamma_schedule(allowed: np.ndarray, horizon: int, delta: float = 0.05) -> np.ndarray:
    """Per-layer implicit-exploration offsets from the per-layer arm counts."""
    counts = allowed.sum(axis=1)
    gammas = np.empty(allowed.shape[0])
    for m, k in enumerate(counts):
        k = max(int(k), 1)
        gammas[m] = math.sqrt((math.log(k) + math.log((k + 1) / delta)) / (4 * k * horizon))
    return gammas


def estimator_offsets(mode: FeedbackMode, allowed: np.ndarray, horizon: int,
                      gamma: Optional[float] = None, delta: float = 0.05) -> np.ndarray:
    """Per-slot offsets added to the played cell's probability by the bandit estimators.

    Under BANDIT_IX: the scalar override `gamma` in every slot, or the IX
    schedule when it is None. Zeros in every other mode.
    """
    if mode is not FeedbackMode.BANDIT_IX:
        return np.zeros(allowed.shape[0])
    if gamma is not None:
        return np.full(allowed.shape[0], float(gamma))
    return ix_gamma_schedule(allowed, horizon, delta)


def compute_partial_sums(table: NodeWeightTable, eta: float) -> PartialSumTable:
    """Backward pass of the log-domain tail-sum recursion, O(M D)."""
    if not table.allowed[:, 0].all():
        raise ValueError("no individually rational bid exists in some layer")
    log_sums, log_prefix = _kernels.ew_tail_sums(
        np.ascontiguousarray(table.weights), np.ascontiguousarray(table.allowed), float(eta)
    )
    return PartialSumTable(log_sums=log_sums, log_prefix=log_prefix, allowed=table.allowed,
                           grid=table.grid)


def sample_bid(partial: PartialSumTable, rng: np.random.Generator) -> BidVector:
    """Draw a monotone bid: slot m restricted to bids at most the previous slot.

    One uniform is consumed per slot in slot order, so a run is reproducible
    from the seed alone. The resulting law over whole vectors is the softmax
    of the summed cell weights (see `path_log_probability`).
    """
    uniforms = rng.random(partial.demand)
    indices = _kernels.sample_monotone(partial.log_prefix, uniforms)
    return trusted(BidVector, indices, partial.grid)


def path_log_probability(partial: PartialSumTable, indices: Sequence[int]) -> float:
    """Exact log-probability that `sample_bid` emits this index vector."""
    logs = partial.log_sums
    total = 0.0
    cap = logs.shape[1] - 1
    for m, idx in enumerate(indices):
        if idx > cap:
            return LOG_ZERO
        total += logs[m, idx] - partial.log_prefix[m, cap]
        cap = int(idx)
    return total


def slot_marginals(partial: PartialSumTable) -> SlotMarginals:
    """Unconditional per-slot bid probabilities of the sampler's law.

    q_1 is the softmax of the first layer's tail sums; deeper layers average
    the conditional law S_m(b) / sum_{b'' <= prev} S_m(b'') over the previous
    slot's marginal. (The conditional support given the previous bid b' is
    {b <= b'}, so the normalizer sums over b'' <= b'.)
    """
    return SlotMarginals(probs=_kernels.ew_marginals(partial.log_sums))


def full_info_update(
    table: NodeWeightTable,
    competing: CompetingBids,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> None:
    """Add this round's realized per-slot rewards to every feasible cell."""
    wins = _win_matrix(competing, table.demand, tie, bidder_priority)
    _kernels.apply_slot_rewards(
        table.weights, table.allowed, table.valuation.values, table.grid.values, wins
    )


def bandit_update(
    table: NodeWeightTable,
    marginals: SlotMarginals,
    played: BidVector,
    allocation: int,
    gamma: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Shifted IPW update from own allocation only.

    Every feasible cell gains 1; the played cell additionally loses
    (1 - realized slot reward) / (q + gamma). The net played-cell increment
    1 - (1 - w)/(q + gamma) is at most 1, which is what permits learning
    rates up to 1/M. The played bid comes from the table's own sampler, so
    every played cell is feasible. Returns the per-slot increments applied to
    the played cells (useful for estimator diagnostics).
    """
    slots = np.arange(table.demand)
    j = played.indices
    q = marginals.probs[slots, j]
    if gamma is not None:
        q = q + gamma
    if (q <= 0.0).any():
        raise RuntimeError("played bid has zero sampling probability; sampler and marginals disagree")
    won = slots < allocation  # winning slots form a prefix
    w = np.where(won, table.valuation.values - table.grid.values[j], 0.0)
    correction = (1.0 - w) / q
    table.weights[...] += table.allowed  # +1 on every feasible cell
    table.weights[slots, j] -= correction
    return 1.0 - correction


class ExpWeightsBidder:
    """Stateful decoupled exponential-weights learner for one run."""

    def __init__(
        self,
        valuation: ValuationProfile,
        grid: BidGrid,
        horizon: int,
        config: Optional[LearnerConfig] = None,
    ):
        self.config = config or LearnerConfig()
        self.valuation = valuation
        self.grid = grid
        self.horizon = horizon
        mode = self.config.mode
        self.eta = self.config.eta if self.config.eta is not None else eta_schedule(
            mode, valuation.demand, grid.count, horizon
        )
        if mode is not FeedbackMode.FULL_INFO and self.eta >= 1.0 / valuation.demand:
            raise ValueError("bandit modes require eta < 1/M")
        allowed = valuation.ir_mask(grid)
        self.table = NodeWeightTable(np.zeros_like(allowed, dtype=float), allowed, grid, valuation)
        self.gamma = estimator_offsets(mode, allowed, horizon, self.config.gamma,
                                       self.config.ix_delta)
        self.wants_full_info = mode is FeedbackMode.FULL_INFO
        self.rng = np.random.default_rng(self.config.seed)
        self._pending_bid: Optional[BidVector] = None
        self._pending_marginals: Optional[SlotMarginals] = None

    @property
    def demand(self) -> int:
        return self.valuation.demand

    def propose(self) -> BidVector:
        partial = compute_partial_sums(self.table, self.eta)
        bid = sample_bid(partial, self.rng)
        self._pending_bid = bid
        if self.config.mode is not FeedbackMode.FULL_INFO:
            self._pending_marginals = slot_marginals(partial)
        return bid

    def observe(self, allocation: int, competing: Optional[CompetingBids],
                tie: TieBreak = TieBreak.BIDDER_WINS,
                bidder_priority: Optional[int] = None) -> None:
        if self._pending_bid is None:
            raise RuntimeError("observe called before propose")
        if self.config.mode is FeedbackMode.FULL_INFO:
            if competing is None:
                raise ValueError("full-information feedback requires the competing bids")
            full_info_update(self.table, competing, tie, bidder_priority)
        else:
            bandit_update(self.table, self._pending_marginals, self._pending_bid,
                          allocation, self.gamma)
        self._pending_bid = None
        self._pending_marginals = None
