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

A contextual variant handles valuations redrawn i.i.d. each round from a
known finite-support distribution by keeping one weight table per context
and sharing the context-averaged sampling probabilities as the estimator
normalizer.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .auction import CompetingBids, BidVector, TieBreak, ValuationProfile, trusted_bid
from .grids import BidGrid
from .hindsight import NodeWeightTable, _win_matrix

LOG_ZERO = float("-inf")


class FeedbackMode(enum.Enum):
    FULL_INFO = "full_info"
    BANDIT_IPW = "bandit_ipw"
    BANDIT_IX = "bandit_ix"


class EstimatedWeightTable(NodeWeightTable):
    """Cumulative estimated per-slot utilities for bandit feedback."""


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
    return trusted_bid(indices, partial.grid)


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
    table: EstimatedWeightTable,
    marginals: SlotMarginals,
    played: BidVector,
    allocation: int,
    gamma: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Shifted IPW update from own allocation only.

    Every feasible cell gains 1; the played cell additionally loses
    (1 - realized slot reward) / (q + gamma). The net played-cell increment
    1 - (1 - w)/(q + gamma) is at most 1, which is what permits learning
    rates up to 1/M. A played cell the table forbids (a bid above this
    table's valuation, possible when the marginals are shared across
    contexts) is left untouched. Returns the per-slot increments actually
    applied to the played cells (useful for estimator diagnostics).
    """
    slots = np.arange(table.demand)
    j = played.indices
    live = table.allowed[slots, j]
    offset = gamma if gamma is not None else 0.0
    q = np.where(live, marginals.probs[slots, j] + offset, np.inf)
    if (q <= 0.0).any():
        raise RuntimeError("played bid has zero sampling probability; sampler and marginals disagree")
    won = slots < allocation  # winning slots form a prefix
    w = np.where(won, table.valuation.values - table.grid.values[j], 0.0)
    correction = (1.0 - w) / q  # 0 on forbidden played cells
    table.weights[...] += table.allowed  # +1 on every feasible cell
    table.weights[slots, j] -= correction
    return live - correction


@dataclass
class RoundRecord:
    bid: BidVector
    allocation: int
    utility: float
    payment: float
    reward: float


@dataclass
class Trajectory:
    records: list[RoundRecord] = field(default_factory=list)

    @property
    def cumulative_utility(self) -> float:
        return math.fsum(r.utility for r in self.records)

    def utilities(self) -> np.ndarray:
        return np.array([r.utility for r in self.records])

    def bids(self) -> np.ndarray:
        return np.array([r.bid.indices for r in self.records])


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
        weights = np.zeros_like(allowed, dtype=float)
        if mode is FeedbackMode.FULL_INFO:
            self.table: NodeWeightTable = NodeWeightTable(weights, allowed, grid, valuation)
        else:
            self.table = EstimatedWeightTable(weights, allowed, grid, valuation)
        if mode is FeedbackMode.BANDIT_IX:
            if self.config.gamma is not None:
                self.gamma = np.full(valuation.demand, float(self.config.gamma))
            else:
                self.gamma = ix_gamma_schedule(allowed, horizon, self.config.ix_delta)
        elif mode is FeedbackMode.BANDIT_IPW:
            self.gamma = np.zeros(valuation.demand)
        else:
            self.gamma = None
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
            gamma = self.gamma if self.config.mode is FeedbackMode.BANDIT_IX else None
            bandit_update(self.table, self._pending_marginals, self._pending_bid,
                          allocation, gamma)
        self._pending_bid = None
        self._pending_marginals = None


class ContextualExpWeightsBidder:
    """Cross-learning variant for valuations drawn i.i.d. from a known finite support.

    One weight table per context; the bandit estimator normalizes by the
    context-averaged probability of the played cell, so one observed round
    updates every context's table.
    """

    def __init__(
        self,
        support: Sequence[ValuationProfile],
        probabilities: Sequence[float],
        grid: BidGrid,
        horizon: int,
        config: Optional[LearnerConfig] = None,
    ):
        probs = np.asarray(probabilities, dtype=float)
        if len(support) != probs.size or probs.size == 0:
            raise ValueError("support and probabilities must align")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("context probabilities must sum to 1")
        if len({v.demand for v in support}) != 1:
            raise ValueError("all contexts must share one demand")
        self.config = config or LearnerConfig(mode=FeedbackMode.BANDIT_IPW)
        self.support = list(support)
        self.context_probs = probs
        self.grid = grid
        self.horizon = horizon
        demand = support[0].demand
        self.eta = self.config.eta if self.config.eta is not None else eta_schedule(
            self.config.mode, demand, grid.count, horizon
        )
        if self.config.mode is not FeedbackMode.FULL_INFO and self.eta >= 1.0 / demand:
            raise ValueError("bandit modes require eta < 1/M")
        self.tables = [
            EstimatedWeightTable(np.zeros((demand, grid.count)), v.ir_mask(grid), grid, v)
            for v in self.support
        ]
        if self.config.mode is FeedbackMode.BANDIT_IX:
            self.gamma = (np.full(demand, float(self.config.gamma))
                          if self.config.gamma is not None
                          else ix_gamma_schedule(np.ones((demand, grid.count), bool), horizon,
                                                 self.config.ix_delta))
        else:
            self.gamma = np.zeros(demand)
        self.rng = np.random.default_rng(self.config.seed)
        self._pending: Optional[tuple[int, BidVector]] = None

    @property
    def demand(self) -> int:
        return self.support[0].demand

    def context_index(self, valuation: ValuationProfile) -> int:
        for c, v in enumerate(self.support):
            if np.array_equal(v.values, valuation.values):
                return c
        raise ValueError("valuation outside the known context support")

    def propose(self, context: int) -> BidVector:
        partial = compute_partial_sums(self.tables[context], self.eta)
        bid = sample_bid(partial, self.rng)
        self._pending = (context, bid)
        return bid

    def averaged_marginals(self) -> np.ndarray:
        """Context-probability-weighted slot marginals Q[m, b]."""
        total = np.zeros((self.demand, self.grid.count))
        for p, table in zip(self.context_probs, self.tables):
            partial = compute_partial_sums(table, self.eta)
            total += p * slot_marginals(partial).probs
        return total

    def observe(self, allocation: int, competing: Optional[CompetingBids] = None,
                tie: TieBreak = TieBreak.BIDDER_WINS) -> None:
        if self._pending is None:
            raise RuntimeError("observe called before propose")
        _, played = self._pending
        if self.config.mode is FeedbackMode.FULL_INFO:
            if competing is None:
                raise ValueError("full-information feedback requires the competing bids")
            for table in self.tables:
                full_info_update(table, competing, tie)
            self._pending = None
            return
        shared = SlotMarginals(probs=self.averaged_marginals())
        for table in self.tables:
            bandit_update(table, shared, played, allocation, self.gamma)
        self._pending = None


def run_ew(
    adversary,
    valuation: ValuationProfile,
    grid: BidGrid,
    horizon: int,
    config: Optional[LearnerConfig] = None,
    tie: TieBreak = TieBreak.BIDDER_WINS,
) -> Trajectory:
    """Run one exponential-weights learner against an adversary for `horizon` rounds."""
    from .auction import settle

    learner = ExpWeightsBidder(valuation, grid, horizon, config)
    trajectory = Trajectory()
    notify = getattr(adversary, "notify", None)
    for t in range(horizon):
        bid = learner.propose()
        competing = adversary.draw(t)
        outcome = settle(valuation, bid, competing, tie)
        learner.observe(
            outcome.allocation,
            competing if learner.config.mode is FeedbackMode.FULL_INFO else None,
            tie,
        )
        if notify is not None:
            notify(bid)
        trajectory.records.append(RoundRecord(
            bid=bid, allocation=outcome.allocation, utility=outcome.utility,
            payment=outcome.payment, reward=outcome.reward,
        ))
    return trajectory
