"""Decoupled exponential-weights bidders.

Maintaining a weight per whole bid vector is exponential in the number of
units, but the per-slot decomposition of pay-as-bid utility lets exponential
weights run with one weight per (unit, grid bid) cell. A backward recursion
computes, for every cell, the exponentially weighted mass of all monotone
completions; sampling slot by slot against those partial sums then draws
whole vectors from exactly the softmax-over-paths law.

Feedback modes:
  * full information: the round's per-slot win thresholds update every cell;
  * bandit: only the own allocation is observed, and cells are updated with a
    shifted inverse-probability-weighted estimator whose increments never
    exceed 1 (an implicit-exploration variant divides by q + gamma instead).

`ExpWeightsBidder` is a population: k >= 1 agents of one demand and one
feedback mode share a (k, M, D) weight table, so each round runs every
kernel once for all of them, with eta and gamma per agent. Each agent keeps
its own RNG stream and draws its M uniforms from it, so its bids are the
same whichever group it is in. The functions on one `NodeWeightTable`
(`compute_partial_sums`, `sample_bid`, `slot_marginals`, `full_info_update`,
`bandit_update`) run the same kernels on a single (M, D) table.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .auction import CompetingBids, BidVector, TieBreak, ValuationProfile, trusted, win_thresholds
from .grids import BidGrid
from .hindsight import NodeWeightTable

# Confidence parameter of the implicit-exploration (IX) offset schedule.
IX_DELTA = 0.05


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
    seed: int = 0


def eta_schedule(mode: FeedbackMode, demand: int, grid_size: int, horizon: int) -> float:
    """Theorem-rate learning rates; bandit modes are capped strictly below 1/M."""
    if demand < 1 or grid_size < 1 or horizon < 1:
        raise ValueError("demand, grid size, and horizon must be positive")
    if mode is FeedbackMode.FULL_INFO:
        return math.sqrt(math.log(grid_size) / (demand * horizon))
    raw = math.sqrt(math.log(grid_size) / (demand * grid_size * horizon))
    return min(raw, 0.999 / demand)


def ix_gamma_schedule(allowed: np.ndarray, horizon: int) -> np.ndarray:
    """Per-layer implicit-exploration offsets from the per-layer arm counts."""
    counts = [max(k, 1) for k in allowed.sum(axis=1).tolist()]
    return np.array([math.sqrt((math.log(k) + math.log((k + 1) / IX_DELTA)) / (4 * k * horizon))
                     for k in counts])


def estimator_offsets(mode: FeedbackMode, allowed: np.ndarray, horizon: int,
                      gamma: Optional[float] = None) -> np.ndarray:
    """Per-slot offsets added to the played cell's probability by the bandit estimators.

    Under BANDIT_IX: the scalar override `gamma` in every slot, or the IX
    schedule when it is None. Zeros in every other mode.
    """
    if mode is not FeedbackMode.BANDIT_IX:
        return np.zeros(allowed.shape[0])
    if gamma is not None:
        return np.full(allowed.shape[0], float(gamma))
    return ix_gamma_schedule(allowed, horizon)


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
    of the summed cell weights.
    """
    uniforms = rng.random(partial.demand)
    indices = _kernels.sample_monotone(partial.log_prefix, uniforms)
    return trusted(BidVector, indices, partial.grid)


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
    thresholds = win_thresholds(competing.indices, competing.priorities, table.demand, tie,
                                bidder_priority)
    _kernels.apply_slot_rewards(
        table.weights, table.allowed, table.valuation.values, table.grid.values, thresholds
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
    return _bandit_step(table.weights[None], table.allowed[None], marginals.probs[None],
                        played.indices[None], np.array([allocation]),
                        table.valuation.values[None], table.grid.values,
                        0.0 if gamma is None else gamma)[0]


def _bandit_step(weights, allowed, probs, bids, allocations, values, grid_values, gamma):
    """`bandit_update` for a (k, M, D) stack: bids (k, M), allocations (k,)."""
    agents = np.arange(bids.shape[0])[:, None]
    slots = np.arange(bids.shape[1])
    q = probs[agents, slots, bids] + gamma
    if (q <= 0.0).any():
        raise RuntimeError("played bid has zero sampling probability; sampler and marginals disagree")
    won = slots < allocations[:, None]  # winning slots form a prefix
    w = np.where(won, values - grid_values[bids], 0.0)
    correction = (1.0 - w) / q
    weights += allowed  # +1 on every feasible cell
    weights[agents, slots, bids] -= correction
    return 1.0 - correction


class ExpWeightsBidder:
    """k >= 1 decoupled exponential-weights agents of one demand and mode, for one run.

    A group of the market: `propose` returns one bid row per agent, and
    `observe(allocations, thresholds)` takes the agents' allocations and,
    under full information, their (k, M) win thresholds.
    """

    def __init__(self, valuations: Sequence[ValuationProfile], grid: BidGrid, horizon: int,
                 configs: Sequence[LearnerConfig]):
        self.valuations, self.grid = list(valuations), grid
        self.mode = mode = configs[0].mode
        self.demand = demand = self.valuations[0].demand
        if len(configs) != len(self.valuations) or any(
                c.mode is not mode or v.demand != demand for c, v in zip(configs, self.valuations)):
            raise ValueError("a group needs one config per agent, one mode and one demand")
        etas = [eta_schedule(mode, demand, grid.count, horizon) if c.eta is None else c.eta
                for c in configs]
        if mode is not FeedbackMode.FULL_INFO and max(etas) >= 1.0 / demand:
            raise ValueError("bandit modes require eta < 1/M")
        self.eta = np.array(etas)
        self.values = np.array([v.values for v in self.valuations])
        self.allowed = np.array([v.ir_mask(grid) for v in self.valuations])
        self.weights = np.zeros(self.allowed.shape)
        self.gamma = np.array([estimator_offsets(mode, allowed, horizon, c.gamma)
                               for allowed, c in zip(self.allowed, configs)])
        self.wants_full_info = mode is FeedbackMode.FULL_INFO
        self.rngs = [np.random.default_rng(c.seed) for c in configs]
        self._uniforms = np.empty(self.values.shape)
        # A lone agent samples from its (M, D) table: the kernels' per-slot
        # numpy calls cost more on (1, D) slices than on plain rows.
        self._kernel_args = ((self.weights[0], self.allowed[0], self.eta[0]) if len(configs) == 1
                             else (self.weights, self.allowed, self.eta[:, None, None]))
        self._pending_bids: Optional[np.ndarray] = None
        self._pending_marginals: Optional[np.ndarray] = None

    def propose(self) -> np.ndarray:
        """One monotone bid per agent: a (k, M) array of grid indices."""
        log_sums, log_prefix = _kernels.ew_tail_sums(*self._kernel_args)
        for rng, row in zip(self.rngs, self._uniforms):
            rng.random(out=row)  # each agent's own stream, M uniforms per round
        bids = _kernels.sample_monotone(log_prefix, self._uniforms.reshape(log_prefix.shape[:-1]))
        self._pending_bids = bids.reshape(self.values.shape)
        if not self.wants_full_info:
            self._pending_marginals = _kernels.ew_marginals(log_sums).reshape(self.weights.shape)
        return self._pending_bids

    def observe(self, allocations: Sequence[int],
                thresholds: Optional[Sequence[Sequence[int]]] = None) -> None:
        if self._pending_bids is None:
            raise RuntimeError("observe called before propose")
        if self.wants_full_info:
            if thresholds is None:
                raise ValueError("full-information feedback requires the win thresholds")
            _kernels.apply_slot_rewards(self.weights, self.allowed, self.values,
                                        self.grid.values, np.array(thresholds))
        else:
            _bandit_step(self.weights, self.allowed, self._pending_marginals,
                         self._pending_bids, np.array(allocations), self.values,
                         self.grid.values, self.gamma)
        self._pending_bids = None
        self._pending_marginals = None
