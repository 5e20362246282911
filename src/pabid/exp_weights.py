"""Decoupled exponential-weights bidders.

Maintaining a weight per whole bid vector is exponential in the number of
units, but the per-slot decomposition of pay-as-bid utility lets exponential
weights run with one weight per (unit, grid bid) cell. A backward recursion
computes, for every cell, the exponentially weighted mass of all monotone
completions; sampling slot by slot against those partial sums then draws
whole vectors from exactly the softmax-over-paths law.

Feedback modes:
  * full information: each cell counts the rounds its bid won its slot, and the
    rates carry v_m - B_j, so eta W is eta times the hindsight DP's table;
  * bandit: only the own allocation is observed, and cells are updated with a
    shifted inverse-probability-weighted estimator whose increments never
    exceed 1 (an implicit-exploration variant divides by q + gamma instead).

`ExpWeightsBidder` is a population: k >= 1 agents of one demand, one
feedback mode, one learning rate eta and one user gamma share an (M, k, D)
weight table, slot-major, so each round runs every kernel once for all of
them, and each per-slot step reads one contiguous (k, D) block. The round's
tables are one `_kernels.Workspace`, built with the kernels' arguments by the
first `propose`; what the kernels return aliases it until the next
`propose`. Each agent keeps its own RNG stream and draws its M uniforms per
round, a block of rounds at a time.

Agents sample from linear tables where these fit a float's range. A bandit
group's sampler and marginals share one linear table per round, checked per
agent; an agent whose table does not fit takes logs. A full-information
group samples from exp(eta W) itself, unshifted, while the growth bound of
`_kernels.linear_rounds` at its eta proves every prefix sum finite, and
from logs after. `log_rounds` counts each agent's rounds in logs. Both
domains draw the same bid except for a uniform within rounding of a
breakpoint of the sampler's CDF. Each choice reads only the agent's own
table and the rate it shares with its group, so an agent's bids and
`log_rounds` are the same whichever group it is in.

The group is the only interface to the EW kernels: a single agent is a
group of one.
"""
from __future__ import annotations

import enum
import math
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .auction import ValuationProfile
from .grids import BidGrid

# Confidence parameter of the implicit-exploration (IX) offset schedule.
IX_DELTA = 0.05
# Rounds of uniforms an agent draws at once.
UNIFORM_BLOCK_ROWS = 256


class FeedbackMode(enum.Enum):
    """The feedback an agent learns from; the values are the scenario spellings."""
    FULL_INFO = "full"
    BANDIT_IPW = "bandit_ipw"
    BANDIT_IX = "bandit_ix"


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


def _bandit_step(weights, offsets, allowed, probs, bids, allocations, values, grid_values, gamma,
                 linear):
    """Shifted IPW update of an (M, k, D) stack from each agent's own allocation.

    Every feasible cell gains 1 (`allowed`, as floats); the played cell
    additionally loses (1 - realized slot reward) / (q + gamma). The net
    played-cell increment 1 - (1 - w)/(q + gamma) is at most 1, which is what
    permits learning rates up to 1/M. `bids` are the k lists `propose` returned,
    `offsets`, the flat index of each agent's slot row, (k, M), allocations (k,),
    and `linear` (k,) marks the agents whose marginals came from linear tail sums.
    Returns the (k, M) increments.
    """
    bids = np.array(bids)
    cells = offsets + bids
    q = probs.take(cells) + gamma
    zero = (q <= 0.0).any(axis=1)
    if zero.any():
        regimes = sorted({"linear" if lin else "log" for lin in linear[zero]})
        raise RuntimeError(f"played bid has zero sampling probability under the marginals of the "
                           f"{' and '.join(regimes)} tail sums; sampler and marginals disagree")
    won = np.arange(bids.shape[1]) < allocations[:, None]  # winning slots form a prefix
    w = np.where(won, values - grid_values[bids], 0.0)
    correction = (1.0 - w) / q
    weights += allowed  # +1 on every feasible cell
    weights.reshape(-1)[cells] -= correction
    return 1.0 - correction


class ExpWeightsBidder:
    """k >= 1 decoupled exponential-weights agents of one demand, mode and rate, for one run.

    `seeds` seed each agent's RNG. As for `OmdBidder`, `eta` is the learning
    rate (the schedule's when None) and `gamma` the IX offset (when None, the
    per-layer schedule of each agent's IR mask); both are the group's. A group
    of the market: `propose` returns one bid row per agent, a list of Python
    ints, and `observe(allocations, thresholds)` takes the agents' allocations
    and, under full information, their (k, M) win thresholds. The tables
    (`weights`, `allowed`) are (M, k, D), slot-major: `weights[:, i]` is agent
    i's (M, D) table, under full information its win counts. `log_rounds[i]`
    counts the rounds in which agent i's tail sums were in logs rather than linear.
    """

    def __init__(self, valuations: Sequence[ValuationProfile], grid: BidGrid, horizon: int,
                 seeds: Sequence, mode: FeedbackMode = FeedbackMode.FULL_INFO,
                 eta: Optional[float] = None, gamma: Optional[float] = None):
        self.valuations, self.grid, self.mode = list(valuations), grid, mode
        self.demand = demand = self.valuations[0].demand
        if len(seeds) != len(self.valuations) or any(v.demand != demand for v in self.valuations):
            raise ValueError("a group needs one seed per agent, one mode and one demand")
        self.eta = eta_schedule(mode, demand, grid.count, horizon) if eta is None else eta
        if not 0.0 < self.eta < math.inf:  # NaN fails too
            raise ValueError(f"eta must be a positive finite number, not {self.eta}")
        if mode is not FeedbackMode.FULL_INFO and not self.eta < 1.0 / demand:
            raise ValueError(f"bandit modes require eta < 1/M, not {self.eta}")
        self.values = np.array([v.values for v in self.valuations])
        masks = [v.ir_mask(grid) for v in self.valuations]
        self.allowed = np.stack(masks, axis=1)
        self.weights = np.zeros(self.allowed.shape)
        self.gamma = np.array([estimator_offsets(mode, mask, horizon, gamma) for mask in masks])
        self.wants_full_info = mode is FeedbackMode.FULL_INFO
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self._rounds_left = horizon  # uniforms not yet drawn, in rounds, up to the horizon
        self._uniforms: list = []    # the rounds of the current block still to play
        if self.wants_full_info:
            self._linear_rounds = _kernels.linear_rounds(demand, grid.count, self.eta)
            self._updates = 0
        self.log_rounds = np.zeros(len(seeds), dtype=np.int64)
        self._work: Optional[_kernels.Workspace] = None  # built by the first propose, not at set-up
        self._pending_bids: Optional[list] = None
        self._pending_marginals: Optional[np.ndarray] = None
        self._pending_linear: Optional[np.ndarray] = None

    def propose(self) -> list[list[int]]:
        """One monotone bid per agent: k lists of M grid indices, Python ints."""
        if not self._uniforms:
            self._draw_uniforms()
        uniforms = self._uniforms.pop()
        if self._work is None:  # the kernels' tables and arguments, built at the first round
            # A lone agent samples from its (M, D) table: the kernels' per-slot numpy
            # calls cost more on (1, D) slices than on plain rows. Full information's
            # rates carry the slot rewards, a table, and its `allowed` is floats: stacks
            # multiply same-shape float tables fastest. Bandit rates are the scalar eta.
            floats, k, full = self.allowed * 1.0, self.weights.shape[1], self.wants_full_info
            rates = self.eta * _kernels.slot_rewards(
                self.allowed, self.values.T, self.grid.values) if full else self.eta
            mask = floats if full else self.allowed
            self._kernel_args = ((self.weights, mask, rates) if k > 1 else (
                self.weights[:, 0], mask[:, 0], rates[:, 0] if full else rates))
            self._cells = np.arange(0, self.weights.size, self.grid.count).reshape(-1, k).T, floats
            self._work = _kernels.Workspace(self._kernel_args[0].shape)
        work = self._work
        if self.wants_full_info:
            linear = self._updates <= self._linear_rounds
            if not linear:
                self.log_rounds += 1
            _kernels.ew_tail_sums(*self._kernel_args, bounded=linear, work=work)
        else:
            linear = _kernels.ew_tail_sums(*self._kernel_args, linear=True, work=work)[2]
        self._pending_bids = _kernels.sample_monotone(work.prefix, uniforms, linear)
        if not self.wants_full_info:
            marginals = _kernels.ew_marginals(work, linear=linear)
            self._pending_marginals = marginals.reshape(self.weights.shape)
            self._pending_linear = linear
            self.log_rounds += ~linear
        return self._pending_bids

    def observe(self, allocations: Optional[Sequence[int]],
                thresholds: Optional[Sequence[Sequence[int]]] = None) -> None:
        if self._pending_bids is None:
            raise RuntimeError("observe called before propose")
        if self.wants_full_info:
            if thresholds is None:
                raise ValueError("full-information feedback requires the win thresholds")
            counts = self._kernel_args[0]  # a lone agent's (M, D) view takes its one row
            _kernels.apply_slot_rewards(counts, np.array(
                thresholds[0] if counts.ndim == 2 else thresholds), work=self._work)
            self._updates += 1
        else:
            _bandit_step(self.weights, *self._cells, self._pending_marginals, self._pending_bids,
                         np.array(allocations), self.values, self.grid.values, self.gamma,
                         self._pending_linear)
        self._pending_bids = self._pending_marginals = None

    def _draw_uniforms(self) -> None:
        """Each agent's uniforms for the next block of rounds, up to the horizon.

        One `rng.random((rows, M))` per agent reads the same stream as `rows`
        draws of M, so the block size never changes a bid. Past the horizon
        the blocks are full. A round's uniforms are (k, M), in agent order,
        whatever the layout of the tables.
        """
        rows = min(UNIFORM_BLOCK_ROWS, self._rounds_left) or UNIFORM_BLOCK_ROWS
        self._rounds_left = max(self._rounds_left - rows, 0)
        block = np.stack([rng.random((rows, self.demand)) for rng in self.rngs], axis=1)
        self._uniforms = list(block[::-1])
