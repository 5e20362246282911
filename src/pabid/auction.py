"""Pay-as-bid auction primitives.

A pay-as-bid auction sells identical units to the highest bids; each winner
pays their own bid for every unit won. From one bidder's side the auction
reduces to slot-wise comparisons against the competing bids: the `supply`
largest rival bids, sorted non-decreasing, so that slot m faces the m-th
smallest of them.

The settlement rules are written once, on integer grid indices:

- The win rule is a per-slot threshold: the smallest grid index that wins
  slot m, c_m when the bidder wins a tie against that entry and c_m + 1
  when it loses it. Bid j wins slot m iff j >= thr_m; a threshold equal to
  the grid size means no grid bid wins. With a monotone bid the winning
  slots form a prefix, and the allocation is its length.
- Settlement runs once per run, on columns: `settle_columns` takes one
  bidder's (T, M) bids and thresholds, as the run log keeps them, and
  gives every round's allocation, reward (read off the valuation's
  `reward_prefix` table) and payment (a `math.fsum` of the won bids, once
  per distinct won prefix). The round loop checks each bid against the
  valuation's `ir_caps` before any learner observes the round.
- Ties are broken by rank, and the environment either outranks every
  agent or none: the one bool `env_wins_ties`. In a market every entry
  carries its owner's rank, and of two entries at one index the higher
  rank wins. Rank 0 pads, so a padding entry (index 0) never wins a unit.
  Agent n has rank n + 1, or n + 2 when the environment loses ties and so
  takes rank 1; an environment that wins ties takes rank N + 1.
  `round_thresholds` is the one routine that pools: it sorts every
  bidder's entries of a round as integer keys index * L + rank, L the
  number of ranks, once; one pass over the sort's head skips a bidder's own
  keys and turns the rest into its thresholds, padded with 0. The run log
  keeps these thresholds, so nothing after the run pools again.
- One bidder against rows of competing bids with no owners, as a lone
  agent faces the environment and as `pabid hindsight` scores a history,
  needs only that bool: `win_thresholds(rows, demand, rivals_win_ties)`
  adds it to the rival index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import VALUE_EPS, BidGrid


@dataclass(frozen=True)
class ValuationProfile:
    """Non-increasing marginal valuations, one entry per demanded unit."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("valuation profile must be a non-empty vector")
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("valuations must lie in [0, 1]")
        if not np.all(np.diff(values) <= VALUE_EPS):
            raise ValueError("valuations must be non-increasing")

    @property
    def demand(self) -> int:
        return int(self.values.size)

    def ir_mask(self, grid: BidGrid) -> np.ndarray:
        """Boolean (demand, grid) mask of individually rational cells b <= v_m."""
        return grid.values[None, :] <= self.values[:, None] + VALUE_EPS

    def ir_caps(self, grid: BidGrid) -> list[int]:
        """Largest individually rational grid index of each slot: `ir_mask`'s rows are prefixes."""
        return (self.ir_mask(grid).sum(axis=1) - 1).tolist()

    def reward_prefix(self) -> list[float]:
        """`math.fsum` of the first x valuations, for x = 0..demand."""
        values = self.values.tolist()
        return [math.fsum(values[:x]) for x in range(len(values) + 1)]


@dataclass(frozen=True)
class BidVector:
    """Monotone non-increasing bid, stored as grid indices."""

    indices: np.ndarray
    grid: BidGrid

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", indices)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("bid vector must be a non-empty vector")
        entries = indices.tolist()
        if min(entries) < 0 or max(entries) >= self.grid.count:
            raise ValueError("bid index outside grid")
        if any(a < b for a, b in zip(entries, entries[1:])):
            raise ValueError("bids must be non-increasing")

    @property
    def values(self) -> np.ndarray:
        return self.grid.values[self.indices]


@dataclass(frozen=True)
class CompetingBids:
    """The supply's worth of largest rival bids, sorted non-decreasing."""

    indices: np.ndarray
    grid: BidGrid

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", indices)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("competing bids must be a non-empty vector")
        entries = indices.tolist()
        if min(entries) < 0 or max(entries) >= self.grid.count:
            raise ValueError("competing bid index outside grid")
        if any(a > b for a, b in zip(entries, entries[1:])):
            raise ValueError("competing bids must be non-decreasing")

    @classmethod
    def from_values(cls, values, grid: BidGrid) -> "CompetingBids":
        return cls(grid.indices_of(values), grid)

    @property
    def supply(self) -> int:
        return int(self.indices.size)


def win_thresholds(indices: np.ndarray, demand: int, rivals_win_ties: bool = False) -> np.ndarray:
    """Smallest winning grid index of each of the first `demand` slots.

    `indices` holds competing bids along its last axis: one round, or a
    (rounds, supply) history. When the rivals win ties, bidding a rival's
    index loses, so each threshold is one higher. A threshold equal to the
    grid size means no grid bid wins.
    """
    return indices[..., :demand] + rivals_win_ties


def round_thresholds(rows: Sequence[list], ranks: Sequence[int], supply: int,
                     bidders: int) -> list[list[int]]:
    """Per-slot win thresholds of the first `bidders` rows of one round, from one sort.

    `rows[k]` is a list of bid indices of the owner of rank `ranks[k]`, one
    of 1 to len(ranks) as the module docstring lays them out, so there are
    L = len(ranks) + 1 levels with padding. Every entry becomes the key
    index * L + rank of its owner. Bidder n's competing bids are the first
    `supply` keys of the descending sort that it does not own, padded with
    key 0, and slot m faces the m-th smallest. The rule of `win_thresholds`
    in key form: a rival key c * L + r gives the threshold c + (r > rank of
    n), which is (key + L - 1 - rank of n) // L. One pass over the first
    `supply` + len(row) keys skips n's own and converts the rest; the first
    `supply`, reversed and front-padded with 0 (key 0's threshold), lead n's row.
    """
    width = len(ranks) + 1
    keys = sorted([j * width + r for row, r in zip(rows, ranks) for j in row], reverse=True)
    out = []
    for row, rank in zip(rows[:bidders], ranks):
        shift = width - 1 - rank
        pool = [(key + shift) // width for key in keys[: supply + len(row)] if key % width != rank]
        out.append(([0] * (supply - len(pool)) + pool[supply - 1::-1])[: len(row)])
    return out


def settle_columns(bids: np.ndarray, thresholds: np.ndarray, reward_prefix: Sequence[float],
                   grid_values: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Allocations, rewards and payments of one bidder in every round of a run.

    `bids` and `thresholds` are the bidder's (T, M) grid indices and slot
    thresholds, `reward_prefix` its valuation's `reward_prefix` and
    `grid_values` the grid's values as floats. The allocation is the length
    of the prefix of slots with b_m >= thr_m, the reward is read off
    `reward_prefix`, and the payment is the `math.fsum` of the won bids'
    values, summed once per distinct won prefix. A lost slot reads an extra
    grid value 0.0, which leaves an exact sum as it is.
    """
    won = np.logical_and.accumulate(bids >= thresholds, axis=1)
    allocations = won.sum(axis=1)
    rewards = np.array(reward_prefix, dtype=float)[allocations]
    prefixes = np.where(won, bids, len(grid_values))
    # each row as one opaque byte key: grouping needs equality only, and
    # `np.unique(axis=0)`, which compares column by column, is several times slower
    row = np.dtype((np.void, prefixes.itemsize * prefixes.shape[1]))
    keys, inverse = np.unique(prefixes.view(row).reshape(-1), return_inverse=True)
    won_values = np.array([*grid_values, 0.0])[keys.view(prefixes.dtype).reshape(-1, bids.shape[1])]
    totals = np.array(list(map(math.fsum, won_values.tolist())), dtype=float)
    return allocations, rewards, totals[inverse.reshape(-1)]
