"""Pay-as-bid auction primitives.

A pay-as-bid auction sells identical units to the highest bids; each winner
pays their own bid for every unit won. From one bidder's side the auction
reduces to slot-wise comparisons against the competing bids: the `supply`
largest rival bids, sorted non-decreasing, so that slot m faces the m-th
smallest of them.

The settlement rules are written once, on integer grid indices:

- The win rule is a per-slot threshold. `win_thresholds` gives the smallest
  grid index that wins slot m, for one round or a (T, supply) history: c_m
  when the bidder wins a tie against that entry, c_m + 1 when it loses it.
  Bid j wins slot m iff j >= thr_m; a threshold equal to the grid size means
  no grid bid wins. With a monotone bid the winning slots form a prefix, and
  `settle_prefix` counts it.
- The pooling rule ranks every rival entry by (index, owner priority), keeps
  the top `supply` and pads with (0, PAD_PRIORITY) entries that lose every
  tie. `round_thresholds` is the one routine that pools: it sorts every
  bidder's entries of a round as integer keys index * L + rank of the owner
  priority, once, and reads each bidder's thresholds straight off its
  pooled keys. The run log keeps these thresholds, so nothing after the run
  pools again.

Ties are broken by strict priority. The two-mode `TieBreak` rule covers the
single-bidder-versus-environment case; multi-agent markets attach an owner
priority to every competing bid entry, which reduces to the two-mode rule
pairwise.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grids import VALUE_EPS, BidGrid


class TieBreak(enum.Enum):
    """Deterministic tie handling for bid-versus-competing-bid comparisons."""

    BIDDER_WINS = "bidder_wins"
    BIDDER_LOSES = "bidder_loses"


@dataclass(frozen=True)
class ValuationProfile:
    """Non-increasing marginal valuations, one entry per demanded unit."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("valuation profile must be a non-empty vector")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("valuations must lie in [0, 1]")
        if np.any(np.diff(values) > VALUE_EPS):
            raise ValueError("valuations must be non-increasing")

    @property
    def demand(self) -> int:
        return int(self.values.size)

    def ir_mask(self, grid: BidGrid) -> np.ndarray:
        """Boolean (demand, grid) mask of individually rational cells b <= v_m."""
        return grid.values[None, :] <= self.values[:, None] + VALUE_EPS


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

    @classmethod
    def from_values(cls, values, grid: BidGrid) -> "BidVector":
        return cls(grid.indices_of(values), grid)

    @property
    def values(self) -> np.ndarray:
        return self.grid.values[self.indices]

    @property
    def demand(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class CompetingBids:
    """The supply's worth of largest rival bids, sorted non-decreasing.

    `priorities` optionally records the owner priority of each entry; when
    absent, ties are resolved by the `TieBreak` mode passed to
    `win_thresholds`.
    """

    indices: np.ndarray
    grid: BidGrid
    priorities: Optional[np.ndarray] = None

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
        if self.priorities is not None:
            pri = np.asarray(self.priorities, dtype=np.int64)
            object.__setattr__(self, "priorities", pri)
            if pri.shape != indices.shape:
                raise ValueError("priorities must match competing bids in shape")

    @classmethod
    def from_values(cls, values, grid: BidGrid, priorities=None) -> "CompetingBids":
        return cls(grid.indices_of(values), grid, priorities)

    @property
    def supply(self) -> int:
        return int(self.indices.size)

    @property
    def values(self) -> np.ndarray:
        return self.grid.values[self.indices]


def trusted(cls, indices: np.ndarray, grid: BidGrid):
    """Construct a BidVector without re-validating invariants.

    Internal fast path for the samplers, whose draws are monotone and on the
    grid by construction; everything else should go through the regular
    constructor.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(indices=indices, grid=grid)
    return obj


# Priority assigned to padded (absent) competing bids: strictly below every
# real participant (including a BIDDER_LOSES bidder), so an absent bid can
# never win a unit.
PAD_PRIORITY = -(2**62)


def win_thresholds(
    indices: np.ndarray,
    priorities: Optional[np.ndarray],
    demand: int,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> np.ndarray:
    """Smallest winning grid index of each of the first `demand` slots.

    `indices` and `priorities` hold competing bids along their last axis: one
    round, or a (rounds, supply) history. The bidder wins a tie against a
    rival entry of lower priority, or, without priorities, under
    BIDDER_WINS. A threshold equal to the grid size means no grid bid wins.
    """
    c = indices[..., :demand]
    if priorities is None:
        return c + (tie is TieBreak.BIDDER_LOSES)
    if bidder_priority is None:
        bidder_priority = 2**31 if tie is TieBreak.BIDDER_WINS else -(2**31)
    return c + (priorities[..., :demand] >= bidder_priority)


def round_thresholds(rows: Sequence[list], owners: Sequence[int], supply: int,
                     bidders: int) -> list[list[int]]:
    """Per-slot win thresholds of the first `bidders` rows of one round, from one sort.

    `rows[k]` is a list of bid indices owned by priority `owners[k]`, the
    owners distinct. Every entry becomes the key index * L + rank of its
    owner among the L levels, PAD_PRIORITY at rank 0. Bidder n's competing
    bids are the first `supply` keys of the descending sort that it does not
    own, padded with key 0, and slot m faces the m-th smallest. The rule of
    `win_thresholds` in key form: a rival key c * L + r gives the threshold
    c + (r > rank of n), which is (key + L - 1 - rank of n) // L.
    """
    levels = sorted({PAD_PRIORITY, *owners})
    width = len(levels)
    ranks = [levels.index(owner) for owner in owners]
    keys = sorted([j * width + r for row, r in zip(rows, ranks) for j in row], reverse=True)
    out = []
    for row, rank in zip(rows[:bidders], ranks):
        pool = [key for key in keys[: supply + len(row)] if key % width != rank][:supply]
        shift = width - 1 - rank
        ascending = [0] * (supply - len(pool)) + pool[::-1]
        out.append([(key + shift) // width for key in ascending[: len(row)]])
    return out


def settle_prefix(values: list, bid: list, bid_values: list,
                  thresholds: list) -> tuple[int, float, float, float]:
    """(allocation, utility, payment, reward) of one bid against its slot thresholds.

    Arguments are Python lists over the bidder's slots. The allocation is the
    length of the prefix of slots with b_m >= thr_m; reward and payment are
    `math.fsum` sums over it.
    """
    if any(b > v + VALUE_EPS for b, v in zip(bid_values, values)):
        raise ValueError("bid violates individual rationality")
    x = 0
    for b, threshold in zip(bid, thresholds):
        if b < threshold:
            break  # monotone inputs: the winning slots form a prefix
        x += 1
    reward, payment = math.fsum(values[:x]), math.fsum(bid_values[:x])
    return x, reward - payment, payment, reward
