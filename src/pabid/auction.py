"""Pay-as-bid auction primitives.

A pay-as-bid auction sells identical units to the highest bids; each winner
pays their own bid for every unit won. From one bidder's side the auction
reduces to slot-wise comparisons against the competing bids: the `supply`
largest rival bids, sorted non-decreasing, so that slot m faces the m-th
smallest of them.

Both settlement concepts are written once, on integer grid indices, in forms
that take one round or a (T, supply) history alike:

- The win rule is a per-slot threshold. `win_thresholds` gives the smallest
  grid index that wins slot m: c_m when the bidder wins a tie against that
  entry, c_m + 1 when it loses it. Bid j wins slot m iff j >= thr_m; a
  threshold equal to the grid size means no grid bid wins. With a monotone
  bid the winning slots form a prefix, and `settle` counts it.
- The pooling rule ranks every rival entry by (index, owner priority), keeps
  the top `supply` and pads with (0, PAD_PRIORITY) entries that lose every
  tie. `pool_rival_bids` applies it to many rounds with one sort of integer
  keys.

Ties are broken by strict priority. The two-mode `TieBreak` rule covers the
single-bidder-versus-environment case; multi-agent markets attach an owner
priority to every competing bid entry, which reduces to the two-mode rule
pairwise.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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

    def check_ir(self, valuation: ValuationProfile) -> None:
        if self.demand != valuation.demand:
            raise ValueError("bid and valuation lengths differ")
        if np.any(self.values > valuation.values + VALUE_EPS):
            raise ValueError("bid violates individual rationality")


@dataclass(frozen=True)
class CompetingBids:
    """The supply's worth of largest rival bids, sorted non-decreasing.

    `priorities` optionally records the owner priority of each entry; when
    absent, ties are resolved by the `TieBreak` mode passed to `settle`.
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


def trusted(cls, indices: np.ndarray, grid: BidGrid, **fields):
    """Construct a BidVector or CompetingBids without re-validating invariants.

    Internal fast path for the samplers and the market's per-round rival
    pool, whose rows are sorted and grid-valued by construction; everything
    else should go through the regular constructor.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(indices=indices, grid=grid, **fields)
    return obj


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of settling one bidder against the competing bids."""

    allocation: int
    utility: float
    payment: float
    reward: float


# Priority assigned to padded (absent) competing bids: strictly below every
# real participant (including a BIDDER_LOSES bidder), so an absent bid can
# never win a unit.
PAD_PRIORITY = -(2**62)


def pool_rival_bids(
    rounds: int,
    supply: int,
    blocks: Sequence[np.ndarray],
    owners: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """The top `supply` rival entries of every round, by (index, priority), ascending.

    `blocks[k]` is a (rounds, width) array of bid indices owned by priority
    `owners[k]`. Each entry becomes one integer key, index * L + rank of its
    priority among the L distinct ones, with PAD_PRIORITY at rank 0; `supply`
    pad keys of 0 are appended, so one sort per row puts the pooled entries
    in its last `supply` columns. Returns (rounds, supply) indices and
    priorities.
    """
    levels = sorted({PAD_PRIORITY, *owners})
    rank = {priority: r for r, priority in enumerate(levels)}
    width = len(levels)
    keys = np.concatenate(
        [np.zeros((rounds, supply), dtype=np.int64)]
        + [block * width + rank[owner] for block, owner in zip(blocks, owners)],
        axis=1,
    )
    keys.sort(axis=1)
    indices, ranks = np.divmod(keys[:, keys.shape[1] - supply:], width)
    return indices, np.array(levels, dtype=np.int64)[ranks]


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
    rival_bids = list(rival_bids)
    owners = [0 if rival_priorities is None else int(rival_priorities[r])
              for r in range(len(rival_bids))]
    idx, pri = pool_rival_bids(1, supply, [bid.indices[None, :] for bid in rival_bids], owners)
    idx, pri = idx[0], pri[0]
    if rival_priorities is None and not (pri == PAD_PRIORITY).any():
        return CompetingBids(idx, grid)  # uniform priorities: the two-mode tie rule
    return CompetingBids(idx, grid, pri)


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


def settle(
    valuation: ValuationProfile,
    bid: BidVector,
    competing: CompetingBids,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> AuctionOutcome:
    """Settle one bidder: allocation, gross reward, payment, and utility.

    The allocation is the length of the prefix of slots with b_m >= thr_m,
    counted on Python lists: demand is small, and this sits on the
    per-round hot path.
    """
    m = bid.indices.size
    if m != valuation.values.size:
        raise ValueError("bid and valuation lengths differ")
    if m > competing.indices.size:
        raise ValueError("bidder demand exceeds supply of competing bids")
    values = valuation.values.tolist()
    bid_values = bid.grid.values[bid.indices].tolist()
    if any(b > v + VALUE_EPS for b, v in zip(bid_values, values)):
        raise ValueError("bid violates individual rationality")
    thresholds = win_thresholds(competing.indices, competing.priorities, m, tie,
                                bidder_priority).tolist()
    x = 0
    for b, threshold in zip(bid.indices.tolist(), thresholds):
        if b < threshold:
            break  # monotone inputs: the winning slots form a prefix
        x += 1
    reward = math.fsum(values[:x])
    payment = math.fsum(bid_values[:x])
    return AuctionOutcome(allocation=x, utility=reward - payment, payment=payment, reward=reward)
