"""Pay-as-bid auction primitives.

A pay-as-bid auction sells identical units to the highest bids; each winner
pays their own bid for every unit won. From a single bidder's perspective the
auction reduces to slot-wise comparisons: with both the bidder's vector and
the competing-bid vector monotone, the bidder wins slot m exactly when their
m-th bid beats the m-th smallest of the top rival bids, and the winning slots
always form a prefix.

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
        if indices.min() < 0 or indices.max() >= self.grid.count:
            raise ValueError("bid index outside grid")
        if (indices[1:] > indices[:-1]).any():
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
    absent, ties are resolved by the `TieBreak` mode passed to `allocate`.
    """

    indices: np.ndarray
    grid: BidGrid
    priorities: Optional[np.ndarray] = None

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", indices)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("competing bids must be a non-empty vector")
        if indices.min() < 0 or indices.max() >= self.grid.count:
            raise ValueError("competing bid index outside grid")
        if (indices[1:] < indices[:-1]).any():
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


def trusted_bid(indices: np.ndarray, grid: BidGrid) -> BidVector:
    """Construct a BidVector without re-validating invariants.

    Internal fast path for samplers whose output is monotone and grid-valued
    by construction; everything else should go through the regular
    constructor.
    """
    bid = object.__new__(BidVector)
    object.__setattr__(bid, "indices", indices)
    object.__setattr__(bid, "grid", grid)
    return bid


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
    entries = []  # (index, priority)
    for r, bid in enumerate(rival_bids):
        pri = 0 if rival_priorities is None else int(rival_priorities[r])
        for idx in bid.indices:
            entries.append((int(idx), pri))
    # top `supply` by (bid, priority), then ascending for the slot ordering
    entries.sort(reverse=True)
    entries = entries[:supply]
    while len(entries) < supply:
        entries.append((0, PAD_PRIORITY))
    entries.sort()
    idx = np.array([e[0] for e in entries], dtype=np.int64)
    pri = np.array([e[1] for e in entries], dtype=np.int64)
    if rival_priorities is None:
        # uniform priorities collapse to the two-mode tie rule, but padded
        # entries must still lose ties against a zero bid
        pri = np.where(pri == PAD_PRIORITY, PAD_PRIORITY, 0)
        return CompetingBids(idx, grid, pri if np.any(pri == PAD_PRIORITY) else None)
    return CompetingBids(idx, grid, pri)


def win_mask(
    bid: BidVector,
    competing: CompetingBids,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> np.ndarray:
    """Per-slot win indicators; monotone inputs make this a prefix."""
    m = bid.demand
    if m > competing.supply:
        raise ValueError("bidder demand exceeds supply of competing bids")
    b = bid.indices
    c = competing.indices[:m]
    greater = b > c
    equal = b == c
    if competing.priorities is None:
        tie_won = tie is TieBreak.BIDDER_WINS
        return greater | (equal & tie_won)
    rival_pri = competing.priorities[:m]
    if bidder_priority is None:
        bidder_priority = 2**31 if tie is TieBreak.BIDDER_WINS else -(2**31)
    return greater | (equal & (bidder_priority > rival_pri))


def allocate(
    bid: BidVector,
    competing: CompetingBids,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> int:
    """Number of units won; equals the length of the winning prefix."""
    return int(np.sum(win_mask(bid, competing, tie, bidder_priority)))


def slot_reward(
    valuation_m: float,
    bid_value: float,
    competing_value: float,
    tie: TieBreak = TieBreak.BIDDER_WINS,
) -> float:
    """Utility from slot m alone: (v_m - b) if the bid wins the slot, else 0."""
    if tie is TieBreak.BIDDER_WINS:
        won = bid_value >= competing_value
    else:
        won = bid_value > competing_value
    return (valuation_m - bid_value) if won else 0.0


def settle(
    valuation: ValuationProfile,
    bid: BidVector,
    competing: CompetingBids,
    tie: TieBreak = TieBreak.BIDDER_WINS,
    bidder_priority: Optional[int] = None,
) -> AuctionOutcome:
    """Settle one bidder: allocation, gross reward, payment, and utility.

    Scalar loops: demand is small, and this sits on the per-round hot path.
    """
    m = bid.indices.size
    if m != valuation.values.size:
        raise ValueError("bid and valuation lengths differ")
    if m > competing.indices.size:
        raise ValueError("bidder demand exceeds supply of competing bids")
    v = valuation.values
    grid_values = bid.grid.values
    b_idx = bid.indices
    c_idx = competing.indices
    rival_pri = competing.priorities
    if rival_pri is None:
        tie_won = tie is TieBreak.BIDDER_WINS
    elif bidder_priority is None:
        bidder_priority = 2**31 if tie is TieBreak.BIDDER_WINS else -(2**31)
    for k in range(m):
        if grid_values[b_idx[k]] > v[k] + VALUE_EPS:
            raise ValueError("bid violates individual rationality")
    x = 0
    for k in range(m):
        bi = b_idx[k]
        ci = c_idx[k]
        if bi > ci or (bi == ci and (tie_won if rival_pri is None
                                     else bidder_priority > rival_pri[k])):
            x += 1
        else:
            break  # monotone inputs: the winning slots form a prefix
    reward = math.fsum(v[:x])
    payment = math.fsum(grid_values[b_idx[:x]])
    return AuctionOutcome(allocation=x, utility=reward - payment, payment=payment, reward=reward)


def merge_settle(
    bids: Sequence[BidVector],
    supply: int,
) -> np.ndarray:
    """Allocations for all bidders by the global rule: sort every submitted
    bid descending (ties to the higher bidder index) and grant the top
    `supply`. Reference allocator; slot-wise settlement must agree with it.
    """
    entries = []
    for n, bid in enumerate(bids):
        for idx in bid.indices:
            entries.append((int(idx), n))
    entries.sort(reverse=True)
    alloc = np.zeros(len(bids), dtype=np.int64)
    for _, n in entries[:supply]:
        alloc[n] += 1
    return alloc
