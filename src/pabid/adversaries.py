"""Environments that supply competing bids.

Three kinds ship with the library: i.i.d. stochastic distributions over a
finite support, the two-point family used to exhibit the sqrt(T) learning
barrier, and self-play markets where every rival is itself a learner.

The stochastic environments are oblivious: the bids of round t are a pure
function of (seed, t). `SelfPlayMarket.play` therefore reads them a block
of rounds at a time (`StochasticAdversary.draws`), as one (rounds, supply)
array of grid indices; `draw(t)` gives one round as `CompetingBids`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .auction import CompetingBids
from .grids import BidGrid, make_even_grid

_CHUNK = 4096


class StochasticAdversary:
    """I.i.d. draws from a finite support of competing-bid vectors.

    `draw(t)` is a pure function of (seed, t): draws are generated in fixed
    chunks keyed by (seed, chunk index), so any round can be queried in any
    order with identical results. `draws(t0, t1)` reads rounds t0..t1-1 from
    the same chunks at once.
    """

    def __init__(self, support: Sequence[CompetingBids], probabilities: Sequence[float], seed: int = 0):
        probs = np.asarray(probabilities, dtype=float)
        if len(support) == 0 or len(support) != probs.size:
            raise ValueError("support and probabilities must align")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be non-negative and sum to 1")
        supplies = {c.supply for c in support}
        if len(supplies) != 1:
            raise ValueError("all support vectors must have one supply")
        self.support = list(support)
        self.probabilities = probs
        self.seed = seed
        self._cum = np.cumsum(probs)
        self._indices = np.stack([c.indices for c in self.support])  # (S, supply)
        self._chunks: dict[int, np.ndarray] = {}

    @property
    def supply(self) -> int:
        return self.support[0].supply

    def _chunk(self, chunk_id: int) -> np.ndarray:
        cached = self._chunks.get(chunk_id)
        if cached is None:
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, chunk_id)))
            u = rng.random(_CHUNK)
            cached = np.searchsorted(self._cum, u, side="right")
            np.minimum(cached, len(self.support) - 1, out=cached)
            self._chunks[chunk_id] = cached
        return cached

    def pick(self, t: int) -> int:
        """Index into the support drawn for round t."""
        return int(self._chunk(t // _CHUNK)[t % _CHUNK])

    def draw(self, t: int) -> CompetingBids:
        return self.support[self.pick(t)]

    def draws(self, t0: int, t1: int) -> np.ndarray:
        """Grid indices of the bids of rounds t0..t1-1: a (t1 - t0, supply) int64 block.

        Row i is `draw(t0 + i).indices`; an empty range gives no rows.
        """
        chunks = range(t0 // _CHUNK, (t1 - 1) // _CHUNK + 1) if t1 > t0 else ()
        picks = [self._chunk(c)[max(t0 - c * _CHUNK, 0):t1 - c * _CHUNK] for c in chunks]
        return self._indices[np.concatenate(picks) if picks else []]


@dataclass(frozen=True)
class LowerBoundInstance:
    """Two-point stochastic family exhibiting the sqrt(T) regret barrier.

    The adversary bids either `low_vector` = (0,...,0, c,...,c) with M - k
    zeros followed by k entries of c, or `high_vector` = (c,...,c), where
    c = 2/3 and k = M/3. Variant F plays the low vector with probability
    1/2 + delta, variant G with 1/2 - delta; the bidder values every unit
    at 1 and wins every tie. Against F the best fixed bid is all zeros, and
    against G it is all c's, with a per-round gap of order M * delta.
    """

    demand: int
    delta: float
    variant: str
    seed: int = 0
    price: float = 2.0 / 3.0

    def __post_init__(self):
        if self.demand <= 0 or self.demand % 3 != 0:
            raise ValueError("demand must be a positive multiple of 3")
        if not (0.0 <= self.delta < 1.0 / 6.0):
            raise ValueError("delta must lie in [0, 1/6)")
        if self.variant not in ("F", "G"):
            raise ValueError("variant must be 'F' or 'G'")

    @property
    def zeros(self) -> int:
        """Number of zero entries in the low vector (M - k)."""
        return self.demand - self.demand // 3

    @property
    def low_probability(self) -> float:
        return 0.5 + self.delta if self.variant == "F" else 0.5 - self.delta

    def default_grid(self) -> BidGrid:
        return make_even_grid(4)  # {0, 1/3, 2/3, 1} contains the price 2/3

    def support_vectors(self, grid: BidGrid) -> tuple[CompetingBids, CompetingBids]:
        c_idx = grid.index_of(self.price)
        low = np.concatenate([
            np.zeros(self.zeros, dtype=np.int64),
            np.full(self.demand - self.zeros, c_idx, dtype=np.int64),
        ])
        high = np.full(self.demand, c_idx, dtype=np.int64)
        return CompetingBids(low, grid), CompetingBids(high, grid)

    def adversary(self, grid: Optional[BidGrid] = None) -> StochasticAdversary:
        grid = grid or self.default_grid()
        low, high = self.support_vectors(grid)
        p = self.low_probability
        return StochasticAdversary([low, high], [p, 1.0 - p], seed=self.seed)


def lower_bound_instance(demand: int, horizon: int, delta: Optional[float] = None,
                         variant: str = "F", seed: int = 0) -> LowerBoundInstance:
    """Construct the hard instance; delta defaults to 1/sqrt(horizon)."""
    if delta is None:
        delta = min(1.0 / math.sqrt(horizon), 1.0 / 6.0 - 1e-9)
    return LowerBoundInstance(demand=demand, delta=delta, variant=variant, seed=seed)
