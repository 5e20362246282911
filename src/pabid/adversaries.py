"""Environments that supply competing bids.

An exogenous environment is a distribution over a finite table of rows of
competing bids: `StochasticAdversary(rows, probabilities, seed)` draws row s
with probability `probabilities[s]`, independently every round. The family
that exhibits the sqrt(T) learning barrier is a two-row table
(`lower_bound_rows`). Self-play markets, where every rival is itself a
learner, need no environment (`simulator.SelfPlayMarket`).

The environment is oblivious: the row of round t is a pure function of
(seed, t), drawn in chunk t // ENV_BLOCK from `SeedSequence((seed, chunk))`.
`draws(t0, t1)` gives rounds t0..t1-1 as one (t1 - t0, supply) array of grid
indices, and `SelfPlayMarket.play` reads blocks of ENV_BLOCK rounds, so each
chunk is drawn once.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .grids import BidGrid

# Rounds per chunk of draws, and per block of environment bids `play` reads.
ENV_BLOCK = 4096


class StochasticAdversary:
    """I.i.d. draws of the rows of an (S, supply) table of competing bids.

    Each row holds non-negative, non-decreasing grid indices. Round t draws
    the (t % ENV_BLOCK)-th uniform of chunk t // ENV_BLOCK's stream and maps
    it through the cumulative probabilities, so any range of rounds can be
    read in any order with identical results.
    """

    def __init__(self, rows, probabilities, seed: int = 0):
        rows = np.asarray(rows, dtype=np.int64)
        probs = np.asarray(probabilities, dtype=float)
        if rows.ndim != 2 or rows.size == 0 or probs.shape != (len(rows),):
            raise ValueError("rows must be a non-empty (S, supply) table, one probability per row")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
            raise ValueError("probabilities must be non-negative and sum to 1")
        if rows.min() < 0 or np.any(rows[:, 1:] < rows[:, :-1]):
            raise ValueError("rows must hold non-negative, non-decreasing grid indices")
        self.rows = rows
        self.seed = seed
        self._cum = np.cumsum(probs)

    @property
    def supply(self) -> int:
        return self.rows.shape[1]

    def draws(self, t0: int, t1: int) -> np.ndarray:
        """Grid indices of the bids of rounds t0..t1-1: a (t1 - t0, supply) int64 block.

        Each chunk the range touches is drawn afresh; an empty range gives no rows.
        """
        picks = [np.empty(0, dtype=np.int64)]
        for c in range(t0 // ENV_BLOCK, (t1 - 1) // ENV_BLOCK + 1 if t1 > t0 else 0):
            u = np.random.default_rng(np.random.SeedSequence((self.seed, c))).random(ENV_BLOCK)
            start = c * ENV_BLOCK
            picks.append(np.searchsorted(self._cum, u[max(t0 - start, 0):t1 - start], side="right"))
        return self.rows[np.minimum(np.concatenate(picks), len(self.rows) - 1)]


def lower_bound_rows(demand: int, grid: BidGrid, horizon: int, delta: Optional[float] = None,
                     variant: str = "F") -> tuple[np.ndarray, np.ndarray]:
    """Rows and probabilities of the two-point family with the sqrt(T) regret barrier.

    The low row is M - k zeros followed by k entries of the price c = 2/3,
    k = M/3, and the high row is M entries of c, as grid indices. Variant F
    plays the low row with probability 1/2 + delta, variant G with
    1/2 - delta; delta defaults to 1/sqrt(horizon), kept below 1/6. Against
    a bidder that values every unit at 1 and wins every tie, the best fixed
    bid is all zeros under F and all c's under G, with a per-round gap of
    order M * delta.
    """
    if delta is None:
        delta = min(1.0 / math.sqrt(horizon), 1.0 / 6.0 - 1e-9)
    if demand <= 0 or demand % 3 != 0:
        raise ValueError("demand must be a positive multiple of 3")
    if not (0.0 <= delta < 1.0 / 6.0):
        raise ValueError("delta must lie in [0, 1/6)")
    if variant not in ("F", "G"):
        raise ValueError("variant must be 'F' or 'G'")
    rows = np.full((2, demand), grid.index_of(2.0 / 3.0), dtype=np.int64)
    rows[0, :demand - demand // 3] = 0
    low = 0.5 + delta if variant == "F" else 0.5 - delta
    return rows, np.array([low, 1.0 - low])
