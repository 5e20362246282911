"""Discretized bid spaces.

Bids live on a finite grid of values in [0, 1]. Everything downstream
identifies a bid by its integer grid index, so equality and ordering are
exact integer comparisons; the float values are only consulted when
computing utilities.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Slack used when comparing float bid values against float valuations.
VALUE_EPS = 1e-12


@dataclass(frozen=True)
class BidGrid:
    """Strictly increasing grid of allowed bid values spanning [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("bid grid needs at least two values")
        if not np.all(np.diff(values) > 0):
            raise ValueError("bid grid values must be strictly increasing")
        if values[0] != 0.0 or values[-1] != 1.0:
            raise ValueError("bid grid must start at 0 and end at 1")

    @property
    def count(self) -> int:
        return int(self.values.size)

    def index_of(self, value: float) -> int:
        """Exact grid index of `value`; raises if not a grid point."""
        return int(self.indices_of([value])[0])

    def indices_of(self, values) -> np.ndarray:
        """Exact grid indices of an array of values; raises on the first off the grid.

        Each value maps to its nearest grid point (the lower one at a
        midpoint), which must lie within VALUE_EPS of it.
        """
        values = np.asarray(values, dtype=float)
        grid = self.values
        idx = np.searchsorted(0.5 * (grid[1:] + grid[:-1]), values)
        off = ~(np.abs(grid[idx] - values) <= VALUE_EPS)  # NaN is off the grid
        if off.any():
            raise ValueError(f"{values[off][0]} is not a grid value")
        return idx.astype(np.int64)


@functools.cache
def make_even_grid(count: int) -> BidGrid:
    """Evenly spaced grid {i/(count-1)} for i = 0..count-1.

    Memoized on `count`: every caller in a process shares one grid per size,
    and its `values` are read-only so no caller can change another's grid.
    """
    if count < 2:
        raise ValueError("grid size must be at least 2")
    values = np.linspace(0.0, 1.0, count)
    values.flags.writeable = False
    return BidGrid(values)
