"""Calibrated timing: program time divided by the time of a fixed reference block.

On a shared host a core can switch between a fast and a slow state many
times a second, in a proportion that drifts over tens of seconds and
minutes, so a raw time measures the host as much as the program. An
untraced replication therefore runs a fixed reference block, which uses
no pabid code, before and after each phase and, inside `play`, at the start
of a round once `CHUNK_S` of rounds have passed since the last block. Each
stretch of program time between two blocks is divided by the mean time of
those two blocks and multiplied by `REFERENCE_S`: the result is the time the
stretch would take on a host where the reference block takes `REFERENCE_S`.

The block does what pabid's hot paths do without numba: scalar loops over
a numpy array with `np.exp`/`np.log1p` on numpy scalars, and sorting of
small lists of tuples. Of the mixes tried next to each workload, this one
tracked the host's speed best: over 60 s runs, the medians of 10 s windows
of calibrated time stayed within 3.2% of each other on every workload,
where the raw times ranged 18-47%.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 1.5e-3  # calibrated seconds per reference block
CHUNK_S = 0.05       # program seconds between reference blocks inside `play`

_RNG = np.random.default_rng(20230727)
_GRID = _RNG.random((5, 21))
_ENTRIES = [(int(i), r % 4) for r, i in enumerate(_RNG.integers(0, 21, 15))]


def reference_block() -> float:
    """A fixed mix of scalar numpy loops and tuple sorting."""
    total = 0.0
    for _ in range(8):
        for m in range(5):
            running = 0.0
            for j in range(21):
                running += _GRID[m, j]
                total += np.log1p(np.exp(-running))
    for _ in range(300):
        entries = sorted(_ENTRIES, reverse=True)[:5]
        entries.sort()
    return total


class Clock:
    """The reference blocks of one replication, as (start, end) pairs in order."""

    def __init__(self):
        self.blocks: list[tuple[float, float]] = []

    def reference(self) -> None:
        start = perf_counter()
        reference_block()
        self.blocks.append((start, perf_counter()))

    def hook_rounds(self, learner) -> None:
        """Run the reference block as a round starts, once `CHUNK_S` has passed."""
        propose = learner.propose
        blocks = self.blocks

        def calibrating(*args, **kwargs):
            if perf_counter() - blocks[-1][1] >= CHUNK_S:
                self.reference()
            return propose(*args, **kwargs)

        learner.propose = calibrating

    def phase(self, start: float, end: float) -> tuple[float, float]:
        """(raw, calibrated) seconds of the interval, less the blocks inside it.

        The interval must have a block ending before it and one starting after.
        """
        before = max(i for i, (_, e) in enumerate(self.blocks) if e <= start)
        after = min(i for i, (s, _) in enumerate(self.blocks) if s >= end)
        raw = calibrated = 0.0
        edge = start
        for i in range(before + 1, after + 1):
            block_start, _ = self.blocks[i]
            stretch = min(block_start, end) - edge
            reference = (self._duration(i - 1) + self._duration(i)) / 2
            raw += stretch
            calibrated += stretch * REFERENCE_S / reference
            edge = self.blocks[i][1]
        return raw, calibrated

    def _duration(self, i: int) -> float:
        start, end = self.blocks[i]
        return end - start

    def reference_seconds(self) -> list[float]:
        return [self._duration(i) for i in range(len(self.blocks))]
