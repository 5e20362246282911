"""Correctness gate: checks one finished replication, outside the timed region."""
from __future__ import annotations

import numpy as np

# Slack for float comparisons: the welfare identity sums a handful of floats
# per round, and bids are compared with valuations up to the grid's own slack.
IDENTITY_TOL = 1e-9
VALUE_TOL = 1e-12


def check_replication(market, log, metrics) -> list[str]:
    """Every violated certificate of one replication; empty means it passed.

    Checks replay, the welfare = utility + revenue identity (market_metrics
    against the logged utilities), monotone and individually rational logged
    bids, allocations within supply, and, for learners that keep per-slot
    marginals, membership in the occupancy polytope.
    """
    from pabid.mirror_descent import q_membership

    problems = []
    if not log.replay_matches():
        problems.append("replay_matches: re-settling the logged bids disagrees with the log")
    residual = np.abs(log.utilities.sum(axis=1) + metrics.revenue - metrics.welfare)
    if residual.size and residual.max() > IDENTITY_TOL:
        problems.append(f"welfare identity: residual {residual.max():.3e} "
                        f"at round {int(residual.argmax())}")
    for n, bids in enumerate(log.bids):
        if np.any(np.diff(bids, axis=1) > 0):
            problems.append(f"agent {n}: a logged bid is not non-increasing")
        if np.any(log.grid.values[bids] > log.valuations[n].values + VALUE_TOL):
            problems.append(f"agent {n}: a logged bid exceeds its valuation")
    if np.any(log.allocations < 0) or np.any(log.allocations.sum(axis=1) > log.supply):
        problems.append("allocation: a round grants a negative count or more than the supply")
    for n, learner in enumerate(market.learners):
        q = getattr(learner, "q", None)
        if q is not None:
            violations = q_membership(q)
            if violations:
                problems.append(f"agent {n}: final marginals leave the occupancy polytope "
                                f"({violations[0]})")
    return problems
