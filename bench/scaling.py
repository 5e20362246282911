"""Kernel scaling block of the traced run: per-call cost against M and D.

The EW wrappers are timed at the fixed points of the ROADMAP plus two
off-diagonal points, (3, 201) and (50, 11), so that cost can be regressed on
log M and log D separately; the paper claims O(M*D) per round, which is a
slope of 1 in each. The OMD projection and policy recovery are timed at the
two smaller points only, on inputs built the way `OmdBidder` builds them.
"Cells" are computed from the array shapes, not measured.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

EW_POINTS = ((3, 11), (5, 21), (20, 101), (50, 201), (3, 201), (50, 11))
OMD_POINTS = ((3, 11), (5, 21))
EW_FUNCTIONS = ("compute_partial_sums", "sample_bid", "slot_marginals", "full_info_update")
CALL_BUDGET_S = 0.05


def median_call_seconds(fn) -> float:
    """Median of at least 3 and at most 200 calls, stopping after the budget."""
    samples = []
    spent = 0.0
    while len(samples) < 3 or (spent < CALL_BUDGET_S and len(samples) < 200):
        start = perf_counter()
        fn()
        elapsed = perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
    samples.sort()
    return samples[len(samples) // 2]


def _ew_calls(m: int, d: int, rng):
    from pabid import exp_weights as ew
    from pabid.auction import CompetingBids, ValuationProfile
    from pabid.grids import make_even_grid
    from pabid.hindsight import NodeWeightTable

    grid = make_even_grid(d)
    valuation = ValuationProfile(np.ones(m))
    table = NodeWeightTable(rng.random((m, d)) * 10.0, valuation.ir_mask(grid), grid, valuation)
    eta = ew.eta_schedule(ew.FeedbackMode.FULL_INFO, m, d, 1000)
    partial = ew.compute_partial_sums(table, eta)
    competing = CompetingBids(np.sort(rng.integers(0, d, m)), grid)
    sample_rng = np.random.default_rng(0)
    return {
        "compute_partial_sums": lambda: ew.compute_partial_sums(table, eta),
        "sample_bid": lambda: ew.sample_bid(partial, sample_rng),
        "slot_marginals": lambda: ew.slot_marginals(partial),
        "full_info_update": lambda: ew.full_info_update(table, competing),
    }


def _omd_calls(m: int, d: int, seed: int):
    from pabid import mirror_descent as md
    from pabid.auction import ValuationProfile
    from pabid.exp_weights import FeedbackMode
    from pabid.grids import make_even_grid

    bidder = md.OmdBidder(ValuationProfile(np.ones(m)), make_even_grid(d), 100,
                          mode=FeedbackMode.BANDIT_IX, seed=seed)
    bidder.propose()
    estimate = bidder.reward_estimate(m, None, None, None)  # every slot won
    q_tilde = md.unconstrained_step(bidder.q, estimate, bidder.eta)
    projected = md.project_to_Q(q_tilde, bidder.allowed)
    calls = {"project_to_Q": lambda: md.project_to_Q(q_tilde, bidder.allowed),
             "recover_policy": lambda: md.recover_policy(projected.measure.probs)}
    return calls, projected.sweeps


def projection_cells(m: int, d: int, sweeps: int) -> int:
    # per sweep: row sums and scaling (2*M*D), then for each of the D-1
    # dominance halfspaces j of each layer pair, prefix sums over two rows and
    # their rescaling (4*(j+1) cells), which totals 2*D*(D-1) per pair
    return sweeps * (2 * m * d + (m - 1) * d * (d - 1) * 2)


def slopes(points, costs) -> tuple[float, float]:
    """Least-squares exponents (a, b) of cost ~ M^a * D^b."""
    x = np.array([[1.0, math.log(m), math.log(d)] for m, d in points])
    coef, *_ = np.linalg.lstsq(x, np.log(np.asarray(costs)), rcond=None)
    return float(coef[1]), float(coef[2])


def scaling_block(seed: int) -> dict:
    """Per-call costs (us), computed cells and fitted slopes.

    A block whose functions a later commit removed is skipped and named in
    `absent` instead of failing the run.
    """
    rng = np.random.default_rng(seed)
    out = {"ew": {}, "omd": {}, "slopes": {}, "absent": []}
    try:
        for m, d in EW_POINTS:
            calls = _ew_calls(m, d, rng)
            for name in EW_FUNCTIONS:
                out["ew"].setdefault(name, []).append({
                    "M": m, "D": d, "us": median_call_seconds(calls[name]) * 1e6,
                    "cells_computed": m * d})
    except AttributeError as err:
        out["ew"] = {}
        out["absent"].append(f"exp_weights: {err}")
    for name, rows in out["ew"].items():
        out["slopes"][name] = slopes([(r["M"], r["D"]) for r in rows], [r["us"] for r in rows])
    try:
        for m, d in OMD_POINTS:
            calls, sweeps = _omd_calls(m, d, seed)
            out["omd"].setdefault("project_to_Q", []).append({
                "M": m, "D": d, "us": median_call_seconds(calls["project_to_Q"]) * 1e6,
                "sweeps": sweeps, "cells_computed": projection_cells(m, d, sweeps)})
            out["omd"].setdefault("recover_policy", []).append({
                "M": m, "D": d, "us": median_call_seconds(calls["recover_policy"]) * 1e6,
                "cells_computed": (m - 1) * d * d})
    except AttributeError as err:
        out["omd"] = {}
        out["absent"].append(f"mirror_descent: {err}")
    return out
