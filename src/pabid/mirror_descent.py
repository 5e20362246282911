"""Online mirror descent over per-slot bid occupancy measures.

Sampling a monotone bid vector induces one probability vector per slot; the
set of per-slot marginal tables realizable this way is cut out by per-layer
simplex constraints plus stochastic dominance between consecutive layers
(deeper slots bid lower). Expected utility is linear in the marginals, so
online linear optimization applies directly: multiply by exponentiated
reward estimates and project back onto the polytope in unnormalized KL.

Bids are drawn straight from the marginals by the quantile (comonotone)
coupling: one uniform U per round, and b_m = F_m^{-1}(U) in every slot m.
Each slot's bid then has law q[m] exactly, and dominance makes the vector
non-increasing. No transition tensor is built; the regret analysis and the
bandit estimator read only q.

RNG contract: `OmdBidder` consumes exactly one uniform per round, whatever
the demand. It is a market group of one agent: `propose` returns a (1, M)
row and `observe` takes one allocation and, under full information, one
row of win thresholds.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import project_dual_ascent
from .auction import BidVector, ValuationProfile, trusted
from .exp_weights import FeedbackMode, estimator_offsets
from .grids import BidGrid

# Floor applied to marginals before dividing in the bandit reward estimate.
Q_FLOOR = 1e-12

DEFAULT_PROJECTION_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 200_000


@dataclass(frozen=True)
class OccupancyMeasure:
    """Per-slot probability vectors over the bid grid (rows index slots)."""

    probs: np.ndarray


@dataclass(frozen=True)
class Violation:
    kind: str  # "row_sum" | "dominance" | "negative"
    layer: int
    index: int
    magnitude: float


@dataclass(frozen=True)
class ProjectionResult:
    measure: OccupancyMeasure
    gap: float
    sweeps: int


class ProjectionError(RuntimeError):
    """The projection stopped with its certificate above tolerance (or NaN)."""

    def __init__(self, message: str, best: OccupancyMeasure, gap: float, sweeps: int):
        super().__init__(message)
        self.best = best
        self.gap = gap
        self.sweeps = sweeps


def q_membership(q: np.ndarray, tol: float = 1e-8) -> list[Violation]:
    """All simplex / dominance / nonnegativity violations; empty means member."""
    q = np.asarray(q, dtype=float)
    m_units, d = q.shape
    out: list[Violation] = []
    for m in range(m_units):
        err = abs(float(q[m].sum()) - 1.0)
        if err > tol:
            out.append(Violation("row_sum", m, -1, err))
    neg = np.argwhere(q < -tol)
    for m, j in neg:
        out.append(Violation("negative", int(m), int(j), float(-q[m, j])))
    for m in range(m_units - 1):
        gapv = np.cumsum(q[m])[:-1] - np.cumsum(q[m + 1])[:-1]
        for j in np.nonzero(gapv > tol)[0]:
            out.append(Violation("dominance", m, int(j), float(gapv[j])))
    return out


def unconstrained_step(q_prev: np.ndarray, reward_estimate: np.ndarray, eta: float) -> np.ndarray:
    """Elementwise multiplicative update q * exp(eta * reward estimate)."""
    return q_prev * np.exp(eta * np.asarray(reward_estimate, dtype=float))


def project_to_Q(
    q_tilde: np.ndarray,
    allowed: Optional[np.ndarray] = None,
    tol: float = DEFAULT_PROJECTION_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> ProjectionResult:
    """Unnormalized-KL projection onto the occupancy polytope.

    The returned certificate `gap` bounds the KKT residuals: layer-sum error,
    dominance violation, and complementary slackness of the dominance
    multipliers. Stationarity is exact by construction (the iterate is the
    dual-feasible exponential reweighting of the input).
    """
    q_tilde = np.asarray(q_tilde, dtype=float)
    if allowed is None:
        allowed = np.ones(q_tilde.shape, dtype=bool)
    if np.any(q_tilde[allowed] <= 0.0) or not np.all(np.isfinite(q_tilde[allowed])):
        raise ValueError("projection input must be finite and positive on feasible cells")
    if not np.all(allowed[:, 0]):
        raise ValueError("grid minimum must be feasible in every layer")
    return _project(q_tilde, allowed, tol, max_sweeps, "projection")


def _project(q_tilde: np.ndarray, allowed: np.ndarray, tol: float, max_sweeps: int,
             label: str) -> ProjectionResult:
    """Run the kernel and check its certificate; `label` opens the error message.

    The kernel is looked up as this module's global at call time, so a
    wrapper installed there (a tracer, a test) sees every projection.
    """
    q, _lam, _nu, sweeps, gap = project_dual_ascent(q_tilde, allowed, tol, max_sweeps)
    measure = OccupancyMeasure(q)
    if not gap <= tol:
        raise ProjectionError(
            f"{label} stopped at gap {gap:.3e} after {sweeps} sweeps (tol {tol:.1e})",
            best=measure, gap=float(gap), sweeps=int(sweeps),
        )
    return ProjectionResult(measure=measure, gap=float(gap), sweeps=int(sweeps))


def sample_from_marginals(q: np.ndarray, rng: np.random.Generator, grid: BidGrid) -> BidVector:
    """Draw a bid vector whose slot-m bid has law q[m], from one uniform U.

    b_m is the smallest index whose cumulative mass in row m exceeds U times
    the row total, which is always a cell of positive mass. The total is the
    cumulative sum's own last entry: U < 1 then keeps U * total below it in
    floating point, so the index never runs past the grid. A cumulative sum
    never decreases, so that index, the count of its entries <= U * total,
    is one `bisect_right`. Dominance (F_m <= F_{m+1}) makes the indices
    non-increasing; the running minimum absorbs the dominance slack that the
    projection's tolerance leaves, and changes nothing on an exact member.

    Consumes exactly one uniform per call.
    """
    u = rng.random()
    picks = [bisect.bisect_right(row, u * row[-1]) for row in q.cumsum(axis=1).tolist()]
    return trusted(BidVector, np.minimum.accumulate(picks), grid)


def omd_eta_schedule(mode: FeedbackMode, grid_size: int, horizon: int) -> float:
    """Rates from the mirror-descent regret analysis (M-free)."""
    if grid_size < 2 or horizon < 1:
        raise ValueError("grid size and horizon must be positive")
    if mode is FeedbackMode.FULL_INFO:
        return math.sqrt(math.log(grid_size) / horizon)
    return math.sqrt(math.log(grid_size) / (grid_size * horizon))


class OmdBidder:
    """Stateful mirror-descent learner for one run."""

    def __init__(
        self,
        valuation: ValuationProfile,
        grid: BidGrid,
        horizon: int,
        mode: FeedbackMode = FeedbackMode.BANDIT_IX,
        eta: Optional[float] = None,
        gamma: Optional[float] = None,
        seed: int = 0,
    ):
        self.valuation = valuation
        self.valuations = [valuation]
        self.grid = grid
        self.mode = mode
        self.eta = eta if eta is not None else omd_eta_schedule(mode, grid.count, horizon)
        self.allowed = np.ascontiguousarray(valuation.ir_mask(grid))
        self.gamma = estimator_offsets(mode, self.allowed, horizon, gamma)
        self.wants_full_info = mode is FeedbackMode.FULL_INFO
        self.rng = np.random.default_rng(seed)
        # Start from the marginals of "uniform over feasible successors": slot
        # 1 is uniform on its IR cells, and after bid b the next slot is
        # uniform on its IR cells at or below b (cumsum[b] of them).
        feasible = self.allowed.astype(float)
        self.q = np.empty_like(feasible)
        self.q[0] = feasible[0] / feasible[0].sum()
        for m in range(1, valuation.demand):
            spread = self.q[m - 1] / np.cumsum(feasible[m])
            self.q[m] = feasible[m] * np.cumsum(spread[::-1])[::-1]
        self._pending: Optional[np.ndarray] = None
        self.rounds = 0  # rounds observed so far; the next observe is this round index

    def propose(self) -> np.ndarray:
        """This round's bid, as a (1, M) array of grid indices."""
        self._pending = sample_from_marginals(self.q, self.rng, self.grid).indices
        return self._pending[None]

    def reward_estimate(self, allocation: int, thresholds: Optional[np.ndarray],
                        *_ignored) -> np.ndarray:
        """Per-cell reward estimate for the round just played.

        Under full information, the realized slot rewards: v_m - B_j on every
        feasible cell at or above slot m's win threshold. Under bandit
        feedback only the played cells are nonzero: the realized slot reward
        over max(q, Q_FLOOR) + gamma. Extra arguments (the former tie rule and
        bidder priority) are ignored.
        """
        v = self.valuation.values
        est = np.zeros(self.q.shape)
        if self.mode is FeedbackMode.FULL_INFO:
            if thresholds is None:
                raise ValueError("full-information feedback requires the win thresholds")
            _kernels.apply_slot_rewards(est, self.allowed, v, self.grid.values,
                                        np.asarray(thresholds))
            return est
        slots = np.arange(self.q.shape[0])
        j = self._pending
        w = np.where(slots < allocation, v - self.grid.values[j], 0.0)
        est[slots, j] = w / (np.maximum(self.q[slots, j], Q_FLOOR) + self.gamma)
        return est

    def observe(self, allocations, thresholds=None) -> None:
        """Take this agent's allocation and, under full information, its thresholds."""
        if self._pending is None:
            raise RuntimeError("observe called before propose")
        est = self.reward_estimate(allocations[0], None if thresholds is None else thresholds[0])
        q_tilde = unconstrained_step(self.q, est, self.eta)
        # project_to_Q's input checks hold by construction here, so skip them
        result = _project(q_tilde, self.allowed, DEFAULT_PROJECTION_TOL, DEFAULT_MAX_SWEEPS,
                          f"projection in round {self.rounds}")
        self.q = result.measure.probs
        self._pending = None
        self.rounds += 1
