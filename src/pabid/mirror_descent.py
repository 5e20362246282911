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
non-increasing. No transition tensor is built. A bandit round converts to
Python floats only the cells it probes or plays; whole tables stay in numpy.

RNG contract: `OmdBidder` consumes exactly one uniform per round, whatever
the demand. It is a market group of one agent: `propose` returns a list of
one row, M grid indices as Python ints, and `observe` takes one allocation
and, under full information, one row of win thresholds.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import project_dual_ascent
from .auction import ValuationProfile
from .exp_weights import FeedbackMode, estimator_offsets
from .grids import BidGrid

# Floor applied to marginals before dividing in the bandit reward estimate.
Q_FLOOR = 1e-12

DEFAULT_PROJECTION_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 5_000  # the check plus Newton steps
MAX_PLAIN_EXPONENT = 700.0  # largest unshifted exponent of a step; exp(709.8) overflows


@dataclass(frozen=True)
class Violation:
    kind: str  # "row_sum" | "dominance" | "negative"
    layer: int
    index: int
    magnitude: float


class ProjectionError(RuntimeError):
    """The projection stopped with its certificate above tolerance (or NaN),
    at its step bound or where no Newton step ascends; `best` is the (M, D)
    iterate it stopped at and `sweeps` the check plus the steps it took."""

    def __init__(self, message: str, best: np.ndarray, gap: float, sweeps: int):
        super().__init__(message)
        self.best = best
        self.gap = gap
        self.sweeps = sweeps

    def __reduce__(self):  # crosses the process boundary of `pabid run --jobs`
        return type(self), (str(self), self.best, self.gap, self.sweeps)


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
    """Elementwise multiplicative update q * exp(eta * reward estimate), up to row scales.

    Where an exponent exceeds `MAX_PLAIN_EXPONENT`, each row is exp(log q +
    eta * estimate - its maximum) instead, which cannot overflow or vanish;
    the projection absorbs a row's scale into nu.
    """
    exponent = eta * np.asarray(reward_estimate, dtype=float)
    if exponent.max() <= MAX_PLAIN_EXPONENT:
        return q_prev * np.exp(exponent)
    with np.errstate(divide="ignore"):  # IR-masked cells hold q = 0
        logs = np.log(q_prev) + exponent
    return np.exp(logs - logs.max(axis=1, keepdims=True))


def _project(q_tilde: np.ndarray, allowed: np.ndarray, tol: float, max_sweeps: int) -> np.ndarray:
    """Unnormalized-KL projection onto the occupancy polytope, certified.

    The kernel's `gap` bounds the KKT residuals: layer-sum error, dominance
    violation, and complementary slackness of the dominance multipliers.
    Stationarity is exact by construction (the iterate is the dual-feasible
    exponential reweighting of the input). `max_sweeps` bounds the kernel's
    lambda = 0 check plus its Newton steps. Returns the (M, D) iterate, or
    raises `ProjectionError` when the gap exceeds `tol`; the run loop names
    the agent and the round.

    The kernel is looked up as this module's global at call time, so a
    wrapper installed there (a tracer, a test) sees every projection.
    """
    q, _lam, _nu, sweeps, gap = project_dual_ascent(q_tilde, allowed, tol, max_sweeps)
    if not gap <= tol:
        raise ProjectionError(
            f"projection stopped at gap {gap:.3e} after {sweeps} sweeps (tol {tol:.1e})",
            best=q, gap=float(gap), sweeps=int(sweeps),
        )
    return q


def sample_from_marginals(q: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Grid indices (a list) of a bid vector whose slot-m bid has law q[m], from one uniform U.

    b_m is the smallest index whose cumulative mass in row m exceeds U times
    the row total, which is always a cell of positive mass. The total is the
    cumulative sum's own last entry: U < 1 then keeps U * total below it in
    floating point, so the index never runs past the grid. A cumulative sum
    never decreases, so that index is one `bisect_right` of the row, through
    a flat memoryview that converts only the cells it probes. Dominance makes
    the indices non-increasing; bisecting each row below the previous pick
    takes their running minimum, which absorbs the dominance slack that the
    projection's tolerance leaves, and changes nothing on an exact member.

    Consumes exactly one uniform per call.
    """
    u, d = rng.random(), q.shape[1]
    cells = np.add.accumulate(q, axis=1).reshape(-1).data
    picks, pick = [], d
    for start in range(0, len(cells), d):
        pick = bisect.bisect_right(cells, u * cells[start + d - 1], start, start + pick) - start
        picks.append(pick)
    return picks


def omd_eta_schedule(mode: FeedbackMode, grid_size: int, horizon: int) -> float:
    """Rates from the mirror-descent regret analysis (M-free)."""
    if grid_size < 2 or horizon < 1:
        raise ValueError("grid size and horizon must be positive")
    if mode is FeedbackMode.FULL_INFO:
        return math.sqrt(math.log(grid_size) / horizon)
    return math.sqrt(math.log(grid_size) / (grid_size * horizon))


class OmdBidder:
    """Stateful mirror-descent learner for one run. It starts from "uniform
    over feasible successors" (slot 1 uniform on its IR cells, each later slot
    uniform on its IR cells at or below the previous bid), whose marginals are
    EW's sampler's on the IR mask: `_kernels.marginal_recursion`."""

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
        self.valuations = [valuation]
        self.grid = grid
        self.mode = mode
        self.eta = eta if eta is not None else omd_eta_schedule(mode, grid.count, horizon)
        if not math.isfinite(self.eta):  # the bandit step's lost slots need eta * 0.0 == 0.0
            raise ValueError(f"eta must be finite, not {self.eta}")
        self.allowed = valuation.ir_mask(grid)
        self.gamma = estimator_offsets(mode, self.allowed, horizon, gamma)
        self.wants_full_info = mode is FeedbackMode.FULL_INFO
        if self.wants_full_info:
            self._rewards = _kernels.slot_rewards(self.allowed, valuation.values, grid.values)
        self.rng = np.random.default_rng(seed)
        feasible = self.allowed.astype(float)
        self.q = _kernels.marginal_recursion(feasible, np.cumsum(feasible, axis=1))
        self._values = valuation.values.tolist()
        self._bid_values = grid.values.tolist()
        self._offsets = self.gamma.tolist()
        self._pending: Optional[list] = None

    def propose(self) -> list[list[int]]:
        """This round's bid: one list of M grid indices, in a list."""
        self._pending = sample_from_marginals(self.q, self.rng)
        return [self._pending]

    def reward_estimate(self, allocation: Optional[int], thresholds: Optional[np.ndarray],
                        *_ignored) -> np.ndarray:
        """Per-cell reward estimate for the round just played.

        Under full information, one round's win counts times the slot rewards:
        v_m - B_j on every feasible cell at or above slot m's win threshold. Under bandit
        feedback only the won slots' played cells are nonzero (`_won_cells`). Extra
        arguments (the former tie rule and bidder priority) are ignored.
        """
        est = np.zeros(self.q.shape)
        if self.wants_full_info:
            if thresholds is None:
                raise ValueError("full-information feedback requires the win thresholds")
            _kernels.apply_slot_rewards(est, np.asarray(thresholds))
            return est * self._rewards
        est[range(allocation), self._pending[:allocation]] = self._won_cells(allocation)[2]
        return est

    def _won_cells(self, allocation: int) -> tuple[list, list, list]:
        """The won slots' played columns, q there and their bandit estimates, as Python values.

        Slot m < allocation won, and its estimate is its realized reward v_m - B_j
        over max(q, Q_FLOOR) + gamma (a lost slot's is 0); Python's float
        arithmetic gives the bits numpy's elementwise arithmetic would.
        """
        columns = self._pending[:allocation]
        played = [self.q.item(m, j) for m, j in enumerate(columns)]
        estimates = [(value - self._bid_values[j]) / (max(q, Q_FLOOR) + gamma)
                     for value, j, q, gamma in zip(self._values, columns, played, self._offsets)]
        return columns, played, estimates

    def observe(self, allocations, thresholds=None) -> None:
        """Take this agent's allocation, or under full information its thresholds."""
        if self._pending is None:
            raise RuntimeError("observe called before propose")
        if self.wants_full_info:
            est = self.reward_estimate(None, None if thresholds is None else thresholds[0])
            q_tilde = unconstrained_step(self.q, est, self.eta)
        else:
            q_tilde = self._bandit_step(allocations[0])
        self.q = _project(q_tilde, self.allowed, DEFAULT_PROJECTION_TOL, DEFAULT_MAX_SWEEPS)
        self._pending = None

    def _bandit_step(self, allocation: int) -> np.ndarray:
        """`unconstrained_step` on the bandit estimate, exponentiating the won cells only.

        Every other cell has estimate 0 and eta is finite, so its factor is
        exp(0) = 1 exactly: multiplying the won cells of a copy of q by their
        `np.exp` gives the dense step's bits, and nothing won is a plain copy.
        A step that needs the shift (or meets a NaN) is the dense one.
        """
        if not allocation:
            return self.q.copy()
        columns, played, estimates = self._won_cells(allocation)
        exponents = [self.eta * est for est in estimates]
        if not all(x <= MAX_PLAIN_EXPONENT for x in exponents):
            return unconstrained_step(self.q, self.reward_estimate(allocation, None), self.eta)
        q_tilde = self.q.copy()
        for m, (j, q, factor) in enumerate(zip(columns, played, np.exp(exponents).tolist())):
            q_tilde[m, j] = q * factor
        return q_tilde
