"""Unnormalized-KL projection onto the occupancy polytope."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabid import _kernels
from pabid._kernels import apply_slot_rewards, project_dual_ascent, slot_rewards
from pabid.auction import ValuationProfile
from pabid.exp_weights import FeedbackMode, estimator_offsets
from pabid.grids import make_even_grid
from pabid.mirror_descent import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_PROJECTION_TOL,
    MAX_PLAIN_EXPONENT,
    ProjectionError,
    _project,
    omd_eta_schedule,
    q_membership,
    unconstrained_step,
)

from conftest import assert_same_optimum, member_on, random_q_member, support_has_member
from oracles import sweep_dual_ascent, unnormalized_kl


def textbook_dual_ascent(qt, allowed, tol, max_sweeps):
    """The coordinate-ascent sequence by its definition, O(M*D^2) per sweep.

    Per sweep: normalize every row, then visit the dominance constraints
    (pairs and j forward on even sweeps, backward on odd ones), recomputing
    both prefix sums from scratch for each and rescaling both prefixes cell
    by cell after each update. Returns (q, lam, nu, sweeps, gap).
    """
    m_units, d = qt.shape
    q = np.where(allowed, qt, 0.0)
    lam = np.zeros((max(m_units - 1, 1), max(d - 1, 1)))
    nu = np.zeros(m_units)
    gap = math.inf
    for sweep in range(max_sweeps):
        for m in range(m_units):
            s = math.fsum(q[m])
            q[m] /= s
            nu[m] -= math.log(s)
        order = range(m_units - 1) if sweep % 2 == 0 else range(m_units - 2, -1, -1)
        for m in order:
            for j in (range(d - 1) if sweep % 2 == 0 else range(d - 2, -1, -1)):
                shallow = math.fsum(q[m, : j + 1])
                deep = math.fsum(q[m + 1, : j + 1])
                if shallow <= 0.0:
                    delta = -lam[m, j]
                elif deep <= 0.0:
                    continue
                else:
                    delta = max(0.5 * math.log(shallow / deep), -lam[m, j])
                lam[m, j] += delta
                for k in range(j + 1):
                    q[m + 1, k] *= math.exp(delta)
                    q[m, k] *= math.exp(-delta)
        gap = max(abs(math.fsum(q[m]) - 1.0) for m in range(m_units))
        for m in range(m_units - 1):
            for j in range(d - 1):
                excess = math.fsum(q[m, : j + 1]) - math.fsum(q[m + 1, : j + 1])
                gap = max(gap, excess, abs(lam[m, j] * excess))
        if gap <= tol:
            return q, lam, nu, sweep + 1, gap
    return q, lam, nu, max_sweeps, gap


def kernel_parity_cases():
    """(qt, allowed): random, point-mass, 1e-12-tail, IR-masked and tiny inputs."""
    rng = np.random.default_rng(20230727)
    cases = []
    for _ in range(12):
        m, d = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        cases.append((rng.uniform(0.01, 2.0, size=(m, d)), np.ones((m, d), bool)))
    for _ in range(8):  # point-mass rows, with dominance either met or broken
        m, d = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        qt = np.zeros((m, d))
        qt[np.arange(m), rng.integers(0, d, size=m)] = 1.0
        cases.append((qt, np.ones((m, d), bool)))
    for _ in range(8):  # 1e-12 tails
        m, d = int(rng.integers(2, 5)), int(rng.integers(3, 9))
        qt = rng.uniform(0.01, 2.0, size=(m, d))
        qt[rng.random((m, d)) < 0.4] *= 1e-12
        cases.append((qt, np.ones((m, d), bool)))
    for _ in range(8):  # IR-masked layers
        m, d = int(rng.integers(2, 5)), int(rng.integers(3, 9))
        valuation = ValuationProfile(np.sort(rng.random(m))[::-1])
        cases.append((rng.uniform(0.01, 2.0, size=(m, d)), valuation.ir_mask(make_even_grid(d))))
    cases.append((np.array([[0.3, 1.7]]), np.ones((1, 2), bool)))
    cases.append((np.array([[0.9, 0.1], [0.1, 0.9]]), np.ones((2, 2), bool)))
    return cases


def best_on_grid_d2(raw: np.ndarray, step: float = 1e-3):
    """Exhaustive unnormalized-KL minimization over every feasible point of a
    `step`-spaced grid for the M=2, D=2 polytope (q2(low) >= q1(low)).

    Vectorized closed form of D(q || raw) over the (p, r) mesh.
    """
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    p, r = np.meshgrid(ticks, ticks, indexing="ij")

    def cell(x, ref):
        out = np.where(x > 0, x * (np.log(np.maximum(x, 1e-300)) - np.log(ref)), 0.0)
        return out - x + ref

    value = (cell(p, raw[0, 0]) + cell(1 - p, raw[0, 1])
             + cell(r, raw[1, 0]) + cell(1 - r, raw[1, 1]))
    value = np.where(r >= p - 1e-12, value, np.inf)
    flat = int(np.argmin(value))
    i, j = np.unravel_index(flat, value.shape)
    best = np.array([[ticks[i], 1 - ticks[i]], [ticks[j], 1 - ticks[j]]])
    return float(value[i, j]), best


def project(raw, allowed=None, tol=DEFAULT_PROJECTION_TOL, max_sweeps=DEFAULT_MAX_SWEEPS):
    """`OmdBidder`'s certified projection of `raw` and the kernel's gap there."""
    allowed = np.ones(raw.shape, bool) if allowed is None else allowed
    q = _project(raw, allowed, tol, max_sweeps)
    return q, project_dual_ascent(raw, allowed, tol, max_sweeps)[4]


class TestProjectToQ:
    def test_member_is_fixed_point(self, rng):
        for _ in range(20):
            q = random_q_member(rng, 3, 5)
            projected, gap = project(q.copy())
            assert np.allclose(projected, q, atol=1e-12)
            assert gap <= 1e-8

    def test_single_layer_is_normalization(self, rng):
        raw = rng.uniform(0.2, 2.0, size=(1, 6))
        projected, _ = project(raw)
        assert np.allclose(projected, raw / raw.sum(), atol=1e-12)

    def test_output_is_member_and_kkt_certified(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 5))
            d = int(rng.integers(2, 8))
            raw = rng.uniform(0.01, 2.0, size=(m, d))
            projected, gap = project(raw, tol=1e-10)
            assert gap <= 1e-10
            assert q_membership(projected, tol=1e-8) == []

    def test_matches_exhaustive_grid_search_d2(self, rng):
        for _ in range(10):
            raw = rng.uniform(0.05, 2.0, size=(2, 2))
            projected, _ = project(raw, tol=1e-12)
            mine = unnormalized_kl(projected, raw)
            best_value, best = best_on_grid_d2(raw, 1e-3)
            assert mine <= best_value + 1e-9
            assert np.max(np.abs(projected - best)) <= 5e-3

    def test_beats_random_feasible_points(self, rng):
        for _ in range(10):
            raw = rng.uniform(0.02, 1.5, size=(3, 5))
            projected, _ = project(raw, tol=1e-11)
            mine = unnormalized_kl(projected, raw)
            for _ in range(300):
                other = random_q_member(rng, 3, 5)
                assert unnormalized_kl(other, raw) >= mine - 1e-9

    def test_respects_ir_mask(self, rng):
        allowed = np.array([
            [True, True, True, True],
            [True, True, False, False],
        ])
        raw = rng.uniform(0.1, 1.0, size=(2, 4))
        projected, _ = project(raw, allowed=allowed)
        assert np.all(projected[~allowed] == 0.0)
        assert q_membership(projected, tol=1e-8) == []

    def test_nonconvergence_carries_best_iterate(self):
        raw = np.array([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(ProjectionError) as excinfo:
            project(raw, tol=1e-12, max_sweeps=1)
        assert excinfo.value.best.shape == raw.shape
        assert excinfo.value.gap > 1e-12
        assert excinfo.value.sweeps == 1
        assert str(excinfo.value) == (
            f"projection stopped at gap {excinfo.value.gap:.3e} after 1 sweeps (tol 1.0e-12)")


class TestSweepOracleMatchesDefinition:
    """`oracles.sweep_dual_ascent`, the kernel's frozen reference, is the coordinate ascent."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-11])
    def test_same_iterate_multipliers_and_sweeps(self, tol):
        for qt, allowed in kernel_parity_cases():
            q, lam, _nu, sweeps, _gap = sweep_dual_ascent(qt, allowed, tol, 300)
            ref_q, ref_lam, _, ref_sweeps, _ = textbook_dual_ascent(qt, allowed, tol, 300)
            assert sweeps == ref_sweeps
            assert np.max(np.abs(q - ref_q)) <= 1e-12
            assert np.max(np.abs(lam - ref_lam)) <= 1e-12


class TestKernelMatchesDefinition:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_iterate_stops_after_one_sweep(self):
        qt = np.array([[np.inf, 1.0], [1.0, 1.0]])
        _q, _lam, _nu, sweeps, gap = project_dual_ascent(qt, np.ones((2, 2), bool), 1e-8, 1000)
        assert sweeps == 1 and math.isnan(gap)

    def test_input_is_not_modified(self, rng):
        qt = rng.uniform(0.1, 1.0, size=(3, 5))
        before = qt.copy()
        project_dual_ascent(qt, np.ones(qt.shape, bool), 1e-8, 100)
        assert np.array_equal(qt, before)


class TestExactOptimum:
    def test_objective_matches_slsqp_m3_d5(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(7)
        m_units, d = 3, 5
        for _ in range(5):
            # reversed row trends make the dominance constraints bind
            raw = rng.uniform(0.05, 2.0, size=(m_units, d)) * np.linspace(0.2, 2.0, d)
            raw[1:] = raw[1:, ::-1]
            projected, _ = project(raw, tol=1e-11)
            mine = unnormalized_kl(projected, raw)
            assert q_membership(projected, tol=1e-8) == []

            flat_raw = raw.ravel()

            def objective(x):
                return float(np.sum(x * np.log(x / flat_raw) - x + flat_raw))

            def gradient(x):
                return np.log(x / flat_raw)

            def dominance(x):
                prefix = np.cumsum(x.reshape(m_units, d), axis=1)[:, :-1]
                return (prefix[1:] - prefix[:-1]).ravel()

            constraints = [
                {"type": "eq", "fun": lambda x: x.reshape(m_units, d).sum(axis=1) - 1.0},
                {"type": "ineq", "fun": dominance},
            ]
            start = np.full(m_units * d, 1.0 / d)
            best = optimize.minimize(
                objective, start, jac=gradient, method="SLSQP", constraints=constraints,
                bounds=[(1e-12, 1.0)] * (m_units * d), options={"ftol": 1e-14, "maxiter": 500},
            )
            assert best.success, best.message
            assert mine <= best.fun + 1e-8


def omd_kernel_input(seed: int, demand: int, grid_size: int, horizon: int, ir: bool,
                     full_info: bool = False, eta_scale: float = 1.0, gamma=None):
    """A feasible member times exp(eta * reward estimate), with eta and gamma
    from OMD's own schedules: the input OMD hands the kernel each round.

    The estimate is bandit-IX's, nonzero only on a non-increasing played path,
    or under `full_info` the slot rewards at or above random win thresholds.
    `eta_scale` multiplies the scheduled rate, and `gamma` replaces the
    scheduled offsets, as a user-set eta and gamma would.
    """
    rng = np.random.default_rng(seed)
    values = np.sort(rng.random(demand))[::-1] if ir else np.ones(demand)
    grid = make_even_grid(grid_size)
    allowed = ValuationProfile(values).ir_mask(grid)
    q = member_on(rng, allowed)
    estimate = np.zeros_like(q)
    if full_info:
        eta = eta_scale * omd_eta_schedule(FeedbackMode.FULL_INFO, grid_size, horizon)
        thresholds = np.sort(rng.integers(0, grid_size + 1, size=demand))
        apply_slot_rewards(estimate, thresholds)
        estimate *= slot_rewards(allowed, values, grid.values)
        return unconstrained_step(q, estimate, eta), allowed
    eta = eta_scale * omd_eta_schedule(FeedbackMode.BANDIT_IX, grid_size, horizon)
    gamma = estimator_offsets(FeedbackMode.BANDIT_IX, allowed, horizon, gamma)
    cap = grid_size - 1
    won = int(rng.integers(0, demand + 1))
    for m in range(demand):
        j = int(rng.choice(np.nonzero(q[m, : cap + 1] > 0.0)[0]))
        cap = j
        if m < won:
            estimate[m, j] = rng.uniform(0.0, 1.0) / (max(q[m, j], 1e-12) + gamma[m])
    return unconstrained_step(q, estimate, eta), allowed


def one_violated_pair(m_units: int, pair: int, stuck: bool):
    """Rows 0..pair share one law and rows pair+1.. another that dominates it
    the wrong way, so only layer pair `pair` is violated; the rest have
    identical rows and zero excess. When `stuck`, the deep law has no mass
    below the shallow one's top cell, so no reweighting can meet dominance:
    the projection is infeasible."""
    shallow = np.array([0.5, 0.3, 0.1, 0.1, 0.0]) if stuck else np.array([0.4, 0.3, 0.2, 0.1, 0.05])
    deep = np.array([0.0, 0.0, 0.0, 0.0, 1.0]) if stuck else np.array([0.05, 0.1, 0.2, 0.3, 0.4])
    qt = np.vstack([shallow] * (pair + 1) + [deep] * (m_units - 1 - pair))
    return qt, qt > 0.0 if stuck else np.ones(qt.shape, bool)


class TestKernelMatchesSweepOracle:
    """The kernel certifies every feasible input, at the sweep oracle's optimum
    where that certifies."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-11])
    def test_parity_cases(self, tol):
        for qt, allowed in kernel_parity_cases():
            if support_has_member(qt, allowed):
                assert_same_optimum(project_dual_ascent(qt, allowed, tol, DEFAULT_MAX_SWEEPS),
                                    sweep_dual_ascent(qt, allowed, tol, 300), qt, allowed, tol)
            else:  # point masses that break dominance: no reweighting certifies
                assert project_dual_ascent(qt, allowed, tol, 300)[4] > tol

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_input(self):
        """No NaN certifies: a NaN cell stops both at once, wherever it sits."""
        for qt in ([[np.inf, 1.0], [1.0, 1.0]], [[1.0, 1.0], [np.nan, 1.0]],
                   [[1.0, np.nan], [1.0, 1.0]], [[1.0, 2.0, 3.0], [3.0, 2.0, np.nan]]):
            qt = np.array(qt)
            allowed = np.ones(qt.shape, bool)
            got = project_dual_ascent(qt, allowed, 1e-8, 1000)
            assert got[3] == 1 and math.isnan(got[4])
            assert math.isnan(sweep_dual_ascent(qt, allowed, 1e-8, 1000)[4])
            with pytest.raises(ProjectionError):
                _project(qt, allowed, 1e-8, 1000)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), demand=st.integers(1, 6),
           grid_size=st.integers(2, 41), horizon=st.integers(1, 10_000),
           full_info=st.booleans(), eta_scale=st.sampled_from([1.0, 10.0, 100.0]))
    def test_omd_inputs(self, seed, demand, grid_size, horizon, full_info, eta_scale):
        # a scaled eta makes the multi-step projections that the schedule rarely does
        qt, allowed = omd_kernel_input(seed, demand, grid_size, horizon, True, full_info,
                                       eta_scale)
        tol = DEFAULT_PROJECTION_TOL
        assert_same_optimum(project_dual_ascent(qt, allowed, tol, DEFAULT_MAX_SWEEPS),
                            sweep_dual_ascent(qt, allowed, tol, 2_000), qt, allowed, tol)

    @pytest.mark.parametrize("stuck", [False, True])
    @pytest.mark.parametrize("m_units,pair", [(2, 0), (3, 0), (3, 1), (5, 0), (5, 2), (5, 3)])
    def test_one_violated_pair(self, m_units, pair, stuck):
        qt, allowed = one_violated_pair(m_units, pair, stuck)
        got = project_dual_ascent(qt, allowed, 1e-10, 500)
        assert support_has_member(qt, allowed) != stuck
        if stuck:
            assert got[4] > 1e-10
        else:
            assert_same_optimum(got, sweep_dual_ascent(qt, allowed, 1e-10, 500), qt, allowed, 1e-10)
            assert got[3] > 1

    def test_member_takes_the_table_path(self):
        rng = np.random.default_rng(5)
        for m_units, d in ((2, 3), (5, 21), (6, 41)):
            q = member_on(rng, np.ones((m_units, d), bool))
            _q, lam, _nu, sweeps, gap = project_dual_ascent(q, np.ones(q.shape, bool),
                                                            DEFAULT_PROJECTION_TOL, 100)
            assert sweeps == 1 and gap <= DEFAULT_PROJECTION_TOL and not lam.any()


class TestNewtonSteps:
    """Inputs that stalled the coordinate ascent, and the safeguards of a projected Newton step."""

    def test_round_zero_stall_meets_its_closed_form(self):
        # grid_size 3, supply 4, bandit-IX, eta 30.57: round 0's step, zero cells IR-masked
        qt = np.array([[3.184780612795286e17, 0.5, 0.0], [0.75, 0.25, 0.0], [1.0, 0.0, 0.0]])
        tol = DEFAULT_PROJECTION_TOL
        q, _lam, _nu, _sweeps, gap = project_dual_ascent(qt, qt > 0.0, tol, DEFAULT_MAX_SWEEPS)
        eps = 1.0 / (1.0 + math.sqrt(qt[0, 0] * qt[1, 0] / (qt[0, 1] * qt[1, 1])))
        assert eps == pytest.approx(7.234e-10, rel=1e-4)
        assert gap <= tol and q_membership(q, tol=tol) == []
        assert np.max(np.abs(q[:2] - [1.0 - eps, eps, 0.0])) <= 1e-10
        assert q[2].tolist() == [1.0, 0.0, 0.0]

    def test_a_step_moves_no_multiplier_by_more_than_its_bound(self):
        qt = np.array([[3.184780612795286e17, 0.5, 0.0], [0.75, 0.25, 0.0], [1.0, 0.0, 0.0]])
        for steps in range(1, 6):  # the check, then steps - 1 Newton steps
            lam = project_dual_ascent(qt, qt > 0.0, DEFAULT_PROJECTION_TOL, steps)[1]
            assert lam.max() <= _kernels._MAX_STEP * (steps - 1)
        qt, allowed = one_violated_pair(3, 1, stuck=True)
        lam = project_dual_ascent(qt, allowed, 1e-10, 2)[1]
        assert lam.max() == _kernels._MAX_STEP  # an unbounded dual: the bound binds

    def test_a_step_applies_the_hessian_at_most_its_bound(self, monkeypatch):
        """Conjugate gradients stop at `_CG_ITERATIONS` products, however many of
        the 1,900 multipliers are free, so a step costs O(M*D) and a round that
        cannot certify costs O(max_sweeps * M * D)."""
        products = []
        curvature = _kernels._curvature
        monkeypatch.setattr(_kernels, "_curvature",
                            lambda q, v: products.append(1) or curvature(q, v))
        qt = np.ones((20, 101))
        qt[0::2, 1:] = 0.0  # even rows: all mass in cell 0, above odd rows with none there
        qt[1::2, 0] = 0.0
        counts = []
        for steps in range(1, 12):  # the check, then steps - 1 Newton steps
            products.clear()
            _q, _lam, _nu, sweeps, gap = project_dual_ascent(qt, np.ones(qt.shape, bool), 1e-8,
                                                             steps)
            assert sweeps == steps and gap > 1e-8
            counts.append(len(products))
        per_step = np.diff(counts)
        assert counts[0] == 0 and per_step.max() == _kernels._CG_ITERATIONS

    def test_no_step_empties_a_row(self):
        """An infeasible input's multipliers grow by up to the step bound every
        step, so an unshifted iterate would underflow a whole row; each one keeps
        unit rows and a finite nu."""
        qt, allowed = one_violated_pair(3, 1, stuck=True)
        for steps in (2, 10, 100, 1_000):
            q, lam, nu, sweeps, gap = project_dual_ascent(qt, allowed, 1e-10, steps)
            assert sweeps == steps and gap > 1e-10
            assert np.all(np.isfinite(q)) and np.all(np.isfinite(nu))
            assert np.max(np.abs(q.sum(axis=1) - 1.0)) <= 1e-12
        assert lam.max() > 745.0  # exp(-745) is below the smallest float

    def test_the_line_search_keeps_its_precision_at_any_scale(self):
        """Scaling the input moves sum(nu) by about M log(scale) and leaves the
        projection: the dual's rise is taken against the current iterate, not as
        a difference of sum(nu), so the last steps' rises, far below that sum's
        rounding, still count."""
        qt, allowed = omd_kernel_input(2, 5, 21, 100, True, False, 100.0)
        tol = 1e-11
        want = project_dual_ascent(qt, allowed, tol, DEFAULT_MAX_SWEEPS)
        assert want[4] <= tol and want[3] > 2
        for scale in (1e-250, 1e250):
            got = project_dual_ascent(qt * scale, allowed, tol, DEFAULT_MAX_SWEEPS)
            assert got[4] <= tol
            assert np.max(np.abs(got[0] - want[0])) <= 1e-9


class TestProjectionProperties:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), demand=st.integers(1, 5),
           grid_size=st.integers(2, 21), horizon=st.integers(1, 10_000), ir=st.booleans(),
           full_info=st.booleans(), eta_scale=st.sampled_from([1.0, 10.0, 100.0]),
           gamma=st.one_of(st.none(), st.floats(0.01, 0.2)))
    def test_omd_inputs(self, seed, demand, grid_size, horizon, ir, full_info, eta_scale, gamma):
        """Scheduled or user-set eta and gamma: every input certifies within
        `DEFAULT_MAX_SWEEPS` steps, so a stall fails on the step count, not a clock."""
        qt, allowed = omd_kernel_input(seed, demand, grid_size, horizon, ir, full_info,
                                       eta_scale, gamma)
        tol = DEFAULT_PROJECTION_TOL
        q, _lam, _nu, _sweeps, gap = project_dual_ascent(qt, allowed, tol, DEFAULT_MAX_SWEEPS)
        assert gap <= tol
        assert q_membership(q, tol=tol) == []
        assert np.all(q[~allowed] == 0.0)
        again, _, _, sweeps, _ = project_dual_ascent(q, allowed, tol, DEFAULT_MAX_SWEEPS)
        assert sweeps == 1
        assert np.max(np.abs(again - q)) <= 10 * tol


class TestPrefixTable:
    """The kernel writes the returned q's row prefix table, the sampler's CDF, on
    both of its exits, and reads its inputs only."""

    @staticmethod
    def assert_writes_the_table(qt, allowed, max_sweeps):
        inputs = qt.tobytes(), allowed.tobytes()
        table = np.full(qt.shape, np.nan)
        q, _lam, _nu, sweeps, _gap = project_dual_ascent(qt, allowed, DEFAULT_PROJECTION_TOL,
                                                         max_sweeps, table)
        assert table.tobytes() == np.add.accumulate(q, axis=1).tobytes()
        assert (qt.tobytes(), allowed.tobytes()) == inputs
        return sweeps

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), demand=st.integers(1, 5),
           grid_size=st.integers(2, 21), horizon=st.integers(1, 10_000), ir=st.booleans(),
           full_info=st.booleans(), eta_scale=st.sampled_from([1.0, 10.0, 100.0]))
    def test_omd_inputs(self, seed, demand, grid_size, horizon, ir, full_info, eta_scale):
        qt, allowed = omd_kernel_input(seed, demand, grid_size, horizon, ir, full_info,
                                       eta_scale)
        self.assert_writes_the_table(qt, allowed, DEFAULT_MAX_SWEEPS)

    def test_both_exits(self):
        """The lambda = 0 exit, the exit after the last Newton step, and a step bound."""
        rng = np.random.default_rng(7)
        member = member_on(rng, np.ones((5, 21), bool))
        assert self.assert_writes_the_table(member, np.ones(member.shape, bool), 100) == 1
        qt, allowed = omd_kernel_input(2, 5, 21, 100, True, False, 100.0)
        assert self.assert_writes_the_table(qt, allowed, DEFAULT_MAX_SWEEPS) > 2
        assert self.assert_writes_the_table(qt, allowed, 2) == 2


class TestUnconstrainedStep:
    def test_zero_estimate_is_identity(self, rng):
        q = random_q_member(rng, 2, 4)
        assert np.array_equal(unconstrained_step(q, np.zeros_like(q), 0.7), q)

    def test_single_cell_scales_by_exponential(self, rng):
        q = random_q_member(rng, 2, 4)
        estimate = np.zeros_like(q)
        estimate[1, 2] = 3.0
        stepped = unconstrained_step(q, estimate, 0.5)
        ratio = stepped / q
        assert ratio[1, 2] == pytest.approx(np.exp(1.5))
        mask = np.ones_like(q, dtype=bool)
        mask[1, 2] = False
        assert np.allclose(ratio[mask], 1.0)

    def test_doubling_eta_squares_the_factor(self, rng):
        q = random_q_member(rng, 2, 3)
        estimate = rng.uniform(0, 1, size=q.shape)
        once = unconstrained_step(q, estimate, 0.4) / q
        twice = unconstrained_step(q, estimate, 0.8) / q
        assert np.allclose(twice, once**2, rtol=1e-12)

    def test_exponents_up_to_the_limit_keep_the_plain_product(self):
        q = np.array([[0.25, 0.75], [0.5, 0.5]])
        estimate = np.array([[1.0, 0.0], [0.5, 2.0]])
        eta = MAX_PLAIN_EXPONENT / 2
        assert unconstrained_step(q, estimate, eta).tobytes() == (
            q * np.exp(eta * estimate)).tobytes()

    def test_larger_exponents_scale_each_row_to_a_maximum_of_one(self):
        q = np.array([[0.25, 0.75, 0.0], [0.5, 0.25, 0.25]])
        estimate = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 1.0]])
        step = unconstrained_step(q, estimate, 1e3)
        assert step[0].tolist() == [1.0, 0.0, 0.0]  # exp(-1000) underflows; masked stays 0
        assert step[1, 1] == step[1, 2] == 1.0
        assert step[1, 0] == pytest.approx(2 * math.exp(-500))
