"""Unnormalized-KL projection onto the occupancy polytope."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabid import (
    FeedbackMode,
    ProjectionError,
    ValuationProfile,
    ix_gamma_schedule,
    make_even_grid,
    omd_eta_schedule,
    project_to_Q,
    q_membership,
    unconstrained_step,
)
from pabid._kernels import project_dual_ascent
from pabid.mirror_descent import DEFAULT_MAX_SWEEPS, DEFAULT_PROJECTION_TOL

from conftest import random_q_member
from oracles import unnormalized_kl


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


def member_on(rng: np.random.Generator, allowed: np.ndarray) -> np.ndarray:
    """A random polytope member supported on `allowed` (an IR staircase):
    slot 1 Dirichlet on its feasible cells, then from bid b a Dirichlet
    over the next slot's feasible cells at or below b."""
    m_units, d = allowed.shape
    q = np.zeros((m_units, d))
    first = rng.dirichlet(np.ones(d)) * allowed[0]
    q[0] = first / first.sum()
    for m in range(1, m_units):
        for b in range(d):
            row = rng.dirichlet(np.ones(b + 1)) * allowed[m, : b + 1]
            q[m, : b + 1] += q[m - 1, b] * row / row.sum()
    return q


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


class TestProjectToQ:
    def test_member_is_fixed_point(self, rng):
        for _ in range(20):
            q = random_q_member(rng, 3, 5)
            result = project_to_Q(q.copy())
            assert np.allclose(result.measure.probs, q, atol=1e-12)
            assert result.gap <= 1e-8

    def test_single_layer_is_normalization(self, rng):
        raw = rng.uniform(0.2, 2.0, size=(1, 6))
        result = project_to_Q(raw)
        assert np.allclose(result.measure.probs, raw / raw.sum(), atol=1e-12)

    def test_output_is_member_and_kkt_certified(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 5))
            d = int(rng.integers(2, 8))
            raw = rng.uniform(0.01, 2.0, size=(m, d))
            result = project_to_Q(raw, tol=1e-10)
            assert result.gap <= 1e-10
            assert q_membership(result.measure.probs, tol=1e-8) == []

    def test_matches_exhaustive_grid_search_d2(self, rng):
        for _ in range(10):
            raw = rng.uniform(0.05, 2.0, size=(2, 2))
            result = project_to_Q(raw, tol=1e-12)
            mine = unnormalized_kl(result.measure.probs, raw)
            best_value, best = best_on_grid_d2(raw, 1e-3)
            assert mine <= best_value + 1e-9
            assert np.max(np.abs(result.measure.probs - best)) <= 5e-3

    def test_beats_random_feasible_points(self, rng):
        for _ in range(10):
            raw = rng.uniform(0.02, 1.5, size=(3, 5))
            result = project_to_Q(raw, tol=1e-11)
            mine = unnormalized_kl(result.measure.probs, raw)
            for _ in range(300):
                other = random_q_member(rng, 3, 5)
                assert unnormalized_kl(other, raw) >= mine - 1e-9

    def test_respects_ir_mask(self, rng):
        allowed = np.array([
            [True, True, True, True],
            [True, True, False, False],
        ])
        raw = rng.uniform(0.1, 1.0, size=(2, 4))
        result = project_to_Q(raw, allowed=allowed)
        assert np.all(result.measure.probs[~allowed] == 0.0)
        assert q_membership(result.measure.probs, tol=1e-8) == []

    def test_rejects_nonpositive_input(self):
        with pytest.raises(ValueError):
            project_to_Q(np.array([[0.0, 1.0], [0.5, 0.5]]))

    def test_nonconvergence_carries_best_iterate(self):
        raw = np.array([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(ProjectionError) as excinfo:
            project_to_Q(raw, tol=1e-12, max_sweeps=1)
        assert excinfo.value.best.probs.shape == raw.shape
        assert excinfo.value.gap > 1e-12
        assert excinfo.value.sweeps == 1
        assert str(excinfo.value) == (
            f"projection stopped at gap {excinfo.value.gap:.3e} after 1 sweeps (tol 1.0e-12)")


class TestKernelMatchesDefinition:
    @pytest.mark.parametrize("tol", [1e-8, 1e-11])
    def test_same_iterate_multipliers_and_sweeps(self, tol):
        for qt, allowed in kernel_parity_cases():
            q, lam, _nu, sweeps, _gap = project_dual_ascent(qt, allowed, tol, 300)
            ref_q, ref_lam, _, ref_sweeps, _ = textbook_dual_ascent(qt, allowed, tol, 300)
            assert sweeps == ref_sweeps
            assert np.max(np.abs(q - ref_q)) <= 1e-12
            assert np.max(np.abs(lam - ref_lam)) <= 1e-12

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
            result = project_to_Q(raw, tol=1e-11)
            mine = unnormalized_kl(result.measure.probs, raw)
            assert q_membership(result.measure.probs, tol=1e-8) == []

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


def omd_kernel_input(seed: int, demand: int, grid_size: int, horizon: int, ir: bool):
    """A feasible member times exp(eta * sparse bandit-IX estimate), with eta and
    gamma from OMD's own schedules: the input OMD hands the kernel each round."""
    rng = np.random.default_rng(seed)
    values = np.sort(rng.random(demand))[::-1] if ir else np.ones(demand)
    allowed = ValuationProfile(values).ir_mask(make_even_grid(grid_size))
    q = member_on(rng, allowed)
    eta = omd_eta_schedule(FeedbackMode.BANDIT_IX, grid_size, horizon)
    gamma = ix_gamma_schedule(allowed, horizon)
    estimate = np.zeros_like(q)
    cap = grid_size - 1
    won = int(rng.integers(0, demand + 1))
    for m in range(demand):
        j = int(rng.choice(np.nonzero(q[m, : cap + 1] > 0.0)[0]))
        cap = j
        if m < won:
            estimate[m, j] = rng.uniform(0.0, 1.0) / (max(q[m, j], 1e-12) + gamma[m])
    return unconstrained_step(q, estimate, eta), allowed


class TestProjectionProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), demand=st.integers(1, 5),
           grid_size=st.integers(2, 21), horizon=st.integers(1, 10_000), ir=st.booleans())
    def test_omd_inputs(self, seed, demand, grid_size, horizon, ir):
        qt, allowed = omd_kernel_input(seed, demand, grid_size, horizon, ir)
        tol = DEFAULT_PROJECTION_TOL
        q, _lam, _nu, _sweeps, gap = project_dual_ascent(qt, allowed, tol, DEFAULT_MAX_SWEEPS)
        assert gap <= tol
        assert q_membership(q, tol=tol) == []
        assert np.all(q[~allowed] == 0.0)
        again, _, _, sweeps, _ = project_dual_ascent(q, allowed, tol, DEFAULT_MAX_SWEEPS)
        assert sweeps == 1
        assert np.max(np.abs(again - q)) <= 10 * tol


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

