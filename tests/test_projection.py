"""Unnormalized-KL projection onto the occupancy polytope."""
import numpy as np
import pytest

from pabid import (
    ProjectionError,
    project_to_Q,
    q_membership,
    unconstrained_step,
    unnormalized_kl,
)

from conftest import random_q_member


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

