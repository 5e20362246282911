"""Hindsight DP: weight accumulation, optimality, and the enumeration oracle."""
import math

import numpy as np
import pytest

from pabid.auction import CompetingBids, ValuationProfile, win_thresholds
from pabid.grids import make_even_grid
from pabid.hindsight import NEG_INF, NodeWeightTable, accumulate_weights_history, hindsight_optimal

from conftest import random_valuation
from oracles import (
    accumulate_weights,
    brute_force_optimal,
    iter_monotone_indices,
    masked,
    monotone_vector_count,
    path_utility,
    settle,
)


def _random_history(rng, supply, grid_size, rounds):
    return np.sort(rng.integers(0, grid_size, size=(rounds, supply)), axis=1)


class TestAccumulateWeights:
    @pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 3), (2, 3, 2)])
    def test_history_of_the_wrong_shape_rejected(self, shape):
        valuation = ValuationProfile(np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match=r"\(rounds, demand\) threshold matrix"):
            accumulate_weights_history(valuation, np.zeros(shape, dtype=np.int64),
                                       make_even_grid(5))

    @pytest.mark.parametrize("history, where", [
        ([[4, 3]], "round 0, slot 0: threshold 4"),    # not a slot-1 win at bid 0
        ([[3, 3], [2, 4]], "round 1, slot 1: threshold 4"),
        ([[0, 0], [1, -1]], "round 1, slot 1: threshold -1"),
    ])
    def test_thresholds_outside_the_grid_rejected(self, history, where):
        """Thresholds lie in [0, D]: D = 3 means no bid wins the slot."""
        valuation = ValuationProfile(np.array([1.0, 0.5]))
        with pytest.raises(ValueError) as excinfo:
            accumulate_weights_history(valuation, np.array(history), make_even_grid(3))
        assert str(excinfo.value) == f"{where} lies outside [0, 3]"

    def test_single_round_hand_computation(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([1.0]))
        history = [CompetingBids.from_values([0.3], grid)]
        table = accumulate_weights(valuation, history, grid, False)
        assert table.weights[0, grid.index_of(0.3)] == pytest.approx(0.7)
        assert table.weights[0, grid.index_of(0.2)] == 0.0
        assert table.weights[0, grid.index_of(1.0)] == 0.0

    def test_ir_mask_excludes_overbids(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([0.5, 0.5]))
        history = [CompetingBids.from_values([0.2, 0.2], grid)]
        table = accumulate_weights(valuation, history, grid)
        over = grid.values > 0.5 + 1e-12
        assert not table.allowed[:, over].any()
        assert np.isneginf(masked(table)[:, over]).all()

    def test_empty_history_gives_zero_table(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([0.75, 0.5]))
        table = accumulate_weights(valuation, [], grid)
        assert np.all(table.weights == 0.0)

    def test_counting_form_matches_per_round_form(self, rng):
        grid = make_even_grid(7)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            valuation = random_valuation(rng, m)
            hist_idx = _random_history(rng, m, 7, int(rng.integers(0, 6)))
            history = [CompetingBids(row, grid) for row in hist_idx]
            tie = rng.random() >= 0.5
            slow = accumulate_weights(valuation, history, grid, tie)
            thresholds = win_thresholds(hist_idx, m, tie)
            fast = accumulate_weights_history(valuation, thresholds, grid)
            assert np.allclose(slow.weights, fast.weights, atol=1e-12)
            assert np.array_equal(slow.allowed, fast.allowed)

    def test_bound_by_rounds(self, rng):
        grid = make_even_grid(6)
        valuation = random_valuation(rng, 3)
        rounds = 7
        hist = _random_history(rng, 3, 6, rounds)
        table = accumulate_weights_history(valuation, win_thresholds(hist, 3), grid)
        assert np.all(np.abs(table.weights[table.allowed]) <= rounds)
        assert np.all(table.weights[table.allowed] >= 0.0)  # IR cells never pay above value


class TestHindsightOptimal:
    def test_nothing_winnable_under_ir(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([0.9, 0.9, 0.9]))
        history = [CompetingBids.from_values([1.0, 1.0, 1.0], grid)] * 4
        table = accumulate_weights(valuation, history, grid, False)
        solution = hindsight_optimal(table)
        assert solution.total_utility == 0.0
        assert solution.bid.values.tolist() == [0.0, 0.0, 0.0]

    def test_a_table_whose_grid_minimum_is_not_feasible_is_rejected(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([0.9, 0.5]))
        allowed = valuation.ir_mask(grid)
        allowed[1, 0] = False
        table = NodeWeightTable(np.zeros(allowed.shape), allowed, grid, valuation)
        with pytest.raises(ValueError,
                           match="^grid minimum must be individually rational in every layer$"):
            hindsight_optimal(table)

    @pytest.mark.parametrize("values", [[0.3], [0.6, 0.3, 0.3], [0.7], [0.6, 0.6]])
    @pytest.mark.parametrize("rounds", [0, 5])
    def test_a_total_of_zero_is_positive_zero(self, values, rounds):
        """0.3 lies 5.6e-17 below the grid's 0.30000000000000004 (0.6 and 0.7
        likewise), so that IR cell's reward is negative and 0 wins of it is
        -0.0; with every threshold D nothing wins, and the optimum is +0.0."""
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array(values))
        table = accumulate_weights_history(valuation, np.full((rounds, len(values)), 11), grid)
        total = hindsight_optimal(table).total_utility
        assert total == 0.0 and math.copysign(1.0, total) == 1.0

    def test_four_round_benchmark_history(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([1.0, 1.0, 1.0]))
        history = (
            [CompetingBids.from_values([0.1, 0.1, 0.1], grid)] * 2
            + [CompetingBids.from_values([0.3, 0.3, 1.0], grid)]
            + [CompetingBids.from_values([0.4, 1.0, 1.0], grid)]
        )
        table = accumulate_weights(valuation, history, grid, False)
        solution = hindsight_optimal(table)
        oracle = brute_force_optimal(valuation, history, grid, False)
        assert np.array_equal(solution.bid.indices, oracle.bid.indices)
        assert solution.total_utility == oracle.total_utility
        assert solution.bid.values.tolist() == pytest.approx([0.4, 0.3, 0.1])
        assert solution.total_utility == pytest.approx(6.3)
        # per-round utilities of the optimum: 2.2, 2.2, 1.3, 0.6
        per_round = [settle(valuation, solution.bid, c).utility for c in history]
        assert per_round == pytest.approx([2.2, 2.2, 1.3, 0.6])

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(300):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(1, 5))
            t = int(rng.integers(0, 6))
            grid = make_even_grid(d)
            valuation = random_valuation(rng, m)
            hist_idx = _random_history(rng, m, d, t)
            history = [CompetingBids(row, grid) for row in hist_idx]
            tie = rng.random() >= 0.5
            dp = hindsight_optimal(accumulate_weights(valuation, history, grid, tie))
            bf = brute_force_optimal(valuation, history, grid, tie)
            assert dp.total_utility == bf.total_utility
            assert np.array_equal(dp.bid.indices, bf.bid.indices)

    def test_replay_reproduces_reported_utility(self, rng):
        grid = make_even_grid(8)
        for _ in range(30):
            m = int(rng.integers(1, 5))
            valuation = random_valuation(rng, m)
            hist_idx = _random_history(rng, m, 8, int(rng.integers(1, 12)))
            history = [CompetingBids(row, grid) for row in hist_idx]
            solution = hindsight_optimal(accumulate_weights(valuation, history, grid))
            replay = sum(settle(valuation, solution.bid, c).utility for c in history)
            assert replay == pytest.approx(solution.total_utility, abs=1e-9)

    def test_value_function_monotone_in_bid_cap(self, rng):
        # U_m(b) = max over monotone IR tails capped at b must be non-decreasing in b
        grid = make_even_grid(6)
        valuation = random_valuation(rng, 3)
        hist_idx = _random_history(rng, 3, 6, 5)
        history = [CompetingBids(row, grid) for row in hist_idx]
        table = accumulate_weights(valuation, history, grid)
        for cap in range(grid.count - 1):
            best_low = _best_capped(table, cap)
            best_high = _best_capped(table, cap + 1)
            assert best_high >= best_low - 1e-12

    def test_dp_tail_identity_by_enumeration(self, rng):
        # U_m(b) equals the enumerated best monotone tail from (m, b)
        grid = make_even_grid(5)
        valuation = random_valuation(rng, 3)
        hist_idx = _random_history(rng, 3, 5, 4)
        history = [CompetingBids(row, grid) for row in hist_idx]
        table = accumulate_weights(valuation, history, grid)
        m_units, d = table.weights.shape
        u = np.zeros((m_units + 1, d))
        for m in range(m_units - 1, -1, -1):
            cand = np.where(table.allowed[m], table.weights[m] + u[m + 1], NEG_INF)
            u[m] = np.maximum.accumulate(cand)
        for m in range(m_units):
            tail_len = m_units - m
            for cap in range(d):
                best = NEG_INF
                for tail in iter_monotone_indices(tail_len, d):
                    if tail[0] > cap:
                        continue
                    val = 0.0
                    ok = True
                    for off, j in enumerate(tail):
                        if not table.allowed[m + off, j]:
                            ok = False
                            break
                        val += table.weights[m + off, j]
                    if ok and val > best:
                        best = val
                if best == NEG_INF:
                    best = 0.0  # unreachable: grid minimum is always allowed
                assert u[m, cap] == pytest.approx(best, abs=1e-9)


def _best_capped(table, cap) -> float:
    best = NEG_INF
    for idx in iter_monotone_indices(*table.weights.shape):
        if idx[0] > cap:
            continue
        val = path_utility(table, idx)
        best = max(best, val)
    return best


class TestBruteForce:
    def test_cap_refuses_large_instances(self):
        grid = make_even_grid(50)
        valuation = ValuationProfile(np.ones(8))
        assert monotone_vector_count(8, 50) > 2_000_000
        with pytest.raises(ValueError):
            brute_force_optimal(valuation, [], grid)

    def test_single_unit_is_argmax(self, rng):
        grid = make_even_grid(9)
        valuation = random_valuation(rng, 1)
        hist_idx = _random_history(rng, 1, 9, 6)
        history = [CompetingBids(row, grid) for row in hist_idx]
        table = accumulate_weights(valuation, history, grid)
        bf = brute_force_optimal(valuation, history, grid)
        allowed_vals = np.where(table.allowed[0], table.weights[0], -np.inf)
        assert bf.total_utility == allowed_vals.max()
        assert bf.bid.indices[0] == int(np.argmax(allowed_vals))

    def test_zero_rounds_zero_utility(self, rng):
        grid = make_even_grid(4)
        valuation = random_valuation(rng, 2)
        assert brute_force_optimal(valuation, [], grid).total_utility == 0.0
