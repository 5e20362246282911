"""Environments: stochastic draws, the hard two-point family, self-play."""
import math

import numpy as np
import pytest

from pabid.adversaries import StochasticAdversary, lower_bound_rows
from pabid.auction import CompetingBids, ValuationProfile
from pabid.exp_weights import ExpWeightsBidder
from pabid.grids import make_even_grid
from pabid.simulator import SelfPlayMarket

from oracles import drawn_row, expected_total_utility, iter_monotone_indices, settle

BENCHMARK_ROWS = [[0.1, 0.1, 0.1], [0.3, 0.3, 1.0], [0.4, 1.0, 1.0]]
BENCHMARK_PROBS = [0.5, 0.25, 0.25]


def benchmark_adversary(grid, seed=0):
    return StochasticAdversary(grid.indices_of(BENCHMARK_ROWS), BENCHMARK_PROBS, seed=seed)


class TestStochasticAdversary:
    def test_degenerate_distribution_is_constant(self):
        grid = make_even_grid(5)
        adversary = StochasticAdversary(grid.indices_of([[0.25, 0.75]]), [1.0], seed=1)
        draws = {tuple(row) for row in adversary.draws(0, 50).tolist()}
        assert draws == {(1, 3)}

    def test_draw_is_pure_in_seed_and_round(self):
        grid = make_even_grid(11)
        one = benchmark_adversary(grid, seed=9)
        two = benchmark_adversary(grid, seed=9)
        order = [5000, 3, 9999, 3, 0]
        assert [one.draws(t, t + 1).tolist() for t in order] == [
            two.draws(t, t + 1).tolist() for t in order]
        assert one.draws(3, 4).tolist() == one.draws(3, 4).tolist()
        other = benchmark_adversary(grid, seed=10).draws(0, 200)
        assert any(row != mine for row, mine in zip(other.tolist(), one.draws(0, 200).tolist()))

    @pytest.mark.parametrize("t0, t1", [(0, 0), (5000, 5000), (0, 37), (100, 900),
                                        (1000, 4096), (4000, 4196), (4095, 8193)])
    def test_draws_stack_the_rounds_draws(self, t0, t1):
        """An empty range, a range inside one chunk, one starting mid-chunk and
        ranges across the 4,096-round chunk edges, against each round's row
        derived alone."""
        grid = make_even_grid(11)
        block = benchmark_adversary(grid, seed=9).draws(t0, t1)
        support = grid.indices_of(BENCHMARK_ROWS)
        rows = [drawn_row(support, BENCHMARK_PROBS, 9, t) for t in range(t0, t1)]
        assert block.dtype == np.int64 and block.shape == (t1 - t0, 3)
        assert block.tolist() == np.array(rows, dtype=np.int64).reshape(t1 - t0, 3).tolist()

    def test_empirical_frequencies_within_3_sigma(self):
        grid = make_even_grid(11)
        adversary = benchmark_adversary(grid, seed=4)
        draws = 100_000
        block = adversary.draws(0, draws)
        counts = np.array([np.all(block == row, axis=1).sum() for row in adversary.rows])
        probs = np.array(BENCHMARK_PROBS)
        sigma = np.sqrt(probs * (1 - probs) / draws)
        assert np.all(np.abs(counts / draws - probs) <= 3 * sigma)

    def test_probabilities_must_sum_to_one(self):
        grid = make_even_grid(3)
        with pytest.raises(ValueError):
            StochasticAdversary(grid.indices_of([[0.5]]), [0.7])

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            StochasticAdversary([[0, 1], [1, 2]], [0.5, np.nan])

    @pytest.mark.parametrize("rows, probs", [
        ([[0, 1], [1, 2]], [1.0]),         # one probability for two rows
        ([[0, 1]], [0.5, 0.5]),            # two probabilities for one row
        ([[0, 1], [1, 2]], [[0.5, 0.5]]),  # probabilities not a vector
        ([[0, 1], [1]], [0.5, 0.5]),       # ragged rows
        (np.zeros((0, 2)), []),            # no rows
        (np.zeros((2, 0)), [0.5, 0.5]),    # rows of no bids
        ([0, 1], [0.5, 0.5]),              # a vector, not a table
        ([[0, 1], [-1, 2]], [0.5, 0.5]),   # a negative index
        ([[0, 1], [2, 1]], [0.5, 0.5]),    # a decreasing row
    ])
    def test_malformed_table_rejected(self, rows, probs):
        with pytest.raises(ValueError):
            StochasticAdversary(rows, probs)

    def test_benchmark_mix_maximizer_confirmed_by_brute_force(self):
        """Under probabilities (1/2, 1/4, 1/4), [0.4, 0.3, 0.1] is the exact
        expected-utility maximizer on the even 11-point grid, worth 1.575."""
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.ones(3))
        support = [[0.1, 0.1, 0.1], [0.3, 0.3, 1.0], [0.4, 1.0, 1.0]]
        probs = [0.5, 0.25, 0.25]
        best_value, best_idx = -np.inf, None
        for idx in iter_monotone_indices(3, grid.count):
            bid_values = grid.values[idx]
            value = 0.0
            for p, comp in zip(probs, support):
                value += p * sum(
                    (1.0 - bid_values[m]) * (bid_values[m] >= comp[m] - 1e-12)
                    for m in range(3)
                )
            if value > best_value:
                best_value, best_idx = value, idx
        assert grid.values[best_idx].tolist() == pytest.approx([0.4, 0.3, 0.1])
        assert best_value == pytest.approx(1.575)


class TestLowerBoundInstance:
    def test_structure_matches_closed_forms(self):
        grid = make_even_grid(4)  # {0, 1/3, 2/3, 1} contains the price 2/3
        (low, high), _ = lower_bound_rows(3, grid, 1, delta=0.1, variant="F")
        # M - k = 2 zeros then k = 1 price entries, as the closed forms require
        assert grid.values[low].tolist() == pytest.approx([0.0, 0.0, 2 / 3])
        assert grid.values[high].tolist() == pytest.approx([2 / 3, 2 / 3, 2 / 3])

    def test_printed_utilities_for_delta_point_one(self):
        _, (low, _) = lower_bound_rows(3, make_even_grid(4), 1, delta=0.1, variant="F")
        assert expected_total_utility(3, low, 0, 1) == pytest.approx(1.2)  # (0.5+0.1)*2
        assert expected_total_utility(3, low, 3, 1) == pytest.approx(1.0)  # 3*(1/3)

    def test_delta_zero_makes_candidates_equal(self):
        grid = make_even_grid(4)
        _, (low, _) = lower_bound_rows(3, grid, 1, delta=0.0, variant="F")
        zero = expected_total_utility(3, low, 0, 1)
        price = expected_total_utility(3, low, 3, 1)
        assert zero == pytest.approx(price) == pytest.approx(1.0)
        _, f_probs = lower_bound_rows(3, grid, 1, delta=0.0, variant="F")
        _, g_probs = lower_bound_rows(3, grid, 1, delta=0.0, variant="G")
        assert np.array_equal(f_probs, g_probs)

    def test_invalid_parameters_rejected(self):
        cases = [(4, 0.1, "F"), (0, 0.1, "F"), (-3, 0.1, "F"),  # demand
                 (3, 0.2, "F"), (3, 1 / 6, "F"), (3, -0.01, "F"), (3, math.nan, "F"),  # delta
                 (3, 0.1, "H")]  # variant
        for demand, delta, variant in cases:
            with pytest.raises(ValueError):
                lower_bound_rows(demand, make_even_grid(4), 100, delta, variant)

    def test_price_must_lie_on_the_grid(self):
        with pytest.raises(ValueError, match="not a grid value"):
            lower_bound_rows(3, make_even_grid(5), 100)

    def test_default_delta_scales_with_horizon(self):
        _, probs = lower_bound_rows(3, make_even_grid(4), horizon=400)
        assert probs.tolist() == pytest.approx([0.5 + 1 / 20, 0.5 - 1 / 20])
        _, probs = lower_bound_rows(3, make_even_grid(4), horizon=1)
        assert probs[0] == pytest.approx(0.5 + 1 / 6)  # capped just below 1/6

    def test_closed_forms_match_monte_carlo_settlement(self, rng):
        for _ in range(8):
            demand = int(rng.choice([3, 6]))
            delta = float(rng.uniform(0.0, 1 / 6 - 1e-6))
            variant = str(rng.choice(["F", "G"]))
            grid = make_even_grid(4)
            rows, probs = lower_bound_rows(demand, grid, 1, delta, variant)
            adversary = StochasticAdversary(rows, probs, seed=int(rng.integers(1 << 30)))
            valuation = ValuationProfile(np.ones(demand))
            price_slots = int(rng.integers(0, demand + 1))
            c_idx = grid.index_of(2 / 3)
            idx = np.concatenate([
                np.full(price_slots, c_idx, dtype=np.int64),
                np.zeros(demand - price_slots, dtype=np.int64),
            ])
            from pabid.auction import BidVector

            bid = BidVector(idx, grid)
            draws = 20_000
            utilities = np.empty(draws)
            for t, row in enumerate(adversary.draws(0, draws)):
                utilities[t] = settle(valuation, bid, CompetingBids(row, grid),
                                      False).utility
            mc_total = utilities.mean() * draws
            exact = expected_total_utility(demand, probs[0], price_slots, draws)
            sigma = utilities.std(ddof=1) / math.sqrt(draws) * draws
            assert abs(mc_total - exact) <= 3 * sigma + 1e-6


class TestSelfPlay:
    def test_single_agent_empty_market_wins_everything(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([1.0, 0.75]))
        learner = ExpWeightsBidder([valuation], grid, 30, [0])
        market = SelfPlayMarket([learner], [valuation], grid, supply=2)
        log = market.play(30)
        for t in range(30):
            positive = int(np.sum(log.grid.values[log.bids[0][t]] > 0))
            # every unit is won (zero bids win ties against the zero padding too)
            assert log.allocations[t, 0] == 2, (t, positive)

    def test_two_agent_allocation_conservation(self, rng):
        grid = make_even_grid(6)
        valuations = [ValuationProfile(np.array([1.0])), ValuationProfile(np.array([0.9]))]
        learners = [
            ExpWeightsBidder([valuations[0]], grid, 100, [1]),
            ExpWeightsBidder([valuations[1]], grid, 100, [2]),
        ]
        market = SelfPlayMarket(learners, valuations, grid, supply=1)
        log = market.play(100)
        totals = log.allocations.sum(axis=1)
        assert np.all(totals <= 1)
        assert np.all(totals == 1)  # someone always wins: ties resolve by priority

    def test_three_agent_market_runs_and_replays(self):
        grid = make_even_grid(21)
        valuations = [
            ValuationProfile(np.array([0.89, 0.7, 0.55, 0.51, 0.29])),
            ValuationProfile(np.array([0.89, 0.44, 0.2, 0.12, 0.05])),
            ValuationProfile(np.array([0.67, 0.64, 0.45, 0.27, 0.02])),
        ]
        learners = [ExpWeightsBidder([v], grid, 60, [i])
                    for i, v in enumerate(valuations)]
        market = SelfPlayMarket(learners, valuations, grid, supply=5)
        log = market.play(60)
        assert np.all(log.allocations.sum(axis=1) <= 5)
        assert log.replay_matches()

