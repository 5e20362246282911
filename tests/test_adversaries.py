"""Environments: stochastic draws, the hard two-point family, self-play."""
import math

import numpy as np
import pytest

from pabid import (
    CompetingBids,
    ExpWeightsBidder,
    LearnerConfig,
    LowerBoundInstance,
    SelfPlayMarket,
    StochasticAdversary,
    TieBreak,
    ValuationProfile,
    lower_bound_instance,
    make_even_grid,
)

from oracles import iter_monotone_indices, settle


def benchmark_adversary(grid, seed=0):
    support = [
        CompetingBids.from_values([0.1, 0.1, 0.1], grid),
        CompetingBids.from_values([0.3, 0.3, 1.0], grid),
        CompetingBids.from_values([0.4, 1.0, 1.0], grid),
    ]
    return StochasticAdversary(support, [0.5, 0.25, 0.25], seed=seed)


class TestStochasticAdversary:
    def test_degenerate_distribution_is_constant(self):
        grid = make_even_grid(5)
        adversary = StochasticAdversary(
            [CompetingBids.from_values([0.25, 0.75], grid)], [1.0], seed=1)
        draws = {tuple(adversary.draw(t).indices.tolist()) for t in range(50)}
        assert draws == {(1, 3)}

    def test_draw_is_pure_in_seed_and_round(self):
        grid = make_even_grid(11)
        one = benchmark_adversary(grid, seed=9)
        two = benchmark_adversary(grid, seed=9)
        order = [5000, 3, 9999, 3, 0]
        assert [one.pick(t) for t in order] == [two.pick(t) for t in order]
        assert one.pick(3) == one.pick(3)
        assert any(benchmark_adversary(grid, seed=10).pick(t) != one.pick(t)
                   for t in range(200))

    def test_empirical_frequencies_within_3_sigma(self):
        grid = make_even_grid(11)
        adversary = benchmark_adversary(grid, seed=4)
        draws = 100_000
        counts = np.zeros(3)
        for t in range(draws):
            counts[adversary.pick(t)] += 1
        probs = np.array([0.5, 0.25, 0.25])
        sigma = np.sqrt(probs * (1 - probs) / draws)
        assert np.all(np.abs(counts / draws - probs) <= 3 * sigma)

    def test_probabilities_must_sum_to_one(self):
        grid = make_even_grid(3)
        with pytest.raises(ValueError):
            StochasticAdversary([CompetingBids.from_values([0.5], grid)], [0.7])

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
        instance = LowerBoundInstance(demand=3, delta=0.1, variant="F")
        grid = instance.default_grid()
        low, high = instance.support_vectors(grid)
        # M - k = 2 zeros then k = 1 price entries, as the closed forms require
        assert low.values.tolist() == pytest.approx([0.0, 0.0, 2 / 3])
        assert high.values.tolist() == pytest.approx([2 / 3, 2 / 3, 2 / 3])

    def test_printed_utilities_for_delta_point_one(self):
        instance = LowerBoundInstance(demand=3, delta=0.1, variant="F")
        assert instance.expected_total_utility(0, 1) == pytest.approx(1.2)  # (0.5+0.1)*2
        assert instance.expected_total_utility(3, 1) == pytest.approx(1.0)  # 3*(1/3)

    def test_delta_zero_makes_candidates_equal(self):
        instance = LowerBoundInstance(demand=3, delta=0.0, variant="F")
        zero = instance.expected_total_utility(0, 1)
        price = instance.expected_total_utility(3, 1)
        assert zero == pytest.approx(price) == pytest.approx(1.0)
        f_adv = LowerBoundInstance(demand=3, delta=0.0, variant="F").adversary()
        g_adv = LowerBoundInstance(demand=3, delta=0.0, variant="G").adversary()
        assert np.array_equal(f_adv.probabilities, g_adv.probabilities)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LowerBoundInstance(demand=4, delta=0.1, variant="F")
        with pytest.raises(ValueError):
            LowerBoundInstance(demand=3, delta=0.2, variant="F")
        with pytest.raises(ValueError):
            LowerBoundInstance(demand=3, delta=0.1, variant="H")

    def test_default_delta_scales_with_horizon(self):
        instance = lower_bound_instance(3, horizon=400)
        assert instance.delta == pytest.approx(1 / 20)

    def test_closed_forms_match_monte_carlo_settlement(self, rng):
        for _ in range(8):
            demand = int(rng.choice([3, 6]))
            delta = float(rng.uniform(0.0, 1 / 6 - 1e-6))
            variant = str(rng.choice(["F", "G"]))
            instance = LowerBoundInstance(demand=demand, delta=delta, variant=variant,
                                          seed=int(rng.integers(1 << 30)))
            grid = instance.default_grid()
            adversary = instance.adversary(grid)
            valuation = ValuationProfile(np.ones(demand))
            price_slots = int(rng.integers(0, demand + 1))
            c_idx = grid.index_of(instance.price)
            idx = np.concatenate([
                np.full(price_slots, c_idx, dtype=np.int64),
                np.zeros(demand - price_slots, dtype=np.int64),
            ])
            from pabid import BidVector

            bid = BidVector(idx, grid)
            draws = 20_000
            utilities = np.empty(draws)
            for t in range(draws):
                utilities[t] = settle(valuation, bid, adversary.draw(t),
                                      TieBreak.BIDDER_WINS).utility
            mc_total = utilities.mean() * draws
            exact = instance.expected_total_utility(price_slots, draws)
            sigma = utilities.std(ddof=1) / math.sqrt(draws) * draws
            assert abs(mc_total - exact) <= 3 * sigma + 1e-6


class TestSelfPlay:
    def test_single_agent_empty_market_wins_everything(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([1.0, 0.75]))
        learner = ExpWeightsBidder([valuation], grid, 30, [LearnerConfig(seed=0)])
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
            ExpWeightsBidder([valuations[0]], grid, 100, [LearnerConfig(seed=1)]),
            ExpWeightsBidder([valuations[1]], grid, 100, [LearnerConfig(seed=2)]),
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
        learners = [ExpWeightsBidder([v], grid, 60, [LearnerConfig(seed=i)])
                    for i, v in enumerate(valuations)]
        market = SelfPlayMarket(learners, valuations, grid, supply=5)
        log = market.play(60)
        assert np.all(log.allocations.sum(axis=1) <= 5)
        assert log.replay_matches()

