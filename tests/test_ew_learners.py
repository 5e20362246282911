"""Exponential-weights learners: schedules, updates, and full runs."""
import math

import numpy as np
import pytest

from pabid import (
    BidVector,
    CompetingBids,
    ExpWeightsBidder,
    FeedbackMode,
    LearnerConfig,
    NodeWeightTable,
    OmdBidder,
    SelfPlayMarket,
    StochasticAdversary,
    TieBreak,
    ValuationProfile,
    bandit_update,
    compute_partial_sums,
    eta_schedule,
    full_info_update,
    ix_gamma_schedule,
    make_even_grid,
    sample_bid,
    slot_marginals,
    win_thresholds,
)
from pabid.exp_weights import estimator_offsets

from conftest import play_against
from oracles import accumulate_weights, check_ir, masked


class TestEtaSchedule:
    def test_full_info_rate(self):
        # sqrt(log 20 / 1e4) with the demand-free M = 1 case
        assert eta_schedule(FeedbackMode.FULL_INFO, 1, 20, 10_000) == pytest.approx(
            math.sqrt(math.log(20) / 10_000))
        assert eta_schedule(FeedbackMode.FULL_INFO, 1, 20, 10_000) == pytest.approx(0.0173, abs=2e-4)

    def test_bandit_rate_capped_below_inverse_demand(self):
        for m in (1, 5, 50, 500):
            eta = eta_schedule(FeedbackMode.BANDIT_IPW, m, 4, 2)
            assert eta < 1.0 / m

    def test_decreasing_in_horizon(self):
        etas = [eta_schedule(FeedbackMode.FULL_INFO, 2, 10, t) for t in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            eta_schedule(FeedbackMode.FULL_INFO, 0, 10, 10)

    def test_ix_gamma_matches_formula(self):
        allowed = np.ones((2, 7), dtype=bool)
        gamma = ix_gamma_schedule(allowed, horizon=100)
        k = 7
        expect = math.sqrt((math.log(k) + math.log((k + 1) / 0.05)) / (4 * k * 100))
        assert gamma.tolist() == pytest.approx([expect, expect])


    def test_one_estimator_offset_rule_for_both_learners(self):
        """IX schedule or scalar override under BANDIT_IX, zeros otherwise,
        identically in the EW and OMD learners."""
        grid = make_even_grid(7)
        valuation = ValuationProfile(np.array([1.0, 0.5, 0.2]))
        allowed = valuation.ir_mask(grid)
        schedule = ix_gamma_schedule(allowed, 100)
        for mode in FeedbackMode:
            for gamma in (None, 0.125):
                if mode is FeedbackMode.BANDIT_IX:
                    expected = schedule if gamma is None else np.full(3, 0.125)
                else:
                    expected = np.zeros(3)
                assert estimator_offsets(mode, allowed, 100, gamma).tolist() == expected.tolist()
                ew = ExpWeightsBidder([valuation], grid, 100,
                                      [LearnerConfig(mode=mode, eta=0.1, gamma=gamma)])
                omd = OmdBidder(valuation, grid, 100, mode=mode, gamma=gamma)
                assert ew.gamma[0].tolist() == omd.gamma.tolist() == expected.tolist()


class TestFullInfoUpdate:
    def test_unbeatable_competitors_leave_table_unchanged(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([0.75, 0.5]))
        table = accumulate_weights(valuation, [], grid)
        before = table.weights.copy()
        competing = CompetingBids.from_values([1.0, 1.0], grid)
        full_info_update(table, competing, TieBreak.BIDDER_LOSES)
        assert np.array_equal(table.weights, before)

    def test_single_update_equals_singleton_accumulation(self, rng):
        """One update adds exactly the singleton history's table, under both
        tie modes, with and without rival and own priorities."""
        grid = make_even_grid(7)
        for tie in TieBreak:
            for rival_priorities in (False, True):
                for _ in range(30):
                    m = int(rng.integers(1, 4))
                    supply = m + int(rng.integers(0, 2))
                    valuation = ValuationProfile(np.sort(rng.random(m))[::-1])
                    priorities = rng.integers(0, 3, size=supply) if rival_priorities else None
                    competing = CompetingBids(np.sort(rng.integers(0, 7, size=supply)), grid,
                                              priorities)
                    own = None if rng.random() < 0.5 else int(rng.integers(0, 3))
                    incremental = accumulate_weights(valuation, [], grid)
                    full_info_update(incremental, competing, tie, own)
                    reference = accumulate_weights(valuation, [competing], grid, tie, own)
                    assert np.array_equal(incremental.weights, reference.weights)

    def test_forbidden_cells_stay_forbidden(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([0.5]))
        table = accumulate_weights(valuation, [], grid)
        competing = CompetingBids.from_values([0.0], grid)
        for _ in range(5):
            full_info_update(table, competing)
        assert np.all(table.weights[~table.allowed] == 0.0)
        assert np.isneginf(masked(table)[~table.allowed]).all()

    def test_constant_valuation_weight_factorization(self, rng):
        """With a fixed valuation, W[m, b] = (#wins of (m, b)) * (v_m - b)."""
        grid = make_even_grid(6)
        valuation = ValuationProfile(np.array([0.9, 0.7, 0.4]))
        table = accumulate_weights(valuation, [], grid)
        history = []
        for _ in range(25):
            competing = CompetingBids(np.sort(rng.integers(0, 6, size=3)), grid)
            history.append(competing)
            full_info_update(table, competing)
        margin = valuation.values[:, None] - grid.values[None, :]
        wins = np.zeros((3, 6))
        for competing in history:
            for m in range(3):
                for j in range(6):
                    if j > competing.indices[m] or j == competing.indices[m]:
                        wins[m, j] += 1
        expect = np.where(table.allowed, wins * margin, 0.0)
        assert np.allclose(table.weights, expect, atol=1e-9)


class TestBanditUpdate:
    def test_returned_increments_are_the_played_cells_change(self, rng):
        """Each slot returns 1 - (1 - w)/(q + gamma), the played cell gains
        that, every other feasible cell gains 1 and forbidden cells stay."""
        grid = make_even_grid(6)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            valuation = ValuationProfile(0.5 + 0.5 * np.sort(rng.random(m))[::-1])
            table = NodeWeightTable(rng.normal(size=(m, 6)), valuation.ir_mask(grid),
                                    grid, valuation)
            partial = compute_partial_sums(table, 0.1)
            marginals = slot_marginals(partial)
            played = sample_bid(partial, rng)
            allocation = int(rng.integers(0, m + 1))
            gamma = rng.uniform(0.0, 0.2, size=m) if rng.random() < 0.5 else None
            before = table.weights.copy()
            applied = bandit_update(table, marginals, played, allocation, gamma)
            offset = np.zeros(m) if gamma is None else gamma
            for slot, j in enumerate(played.indices):
                w = valuation.values[slot] - grid.values[j] if slot < allocation else 0.0
                assert applied[slot] == 1.0 - (1.0 - w) / (marginals.probs[slot, j] + offset[slot])
            delta = table.weights - before
            is_played = np.zeros((m, 6), bool)
            is_played[np.arange(m), played.indices] = True
            assert np.allclose(delta[is_played], applied, rtol=0.0, atol=1e-12)
            assert np.allclose(delta[table.allowed & ~is_played], 1.0, rtol=0.0, atol=1e-12)
            assert np.all(delta[~table.allowed] == 0.0)


class TestLearnerRuns:
    def test_bandit_requires_small_eta(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.ones(4))
        with pytest.raises(ValueError):
            ExpWeightsBidder([valuation], grid, 100,
                             [LearnerConfig(mode=FeedbackMode.BANDIT_IPW, eta=0.5)])

    def test_group_needs_one_mode_and_one_demand(self):
        grid = make_even_grid(5)
        with pytest.raises(ValueError, match="one mode and one demand"):
            ExpWeightsBidder([ValuationProfile(np.ones(2)), ValuationProfile(np.ones(1))], grid, 10,
                             [LearnerConfig(), LearnerConfig()])
        with pytest.raises(ValueError, match="one mode and one demand"):
            ExpWeightsBidder([ValuationProfile(np.ones(2))] * 2, grid, 10,
                             [LearnerConfig(), LearnerConfig(mode=FeedbackMode.BANDIT_IX)])

    def test_group_plays_as_its_agents_would_alone(self):
        """One group of three agents and three one-agent groups write the same
        log, in every mode, with a different eta per agent."""
        grid = make_even_grid(9)
        valuations = [ValuationProfile(np.array(v)) for v in ([1.0, 0.6], [0.8, 0.5], [0.9, 0.2])]
        adversary = StochasticAdversary(
            [CompetingBids.from_values([0.25, 0.5, 0.75], grid),
             CompetingBids.from_values([0.0, 0.125, 1.0], grid)], [0.5, 0.5], seed=3)
        for mode in FeedbackMode:
            configs = [LearnerConfig(mode=mode, eta=0.05 * (i + 1), seed=i) for i in range(3)]
            grouped = SelfPlayMarket([ExpWeightsBidder(valuations, grid, 80, configs)], valuations,
                                     grid, 3, adversary, members=[[0, 1, 2]]).play(80)
            alone = SelfPlayMarket([ExpWeightsBidder([v], grid, 80, [c])
                                    for v, c in zip(valuations, configs)],
                                   valuations, grid, 3, adversary).play(80)
            assert grouped.to_csv_text() == alone.to_csv_text()

    def test_hopeless_market_yields_zero_utility_and_ir_bids(self):
        grid = make_even_grid(6)
        valuation = ValuationProfile(np.array([0.8, 0.6]))
        adversary = StochasticAdversary(
            [CompetingBids.from_values([1.0, 1.0], grid)], [1.0], seed=0)
        learner = ExpWeightsBidder([valuation], grid, 300, [LearnerConfig(seed=4)])
        log = play_against(learner, adversary, 300, tie=TieBreak.BIDDER_LOSES)
        assert math.fsum(log.utilities[:, 0]) == 0.0
        for row in log.bids[0]:
            check_ir(BidVector(row, grid), valuation)

    def test_deterministic_given_seed(self):
        grid = make_even_grid(9)
        valuation = ValuationProfile(np.array([1.0, 0.9]))
        adversary = StochasticAdversary(
            [CompetingBids.from_values([0.25, 0.5], grid),
             CompetingBids.from_values([0.0, 0.75], grid)], [0.5, 0.5], seed=3)

        def bids(seed):
            learner = ExpWeightsBidder([valuation], grid, 100,
                                       [LearnerConfig(mode=FeedbackMode.BANDIT_IX, seed=seed)])
            return play_against(learner, adversary, 100).bids[0]

        runs = [bids(77) for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])
        other = bids(78)
        assert not np.array_equal(runs[0], other)

    def test_full_info_learner_table_matches_offline_accumulation(self):
        grid = make_even_grid(6)
        valuation = ValuationProfile(np.array([1.0, 0.5]))
        adversary = StochasticAdversary(
            [CompetingBids.from_values([0.2, 0.4], grid),
             CompetingBids.from_values([0.0, 1.0], grid)], [0.6, 0.4], seed=1)
        learner = ExpWeightsBidder([valuation], grid, 50, [LearnerConfig(seed=5)])
        history = []
        for t in range(50):
            learner.propose()
            competing = adversary.draw(t)
            history.append(competing)
            learner.observe([0], win_thresholds(competing.indices, None, 2)[None])
        reference = accumulate_weights(valuation, history, grid)
        assert np.allclose(learner.weights[0], reference.weights, atol=1e-9)

    def test_ir_safety_over_full_run(self):
        grid = make_even_grid(9)
        valuation = ValuationProfile(np.array([0.7, 0.45, 0.2]))
        adversary = StochasticAdversary(
            [CompetingBids.from_values([0.125, 0.25, 0.375], grid)], [1.0], seed=0)
        for mode in FeedbackMode:
            learner = ExpWeightsBidder([valuation], grid, 200, [LearnerConfig(mode=mode, seed=9)])
            log = play_against(learner, adversary, 200)
            for row in log.bids[0]:
                assert np.all(grid.values[row] <= valuation.values + 1e-12)
