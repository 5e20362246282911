"""Bandit reward estimators: boundedness, unbiasedness, second moments, IX bias."""
import numpy as np
import pytest

from pabid._kernels import ew_marginals, ew_tail_sums
from pabid.auction import BidVector, CompetingBids, ValuationProfile
from pabid.grids import make_even_grid
from pabid.hindsight import NodeWeightTable

from conftest import draw_bid, random_weight_table
from oracles import allocate, bandit_step, slot_reward


def copy_table(table):
    return NodeWeightTable(table.weights.copy(), table.allowed, table.grid, table.valuation)


def one_round_increments(table, competing, rng, eta=0.4, gamma=None):
    """Sample once, settle, apply the bandit update; return per-cell increments."""
    log_sums, log_prefix = ew_tail_sums(table.weights, table.allowed, eta)
    marginals = ew_marginals(log_sums)
    played = draw_bid(log_prefix, rng, table.grid)
    x = allocate(played, competing, False)
    est = copy_table(table)
    before = est.weights.copy()
    bandit_step(est, marginals, played, x, gamma)
    return est.weights - before, played, marginals


class TestBanditUpdate:
    def test_hand_computed_increment_win(self):
        # played cell won with margin 0.6 at sampling probability 0.5
        assert 1 - (1 - 0.6) / 0.5 == pytest.approx(0.2)

    def test_increments_never_exceed_one(self, rng):
        grid6 = make_even_grid(6)
        for _ in range(50):
            table = random_weight_table(rng, 3, 6)
            competing = CompetingBids(np.sort(rng.integers(0, 6, size=3)), grid6)
            delta, _, _ = one_round_increments(table, competing, rng)
            assert np.all(delta[table.allowed] <= 1.0 + 1e-12)

    def test_lost_slot_with_certain_probability_has_zero_increment(self):
        # single unit, one feasible cell: q = 1; losing it gives 1 - 1/1 = 0
        grid = make_even_grid(2)
        valuation = ValuationProfile(np.array([0.0]))
        table = random_weight_table(np.random.default_rng(0), 1, 2)
        table = NodeWeightTable(np.zeros((1, 2)), valuation.ir_mask(grid), grid, valuation)
        log_sums, log_prefix = ew_tail_sums(table.weights, table.allowed, 0.5)
        marginals = ew_marginals(log_sums)
        played = draw_bid(log_prefix, np.random.default_rng(1), grid)
        assert played.indices[0] == 0
        before = table.weights.copy()
        bandit_step(table, marginals, played, allocation=0)
        delta = table.weights - before
        assert delta[0, 0] == pytest.approx(0.0)

    def test_unbiasedness_and_second_moment(self, rng):
        """Monte-Carlo check, gamma = 0: E[estimate] equals the true slot
        reward, the empirical second moment matches its closed form
        2w - 1 + (1-w)^2/q, and both respect the 2/q bound, within 3 sigma."""
        grid = make_even_grid(5)
        table = random_weight_table(rng, 2, 5, magnitude=1.5)
        competing = CompetingBids(np.array([1, 3]), grid)
        eta = 0.6
        log_sums, log_prefix = ew_tail_sums(table.weights, table.allowed, eta)
        marginals = ew_marginals(log_sums)
        q_probs = marginals
        draws = 100_000
        sums = np.zeros_like(table.weights)
        sq_sums = np.zeros_like(table.weights)
        base = copy_table(table)
        scratch = copy_table(base)
        for _ in range(draws):
            played = draw_bid(log_prefix, rng, grid)
            x = allocate(played, competing, False)
            scratch.weights[...] = base.weights
            bandit_step(scratch, marginals, played, x)
            delta = scratch.weights - base.weights
            sums += delta
            sq_sums += delta**2
        for m in range(2):
            for j in range(5):
                if not table.allowed[m, j]:
                    continue
                true_w = slot_reward(table.valuation.values[m], grid.values[j],
                                     grid.values[competing.indices[m]], False)
                q = q_probs[m, j]
                mean = sums[m, j] / draws
                mean_sq = sq_sums[m, j] / draws
                # first moment: sigma from the empirical variance
                var = max(mean_sq - mean**2, 1e-12)
                sigma = np.sqrt(var / draws)
                assert abs(mean - true_w) <= 3 * sigma + 1e-9, (m, j)
                # second moment: the increment is 1 - (1-w)/q w.p. q and 1 otherwise
                hit_sq = (1 - (1 - true_w) / q) ** 2
                exact_second = q * hit_sq + (1 - q)
                assert exact_second == pytest.approx(2 * true_w - 1 + (1 - true_w) ** 2 / q)
                var_sq = max(q * hit_sq**2 + (1 - q) - exact_second**2, 1e-12)
                sq_sigma = np.sqrt(var_sq / draws)
                assert abs(mean_sq - exact_second) <= 3 * sq_sigma + 1e-9, (m, j)
                assert mean_sq <= 2 / q + 3 * sq_sigma + 1e-9, (m, j)

    def test_zero_probability_play_is_an_error(self, rng):
        grid = make_even_grid(3)
        valuation = ValuationProfile(np.array([1.0]))
        table = NodeWeightTable(np.zeros((1, 3)), valuation.ir_mask(grid), grid, valuation)
        marginals = ew_marginals(ew_tail_sums(table.weights, table.allowed, 1.0)[0])
        marginals[0, 1] = 0.0

        with pytest.raises(RuntimeError):
            bandit_step(table, marginals, BidVector(np.array([1]), grid), 1)

    def test_ix_offset_shrinks_corrections(self, rng):
        grid = make_even_grid(4)
        valuation = ValuationProfile(np.ones(2))
        base = NodeWeightTable(np.zeros((2, 4)), valuation.ir_mask(grid), grid, valuation)
        log_sums, log_prefix = ew_tail_sums(base.weights, base.allowed, 0.5)
        marginals = ew_marginals(log_sums)
        played = draw_bid(log_prefix, np.random.default_rng(3), grid)
        competing = CompetingBids(np.array([1, 2]), grid)
        x = allocate(played, competing, False)

        plain = copy_table(base)
        bandit_step(plain, marginals, played, x)
        shifted = copy_table(base)
        bandit_step(shifted, marginals, played, x, gamma=np.full(2, 0.5))
        for m in range(2):
            j = played.indices[m]
            # IX divides by q + gamma: correction is smaller, increment larger
            assert shifted.weights[m, j] >= plain.weights[m, j] - 1e-12

