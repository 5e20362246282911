"""Bandit reward estimators: boundedness, unbiasedness, second moments, IX bias."""
import numpy as np
import pytest

from pabid import (
    CompetingBids,
    ContextualExpWeightsBidder,
    FeedbackMode,
    LearnerConfig,
    TieBreak,
    ValuationProfile,
    allocate,
    bandit_update,
    compute_partial_sums,
    make_even_grid,
    sample_bid,
    slot_marginals,
    slot_reward,
)
from pabid.exp_weights import EstimatedWeightTable

from conftest import random_valuation, random_weight_table


def make_estimated(table):
    return EstimatedWeightTable(table.weights.copy(), table.allowed, table.grid, table.valuation)


def one_round_increments(table, competing, rng, eta=0.4, gamma=None):
    """Sample once, settle, apply the bandit update; return per-cell increments."""
    partial = compute_partial_sums(table, eta)
    marginals = slot_marginals(partial)
    played = sample_bid(partial, rng)
    x = allocate(played, competing, TieBreak.BIDDER_WINS)
    est = make_estimated(table)
    before = est.weights.copy()
    bandit_update(est, marginals, played, x, gamma)
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
        table = EstimatedWeightTable(np.zeros((1, 2)), valuation.ir_mask(grid), grid, valuation)
        partial = compute_partial_sums(table, 0.5)
        marginals = slot_marginals(partial)
        played = sample_bid(partial, np.random.default_rng(1))
        assert played.indices[0] == 0
        before = table.weights.copy()
        bandit_update(table, marginals, played, allocation=0)
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
        partial = compute_partial_sums(table, eta)
        marginals = slot_marginals(partial)
        q_probs = marginals.probs
        draws = 100_000
        sums = np.zeros_like(table.weights)
        sq_sums = np.zeros_like(table.weights)
        base = make_estimated(table)
        scratch = make_estimated(base)
        for _ in range(draws):
            played = sample_bid(partial, rng)
            x = allocate(played, competing, TieBreak.BIDDER_WINS)
            scratch.weights[...] = base.weights
            bandit_update(scratch, marginals, played, x)
            delta = scratch.weights - base.weights
            sums += delta
            sq_sums += delta**2
        for m in range(2):
            for j in range(5):
                if not table.allowed[m, j]:
                    continue
                true_w = slot_reward(table.valuation.values[m], grid.values[j],
                                     competing.values[m], TieBreak.BIDDER_WINS)
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
        table = EstimatedWeightTable(np.zeros((1, 3)), valuation.ir_mask(grid), grid, valuation)
        marginals = slot_marginals(compute_partial_sums(table, 1.0))
        marginals.probs[0, 1] = 0.0
        from pabid import BidVector

        with pytest.raises(RuntimeError):
            bandit_update(table, marginals, BidVector(np.array([1]), grid), 1)

    def test_ix_offset_shrinks_corrections(self, rng):
        grid = make_even_grid(4)
        valuation = ValuationProfile(np.ones(2))
        base = EstimatedWeightTable(np.zeros((2, 4)), valuation.ir_mask(grid), grid, valuation)
        partial = compute_partial_sums(base, 0.5)
        marginals = slot_marginals(partial)
        played = sample_bid(partial, np.random.default_rng(3))
        competing = CompetingBids(np.array([1, 2]), grid)
        x = allocate(played, competing, TieBreak.BIDDER_WINS)

        plain = make_estimated(base)
        bandit_update(plain, marginals, played, x)
        shifted = make_estimated(base)
        bandit_update(shifted, marginals, played, x, gamma=np.full(2, 0.5))
        for m in range(2):
            j = played.indices[m]
            # IX divides by q + gamma: correction is smaller, increment larger
            assert shifted.weights[m, j] >= plain.weights[m, j] - 1e-12


def loop_contextual_update(tables, shared_q, played, allocation, offset):
    """The shared-normalizer estimator, one context and one slot at a time:
    every feasible cell gains 1, and each played cell the context allows loses
    (1 - w) / (Q + gamma). Updates copies; returns the new weight arrays."""
    out = []
    for table in tables:
        weights = table.weights + table.allowed
        values = table.grid.values
        for m in range(len(played)):
            j = int(played[m])
            if not table.allowed[m, j]:
                continue  # played bid overbids this context's valuation
            q = float(shared_q[m, j]) + float(offset[m])
            if q <= 0.0:
                raise RuntimeError("played bid has zero averaged probability")
            w = (table.valuation.values[m] - values[j]) if m < allocation else 0.0
            weights[m, j] -= (1.0 - w) / q
        out.append(weights)
    return out


class TestContextualLearner:
    def test_update_matches_per_slot_loop(self, rng):
        grid = make_even_grid(7)
        forbidden_played = 0
        for trial in range(40):
            demand = int(rng.integers(1, 4))
            contexts = [random_valuation(rng, demand) for _ in range(3)]
            contexts.append(ValuationProfile(np.ones(demand)))  # may play any cell
            mode = (FeedbackMode.BANDIT_IPW, FeedbackMode.BANDIT_IX)[trial % 2]
            learner = ContextualExpWeightsBidder(
                contexts, rng.dirichlet(np.ones(4)), grid, 100,
                LearnerConfig(mode=mode, eta=0.1, seed=trial))
            for table in learner.tables:
                table.weights[...] = np.where(
                    table.allowed, rng.uniform(-3.0, 3.0, table.weights.shape), 0.0)
            played = learner.propose(3).indices
            allocation = int(rng.integers(0, demand + 1))
            expected = loop_contextual_update(
                learner.tables, learner.averaged_marginals(), played, allocation, learner.gamma)
            learner.observe(allocation)
            for table, ref in zip(learner.tables, expected):
                assert np.max(np.abs(table.weights - ref)) <= 1e-15
                forbidden_played += int(np.sum(~table.allowed[np.arange(demand), played]))
        assert forbidden_played > 0

    def test_zero_averaged_probability_raises(self):
        grid = make_even_grid(3)
        learner = ContextualExpWeightsBidder(
            [ValuationProfile(np.array([1.0]))], [1.0], grid, 10,
            LearnerConfig(mode=FeedbackMode.BANDIT_IPW, eta=0.1, seed=0))
        played = learner.propose(0).indices
        learner.tables[0].weights[0, played[0]] = -1e5  # its probability underflows to 0
        with pytest.raises(RuntimeError, match="zero .*probability"):
            loop_contextual_update(learner.tables, learner.averaged_marginals(), played, 1,
                                   learner.gamma)
        with pytest.raises(RuntimeError, match="zero .*probability"):
            learner.observe(1)

    def test_single_context_reduces_to_plain_bandit(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([1.0, 0.8]))
        config = LearnerConfig(mode=FeedbackMode.BANDIT_IPW, eta=0.1, seed=7)
        contextual = ContextualExpWeightsBidder([valuation], [1.0], grid, 100, config)
        from pabid import ExpWeightsBidder

        plain = ExpWeightsBidder(valuation, grid, 100, LearnerConfig(
            mode=FeedbackMode.BANDIT_IPW, eta=0.1, seed=7))
        competing = CompetingBids(np.array([1, 2]), grid)
        for _ in range(40):
            bid_c = contextual.propose(0)
            bid_p = plain.propose()
            assert np.array_equal(bid_c.indices, bid_p.indices)
            x = allocate(bid_p, competing, TieBreak.BIDDER_WINS)
            contextual.observe(x)
            plain.observe(x, None)
        assert np.allclose(contextual.tables[0].weights, plain.table.weights, atol=1e-9)

    def test_shared_normalizer_is_probability_weighted_mean(self):
        grid = make_even_grid(2)
        v_high = ValuationProfile(np.array([1.0]))
        v_low = ValuationProfile(np.array([0.0]))
        learner = ContextualExpWeightsBidder(
            [v_high, v_low], [0.25, 0.75], grid, 50,
            LearnerConfig(mode=FeedbackMode.BANDIT_IPW, eta=0.1, seed=0))
        from pabid import compute_partial_sums as cps

        q_high = slot_marginals(cps(learner.tables[0], 0.1)).probs
        q_low = slot_marginals(cps(learner.tables[1], 0.1)).probs
        merged = learner.averaged_marginals()
        assert np.allclose(merged, 0.25 * q_high + 0.75 * q_low, atol=1e-12)

    def test_context_outside_support_rejected(self):
        grid = make_even_grid(3)
        learner = ContextualExpWeightsBidder(
            [ValuationProfile(np.array([1.0]))], [1.0], grid, 10,
            LearnerConfig(mode=FeedbackMode.BANDIT_IPW, eta=0.3))
        with pytest.raises(ValueError):
            learner.context_index(ValuationProfile(np.array([0.5])))

    def test_contextual_unbiasedness(self, rng):
        """Under joint (context, bid) sampling the shared-normalizer estimator
        is unbiased for each context's realized slot reward."""
        grid = make_even_grid(3)
        contexts = [ValuationProfile(np.array([1.0])), ValuationProfile(np.array([0.5]))]
        probs = [0.4, 0.6]
        competing = CompetingBids(np.array([1]), grid)
        learner = ContextualExpWeightsBidder(
            contexts, probs, grid, 100,
            LearnerConfig(mode=FeedbackMode.BANDIT_IPW, eta=0.2, seed=11))
        # seed some asymmetric weights so the per-context laws differ
        learner.tables[0].weights[0, 1] = 2.0
        learner.tables[1].weights[0, 0] = 1.0
        draws = 100_000
        sums = {0: np.zeros(3), 1: np.zeros(3)}
        counts = 0
        ctx_rng = np.random.default_rng(5)
        base0 = learner.tables[0].weights.copy()
        base1 = learner.tables[1].weights.copy()
        for _ in range(draws):
            ctx = int(ctx_rng.random() < probs[1])
            bid = learner.propose(ctx)
            x = allocate(bid, competing, TieBreak.BIDDER_WINS)
            learner.observe(x)
            sums[0] += learner.tables[0].weights[0] - base0[0]
            sums[1] += learner.tables[1].weights[0] - base1[0]
            learner.tables[0].weights[...] = base0
            learner.tables[1].weights[...] = base1
            counts += 1
        for c, valuation in enumerate(contexts):
            for j in range(3):
                if not learner.tables[c].allowed[0, j]:
                    continue
                true_w = slot_reward(valuation.values[0], grid.values[j],
                                     competing.values[0], TieBreak.BIDDER_WINS)
                mean = sums[c][j] / counts
                # increments are bounded by max(1, correction); 3 sigma via MC spread
                assert abs(mean - true_w) <= 0.02, (c, j, mean, true_w)
