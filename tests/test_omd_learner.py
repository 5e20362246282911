"""Mirror-descent bidder: initial measure, sampling, estimates, and convergence."""
import math

import numpy as np
import pytest

from pabid import (
    BidVector,
    CompetingBids,
    FeedbackMode,
    OmdBidder,
    ProjectionError,
    StochasticAdversary,
    TieBreak,
    ValuationProfile,
    make_even_grid,
    omd_eta_schedule,
    sample_from_marginals,
    win_thresholds,
)

from conftest import (
    FixedUniform,
    chain_marginals,
    enumerated_marginals,
    play_against,
    random_q_member,
    sampler_law,
)
from oracles import settle


def uniform_successor_chain(allowed: np.ndarray):
    """Slot 1 uniform on its feasible bids; from bid b, uniform on the next
    slot's feasible bids at or below b."""
    m_units, d = allowed.shape
    initial = allowed[0] / allowed[0].sum()
    transitions = np.zeros((m_units - 1, d, d))
    for m in range(m_units - 1):
        for b in range(d):
            feas = allowed[m + 1, : b + 1]
            transitions[m, b, : b + 1] = feas / feas.sum()
    return initial, transitions


class TestSchedulesAndInit:
    def test_eta_rates(self):
        assert omd_eta_schedule(FeedbackMode.FULL_INFO, 20, 400) == pytest.approx(
            math.sqrt(math.log(20) / 400))
        assert omd_eta_schedule(FeedbackMode.BANDIT_IX, 20, 400) == pytest.approx(
            math.sqrt(math.log(20) / (20 * 400)))

    def test_uniform_policy_rows(self):
        # grid {0, 1/3, 2/3, 1}: slot 1 bids anything, IR cuts slot 2 at 2/3
        bidder = OmdBidder(ValuationProfile(np.array([1.0, 0.7])), make_even_grid(4), 100)
        assert bidder.q[0].tolist() == pytest.approx([0.25] * 4)
        # slot 2 from bid b is uniform on {0..min(b, 2)}: 1, 2, 3, 3 choices
        assert bidder.q[1].tolist() == pytest.approx(
            [0.25 * (1 + 1 / 2 + 2 / 3), 0.25 * (1 / 2 + 2 / 3), 0.25 * 2 / 3, 0.0])
        for values, d in (([0.9, 0.6, 0.3], 7), ([1.0] * 4, 11), ([0.5, 0.44, 0.2, 0.12, 0.05], 21)):
            bidder = OmdBidder(ValuationProfile(np.array(values)), make_even_grid(d), 100)
            chain = chain_marginals(*uniform_successor_chain(bidder.allowed))
            assert np.max(np.abs(bidder.q - chain)) <= 1e-15

    def test_initial_measure_is_member(self):
        grid = make_even_grid(7)
        valuation = ValuationProfile(np.array([0.9, 0.6, 0.3]))
        bidder = OmdBidder(valuation, grid, 100)
        from pabid import q_membership

        assert q_membership(bidder.q, tol=1e-8) == []
        assert np.all(bidder.q[~bidder.allowed] == 0.0)


class TestRounds:
    def test_zero_rewards_leave_measure_fixed(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([1.0, 0.75]))
        bidder = OmdBidder(valuation, grid, 50, mode=FeedbackMode.BANDIT_IPW, seed=1)
        start = bidder.q.copy()
        competing = CompetingBids.from_values([1.0, 1.0], grid)
        for _ in range(10):
            bidder.propose()
            # allocation zero: all slot rewards zero
            bidder.observe([0])
            assert np.allclose(bidder.q, start, atol=1e-9)

    def test_full_info_round_requires_competing_bids(self):
        grid = make_even_grid(4)
        bidder = OmdBidder(ValuationProfile(np.array([1.0])), grid, 10,
                           mode=FeedbackMode.FULL_INFO)
        bidder.propose()
        with pytest.raises(ValueError):
            bidder.observe([0], None)

    def test_policy_tracks_measure(self):
        grid = make_even_grid(6)
        valuation = ValuationProfile(np.array([1.0, 0.8]))
        bidder = OmdBidder(valuation, grid, 100, mode=FeedbackMode.BANDIT_IX, seed=3)
        adversary = StochasticAdversary(
            [CompetingBids.from_values([0.2, 0.4], grid)], [1.0], seed=0)
        for t in range(30):
            bid = BidVector(bidder.propose()[0], grid)
            assert np.all(bidder.q[np.arange(2), bid.indices] > 0.0)
            out = settle(valuation, bid, adversary.draw(t))
            bidder.observe([out.allocation])
            back = enumerated_marginals(sampler_law(bidder.q, grid), 2, 6)
            assert np.max(np.abs(back - bidder.q)) <= 1e-8

    def test_full_info_estimate_follows_the_settlement_tie_rule(self):
        """Rival priorities set, own priority unknown: the tie mode decides."""
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([1.0, 1.0]))
        bidder = OmdBidder(valuation, grid, 10, mode=FeedbackMode.FULL_INFO)
        bidder.propose()
        competing = CompetingBids(np.array([2, 2]), grid, priorities=np.array([0, 0]))
        for tie in TieBreak:
            estimate = bidder.reward_estimate(0, win_thresholds(competing.indices,
                                                                competing.priorities, 2, tie))
            for j in range(grid.count):
                flat = settle(valuation, BidVector(np.full(2, j), grid), competing, tie)
                assert estimate[:, j].sum() == pytest.approx(flat.utility), (tie, j)
        losing_tie = bidder.reward_estimate(0, win_thresholds(
            competing.indices, competing.priorities, 2, TieBreak.BIDDER_LOSES))
        assert losing_tie[:, 2].tolist() == [0.0, 0.0]

    def test_bandit_estimate_is_the_per_slot_formula_bit_for_bit(self, rng):
        """Each played cell holds w / (max(q, Q_FLOOR) + gamma), computed one
        slot at a time here; every other cell is zero."""
        from pabid.mirror_descent import Q_FLOOR

        for trial in range(40):
            m, d = int(rng.integers(1, 5)), int(rng.integers(2, 9))
            grid = make_even_grid(d)
            valuation = ValuationProfile(np.sort(rng.random(m))[::-1])
            mode = (FeedbackMode.BANDIT_IPW, FeedbackMode.BANDIT_IX)[trial % 2]
            bidder = OmdBidder(valuation, grid, 100, mode=mode, seed=trial)
            bidder.q[:, 1:] *= rng.choice([1.0, 1e-14], size=(m, d - 1))  # some below the floor
            played = bidder.propose()[0]
            allocation = int(rng.integers(0, m + 1))
            expected = np.zeros((m, d))
            for slot, j in enumerate(played.tolist()):
                w = valuation.values[slot] - grid.values[j] if slot < allocation else 0.0
                expected[slot, j] = w / (max(float(bidder.q[slot, j]), Q_FLOOR)
                                         + float(bidder.gamma[slot]))
            estimate = bidder.reward_estimate(allocation, None)
            assert estimate.tobytes() == expected.tobytes()

    def test_ir_mass_stays_zero_all_run(self):
        grid = make_even_grid(8)
        valuation = ValuationProfile(np.array([0.6, 0.3]))
        adversary = StochasticAdversary(
            [CompetingBids.from_values([0.0, 0.0], grid)], [1.0], seed=0)
        for mode in (FeedbackMode.FULL_INFO, FeedbackMode.BANDIT_IX):
            bidder = OmdBidder(valuation, grid, 60, mode=mode, seed=5)
            for t in range(60):
                bid = BidVector(bidder.propose()[0], grid)
                assert np.all(bid.values <= valuation.values + 1e-12)
                out = settle(valuation, bid, adversary.draw(t))
                bidder.observe([out.allocation],
                               win_thresholds(adversary.draw(t).indices, None, 2)[None]
                               if mode is FeedbackMode.FULL_INFO else None)
                assert np.all(bidder.q[~bidder.allowed] == 0.0)


    def test_projection_failure_names_round_sweeps_and_tol(self, monkeypatch):
        from pabid import mirror_descent

        project = mirror_descent.project_dual_ascent
        calls = []

        def fail_third_call(*args):
            q, lam, nu, sweeps, gap = project(*args)
            calls.append(sweeps)
            return (q, lam, nu, 777, 1.0) if len(calls) == 3 else (q, lam, nu, sweeps, gap)

        monkeypatch.setattr(mirror_descent, "project_dual_ascent", fail_third_call)
        bidder = OmdBidder(ValuationProfile(np.array([1.0, 0.5])), make_even_grid(5), 10, seed=4)
        for _ in range(2):
            bidder.propose()
            bidder.observe([1])
        bidder.propose()
        with pytest.raises(ProjectionError) as excinfo:
            bidder.observe([1])
        assert str(excinfo.value) == (
            "projection in round 2 stopped at gap 1.000e+00 after 777 sweeps (tol 1.0e-08)")
        assert (excinfo.value.sweeps, excinfo.value.gap) == (777, 1.0)
        assert excinfo.value.best.probs.shape == (2, 5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_raises_instead_of_returning_nan(self):
        """gamma = 0 and a huge rate overflow exp(eta * estimate) to inf; the
        NaN iterate that follows must fail the certificate, not pass it."""
        bidder = OmdBidder(ValuationProfile(np.array([1.0])), make_even_grid(5), 10,
                           eta=1e4, gamma=0.0)
        bidder.rng = FixedUniform(0.0)  # bid 0, a margin of 1 when won
        bidder.propose()
        with pytest.raises(ProjectionError, match="round 0 stopped at gap nan"):
            bidder.observe([1])


class TestLinearLossIdentity:
    def test_expected_utility_equals_inner_product(self, rng):
        """E[bid utility] of the sampler's draws equals <marginals, slot rewards>."""
        grid = make_even_grid(5)
        # unit valuations so every grid bid is individually rational
        valuation = ValuationProfile(np.array([1.0, 1.0, 1.0]))
        q = random_q_member(rng, 3, 5)
        competing = CompetingBids(np.array([1, 2, 4]), grid)
        margin = valuation.values[:, None] - grid.values[None, :]
        won = np.arange(5)[None, :] >= competing.indices[:, None]
        rewards = np.where(won, margin, 0.0)
        exact = float(np.sum(q * rewards))

        draws = 200_000
        total = 0.0
        for _ in range(draws):
            bid = sample_from_marginals(q, rng, grid)
            total += settle(valuation, bid, competing).utility
        mc = total / draws
        sigma = 3.0 / math.sqrt(draws)  # utilities bounded by 3
        assert abs(mc - exact) <= 3 * sigma


class TestConvergence:
    def test_single_unit_first_price_auction(self, rng):
        """One unit against a uniform stochastic rival: time-averaged utility
        approaches the best fixed grid bid's expected utility."""
        d = 11
        grid = make_even_grid(d)
        valuation = ValuationProfile(np.array([1.0]))
        support = [CompetingBids(np.array([j]), grid) for j in range(d)]
        probs = [1.0 / d] * d
        adversary = StochasticAdversary(support, probs, seed=8)
        # exact expected utility per bid index (bidder wins ties)
        expected = np.array([(j + 1) / d * (1.0 - grid.values[j]) for j in range(d)])
        best = float(expected.max())
        horizon = 10_000
        learner = OmdBidder(valuation, grid, horizon, mode=FeedbackMode.BANDIT_IX, seed=21)
        log = play_against(learner, adversary, horizon)
        averaged = log.utilities[horizon // 2:, 0].mean()
        assert averaged >= best - 0.05

    def test_deterministic_given_seed(self):
        grid = make_even_grid(6)
        valuation = ValuationProfile(np.array([1.0, 0.6]))
        adversary = StochasticAdversary(
            [CompetingBids.from_values([0.2, 0.4], grid),
             CompetingBids.from_values([0.0, 0.8], grid)], [0.5, 0.5], seed=2)
        first = play_against(OmdBidder(valuation, grid, 150, seed=10), adversary, 150).bids[0]
        second = play_against(OmdBidder(valuation, grid, 150, seed=10), adversary, 150).bids[0]
        assert np.array_equal(first, second)
