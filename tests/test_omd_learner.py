"""Mirror-descent bidder: initial measure, sampling, estimates, and convergence."""
import math
import pickle
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabid._kernels import project_dual_ascent
from pabid.adversaries import StochasticAdversary
from pabid.auction import BidVector, CompetingBids, ValuationProfile, win_thresholds
from pabid.exp_weights import FeedbackMode, estimator_offsets
from pabid.grids import make_even_grid
from pabid.mirror_descent import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_PROJECTION_TOL,
    Q_FLOOR,
    OmdBidder,
    ProjectionError,
    omd_eta_schedule,
    q_membership,
    sample_from_marginals,
)
from pabid.scenario import build_market, validate_scenario

from conftest import (
    LAST_UNIFORM,
    FixedUniform,
    assert_same_optimum,
    chain_marginals,
    enumerated_marginals,
    member_on,
    play_against,
    random_q_member,
    sampler_law,
)
from oracles import (
    PooledBids,
    all_slot_bandit_step,
    list_sample_from_marginals,
    priority_thresholds,
    row_list_dual_ascent,
    settle,
)


def adopt(bidder: OmdBidder, q: np.ndarray) -> None:
    """Give `bidder` the marginals q as `observe` does: q with its row prefix table,
    which the next `propose` bisects."""
    bidder._adopt(q, np.add.accumulate(q, axis=1))


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

    @pytest.mark.parametrize("grid_size, horizon", [(1, 400), (20, 0)])
    def test_eta_schedule_rejects_a_grid_of_one_bid_or_no_rounds(self, grid_size, horizon):
        with pytest.raises(ValueError, match="^grid size and horizon must be positive$"):
            omd_eta_schedule(FeedbackMode.BANDIT_IX, grid_size, horizon)

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
        from pabid.mirror_descent import q_membership

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

    @pytest.mark.parametrize("mode", [FeedbackMode.FULL_INFO, FeedbackMode.BANDIT_IX])
    def test_observe_before_propose_rejected(self, mode):
        bidder = OmdBidder(ValuationProfile(np.array([1.0])), make_even_grid(4), 10, mode=mode)
        with pytest.raises(RuntimeError, match="observe called before propose"):
            bidder.observe([0], [[0]])

    def test_policy_tracks_measure(self):
        grid = make_even_grid(6)
        valuation = ValuationProfile(np.array([1.0, 0.8]))
        bidder = OmdBidder(valuation, grid, 100, mode=FeedbackMode.BANDIT_IX, seed=3)
        adversary = StochasticAdversary(grid.indices_of([[0.2, 0.4]]), [1.0], seed=0)
        for row in adversary.draws(0, 30):
            bid = BidVector(bidder.propose()[0], grid)
            assert np.all(bidder.q[np.arange(2), bid.indices] > 0.0)
            out = settle(valuation, bid, CompetingBids(row, grid))
            bidder.observe([out.allocation])
            back = enumerated_marginals(sampler_law(bidder.q), 2, 6)
            assert np.max(np.abs(back - bidder.q)) <= 1e-8

    def test_full_info_estimate_follows_the_settlement_tie_rule(self):
        """Rival priorities set, own priority unknown: the tie mode decides."""
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([1.0, 1.0]))
        bidder = OmdBidder(valuation, grid, 10, mode=FeedbackMode.FULL_INFO)
        bidder.propose()
        competing = PooledBids(np.array([2, 2]), grid, priorities=np.array([0, 0]))
        for tie in (False, True):
            estimate = bidder.reward_estimate(0, priority_thresholds(competing.indices,
                                                                     competing.priorities, 2, tie))
            for j in range(grid.count):
                flat = settle(valuation, BidVector(np.full(2, j), grid), competing, tie)
                assert estimate[:, j].sum() == pytest.approx(flat.utility), (tie, j)
        losing_tie = bidder.reward_estimate(0, priority_thresholds(
            competing.indices, competing.priorities, 2, True))
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
            q = bidder.q.copy()
            q[:, 1:] *= rng.choice([1.0, 1e-14], size=(m, d - 1))  # some below the floor
            adopt(bidder, q)
            played = np.array(bidder.propose()[0])
            allocation = int(rng.integers(0, m + 1))
            expected = np.zeros((m, d))
            for slot, j in enumerate(played.tolist()):
                w = valuation.values[slot] - grid.values[j] if slot < allocation else 0.0
                expected[slot, j] = w / (max(float(bidder.q[slot, j]), Q_FLOOR)
                                         + float(bidder.gamma[slot]))
            estimate = bidder.reward_estimate(allocation, None)
            assert estimate.tobytes() == expected.tobytes()

    def test_bandit_step_has_the_dense_steps_bits(self, rng):
        """Exponentiating only the played cells gives `unconstrained_step` on the
        full estimate bit for bit, on both sides of the shift threshold."""
        from pabid.mirror_descent import unconstrained_step

        for trial in range(60):
            m, d = int(rng.integers(1, 6)), int(rng.integers(2, 12))
            grid = make_even_grid(d)
            valuation = ValuationProfile(np.sort(rng.random(m))[::-1])
            mode = (FeedbackMode.BANDIT_IPW, FeedbackMode.BANDIT_IX)[trial % 2]
            eta = (0.05, 3.0, 40.0, 5e3)[trial % 4]
            bidder = OmdBidder(valuation, grid, 100, mode=mode, eta=eta, seed=trial)
            q = bidder.q.copy()
            q[:, 1:] *= rng.choice([1.0, 1e-3, 1e-14], size=(m, d - 1))
            adopt(bidder, q)
            bidder.propose()
            allocation = int(rng.integers(0, m + 1))
            dense = unconstrained_step(bidder.q, bidder.reward_estimate(allocation, None), eta)
            assert bidder._bandit_step(allocation).tobytes() == dense.tobytes()

    def test_ir_mass_stays_zero_all_run(self):
        grid = make_even_grid(8)
        valuation = ValuationProfile(np.array([0.6, 0.3]))
        adversary = StochasticAdversary(grid.indices_of([[0.0, 0.0]]), [1.0], seed=0)
        for mode in (FeedbackMode.FULL_INFO, FeedbackMode.BANDIT_IX):
            bidder = OmdBidder(valuation, grid, 60, mode=mode, seed=5)
            for row in adversary.draws(0, 60):
                bid = BidVector(bidder.propose()[0], grid)
                assert np.all(bid.values <= valuation.values + 1e-12)
                out = settle(valuation, bid, CompetingBids(row, grid))
                bidder.observe([out.allocation],
                               win_thresholds(row, 2)[None]
                               if mode is FeedbackMode.FULL_INFO else None)
                assert np.all(bidder.q[~bidder.allowed] == 0.0)


    def test_projection_failure_names_round_sweeps_and_tol(self, monkeypatch):
        """The learner's message names the gap, the sweeps and the tol; `play`
        opens it with the agent and the round (test_cli's runtime failure)."""
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
            "projection stopped at gap 1.000e+00 after 777 sweeps (tol 1.0e-08)")
        assert (excinfo.value.sweeps, excinfo.value.gap) == (777, 1.0)
        assert excinfo.value.best.shape == (2, 5)
        copy = pickle.loads(pickle.dumps(excinfo.value))
        assert type(copy) is ProjectionError and str(copy) == str(excinfo.value)
        assert (copy.sweeps, copy.gap) == (777, 1.0)
        assert copy.best.tobytes() == excinfo.value.best.tobytes()

    def test_a_failed_projection_keeps_q_and_its_table(self, monkeypatch):
        """The kernel writes its table into the learner's spare buffer, so when the
        certificate fails, q and the table `propose` bisects stay the last
        certified ones."""
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
        q, table = bidder.q, bidder._table
        kept = q.tobytes(), table.tobytes()
        bidder.propose()
        with pytest.raises(ProjectionError) as excinfo:
            bidder.observe([1])
        assert excinfo.value.best.tobytes() != kept[0]  # the failed step moved q
        assert bidder.q is q and bidder._table is table
        assert (q.tobytes(), table.tobytes()) == kept
        for u in (0.0, 0.5, LAST_UNIFORM):
            bidder.rng = FixedUniform(u)
            want = sample_from_marginals(np.add.accumulate(q, axis=1), FixedUniform(u))
            assert bidder.propose()[0] == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_raises_instead_of_returning_nan(self):
        """gamma = 0 and a rate near the float maximum overflow eta * estimate
        itself to inf; the NaN iterate that follows must fail the certificate,
        not pass it."""
        bidder = OmdBidder(ValuationProfile(np.array([1.0])), make_even_grid(5), 10,
                           eta=1e308, gamma=0.0)
        bidder.rng = FixedUniform(0.0)  # bid 0, a margin of 1 when won
        bidder.propose()
        with pytest.raises(ProjectionError, match="projection stopped at gap nan"):
            bidder.observe([1])


# (feedback, eta) of OMD agents whose step exponent eta * estimate once
# overflowed exp in round 0.
LARGE_ETA_CASES = [("full", 1e3), ("full", 1e5), ("full", 1e10), ("full", 1e300),
                   ("bandit_ix", 1e3), ("bandit_ix", 1e300)]


class TestLargeRates:
    @pytest.mark.parametrize("feedback, eta", LARGE_ETA_CASES)
    def test_run_completes_inside_the_polytope(self, feedback, eta):
        """Sixty rounds without a RuntimeWarning (an error in this suite), a
        log that replays, and a final measure in the polytope."""
        scenario = validate_scenario({
            "name": "large_eta", "grid_size": 11, "rounds": 60, "master_seed": 99, "supply": 3,
            "agents": [{"algorithm": "omd", "feedback": feedback,
                        "valuation": [1.0, 0.8, 0.5], "eta": eta}],
            "environment": {"kind": "stochastic", "support": [[0.1] * 3, [0.3, 0.3, 1.0]],
                            "probs": [0.5, 0.5], "tie": "agent_wins"},
        })
        market, seed, config = build_market(scenario, 0)
        log = market.play(scenario.rounds, config=config, seed=seed)
        assert log.replay_matches()
        assert q_membership(market.learners[0].q) == []


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
        table = np.add.accumulate(q, axis=1)
        for _ in range(draws):
            bid = BidVector(sample_from_marginals(table, rng), grid)
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
        support = np.arange(d)[:, None]
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
            grid.indices_of([[0.2, 0.4], [0.0, 0.8]]), [0.5, 0.5], seed=2)
        first = play_against(OmdBidder(valuation, grid, 150, seed=10), adversary, 150).bids[0]
        second = play_against(OmdBidder(valuation, grid, 150, seed=10), adversary, 150).bids[0]
        assert np.array_equal(first, second)


def validator_eta_bound(mode: FeedbackMode, grid_size: int, horizon: int) -> float:
    """The largest OMD eta `validate_scenario` accepts: eta times the largest
    bandit estimate, 1 / (Q_FLOOR + the smallest IX offset), below half the
    largest float."""
    offset = float(estimator_offsets(mode, np.ones((1, grid_size), bool), horizon, None)[0])
    return float(np.nextafter(sys.float_info.max / 2 * (Q_FLOOR + offset), 0.0))


def same_projection_bytes(got, want) -> bool:
    """q, lambda, nu, the sweep count and the gap, compared as bytes."""
    return ([np.asarray(a).tobytes() for a in got[:3]] + [got[3], struct.pack("d", got[4])]
            == [np.asarray(a).tobytes() for a in want[:3]] + [want[3], struct.pack("d", want[4])])


class TestBanditRoundMatchesItsOracles:
    """A bandit round touches only the cells it plays: the sampler bisects the
    CDF table in place, the step exponentiates the won cells, and the
    projection certifies from whole-table maxima. Each gives the bits of its
    former form in `oracles`."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), demand=st.integers(1, 5), grid_size=st.integers(2, 12),
           ipw=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_sampler_step_and_certificate(self, data, demand, grid_size, ipw, seed):
        rng = np.random.default_rng(seed)
        grid = make_even_grid(grid_size)
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=demand, max_size=demand))
        valuation = ValuationProfile(np.sort(values)[::-1])  # IR masks rows with low values
        mode = FeedbackMode.BANDIT_IPW if ipw else FeedbackMode.BANDIT_IX
        horizon = 100
        eta = data.draw(st.one_of(st.none(), st.floats(1e-3, 10.0), st.floats(
            10.0, validator_eta_bound(mode, grid_size, horizon))))
        bidder = OmdBidder(valuation, grid, horizon, mode=mode, eta=eta, seed=seed)
        q = member_on(rng, bidder.allowed)
        if data.draw(st.booleans()):  # off the polytope: cells below the floor, dominance broken
            q[:, 1:] *= rng.choice([1.0, 1e-3, 1e-14], size=(demand, grid_size - 1))
        adopt(bidder, q)

        # uniforms at the rows' normalized CDF breakpoints, one ulp either side and the ends
        cdf = np.cumsum(bidder.q, axis=1)
        cuts = (cdf / cdf[:, -1:]).ravel()
        for u in [0.0, LAST_UNIFORM, *cuts, *np.nextafter(cuts, 0.0), *np.nextafter(cuts, 1.0)]:
            u = min(float(u), LAST_UNIFORM)
            got = np.array(sample_from_marginals(np.add.accumulate(bidder.q, axis=1),
                                                 FixedUniform(u)))
            want = list_sample_from_marginals(bidder.q, FixedUniform(u))
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), u

        bid = np.array(bidder.propose()[0])
        allocation = data.draw(st.integers(0, demand))
        q_tilde = bidder._bandit_step(allocation)
        assert q_tilde.tobytes() == all_slot_bandit_step(
            bidder.q, bid, allocation, valuation.values, grid.values, bidder.gamma,
            bidder.eta).tobytes()

        tol = DEFAULT_PROJECTION_TOL
        got = project_dual_ascent(q_tilde, bidder.allowed, tol, DEFAULT_MAX_SWEEPS)
        want = row_list_dual_ascent(q_tilde, bidder.allowed, tol, 50)
        if want[3] == 1 and not want[1].any():  # the oracle certified lambda = 0: same bits
            assert same_projection_bytes(got, want)
        assert got[4] <= tol
        assert_same_optimum(got, want, q_tilde, bidder.allowed, tol)
        # a NaN in a row's last column reaches only its row sum, which must not certify
        row = data.draw(st.integers(0, demand - 1))
        q_tilde[row, -1] = math.nan
        allowed = np.ones(q_tilde.shape, bool)
        got = project_dual_ascent(q_tilde, allowed, tol, 50)
        assert got[3] == 1 and math.isnan(got[4])

    @pytest.mark.parametrize("mode", [FeedbackMode.FULL_INFO, FeedbackMode.BANDIT_IX])
    def test_eta_must_be_positive_and_finite(self, mode):
        """As `validate_scenario` and `ExpWeightsBidder` do, whatever the feedback."""
        for eta in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^eta must be a positive finite number, not "):
                OmdBidder(ValuationProfile(np.array([1.0])), make_even_grid(3), 10, mode=mode,
                          eta=eta)
