"""Occupancy polytope: membership, and sampling bids straight from the marginals."""
import numpy as np

from pabid.adversaries import StochasticAdversary
from pabid.auction import BidVector, CompetingBids, ValuationProfile
from pabid.exp_weights import FeedbackMode
from pabid.grids import make_even_grid
from pabid.mirror_descent import OmdBidder, q_membership, sample_from_marginals

from conftest import (
    LAST_UNIFORM,
    FixedUniform,
    enumerated_marginals,
    random_q_member,
    sampler_law,
)
from oracles import count_rule_indices, settle


class TestMembership:
    def test_uniform_rows_are_members(self):
        q = np.full((3, 4), 0.25)
        assert q_membership(q) == []

    def test_dominance_violation_detected(self):
        # slot 1 mass at the low bid, slot 2 at the high bid: CDF crossing
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        violations = q_membership(q)
        assert any(v.kind == "dominance" and v.layer == 0 and v.index == 0
                   for v in violations)

    def test_row_sum_and_negative_detected(self):
        q = np.array([[0.5, 0.4], [1.2, -0.2]])
        kinds = {v.kind for v in q_membership(q)}
        assert "row_sum" in kinds and "negative" in kinds

    def test_policy_marginals_are_members(self, rng):
        for _ in range(1000):
            demand = int(rng.integers(1, 5))
            grid_size = int(rng.integers(2, 7))
            q = random_q_member(rng, demand, grid_size)
            assert q_membership(q, tol=1e-8) == [], (demand, grid_size)


class TestPolicyRoundTrip:
    """q -> one-uniform quantile sampler -> exact law of its draws -> q."""

    def test_round_trip_on_random_members(self, rng):
        for _ in range(300):
            demand = int(rng.integers(1, 5))
            grid_size = int(rng.integers(2, 9))
            q = random_q_member(rng, demand, grid_size)
            law = sampler_law(q)
            back = enumerated_marginals(law, demand, grid_size)
            assert np.max(np.abs(back - q)) <= 1e-12


class TestInducedMarginals:
    def test_monte_carlo_marginals_match_q(self, rng):
        for demand, grid_size in ((3, 4), (2, 6), (4, 3), (1, 5)):
            q = random_q_member(rng, demand, grid_size)
            draws = 50_000
            counts = np.zeros((demand, grid_size))
            for _ in range(draws):
                counts[np.arange(demand), sample_from_marginals(q, rng)] += 1
            freq = counts / draws
            sigma = np.sqrt(np.maximum(q * (1 - q), 1e-12) / draws)
            assert np.all(np.abs(freq - q) <= 3 * sigma + 5e-4), (demand, grid_size)

    def test_deterministic_chain(self):
        q = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        for u in (0.0, 0.3, LAST_UNIFORM):
            assert np.array(sample_from_marginals(q, FixedUniform(u))).tolist() == [2, 1]

    def test_sampled_vectors_are_monotone(self, rng):
        q = random_q_member(rng, 4, 5)
        for _ in range(200):
            bid = np.array(sample_from_marginals(q, rng))
            assert np.all(np.diff(bid) <= 0)
        # dominance met only to a 1e-9 slack: slot 1 alone would move up for
        # uniforms inside the slack, and the running minimum holds it down
        slack = np.array([[0.5 + 1e-9, 0.5 - 1e-9], [0.5, 0.5]])
        bid = np.array(sample_from_marginals(slack, FixedUniform(0.5 + 5e-10)))
        assert bid.tolist() == [0, 0]

    def test_draws_avoid_zero_mass_and_ir_masked_cells(self):
        grid = make_even_grid(8)
        valuation = ValuationProfile(np.array([0.6, 0.3, 0.3]))
        bidder = OmdBidder(valuation, grid, 200, mode=FeedbackMode.BANDIT_IX, seed=4)
        adversary = StochasticAdversary(grid.indices_of([[0.0, 1 / 7, 2 / 7]]), [1.0], seed=0)
        measures = [bidder.q.copy()]
        for row in adversary.draws(0, 40):
            bid = BidVector(bidder.propose()[0], grid)
            bidder.observe([settle(valuation, bid, CompetingBids(row, grid)).allocation])
            measures.append(bidder.q.copy())
        # zero-mass cells inside the IR region, at both ends of the rows
        measures.append(np.array([[0.0, 0.3, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0],
                                  [0.0, 0.6, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0],
                                  [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]))
        for q in measures:
            law = sampler_law(q)
            extremes = [np.array(sample_from_marginals(q, FixedUniform(u)))
                        for u in (0.0, LAST_UNIFORM)]
            for indices in list(law) + [tuple(b) for b in extremes]:
                cells = (np.arange(3), np.array(indices))
                assert np.all(q[cells] > 0.0) and np.all(bidder.allowed[cells]), indices
        # the extreme uniforms reach the first and last cells of positive mass
        assert [b.tolist() for b in extremes] == [[1, 1, 1], [3, 2, 1]]

    def test_same_seed_same_draws_one_uniform_each(self, rng):
        q = random_q_member(rng, 4, 6)
        first, second = np.random.default_rng(11), np.random.default_rng(11)
        a = [np.array(sample_from_marginals(q, first)).tolist() for _ in range(100)]
        b = [np.array(sample_from_marginals(q, second)).tolist() for _ in range(100)]
        assert a == b
        reference = np.random.default_rng(11)
        reference.random(100)
        assert first.random() == reference.random()


class TestSamplerMatchesCountRule:
    """Bisecting each CDF row picks the indices that counting its entries does."""

    EXTREMES = (0.0, np.nextafter(1.0, 0.0))

    def assert_same_picks(self, q, uniforms):
        for u in (*self.EXTREMES, *uniforms):
            got = sample_from_marginals(q, FixedUniform(u))
            assert np.array_equal(got, count_rule_indices(q, u)), (q, u)

    def test_random_members(self, rng):
        for _ in range(200):
            q = random_q_member(rng, int(rng.integers(1, 7)), int(rng.integers(2, 22)))
            self.assert_same_picks(q, rng.random(20))

    def test_zero_mass_masked_and_tiny_cells(self, rng):
        grid = make_even_grid(8)
        allowed = ValuationProfile(np.array([0.6, 0.3, 0.3])).ir_mask(grid)
        for _ in range(100):
            q = random_q_member(rng, 3, 8) * allowed
            q[rng.random(q.shape) < 0.3] = 0.0  # interior zero-mass cells
            q[(rng.random(q.shape) < 0.2) & allowed] = 1e-300  # IR-masked cells stay empty
            q[:, 0] += 1e-3  # every row keeps some mass
            q /= q.sum(axis=1, keepdims=True)
            self.assert_same_picks(q, rng.random(20))

    def test_running_minimum_absorbs_dominance_slack(self):
        # slot 1 alone would move up for uniforms inside the 1e-9 slack
        slack = np.array([[0.5 + 1e-9, 0.5 - 1e-9], [0.5, 0.5]])
        raw = np.count_nonzero(np.cumsum(slack, axis=1) <= 0.5 + 5e-10, axis=1)
        assert raw.tolist() == [0, 1]
        self.assert_same_picks(slack, [0.5 + 5e-10, 0.5 - 5e-10, 0.5, 0.25, 0.75])
