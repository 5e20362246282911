"""Auction primitives: grids, allocation, per-slot rewards, settlement."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabid import (
    BidGrid,
    BidVector,
    CompetingBids,
    TieBreak,
    ValuationProfile,
    make_even_grid,
)

from oracles import (
    AuctionOutcome,
    allocate,
    competing_bids,
    merge_settle,
    settle,
    slot_reward,
    win_mask,
)


class TestBidGrid:
    def test_two_point_grid_is_endpoints(self):
        grid = make_even_grid(2)
        assert grid.values.tolist() == [0.0, 1.0]

    def test_even_grid_step_one_twentieth(self):
        grid = make_even_grid(21)
        assert grid.count == 21
        assert np.allclose(grid.values, np.arange(21) / 20)

    def test_stochastic_benchmark_grid_contains_key_bids(self):
        grid = make_even_grid(11)
        for value in (0.4, 0.3, 0.1):
            assert abs(grid.values[grid.index_of(value)] - value) < 1e-12

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_too_small_grid_rejected(self, bad):
        with pytest.raises(ValueError):
            make_even_grid(bad)

    def test_grid_must_span_unit_interval(self):
        with pytest.raises(ValueError):
            BidGrid(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            BidGrid(np.array([0.1, 1.0]))
        with pytest.raises(ValueError):
            BidGrid(np.array([0.0, 0.5, 0.5, 1.0]))


class TestVectors:
    def test_valuations_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            ValuationProfile(np.array([0.4, 0.6]))

    def test_bids_must_be_monotone(self):
        grid = make_even_grid(11)
        with pytest.raises(ValueError):
            BidVector.from_values([0.1, 0.4], grid)

    def test_individual_rationality_enforced_at_settlement(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([0.5, 0.2]))
        bid = BidVector.from_values([0.6, 0.2], grid)
        competing = CompetingBids.from_values([0.0, 0.0], grid)
        with pytest.raises(ValueError):
            settle(valuation, bid, competing)

    def test_competing_bids_must_be_non_decreasing(self):
        grid = make_even_grid(11)
        with pytest.raises(ValueError):
            CompetingBids.from_values([0.5, 0.2], grid)

    @pytest.mark.parametrize("indices, message", [
        ([], "non-empty vector"),
        ([[2, 1]], "non-empty vector"),
        ([2, -1], "outside grid"),
        ([5, 0], "outside grid"),
        ([1, 2], "non-increasing"),
    ])
    def test_bid_vector_rejects(self, indices, message):
        with pytest.raises(ValueError, match=message):
            BidVector(np.array(indices, dtype=np.int64), make_even_grid(5))

    @pytest.mark.parametrize("indices, priorities, message", [
        ([], None, "non-empty vector"),
        ([[1, 2]], None, "non-empty vector"),
        ([-1, 2], None, "outside grid"),
        ([0, 5], None, "outside grid"),
        ([2, 1], None, "non-decreasing"),
        ([1, 2], [0], "priorities must match"),
        ([1, 2], [[0, 1]], "priorities must match"),
    ])
    def test_competing_bids_reject(self, indices, priorities, message):
        with pytest.raises(ValueError, match=message):
            CompetingBids(np.array(indices, dtype=np.int64), make_even_grid(5), priorities)


class TestCompetingBids:
    def test_two_rivals_sort_and_take(self):
        grid = make_even_grid(11)
        rivals = [BidVector.from_values([0.5, 0.2], grid), BidVector.from_values([0.4, 0.1], grid)]
        merged = competing_bids(rivals, supply=2, grid=grid)
        assert merged.values.tolist() == [0.4, 0.5]

    def test_empty_market_pads_with_zeros(self):
        grid = make_even_grid(11)
        merged = competing_bids([], supply=3, grid=grid)
        assert merged.values.tolist() == [0.0, 0.0, 0.0]

    def test_identical_bids_truncated(self):
        grid = make_even_grid(11)
        merged = competing_bids([BidVector.from_values([1, 1, 1], grid)], supply=2, grid=grid)
        assert merged.values.tolist() == [1.0, 1.0]

    def test_padded_entries_lose_ties(self):
        grid = make_even_grid(11)
        merged = competing_bids([], supply=1, grid=grid)
        bid = BidVector.from_values([0.0], grid)
        # zero bid against a padded (absent) zero wins even under BIDDER_LOSES
        assert allocate(bid, merged, TieBreak.BIDDER_LOSES) == 1


class TestAllocate:
    def test_benchmark_tie_instance(self):
        grid = make_even_grid(11)
        bid = BidVector.from_values([0.4, 0.3, 0.1], grid)
        competing = CompetingBids.from_values([0.3, 0.3, 1.0], grid)
        assert allocate(bid, competing, TieBreak.BIDDER_WINS) == 2

    def test_equal_zero_bids_lose_under_strict_rule(self):
        grid = make_even_grid(11)
        bid = BidVector.from_values([0, 0, 0], grid)
        competing = CompetingBids.from_values([0, 0, 0], grid)
        assert allocate(bid, competing, TieBreak.BIDDER_LOSES) == 0

    def test_dominant_bid_wins_all_units(self):
        grid = make_even_grid(11)
        bid = BidVector.from_values([1, 1], grid)
        competing = CompetingBids.from_values([0, 0], grid)
        for tie in TieBreak:
            assert allocate(bid, competing, tie) == 2

    def test_demand_beyond_supply_rejected(self):
        grid = make_even_grid(11)
        bid = BidVector.from_values([1, 1, 1], grid)
        competing = CompetingBids.from_values([0, 0], grid)
        with pytest.raises(ValueError):
            allocate(bid, competing)


class TestSlotReward:
    def test_paper_slot_value(self):
        assert slot_reward(1.0, 0.4, 0.3) == pytest.approx(0.6)

    def test_losing_bid_earns_nothing(self):
        assert slot_reward(0.5, 0.5, 0.9) == 0.0

    def test_winning_tie_at_value_zero_margin(self):
        assert slot_reward(0.7, 0.7, 0.7, TieBreak.BIDDER_WINS) == pytest.approx(0.0)


class TestSettle:
    def test_sweep_all_three_units(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([1.0, 1.0, 1.0]))
        bid = BidVector.from_values([0.4, 0.3, 0.1], grid)
        competing = CompetingBids.from_values([0.1, 0.1, 0.1], grid)
        out = settle(valuation, bid, competing, TieBreak.BIDDER_WINS)
        assert out.allocation == 3
        assert out.utility == pytest.approx(2.2)
        assert out.reward - out.payment == pytest.approx(out.utility)

    def test_tie_at_top_slot_won(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([1.0, 1.0, 1.0]))
        bid = BidVector.from_values([0.4, 0.3, 0.1], grid)
        competing = CompetingBids.from_values([0.4, 1.0, 1.0], grid)
        out = settle(valuation, bid, competing, TieBreak.BIDDER_WINS)
        assert out.allocation == 1
        assert out.utility == pytest.approx(0.6)

    def test_blocked_market_yields_nothing(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([0.8, 0.6]))
        bid = BidVector.from_values([0.8, 0.6], grid)
        competing = CompetingBids.from_values([1.0, 1.0], grid)
        out = settle(valuation, bid, competing, TieBreak.BIDDER_LOSES)
        assert out == AuctionOutcome(allocation=0, utility=0.0, payment=0.0, reward=0.0)

    def test_settlement_equals_slotwise_sum(self, rng):
        grid = make_even_grid(6)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            valuation = ValuationProfile(np.sort(rng.random(m))[::-1])
            allowed_counts = [int(np.sum(grid.values <= v + 1e-12)) for v in valuation.values]
            idx = np.array([rng.integers(0, c) for c in allowed_counts])
            idx = np.minimum.accumulate(idx)
            bid = BidVector(idx, grid)
            competing = CompetingBids(np.sort(rng.integers(0, 6, size=m)), grid)
            tie = TieBreak.BIDDER_WINS if rng.random() < 0.5 else TieBreak.BIDDER_LOSES
            out = settle(valuation, bid, competing, tie)
            per_slot = sum(
                slot_reward(valuation.values[k], bid.values[k], competing.values[k], tie)
                for k in range(m)
            )
            assert out.utility == pytest.approx(per_slot)


class TestInvariants:
    def test_prefix_allocation(self, rng):
        grid = make_even_grid(6)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            idx = np.sort(rng.integers(0, 6, size=m))[::-1]
            bid = BidVector(idx, grid)
            competing = CompetingBids(np.sort(rng.integers(0, 6, size=m)), grid)
            for tie in TieBreak:
                mask = win_mask(bid, competing, tie)
                assert np.all(np.diff(mask.astype(int)) <= 0), "wins must form a prefix"

    def test_raising_one_bid_never_decreases_allocation(self, rng):
        grid = make_even_grid(6)
        checked = 0
        while checked < 200:
            m = int(rng.integers(1, 5))
            idx = np.sort(rng.integers(0, 5, size=m))[::-1]
            slot = int(rng.integers(0, m))
            raised = idx.copy()
            raised[slot] += 1
            if slot > 0 and raised[slot] > raised[slot - 1]:
                continue  # raise would break bid monotonicity
            bid = BidVector(idx, grid)
            competing = CompetingBids(np.sort(rng.integers(0, 6, size=m)), grid)
            for tie in TieBreak:
                assert allocate(BidVector(raised, grid), competing, tie) >= allocate(bid, competing, tie)
            checked += 1

    def test_tie_rule_ordering(self, rng):
        grid = make_even_grid(5)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            idx = np.sort(rng.integers(0, 5, size=m))[::-1]
            bid = BidVector(idx, grid)
            competing = CompetingBids(np.sort(rng.integers(0, 5, size=m)), grid)
            assert (allocate(bid, competing, TieBreak.BIDDER_WINS)
                    >= allocate(bid, competing, TieBreak.BIDDER_LOSES))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_slotwise_settlement_matches_global_merge(self, data):
        """Per-agent slot-wise allocation equals the merge-all-bids allocator."""
        d = data.draw(st.integers(2, 6), label="grid size")
        grid = make_even_grid(d)
        n_agents = data.draw(st.integers(1, 4), label="agents")
        supply = data.draw(st.integers(1, 4), label="supply")
        bids = []
        for _ in range(n_agents):
            m = data.draw(st.integers(1, supply), label="demand")
            raw = data.draw(st.lists(st.integers(0, d - 1), min_size=m, max_size=m))
            bids.append(BidVector(np.sort(np.array(raw, dtype=np.int64))[::-1], grid))
        reference = merge_settle(bids, supply)
        for n, bid in enumerate(bids):
            rivals = [b for r, b in enumerate(bids) if r != n]
            priorities = [r for r in range(n_agents) if r != n]
            competing = competing_bids(rivals, supply, grid, rival_priorities=priorities)
            got = allocate(bid, competing, bidder_priority=n)
            assert got == reference[n], (bids, reference)
