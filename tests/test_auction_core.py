"""Auction primitives: grids, allocation, per-slot rewards, settlement."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabid.auction import BidVector, CompetingBids, ValuationProfile
from pabid.grids import VALUE_EPS, BidGrid, make_even_grid

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

    def test_even_grids_are_shared_per_size(self):
        assert make_even_grid(21) is make_even_grid(21)
        assert make_even_grid(11) is not make_even_grid(21)
        assert make_even_grid(11).count == 11

    def test_shared_grid_values_are_read_only(self):
        grid = make_even_grid(21)
        with pytest.raises(ValueError):
            grid.values[0] = 0.5
        assert grid.values[0] == 0.0

    def test_too_small_grid_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError):
                make_even_grid(1)

    def test_direct_grid_keeps_writeable_values(self):
        grid = BidGrid(np.linspace(0.0, 1.0, 5))
        assert grid.values.flags.writeable
        grid.values[1] = 0.2
        assert grid.values[1] == 0.2

    def test_grid_must_span_unit_interval(self):
        with pytest.raises(ValueError):
            BidGrid(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            BidGrid(np.array([0.1, 1.0]))
        with pytest.raises(ValueError):
            BidGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_nan_grid_value_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BidGrid(np.array([0.0, np.nan, 1.0]))

    def test_one_value_grid_rejected(self):
        with pytest.raises(ValueError, match="at least two values"):
            BidGrid(np.array([0.0]))


class TestVectors:
    def test_valuations_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            ValuationProfile(np.array([0.4, 0.6]))

    @pytest.mark.parametrize("values", [[], [[1.0]]])
    def test_empty_valuation_rejected(self, values):
        with pytest.raises(ValueError, match="non-empty vector"):
            ValuationProfile(np.array(values))

    @pytest.mark.parametrize("values", [[np.nan], [1.0, np.nan]])
    def test_nan_valuation_rejected(self, values):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            ValuationProfile(np.array(values))

    def test_bids_must_be_monotone(self):
        grid = make_even_grid(11)
        with pytest.raises(ValueError):
            BidVector(grid.indices_of([0.1, 0.4]), grid)

    def test_individual_rationality_enforced_at_settlement(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([0.5, 0.2]))
        bid = BidVector(grid.indices_of([0.6, 0.2]), grid)
        competing = CompetingBids.from_values([0.0, 0.0], grid)
        with pytest.raises(ValueError):
            settle(valuation, bid, competing)

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 41), data=st.data())
    def test_ir_caps_are_the_value_rule(self, d, data):
        """Settlement refuses a bid exactly when some b_m > v_m + VALUE_EPS,
        valuations on, just off and between grid points included."""
        grid = make_even_grid(d)
        near = st.builds(lambda j, off: min(max(grid.values[j] + off, 0.0), 1.0),
                         st.integers(0, d - 1), st.sampled_from([0.0, -2e-12, -5e-13, 5e-13]))
        values = data.draw(st.lists(st.one_of(near, st.floats(0.0, 1.0)), min_size=1, max_size=5))
        valuation = ValuationProfile(np.sort(values)[::-1])
        m = valuation.demand
        bid = sorted(data.draw(st.lists(st.integers(0, d - 1), min_size=m, max_size=m)),
                     reverse=True)
        above = any(grid.values[j] > v + VALUE_EPS for j, v in zip(bid, valuation.values))
        competing = CompetingBids(np.zeros(m, dtype=np.int64), grid)
        if above:
            with pytest.raises(ValueError, match="individual rationality"):
                settle(valuation, BidVector(np.array(bid), grid), competing)
        else:
            assert settle(valuation, BidVector(np.array(bid), grid), competing).allocation == m

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

    @pytest.mark.parametrize("indices, message", [
        ([], "non-empty vector"),
        ([[1, 2]], "non-empty vector"),
        ([-1, 2], "outside grid"),
        ([0, 5], "outside grid"),
        ([2, 1], "non-decreasing"),
    ])
    def test_competing_bids_reject(self, indices, message):
        with pytest.raises(ValueError, match=message):
            CompetingBids(np.array(indices, dtype=np.int64), make_even_grid(5))


class TestCompetingBids:
    def test_two_rivals_sort_and_take(self):
        grid = make_even_grid(11)
        rivals = [BidVector(grid.indices_of([0.5, 0.2]), grid),
                  BidVector(grid.indices_of([0.4, 0.1]), grid)]
        merged = competing_bids(rivals, supply=2, grid=grid)
        assert grid.values[merged.indices].tolist() == [0.4, 0.5]

    def test_empty_market_pads_with_zeros(self):
        grid = make_even_grid(11)
        merged = competing_bids([], supply=3, grid=grid)
        assert grid.values[merged.indices].tolist() == [0.0, 0.0, 0.0]

    def test_identical_bids_truncated(self):
        grid = make_even_grid(11)
        merged = competing_bids([BidVector(grid.indices_of([1, 1, 1]), grid)], supply=2, grid=grid)
        assert grid.values[merged.indices].tolist() == [1.0, 1.0]

    def test_padded_entries_lose_ties(self):
        grid = make_even_grid(11)
        merged = competing_bids([], supply=1, grid=grid)
        bid = BidVector(grid.indices_of([0.0]), grid)
        # zero bid against a padded (absent) zero wins even when rivals win ties
        assert allocate(bid, merged, True) == 1


class TestAllocate:
    def test_benchmark_tie_instance(self):
        grid = make_even_grid(11)
        bid = BidVector(grid.indices_of([0.4, 0.3, 0.1]), grid)
        competing = CompetingBids.from_values([0.3, 0.3, 1.0], grid)
        assert allocate(bid, competing, False) == 2

    def test_equal_zero_bids_lose_under_strict_rule(self):
        grid = make_even_grid(11)
        bid = BidVector(grid.indices_of([0, 0, 0]), grid)
        competing = CompetingBids.from_values([0, 0, 0], grid)
        assert allocate(bid, competing, True) == 0

    def test_dominant_bid_wins_all_units(self):
        grid = make_even_grid(11)
        bid = BidVector(grid.indices_of([1, 1]), grid)
        competing = CompetingBids.from_values([0, 0], grid)
        for tie in (False, True):
            assert allocate(bid, competing, tie) == 2

    def test_demand_beyond_supply_rejected(self):
        grid = make_even_grid(11)
        bid = BidVector(grid.indices_of([1, 1, 1]), grid)
        competing = CompetingBids.from_values([0, 0], grid)
        with pytest.raises(ValueError):
            allocate(bid, competing)


class TestSlotReward:
    def test_paper_slot_value(self):
        assert slot_reward(1.0, 0.4, 0.3) == pytest.approx(0.6)

    def test_losing_bid_earns_nothing(self):
        assert slot_reward(0.5, 0.5, 0.9) == 0.0

    def test_winning_tie_at_value_zero_margin(self):
        assert slot_reward(0.7, 0.7, 0.7, False) == pytest.approx(0.0)


class TestSettle:
    def test_sweep_all_three_units(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([1.0, 1.0, 1.0]))
        bid = BidVector(grid.indices_of([0.4, 0.3, 0.1]), grid)
        competing = CompetingBids.from_values([0.1, 0.1, 0.1], grid)
        out = settle(valuation, bid, competing, False)
        assert out.allocation == 3
        assert out.utility == pytest.approx(2.2)
        assert out.reward - out.payment == pytest.approx(out.utility)

    def test_tie_at_top_slot_won(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([1.0, 1.0, 1.0]))
        bid = BidVector(grid.indices_of([0.4, 0.3, 0.1]), grid)
        competing = CompetingBids.from_values([0.4, 1.0, 1.0], grid)
        out = settle(valuation, bid, competing, False)
        assert out.allocation == 1
        assert out.utility == pytest.approx(0.6)

    def test_blocked_market_yields_nothing(self):
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([0.8, 0.6]))
        bid = BidVector(grid.indices_of([0.8, 0.6]), grid)
        competing = CompetingBids.from_values([1.0, 1.0], grid)
        out = settle(valuation, bid, competing, True)
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
            tie = rng.random() >= 0.5
            out = settle(valuation, bid, competing, tie)
            per_slot = sum(
                slot_reward(valuation.values[k], bid.values[k],
                            grid.values[competing.indices[k]], tie)
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
            for tie in (False, True):
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
            for tie in (False, True):
                assert allocate(BidVector(raised, grid), competing, tie) >= allocate(bid, competing, tie)
            checked += 1

    def test_tie_rule_ordering(self, rng):
        grid = make_even_grid(5)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            idx = np.sort(rng.integers(0, 5, size=m))[::-1]
            bid = BidVector(idx, grid)
            competing = CompetingBids(np.sort(rng.integers(0, 5, size=m)), grid)
            assert allocate(bid, competing, False) >= allocate(bid, competing, True)

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
