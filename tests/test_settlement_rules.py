"""The win-threshold rule and the rival-pooling rule against their loop oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabid.adversaries import StochasticAdversary
from pabid.auction import (
    BidVector,
    CompetingBids,
    ValuationProfile,
    round_thresholds,
    settle_columns,
)
from pabid.grids import make_even_grid
from pabid.hindsight import accumulate_weights_history
from pabid.simulator import ENV_BLOCK, RunLog, SelfPlayMarket, market_metrics

from oracles import (
    ENV_LOSES_PRIORITY,
    ENV_WINS_PRIORITY,
    PooledBids,
    accumulate_weights,
    allocate,
    competing_bids,
    drawn_row,
    loop_competing_history,
    loop_market_metrics,
    loop_round,
    priority_thresholds,
    settle,
    settle_prefix,
    win_mask,
    win_matrix,
)

METRIC_SERIES = ("welfare", "revenue", "total_utility", "normalized_welfare",
                 "normalized_revenue", "cumulative_average_welfare",
                 "cumulative_average_revenue", "log2_win_spread", "log2_price_gap")


class Scripted:
    """Full-information group of one agent that plays fixed rows and records
    the win thresholds it observes."""

    wants_full_info = True

    def __init__(self, rows, grid):
        self.rows = rows
        self.grid = grid
        self.seen = []

    def propose(self):
        return self.rows[len(self.seen)][None, :]

    def observe(self, allocations, thresholds=None):
        self.seen.append(thresholds[0])


class Replay:
    """Environment that draws fixed ascending rows."""

    def __init__(self, rows):
        self.rows = rows

    def draws(self, t0, t1):
        return np.array(self.rows[t0:t1], dtype=np.int64)


def run_market(grid, agent_rows, supply, env_rows=None, env_wins_ties=False):
    """Play scripted agents (valuation 1 on every unit) against an optional environment."""
    learners = [Scripted(rows, grid) for rows in agent_rows]
    valuations = [ValuationProfile(np.ones(len(rows[0]))) for rows in agent_rows]
    environment = Replay(env_rows) if env_rows is not None else None
    market = SelfPlayMarket(learners, valuations, grid, supply, environment, env_wins_ties)
    return market, market.play(len(agent_rows[0]))


def sorted_rows(draw, rounds, width, grid_size, descending):
    rows = []
    for _ in range(rounds):
        row = sorted(draw(st.lists(st.integers(0, grid_size - 1),
                                   min_size=width, max_size=width)), reverse=descending)
        rows.append(np.array(row, dtype=np.int64))
    return rows


@st.composite
def markets(draw):
    """Small markets: N = 1-4 agents of unequal demand, few grid points so
    equal indices across owners are common, a supply that often exceeds the
    rival bid count, and an environment present or absent under both tie modes."""
    d = draw(st.integers(2, 4), label="grid size")
    supply = draw(st.integers(1, 6), label="supply")
    rounds = draw(st.integers(1, 4), label="rounds")
    n_agents = draw(st.integers(1, 4), label="agents")
    agent_rows = [sorted_rows(draw, rounds, draw(st.integers(1, supply), label="demand"), d, True)
                  for _ in range(n_agents)]
    env_rows = sorted_rows(draw, rounds, supply, d, False) if draw(st.booleans()) else None
    return make_even_grid(d), agent_rows, supply, env_rows, draw(st.booleans())


@st.composite
def selfplay_shape_rows(draw, env):
    """Rows of `market_selfplay`'s shape: grid 21, supply 5 and 3 agents of
    demand 5, with or without an environment row."""
    rounds = draw(st.integers(1, 4), label="rounds")
    agent_rows = [sorted_rows(draw, rounds, 5, 21, True) for _ in range(3)]
    return agent_rows, sorted_rows(draw, rounds, 5, 21, False) if env else None


class TestPooling:
    @settings(max_examples=300, deadline=None)
    @given(markets())
    def test_play_history_and_competing_bids_match_loop_pool(self, case):
        assert_pooled_like_loop(case)

    @pytest.mark.parametrize("env", [False, True])
    @pytest.mark.parametrize("env_wins_ties", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_the_selfplay_shape_matches_loop_pool(self, env, env_wins_ties, data):
        """The self-play benchmark's shape: each agent has twice the supply in
        rival bids, and the first supply + 5 keys of the sort hold at least
        the supply of them."""
        agent_rows, env_rows = data.draw(selfplay_shape_rows(env))
        assert_pooled_like_loop((make_even_grid(21), agent_rows, 5, env_rows, env_wins_ties))


def assert_pooled_like_loop(case):
    """`play`'s logged and observed thresholds, settlement and competing bids
    equal the agent-by-agent loop's, and `competing_bids` pools the same."""
    grid, agent_rows, supply, env_rows, env_wins_ties = case
    market, log = run_market(grid, agent_rows, supply, env_rows, env_wins_ties)
    env_priority = ENV_WINS_PRIORITY if env_wins_ties else ENV_LOSES_PRIORITY
    oracle = [loop_round([rows[t] for rows in agent_rows], market.valuations, grid, supply,
                         None if env_rows is None else env_rows[t], env_wins_ties)
              for t in range(log.rounds)]
    for n, learner in enumerate(market.learners):
        ref_idx, ref_pri = loop_competing_history(log, n)
        # the log keeps the thresholds each agent settled against
        assert log.thresholds[n].tolist() == [oracle[t][n][1] for t in range(log.rounds)]
        for t, seen in enumerate(learner.seen):
            competing, thresholds, outcome = oracle[t][n]
            assert competing.indices.tolist() == ref_idx[t].tolist()
            assert competing.priorities.tolist() == ref_pri[t].tolist()
            # the round's thresholds and settlement equal the per-agent loop's
            assert seen == thresholds
            bid = BidVector(log.bids[n][t], grid)
            assert log.allocations[t, n] == outcome.allocation == allocate(
                bid, competing, bidder_priority=n)
            for got, ref in ((log.utilities, outcome.utility), (log.payments, outcome.payment),
                             (log.rewards, outcome.reward)):
                assert repr(float(got[t, n])) == repr(ref)
            owners = [r for r in range(len(agent_rows)) if r != n]
            rivals = [BidVector(log.bids[r][t], grid) for r in owners]
            if env_rows is not None:
                rivals.append(BidVector(env_rows[t][::-1], grid))
                owners.append(env_priority)
            pooled = competing_bids(rivals, supply, grid, rival_priorities=owners)
            assert pooled.indices.tolist() == ref_idx[t].tolist()
            assert pooled.priorities.tolist() == ref_pri[t].tolist()
            # uniform priorities select the same indices
            assert competing_bids(rivals, supply, grid).indices.tolist() == ref_idx[t].tolist()


class TestReplay:
    @settings(max_examples=300, deadline=None)
    @given(markets())
    def test_replay_accepts_every_played_market_and_rejects_one_changed_cell(self, case):
        grid, agent_rows, supply, env_rows, env_wins_ties = case
        _, log = run_market(grid, agent_rows, supply, env_rows, env_wins_ties)
        assert log.replay_matches()
        for logged in (log.allocations, log.utilities, log.payments, log.rewards):
            for cell in np.ndindex(logged.shape):
                saved = logged[cell]
                logged[cell] += 1
                assert not log.replay_matches()
                logged[cell] = saved
        assert log.replay_matches()
        for n, thresholds in enumerate(log.thresholds):
            for t in np.flatnonzero(log.allocations[:, n]):
                saved = thresholds[t].copy()
                thresholds[t] = grid.count  # no bid wins a slot
                assert not log.replay_matches()
                thresholds[t] = saved


class Spy(StochasticAdversary):
    """Stochastic environment that records the blocks of rounds `play` reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.blocks = []

    def draws(self, t0, t1):
        self.blocks.append((t0, t1))
        return super().draws(t0, t1)


class TestLoneAgent:
    """A one-agent market reads its thresholds off the environment's blocks; the
    log must equal the per-round pooling of `round_thresholds` byte for byte."""

    @pytest.mark.parametrize("env_wins_ties", [False, True])
    @pytest.mark.parametrize("demand, supply", [(2, 3), (3, 3)])
    def test_log_equals_per_round_pooling(self, env_wins_ties, demand, supply):
        rounds, grid = ENV_BLOCK + 200, make_even_grid(6)
        rng = np.random.default_rng(demand + 10 * supply + 100 * env_wins_ties)
        support = [np.sort(rng.integers(0, 6, supply)) for _ in range(4)]
        environment = Spy(support, [0.4, 0.3, 0.2, 0.1], seed=7)
        rows = np.sort(rng.integers(0, 6, (rounds, demand)), axis=1)[:, ::-1]
        agent = Scripted(rows, grid)
        valuation = ValuationProfile(np.ones(demand))
        market = SelfPlayMarket([agent], [valuation], grid, supply, environment, env_wins_ties)
        log = market.play(rounds, seed=3)
        assert environment.blocks == [(0, ENV_BLOCK), (ENV_BLOCK, rounds)]

        ranks = [1, 2] if env_wins_ties else [2, 1]  # the agent's, then the environment's
        env_rows = [drawn_row(support, [0.4, 0.3, 0.2, 0.1], 7, t).tolist()
                    for t in range(rounds)]
        thresholds = [round_thresholds([row, env_row], ranks, supply, 1)[0]
                      for row, env_row in zip(rows.tolist(), env_rows)]
        pooled = np.array(thresholds, dtype=np.int64)
        allocated, rewards, payments = (column[:, None] for column in settle_columns(
            rows, pooled, valuation.reward_prefix(), grid.values.tolist()))
        reference = RunLog(
            grid=grid, valuations=[valuation], bids=[rows], thresholds=[pooled],
            allocations=allocated, utilities=rewards - payments, payments=payments,
            rewards=rewards, env_bids=np.array(env_rows, dtype=np.int64),
            env_wins_ties=env_wins_ties, supply=supply, seed=3)

        def arrays(run):
            return [run.thresholds[0], run.bids[0], run.allocations, run.utilities, run.payments,
                    run.rewards, run.env_bids]

        for got, want in zip(arrays(log), arrays(reference)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert log.to_csv_text() == reference.to_csv_text()
        assert log.to_json_text() == reference.to_json_text()
        assert [list(seen) for seen in agent.seen] == thresholds
        assert 0 < log.allocations.sum() < rounds * demand
        assert log.replay_matches()

    @pytest.mark.parametrize("agents", [1, 2])
    @pytest.mark.parametrize("bad_round", [3, ENV_BLOCK + 3])
    @pytest.mark.parametrize("bad_index", [-1, 6])
    def test_environment_index_outside_the_grid_names_the_round(self, agents, bad_round,
                                                                 bad_index):
        rounds, grid = ENV_BLOCK + 10, make_even_grid(6)
        env_rows = [[0, 1]] * rounds
        env_rows[bad_round] = [0, bad_index] if bad_index > 0 else [bad_index, 1]
        agent_rows = [np.zeros((rounds, 1), dtype=np.int64)] * agents
        with pytest.raises(ValueError, match=f"^round {bad_round}: environment bids"):
            run_market(grid, agent_rows, 2, env_rows)


@st.composite
def settlement_columns(draw):
    """One bidder's (T, M) bids within its IR caps and slot thresholds, T from 0
    to across `ENV_BLOCK`. A round's thresholds are random up to the grid size
    (no bid wins), all the grid size (nobody wins) or all 0 (every unit won)."""
    d = draw(st.integers(2, 6), label="grid size")
    grid = make_even_grid(d)
    m = draw(st.integers(1, 4), label="demand")
    rounds = draw(st.one_of(st.integers(0, 12), st.integers(ENV_BLOCK - 2, ENV_BLOCK + 2)),
                  label="rounds")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    valuation = ValuationProfile(np.sort(rng.random(m))[::-1])
    bids = np.minimum(np.sort(rng.integers(0, d, (rounds, m)), axis=1)[:, ::-1],
                      valuation.ir_caps(grid))
    thresholds = rng.integers(0, d + 1, (rounds, m))
    kind = rng.integers(0, 3, rounds)
    thresholds[kind == 1] = d
    thresholds[kind == 2] = 0
    return grid, valuation, bids, thresholds


class TestSettleColumns:
    @settings(max_examples=150, deadline=None)
    @given(settlement_columns())
    def test_columns_equal_per_round_settlement(self, case):
        grid, valuation, bids, thresholds = case
        allocations, rewards, payments = settle_columns(bids, thresholds, valuation.reward_prefix(),
                                                        grid.values.tolist())
        settled = [settle_prefix(row, thr, valuation.ir_caps(grid), valuation.reward_prefix(),
                                 grid.values.tolist())
                   for row, thr in zip(bids.tolist(), thresholds.tolist())]
        assert allocations.dtype == np.int64 and allocations.shape == (len(bids),)
        assert allocations.tolist() == [x for x, _, _, _ in settled]
        for got, want in ((rewards, [r for _, _, _, r in settled]),
                          (payments, [p for _, _, p, _ in settled]),
                          (rewards - payments, [u for _, u, _, _ in settled])):
            assert got.tobytes() == np.array(want, dtype=float).tobytes()


@st.composite
def settlements(draw):
    d = draw(st.integers(2, 5), label="grid size")
    grid = make_even_grid(d)
    m = draw(st.integers(1, 4), label="demand")
    supply = draw(st.integers(m, m + 2), label="supply")
    bid = BidVector(sorted_rows(draw, 1, m, d, True)[0], grid)
    if draw(st.booleans()):
        # pooled entries come sorted by (index, priority)
        entries = sorted(draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(-2, 3)),
                                       min_size=supply, max_size=supply)))
        competing = PooledBids(np.array([e[0] for e in entries]), grid,
                               np.array([e[1] for e in entries]))
    else:
        competing = CompetingBids(sorted_rows(draw, 1, supply, d, False)[0], grid)
    tie = draw(st.booleans())
    bidder_priority = draw(st.one_of(st.none(), st.integers(-2, 3)))
    return grid, bid, competing, tie, bidder_priority


class TestWinRule:
    @settings(max_examples=400, deadline=None)
    @given(settlements())
    def test_settle_and_win_matrix_match_win_mask(self, case):
        grid, bid, competing, tie, bidder_priority = case
        m = bid.indices.size
        outcome = settle(ValuationProfile(np.ones(m)), bid, competing, tie, bidder_priority)
        assert outcome.allocation == allocate(bid, competing, tie, bidder_priority)
        wins = win_matrix(competing, m, tie, bidder_priority)
        for j in range(grid.count):
            constant = BidVector(np.full(m, j), grid)
            expected = win_mask(constant, competing, tie, bidder_priority)
            assert wins[:, j].tolist() == expected.tolist()

    @pytest.mark.parametrize("tie, priorities, bidder_priority", [
        (True, None, None),
        (False, [2], 1),
        (False, [1], 1),
        (True, [0], None),
    ])
    def test_rival_at_top_index_that_wins_the_tie_blocks_every_bid(
            self, tie, priorities, bidder_priority):
        grid = make_even_grid(5)
        competing = PooledBids(np.array([4]), grid, priorities)
        assert priority_thresholds(competing.indices, competing.priorities, 1, tie,
                                   bidder_priority).tolist() == [grid.count]
        assert not win_matrix(competing, 1, tie, bidder_priority).any()
        top = BidVector(np.array([4]), grid)
        assert settle(ValuationProfile(np.ones(1)), top, competing, tie,
                      bidder_priority).allocation == 0
        assert allocate(top, competing, tie, bidder_priority) == 0


@st.composite
def histories(draw):
    d = draw(st.integers(2, 6), label="grid size")
    grid = make_even_grid(d)
    m = draw(st.integers(1, 4), label="demand")
    supply = draw(st.integers(m, m + 2), label="supply")
    rounds = draw(st.integers(0, 8), label="rounds")
    comp_idx = np.array(sorted_rows(draw, rounds, supply, d, False),
                        dtype=np.int64).reshape(rounds, supply)
    comp_pri = None
    if draw(st.booleans()):
        comp_pri = np.array(draw(st.lists(st.integers(-2, 3), min_size=rounds * supply,
                                          max_size=rounds * supply)),
                            dtype=np.int64).reshape(rounds, supply)
    values = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)), reverse=True)
    tie = draw(st.booleans())
    bidder_priority = draw(st.one_of(st.none(), st.integers(-2, 3)))
    return grid, ValuationProfile(np.array(values)), comp_idx, comp_pri, tie, bidder_priority


class TestWeightHistory:
    @settings(max_examples=300, deadline=None)
    @given(histories())
    def test_history_table_equals_per_round_table_bit_for_bit(self, case):
        grid, valuation, comp_idx, comp_pri, tie, bidder_priority = case
        history = [PooledBids(row, grid, None if comp_pri is None else comp_pri[t])
                   for t, row in enumerate(comp_idx)]
        loop = accumulate_weights(valuation, history, grid, tie, bidder_priority)
        thresholds = priority_thresholds(comp_idx, comp_pri, valuation.demand, tie,
                                         bidder_priority)
        fast = accumulate_weights_history(valuation, thresholds, grid)
        assert fast.weights.tobytes() == loop.weights.tobytes()
        assert fast.allowed.tolist() == loop.allowed.tolist()


def assert_metrics_identical(log):
    fast, loop = market_metrics(log), loop_market_metrics(log)
    assert fast.max_welfare == loop.max_welfare
    for name in METRIC_SERIES:
        assert getattr(fast, name).tobytes() == getattr(loop, name).tobytes(), name


class TestMarketMetrics:
    @settings(max_examples=300, deadline=None)
    @given(markets())
    def test_vectorised_metrics_match_loop_bit_for_bit(self, case):
        _, log = run_market(*case)
        assert_metrics_identical(log)

    def test_round_nobody_wins(self):
        grid = make_even_grid(5)
        _, log = run_market(grid, [[np.array([4, 2])], [np.array([3])]], supply=2,
                            env_rows=[np.array([4, 4])], env_wins_ties=True)
        assert log.allocations.sum() == 0
        assert_metrics_identical(log)

    def test_zero_value_winning_bid(self):
        grid = make_even_grid(5)
        _, log = run_market(grid, [[np.array([2, 0])], [np.array([1, 0])]], supply=3)
        assert log.allocations[0].tolist() == [1, 2]  # agent 1 wins its zero bid
        assert np.isnan(market_metrics(log).log2_win_spread).all()
        assert_metrics_identical(log)

    def test_every_unit_won(self):
        grid = make_even_grid(5)
        _, log = run_market(grid, [[np.array([4, 1]), np.array([3, 3])],
                                   [np.array([2]), np.array([0])]], supply=3)
        assert log.allocations.tolist() == [[2, 1], [2, 1]]
        assert np.isnan(market_metrics(log).log2_price_gap).all()
        assert_metrics_identical(log)
