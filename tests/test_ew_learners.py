"""Exponential-weights learners: schedules, updates, and full runs."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabid import _kernels
from pabid.adversaries import StochasticAdversary
from pabid.auction import BidVector, CompetingBids, ValuationProfile, win_thresholds
from pabid.exp_weights import (
    UNIFORM_BLOCK_ROWS,
    ExpWeightsBidder,
    FeedbackMode,
    estimator_offsets,
    eta_schedule,
    ix_gamma_schedule,
)
from pabid.grids import make_even_grid
from pabid.hindsight import NodeWeightTable, accumulate_weights_history
from pabid.mirror_descent import OmdBidder
from pabid.scenario import build_market, validate_scenario
from pabid.simulator import SelfPlayMarket

from conftest import TARGETS, draw_bid, play_against
from oracles import (
    PerRoundDrawBidder,
    PooledBids,
    accumulate_weights,
    bandit_step,
    check_ir,
    competing_thresholds,
    masked,
)


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
                ew = ExpWeightsBidder([valuation], grid, 100, [0], mode=mode, eta=0.1,
                                      gamma=gamma)
                omd = OmdBidder(valuation, grid, 100, mode=mode, gamma=gamma)
                assert ew.gamma[0].tolist() == omd.gamma.tolist() == expected.tolist()


def observed_table(valuation, grid, threshold_rows):
    """The weight table of a one-agent full-information group after it
    observes each row of win thresholds, one round per row: its win counts
    times the slot rewards."""
    group = ExpWeightsBidder([valuation], grid, max(len(threshold_rows), 1), [0])
    for row in threshold_rows:
        group.propose()
        group.observe([0], [row])
    allowed = group.allowed[:, 0]
    weights = group.weights[:, 0] * _kernels.slot_rewards(allowed, valuation.values, grid.values)
    return NodeWeightTable(weights, allowed, grid, valuation)


class TestFullInfoUpdate:
    def test_unbeatable_competitors_leave_table_unchanged(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([0.75, 0.5]))
        before = accumulate_weights(valuation, [], grid).weights
        competing = CompetingBids.from_values([1.0, 1.0], grid)
        table = observed_table(valuation, grid,
                               [win_thresholds(competing.indices, 2, True)])
        assert np.array_equal(table.weights, before)

    def test_single_update_equals_singleton_accumulation(self, rng):
        """One update adds exactly the singleton history's table, under both
        tie modes, with and without rival and own priorities."""
        grid = make_even_grid(7)
        for tie in (False, True):
            for rival_priorities in (False, True):
                for _ in range(30):
                    m = int(rng.integers(1, 4))
                    supply = m + int(rng.integers(0, 2))
                    valuation = ValuationProfile(np.sort(rng.random(m))[::-1])
                    priorities = rng.integers(0, 3, size=supply) if rival_priorities else None
                    competing = PooledBids(np.sort(rng.integers(0, 7, size=supply)), grid,
                                           priorities)
                    own = None if rng.random() < 0.5 else int(rng.integers(0, 3))
                    incremental = observed_table(valuation, grid,
                                                 [competing_thresholds(competing, m, tie, own)])
                    reference = accumulate_weights(valuation, [competing], grid, tie, own)
                    assert np.array_equal(incremental.weights, reference.weights)

    def test_forbidden_cells_stay_forbidden(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.array([0.5]))
        competing = CompetingBids.from_values([0.0], grid)
        table = observed_table(valuation, grid, [win_thresholds(competing.indices, 1)] * 5)
        assert np.all(table.weights[~table.allowed] == 0.0)
        assert np.isneginf(masked(table)[~table.allowed]).all()

    def test_constant_valuation_weight_factorization(self, rng):
        """With a fixed valuation, W[m, b] = (#wins of (m, b)) * (v_m - b)."""
        grid = make_even_grid(6)
        valuation = ValuationProfile(np.array([0.9, 0.7, 0.4]))
        history = [CompetingBids(np.sort(rng.integers(0, 6, size=3)), grid) for _ in range(25)]
        table = observed_table(valuation, grid, [win_thresholds(c.indices, 3) for c in history])
        margin = valuation.values[:, None] - grid.values[None, :]
        wins = np.zeros((3, 6))
        for competing in history:
            for m in range(3):
                for j in range(6):
                    if j > competing.indices[m] or j == competing.indices[m]:
                        wins[m, j] += 1
        expect = np.where(table.allowed, wins * margin, 0.0)
        assert np.array_equal(table.weights, expect)


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
            log_sums, log_prefix = _kernels.ew_tail_sums(table.weights, table.allowed, 0.1)
            marginals = _kernels.ew_marginals(log_sums)
            played = draw_bid(log_prefix, rng, grid)
            allocation = int(rng.integers(0, m + 1))
            gamma = rng.uniform(0.0, 0.2, size=m) if rng.random() < 0.5 else None
            before = table.weights.copy()
            applied = bandit_step(table, marginals, played, allocation, gamma)
            offset = np.zeros(m) if gamma is None else gamma
            for slot, j in enumerate(played.indices):
                w = valuation.values[slot] - grid.values[j] if slot < allocation else 0.0
                assert applied[slot] == 1.0 - (1.0 - w) / (marginals[slot, j] + offset[slot])
            delta = table.weights - before
            is_played = np.zeros((m, 6), bool)
            is_played[np.arange(m), played.indices] = True
            assert np.allclose(delta[is_played], applied, rtol=0.0, atol=1e-12)
            assert np.allclose(delta[table.allowed & ~is_played], 1.0, rtol=0.0, atol=1e-12)
            assert np.all(delta[~table.allowed] == 0.0)


def crossing_valuations():
    return [ValuationProfile(np.array(v)) for v in ([1.0, 0.8, 0.5], [0.9, 0.7, 0.7],
                                                    [1.0, 0.6, 0.2])]


def crossing_adversary(grid):
    return StochasticAdversary(grid.indices_of([[0.1] * 3, [0.3, 0.3, 1.0]]), [0.5, 0.5], seed=4)


def grouped_and_alone(grid, rates, rounds, mode=FeedbackMode.FULL_INFO):
    """Three agents of demand 3 against a supply of 3 and a stochastic
    environment, agent i seeded i at the (eta, gamma) of `rates[i]`: the
    (CSV text, log_rounds) of their play in groups of equal rates, those of
    their play as three one-agent groups, and the groups' members."""
    valuations, adversary = crossing_valuations(), crossing_adversary(grid)
    members = {}
    for i, rate in enumerate(rates):
        members.setdefault(rate, []).append(i)
    members = list(members.values())
    groups = [ExpWeightsBidder([valuations[i] for i in agents], grid, rounds, agents, mode,
                               *rates[agents[0]]) for agents in members]
    grouped = SelfPlayMarket(groups, valuations, grid, 3, adversary,
                             members=members).play(rounds)
    log_rounds = [0] * len(rates)
    for group, agents in zip(groups, members):
        for i, count in zip(agents, group.log_rounds.tolist()):
            log_rounds[i] = count
    solos = [ExpWeightsBidder([v], grid, rounds, [i], mode, *rate)
             for i, (v, rate) in enumerate(zip(valuations, rates))]
    alone = SelfPlayMarket(solos, valuations, grid, 3, adversary).play(rounds)
    return ((grouped.to_csv_text(), log_rounds),
            (alone.to_csv_text(), [int(solo.log_rounds[0]) for solo in solos]), members)


class TestLearnerRuns:
    def test_bandit_requires_small_eta(self):
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.ones(4))
        with pytest.raises(ValueError):
            ExpWeightsBidder([valuation], grid, 100, [0], mode=FeedbackMode.BANDIT_IPW, eta=0.5)

    def test_bandit_rejects_nan_eta(self):
        """A rate that is not a positive finite number is refused at set-up, in
        every mode, by a ValueError that names eta."""
        grid = make_even_grid(5)
        valuations = [ValuationProfile(np.ones(2))] * 2
        for mode in FeedbackMode:
            for eta in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="eta must be a positive finite number"):
                    ExpWeightsBidder(valuations, grid, 100, [0, 1], mode=mode, eta=eta)

    def test_group_needs_one_mode_and_one_demand(self):
        grid = make_even_grid(5)
        with pytest.raises(ValueError, match="one mode and one demand"):
            ExpWeightsBidder([ValuationProfile(np.ones(2)), ValuationProfile(np.ones(1))], grid, 10,
                             [0, 0])

    def test_observe_before_propose_rejected(self):
        learner = ExpWeightsBidder([ValuationProfile(np.ones(2))], make_even_grid(5), 10, [0])
        with pytest.raises(RuntimeError, match="observe called before propose"):
            learner.observe(None, [[0, 0]])

    def test_full_info_round_requires_thresholds(self):
        learner = ExpWeightsBidder([ValuationProfile(np.ones(2))], make_even_grid(5), 10, [0])
        learner.propose()
        with pytest.raises(ValueError, match="requires the win thresholds"):
            learner.observe(None, None)

    def test_group_plays_as_its_agents_would_alone(self):
        """One group of three agents and three one-agent groups write the same
        log, in every mode, at each of three rates."""
        grid = make_even_grid(9)
        valuations = [ValuationProfile(np.array(v)) for v in ([1.0, 0.6], [0.8, 0.5], [0.9, 0.2])]
        adversary = StochasticAdversary(
            grid.indices_of([[0.25, 0.5, 0.75], [0.0, 0.125, 1.0]]), [0.5, 0.5], seed=3)
        for mode in FeedbackMode:
            for eta in (0.05, 0.1, 0.15):
                grouped = SelfPlayMarket(
                    [ExpWeightsBidder(valuations, grid, 80, [0, 1, 2], mode=mode, eta=eta)],
                    valuations, grid, 3, adversary, members=[[0, 1, 2]]).play(80)
                alone = SelfPlayMarket([ExpWeightsBidder([v], grid, 80, [i], mode=mode, eta=eta)
                                        for i, v in enumerate(valuations)],
                                       valuations, grid, 3, adversary).play(80)
                assert grouped.to_csv_text() == alone.to_csv_text()

    def test_a_full_information_group_crosses_each_agents_bound_as_it_would_alone(self):
        """Rates 2, 1 and 0.5 at M = 3, D = 11 leave linear tables after 116,
        232 and 463 rounds (`linear_rounds`), so 300 rounds take the market,
        one group per rate, through rounds where every agent, some agents and
        no agent sample from logs."""
        grid = make_even_grid(11)
        grouped, alone, members = grouped_and_alone(grid, [(2.0, None), (1.0, None),
                                                           (0.5, None)], 300)
        assert members == [[0], [1], [2]]
        assert grouped == alone
        assert grouped[1] == [184, 68, 0]

    @pytest.mark.parametrize("env_wins_ties", [False, True])
    def test_a_crossing_groups_counts_give_the_hindsight_tables(self, env_wins_ties):
        """The three groups above, under either tie rule: after 300 rounds,
        across each group's switch to logs, each agent's win counts times its
        slot rewards are the hindsight table of its logged thresholds, bit for
        bit."""
        grid = make_even_grid(11)
        valuations = crossing_valuations()
        groups = [ExpWeightsBidder([v], grid, 300, [i], eta=eta)
                  for i, (v, eta) in enumerate(zip(valuations, (2.0, 1.0, 0.5)))]
        log = SelfPlayMarket(groups, valuations, grid, 3, crossing_adversary(grid),
                             env_wins_ties).play(300)
        assert [int(group.log_rounds[0]) for group in groups] == [184, 68, 0]
        for i, (group, valuation) in enumerate(zip(groups, valuations)):
            rewards = _kernels.slot_rewards(group.allowed[:, 0], valuation.values, grid.values)
            table = accumulate_weights_history(valuation, log.thresholds[i], grid)
            assert np.array_equal(group.weights[:, 0] * rewards, table.weights)

    def test_a_bandit_group_mixing_linear_and_log_tables_plays_as_alone(self):
        """Agents 0 and 2 explore at gamma 1e-6 and rate 0.3, one group, and
        agent 1 on the schedules, another; in 208 rounds agent 2's tables
        leave the linear range while agent 0's stay linear, so the stack
        samples and updates from mixed tables."""
        grid = make_even_grid(11)
        rates = [(0.3, 1e-6), (None, None), (0.3, 1e-6)]
        grouped, alone, members = grouped_and_alone(grid, rates, 600, FeedbackMode.BANDIT_IX)
        assert members == [[0, 2], [1]]
        assert grouped == alone
        assert grouped[1] == [0, 0, 208], TARGETS  # log rounds follow the bits of np.exp

    def test_the_tables_are_slot_major(self):
        """`weights` and `allowed` are C-contiguous (M, k, D) arrays, and
        `weights[:, i]` is the table agent i would hold alone."""
        grid = make_even_grid(11)
        valuations = crossing_valuations()[:2]
        adversary = crossing_adversary(grid)
        group = ExpWeightsBidder(valuations, grid, 50, [0, 1], eta=2.0)
        SelfPlayMarket([group], valuations, grid, 3, adversary, members=[[0, 1]]).play(50)
        assert group.weights.shape == group.allowed.shape == (3, 2, 11)
        assert group.weights.flags.c_contiguous and group.allowed.flags.c_contiguous
        solos = [ExpWeightsBidder([v], grid, 50, [i], eta=2.0) for i, v in enumerate(valuations)]
        SelfPlayMarket(solos, valuations, grid, 3, adversary).play(50)
        for i, (solo, valuation) in enumerate(zip(solos, valuations)):
            assert group.weights[:, i].tobytes() == solo.weights[:, 0].tobytes()
            assert group.allowed[:, i].tolist() == valuation.ir_mask(grid).tolist()

    @pytest.mark.parametrize("agents", [1, 2])
    def test_the_workspace_is_built_at_the_first_propose_and_reused(self, monkeypatch, agents):
        """A group builds its per-round tables lazily, once, in the shape its
        kernels read: (M, D) for a lone agent, (M, k, D) for a stack."""
        built = []

        class Counted(_kernels.Workspace):
            def __init__(self, shape):
                built.append(shape)
                super().__init__(shape)

        monkeypatch.setattr(_kernels, "Workspace", Counted)
        grid = make_even_grid(11)
        valuations = crossing_valuations()[:agents]
        group = ExpWeightsBidder(valuations, grid, 40, list(range(agents)),
                                 mode=FeedbackMode.BANDIT_IX)
        assert built == []
        SelfPlayMarket([group], valuations, grid, 3, crossing_adversary(grid),
                       members=[range(agents)]).play(40)
        assert built == [(3, 11) if agents == 1 else (3, 2, 11)]
        group.propose()
        assert np.shares_memory(group._pending_marginals, group._work.marginals[0])
        assert len(built) == 1

    def test_hopeless_market_yields_zero_utility_and_ir_bids(self):
        grid = make_even_grid(6)
        valuation = ValuationProfile(np.array([0.8, 0.6]))
        adversary = StochasticAdversary(grid.indices_of([[1.0, 1.0]]), [1.0], seed=0)
        learner = ExpWeightsBidder([valuation], grid, 300, [4])
        log = play_against(learner, adversary, 300, tie=True)
        assert math.fsum(log.utilities[:, 0]) == 0.0
        for row in log.bids[0]:
            check_ir(BidVector(row, grid), valuation)

    def test_deterministic_given_seed(self):
        grid = make_even_grid(9)
        valuation = ValuationProfile(np.array([1.0, 0.9]))
        adversary = StochasticAdversary(
            grid.indices_of([[0.25, 0.5], [0.0, 0.75]]), [0.5, 0.5], seed=3)

        def bids(seed):
            learner = ExpWeightsBidder([valuation], grid, 100, [seed], mode=FeedbackMode.BANDIT_IX)
            return play_against(learner, adversary, 100).bids[0]

        runs = [bids(77) for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])
        other = bids(78)
        assert not np.array_equal(runs[0], other)

    def test_full_info_learner_table_matches_offline_accumulation(self):
        grid = make_even_grid(6)
        valuation = ValuationProfile(np.array([1.0, 0.5]))
        adversary = StochasticAdversary(
            grid.indices_of([[0.2, 0.4], [0.0, 1.0]]), [0.6, 0.4], seed=1)
        learner = ExpWeightsBidder([valuation], grid, 50, [5])
        history = []
        for row in adversary.draws(0, 50):
            learner.propose()
            competing = CompetingBids(row, grid)
            history.append(competing)
            learner.observe([0], win_thresholds(competing.indices, 2)[None])
        reference = accumulate_weights(valuation, history, grid)
        rewards = _kernels.slot_rewards(reference.allowed, valuation.values, grid.values)
        assert np.array_equal(learner.weights[:, 0] * rewards, reference.weights)

    def test_ir_safety_over_full_run(self):
        grid = make_even_grid(9)
        valuation = ValuationProfile(np.array([0.7, 0.45, 0.2]))
        adversary = StochasticAdversary(grid.indices_of([[0.125, 0.25, 0.375]]), [1.0], seed=0)
        for mode in FeedbackMode:
            learner = ExpWeightsBidder([valuation], grid, 200, [9], mode=mode)
            log = play_against(learner, adversary, 200)
            for row in log.bids[0]:
                assert np.all(grid.values[row] <= valuation.values + 1e-12)


def full_info_document(agents, grid_size, supply, rounds, seed, tie="agent_wins"):
    """A scenario of EW full-information `agents` against a stochastic
    environment of two support rows drawn from `seed`."""
    rng = np.random.default_rng(seed)
    values = make_even_grid(grid_size).values
    support = [sorted(values[rng.integers(0, grid_size, size=supply)].tolist()) for _ in range(2)]
    return {"name": "full_info", "grid_size": grid_size, "rounds": rounds, "master_seed": seed,
            "supply": supply, "agents": agents,
            "environment": {"kind": "stochastic", "support": support, "probs": [0.5, 0.5],
                            "tie": tie}}


def play_scenario(document):
    """Replication 0 of a scenario document: its log and its market."""
    market, seed, config = build_market(validate_scenario(document), 0)
    return market.play(document["rounds"], config=config, seed=seed), market


class TestFullInfoTables:
    """Full-information groups sample from exp(eta W) itself while the range
    bound holds, and from log tail sums after."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([1, 3]), m=st.integers(1, 6), d=st.integers(2, 41),
           agent_loses=st.booleans(), eta=st.one_of(st.none(), st.floats(0.01, 3.0)),
           seed=st.integers(0, 2**16))
    def test_linear_tables_write_the_bytes_of_log_tables(self, k, m, d, agent_loses, eta, seed):
        agent = {"algorithm": "ew", "feedback": "full",
                 "valuation": {"kind": "uniform_sorted", "demand": m}}
        if eta is not None:
            agent["eta"] = eta
        rounds = 150
        document = full_info_document([agent] * k, d, m + 1, rounds, seed,
                                      "agent_loses" if agent_loses else "agent_wins")
        linear, market = play_scenario(document)
        (group,) = market.learners
        crossing = max(math.floor(_kernels.linear_rounds(m, d, group.eta)) + 1, 0)
        assert group.log_rounds.tolist() == [max(rounds - crossing, 0)] * k
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "_LINEAR_LOG_MAX", -math.inf)  # no round fits
            logs, market = play_scenario(document)
        assert market.learners[0].log_rounds.tolist() == [rounds] * k
        assert linear.to_csv_text() == logs.to_csv_text()
        assert linear.to_json_text() == logs.to_json_text()

    def test_a_run_crosses_the_bound(self):
        """eta 2 at M = 3, D = 11: (700 - log C(13, 3)) / (3 * 2) = 115.7, so
        rounds 0 to 115 sample from linear tables and the 184 after from logs."""
        agent = {"algorithm": "ew", "feedback": "full", "valuation": [1.0, 0.8, 0.5], "eta": 2}
        document = full_info_document([agent], 11, 3, 300, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log, market = play_scenario(document)
        assert log.replay_matches()
        assert math.floor(_kernels.linear_rounds(3, 11, 2.0)) + 1 == 116
        assert market.learners[0].log_rounds.tolist() == [300 - 116]

    @pytest.mark.parametrize("algorithm", ["ew", "omd"])
    def test_a_large_grid_plays(self, algorithm):
        """A valid scenario at grid size 2**16 (demand x grid size well inside
        `MAX_CELLS`) plays its rounds: an update costs memory in M k D."""
        agent = {"algorithm": algorithm, "feedback": "full",
                 "valuation": {"kind": "uniform_sorted", "demand": 2}}
        log, market = play_scenario(full_info_document([agent] * 2, 2**16, 3, 3, 7))
        assert log.rounds == 3 and log.replay_matches()

    @pytest.mark.parametrize("k", [1, 2])
    def test_an_update_allocates_in_proportion_to_the_tables(self, k):
        """At D = 4,097 + k, two full-information rounds after the first `propose`
        allocate at most a few (M, k, D) tables at once, not a (D + 1, D) mask."""
        grid = make_even_grid(4097 + k)
        valuations = [ValuationProfile(np.array([1.0, 0.6]))] * k
        group = ExpWeightsBidder(valuations, grid, 10, list(range(k)))
        thresholds = [[2000, 3000]] * k
        group.propose()
        tracemalloc.start()
        try:
            group.observe(None, thresholds)
            group.propose()
            group.observe(None, thresholds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * group.weights.nbytes

    def test_a_full_information_workspace_builds_no_marginals(self):
        """The workspace builds q, its forward rows and its row buffer at first
        use; a full-information group, on bounded and then log tables, uses none
        of them, only the win index of its win counts."""
        agent = {"algorithm": "ew", "feedback": "full", "valuation": [1.0, 0.8, 0.5], "eta": 2}
        _, market = play_scenario(full_info_document([agent] * 2, 11, 3, 150, 4))
        (group,) = market.learners
        assert group.log_rounds.tolist() == [150 - 116] * 2
        assert sorted(vars(group._work)) == ["backward", "prefix", "sums", "win_index"]


class TestUniformBlocks:
    """Each agent draws its uniforms a block of rounds at a time; the bids
    equal those of one draw per round."""

    @pytest.mark.parametrize("mode", [FeedbackMode.FULL_INFO, FeedbackMode.BANDIT_IX])
    @pytest.mark.parametrize("k", [1, 3])
    def test_blocks_bid_as_per_round_draws(self, mode, k):
        grid = make_even_grid(9)
        rows = ([1.0, 0.6], [0.8, 0.5], [0.9, 0.2])[:k]
        valuations = [ValuationProfile(np.array(v)) for v in rows]
        adversary = StochasticAdversary(
            grid.indices_of([[0.25, 0.5, 0.75], [0.0, 0.125, 1.0]]), [0.5, 0.5], seed=3)
        edge = UNIFORM_BLOCK_ROWS
        # T = 1, a block edge, one past it, and play beyond a horizon of 5
        for horizon, rounds in ((1, 1), (edge, edge), (edge + 1, edge + 1), (5, edge + 20)):
            logs = [SelfPlayMarket([kind(valuations, grid, horizon, list(range(k)), mode=mode)],
                                   valuations, grid, 3, adversary,
                                   members=[range(k)]).play(rounds).to_csv_text()
                    for kind in (ExpWeightsBidder, PerRoundDrawBidder)]
            assert logs[0] == logs[1]
