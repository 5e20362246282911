"""Run orchestration: logs, replay, regret reports, and market metrics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabid.adversaries import StochasticAdversary
from pabid.auction import ValuationProfile
from pabid.exp_weights import ExpWeightsBidder, FeedbackMode
from pabid.grids import make_even_grid
from pabid.mirror_descent import OmdBidder
from pabid.scenario import (
    Scenario,
    ScenarioError,
    build_market,
    replication_seeds,
    run_experiment,
    validate_scenario,
)
from pabid.simulator import RunLog, SelfPlayMarket, market_metrics, regret_report

from oracles import csv_text, json_text, spawn_all_replication_seeds


def benchmark_scenario(rounds=300, replications=1, seed=7, feedback="full", algorithm="ew"):
    return {
        "name": "bench",
        "grid_size": 11,
        "rounds": rounds,
        "replications": replications,
        "master_seed": seed,
        "supply": 3,
        "agents": [
            {"algorithm": algorithm, "feedback": feedback, "valuation": [1.0, 1.0, 1.0]},
        ],
        "environment": {
            "kind": "stochastic",
            "support": [[0.1, 0.1, 0.1], [0.3, 0.3, 1.0], [0.4, 1.0, 1.0]],
            "probs": [0.5, 0.25, 0.25],
            "tie": "agent_wins",
        },
    }


def market_scenario(rounds=200, replications=1, seed=3):
    return {
        "name": "market",
        "grid_size": 21,
        "rounds": rounds,
        "replications": replications,
        "master_seed": seed,
        "supply": 5,
        "agents": [
            {"algorithm": "ew", "feedback": "full",
             "valuation": {"kind": "uniform_sorted", "demand": 5}}
            for _ in range(3)
        ],
        "environment": {"kind": "self_play"},
    }


class TestRunExperiment:
    def test_zero_rounds_gives_empty_log(self):
        log = run_experiment(validate_scenario(benchmark_scenario(rounds=0)))
        assert log.rounds == 0

    def test_replay_check_passes(self):
        log = run_experiment(validate_scenario(benchmark_scenario(rounds=200)))
        assert log.replay_matches()

    def test_market_replay_check_passes(self):
        log = run_experiment(validate_scenario(market_scenario(rounds=150)))
        assert log.replay_matches()

    def test_seed_isolation(self):
        scenario = validate_scenario(benchmark_scenario(rounds=100, replications=2))
        log_a = run_experiment(scenario, 0)
        log_b = run_experiment(scenario, 0)
        assert log_a.to_csv_text() == log_b.to_csv_text()
        log_c = run_experiment(scenario, 1)
        assert log_a.to_csv_text() != log_c.to_csv_text()

    def test_invalid_scenario_lists_fields(self):
        document = benchmark_scenario()
        document["agents"][0]["algorithm"] = "sgd"
        document["rounds"] = -1
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(document)
        joined = "\n".join(excinfo.value.problems)
        assert "agents[0].algorithm" in joined
        assert "rounds" in joined

    def test_unknown_keys_rejected(self):
        document = benchmark_scenario()
        document["plot"] = True
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(document)
        assert any("plot" in p for p in excinfo.value.problems)


class TestReplicationSeeds:
    """A replication's seeds come from its spawn key, equal to spawning them all."""

    @settings(max_examples=100, deadline=None)
    @given(master_seed=st.one_of(st.just(0), st.integers(1, 1_000), st.integers(2**64, 2**128 - 1)),
           replications=st.integers(1, 5_000), agents=st.integers(1, 4), data=st.data())
    def test_equal_to_spawning_every_replication(self, master_seed, replications, agents, data):
        replication = data.draw(st.one_of(st.just(0), st.just(replications - 1),
                                          st.integers(0, replications - 1)))
        document = benchmark_scenario(replications=replications, seed=master_seed)
        document["agents"] *= agents
        got = replication_seeds(validate_scenario(document), replication)
        want = spawn_all_replication_seeds(master_seed, replications, replication, agents)
        assert len(got) == len(want) == agents + 2
        for a, b in zip(got, want):
            assert a.entropy == b.entropy
            assert a.spawn_key == b.spawn_key
            assert a.generate_state(8).tolist() == b.generate_state(8).tolist()

    @pytest.mark.parametrize("document", [benchmark_scenario, market_scenario])
    def test_build_market_spawns_only_its_own_children(self, monkeypatch, document):
        counts = []

        class Recording(np.random.SeedSequence):
            def spawn(self, n_children):
                counts.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", Recording)
        scenario = validate_scenario(document(replications=10_000))
        for replication in (0, 9_999):
            build_market(scenario, replication)
        assert counts and max(counts) <= len(scenario.agents) + 2


class TestRegretReport:
    def test_hindsight_player_has_zero_regret(self):
        """An agent that plays the (known) hindsight optimum every round."""
        from pabid.auction import settle_columns

        scenario = validate_scenario(benchmark_scenario(rounds=400))
        log = run_experiment(scenario)
        report = regret_report(log, 0)
        # overwrite the log with the benchmark bid, settled against the
        # thresholds the agent faced, every round
        fixed = report.benchmark_bid
        valuation = log.valuations[0]
        log.bids[0][:] = fixed.indices
        x, rewards, payments = settle_columns(log.bids[0], log.thresholds[0],
                                              valuation.reward_prefix(), log.grid.values.tolist())
        log.allocations[:, 0] = x
        log.utilities[:, 0] = rewards - payments
        log.payments[:, 0] = payments
        log.rewards[:, 0] = rewards
        assert log.replay_matches()
        fresh = regret_report(log, 0)
        assert fresh.discretized_regret == pytest.approx(0.0, abs=1e-9)
        assert fresh.continuous_regret_upper == pytest.approx(
            3 * log.rounds / 10, abs=1e-9)

    def test_random_bidder_regret_non_negative_in_expectation(self):
        """30 seeds of a uniform-random monotone bidder: mean regret >= 0."""
        import numpy as np

        from pabid.adversaries import StochasticAdversary
        from pabid.auction import CompetingBids
        from pabid.grids import make_even_grid
        from pabid.auction import ValuationProfile, win_thresholds
        from pabid.hindsight import accumulate_weights_history, hindsight_optimal

        from oracles import iter_monotone_indices, settle

        grid = make_even_grid(6)
        valuation = ValuationProfile(np.ones(2))
        vectors = [idx for idx in iter_monotone_indices(2, 6)]
        rounds = 150
        margins = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            support = [np.sort(rng.integers(0, 6, size=2)) for _ in range(3)]
            adversary = StochasticAdversary(support, [1 / 3] * 3, seed=seed)
            hist = adversary.draws(0, rounds)
            realized = 0.0
            for t in range(rounds):
                competing = CompetingBids(hist[t], grid)
                from pabid.auction import BidVector

                bid = BidVector(vectors[rng.integers(0, len(vectors))], grid)
                realized += settle(valuation, bid, competing).utility
            best = hindsight_optimal(
                accumulate_weights_history(valuation, win_thresholds(hist, 2), grid))
            margins.append(best.total_utility - realized)
        mean = float(np.mean(margins))
        se = float(np.std(margins, ddof=1) / math.sqrt(len(margins)))
        assert mean >= -2 * se

    def test_running_average_series_shape(self):
        log = run_experiment(validate_scenario(benchmark_scenario(rounds=50)))
        report = regret_report(log, 0)
        assert report.running_average_utility.shape == (50,)
        assert report.running_average_utility[-1] == pytest.approx(
            report.realized_utility / 50)


class TestMarketMetrics:
    def test_truthful_bidders_achieve_max_welfare(self):
        """All agents bid their valuations (grid-rounded down): welfare equals
        the best allocation of the supply to the pooled (rounded) values."""
        from pabid.auction import BidVector, ValuationProfile
        from pabid.grids import make_even_grid
        from pabid.simulator import SelfPlayMarket

        grid = make_even_grid(21)

        class Truthful:
            wants_full_info = False

            def __init__(self, valuation):
                idx = np.array([int(np.floor(v * 20 + 1e-9)) for v in valuation.values])
                self.bid = BidVector(np.sort(idx)[::-1], grid)

            def propose(self):
                return self.bid.indices[None]

            def observe(self, allocations, thresholds=None):
                pass

        valuations = [
            ValuationProfile(np.array([0.9, 0.5])),
            ValuationProfile(np.array([0.8, 0.3])),
        ]
        # use grid-exact valuations so truthful bids equal values
        learners = [Truthful(v) for v in valuations]
        market = SelfPlayMarket(learners, valuations, grid, supply=2)
        log = market.play(10)
        metrics = market_metrics(log)
        assert metrics.max_welfare == pytest.approx(0.9 + 0.8)
        assert np.allclose(metrics.welfare, metrics.max_welfare)
        assert np.allclose(metrics.normalized_welfare, 1.0)

    def test_revenue_never_exceeds_welfare_on_ir_logs(self):
        log = run_experiment(validate_scenario(market_scenario(rounds=150)))
        metrics = market_metrics(log)
        assert np.all(metrics.revenue <= metrics.welfare + 1e-12)

    def test_accounting_identity_exact_and_reconciled(self):
        log = run_experiment(validate_scenario(market_scenario(rounds=200)))
        metrics = market_metrics(log)
        # identity holds exactly by construction
        assert np.all(metrics.welfare - metrics.revenue == metrics.total_utility)
        # and reconciles with the per-agent logged utilities
        per_agent = np.array([math.fsum(log.utilities[t]) for t in range(log.rounds)])
        assert np.max(np.abs(per_agent - metrics.total_utility)) <= 1e-9

    def test_ratio_entries_absent_without_winners_or_losers(self):
        from pabid.auction import BidVector, ValuationProfile
        from pabid.grids import make_even_grid
        from pabid.simulator import SelfPlayMarket

        grid = make_even_grid(5)

        class Fixed:
            wants_full_info = False

            def __init__(self, idx):
                self.bid = BidVector(np.array(idx), grid)

            def propose(self):
                return self.bid.indices[None]

            def observe(self, allocations, thresholds=None):
                pass

        valuation = ValuationProfile(np.array([1.0, 1.0]))
        # both units always won by the single agent: no losing bids
        market = SelfPlayMarket([Fixed([2, 1])], [valuation], grid, supply=2)
        metrics = market_metrics(market.play(5))
        assert np.all(np.isfinite(metrics.log2_win_spread))  # winners exist
        assert np.all(np.isnan(metrics.log2_price_gap))  # no losing bids

    def test_uniform_converged_bids_have_zero_log_ratios(self):
        from pabid.auction import BidVector, ValuationProfile
        from pabid.grids import make_even_grid
        from pabid.simulator import SelfPlayMarket

        grid = make_even_grid(5)

        class Fixed:
            wants_full_info = False

            def __init__(self, idx):
                self.bid = BidVector(np.array(idx), grid)

            def propose(self):
                return self.bid.indices[None]

            def observe(self, allocations, thresholds=None):
                pass

        valuation = ValuationProfile(np.array([1.0, 1.0]))
        # two agents, identical positive bids; supply 2: one winning and one
        # losing bid at the same price each round
        market = SelfPlayMarket(
            [Fixed([2, 2]), Fixed([2, 2])],
            [valuation, valuation], grid, supply=2)
        metrics = market_metrics(market.play(5))
        assert np.allclose(metrics.log2_win_spread, 0.0)
        assert np.allclose(metrics.log2_price_gap, 0.0)


@st.composite
def run_logs(draw):
    """Logs of 1-3 agents of mixed demands, with or without an environment,
    a supply that often exceeds every demand (blank bid cells), 0-6 rounds,
    and utilities and payments drawn from a few floats of any kind (so that
    values repeat; NaN and infinities included) and the two zeros, which
    compare equal but print apart."""
    d = draw(st.integers(2, 6), label="grid size")
    demands = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="demands")
    supply = draw(st.integers(max(demands), max(demands) + 2), label="supply")
    rounds = draw(st.integers(0, 6), label="rounds")
    floats = draw(st.lists(st.floats(), max_size=4), label="floats") + [0.0, -0.0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    def cells():
        return np.array(floats)[rng.integers(0, len(floats), (rounds, len(demands)))]

    env_bids = (np.sort(rng.integers(0, d, (rounds, supply)), axis=1)
                if draw(st.booleans(), label="environment") else None)
    return RunLog(
        grid=make_even_grid(d), valuations=[ValuationProfile(np.ones(m)) for m in demands],
        bids=[np.sort(rng.integers(0, d, (rounds, m)), axis=1)[:, ::-1] for m in demands],
        thresholds=[np.zeros((rounds, m), dtype=np.int64) for m in demands],
        allocations=rng.integers(0, max(demands) + 1, (rounds, len(demands))),
        utilities=cells(), payments=cells(), rewards=cells(), env_bids=env_bids,
        env_wins_ties=draw(st.booleans()), supply=supply,
        seed=draw(st.integers(0, 2**63 - 1), label="log seed"))


class TestSupplyCheck:
    def test_oversold_round_names_the_first_round_and_its_agents(self, monkeypatch):
        """Agent 0 is handed zero thresholds in rounds 3 and 5, so it wins both
        units beside agent 1, which wins both ties; agent 2 wins nothing."""
        from pabid import simulator

        class Fixed:
            wants_full_info = False

            def __init__(self, idx):
                self.bid = np.array([idx])

            def propose(self):
                return self.bid

            def observe(self, allocations, thresholds=None):
                pass

        pool = simulator.round_thresholds
        calls = []

        def oversell_rounds_3_and_5(rows, *args):
            thresholds = pool(rows, *args)
            calls.append(None)
            if len(calls) in (4, 6):
                thresholds[0] = [0] * len(thresholds[0])
            return thresholds

        monkeypatch.setattr(simulator, "round_thresholds", oversell_rounds_3_and_5)
        grid = make_even_grid(5)
        market = simulator.SelfPlayMarket(
            [Fixed([2, 2]), Fixed([2, 2]), Fixed([1])],
            [ValuationProfile(np.ones(2))] * 2 + [ValuationProfile(np.ones(1))], grid, supply=2)
        with pytest.raises(RuntimeError) as excinfo:
            market.play(8)
        assert str(excinfo.value) == (
            "agents 0, 1, round 3: settlement granted more units than the supply")


class TestMarketChecks:
    class Idle:
        wants_full_info = False

    @pytest.mark.parametrize("learners, members", [
        (2, [[0], [0]]),      # agent 1 in no group, agent 0 in two
        (2, [[0, 1]]),        # fewer member lists than groups
        (1, [[0, 1, 2]]),     # an agent the market does not have
        (2, None),            # one agent per group, but three agents
    ])
    def test_members_must_partition_the_agents(self, learners, members):
        valuations = [ValuationProfile(np.ones(1))] * (3 if members is None else 2)
        with pytest.raises(ValueError, match="exactly one group"):
            SelfPlayMarket([self.Idle()] * learners, valuations, make_even_grid(5), 3,
                           members=members)

    def test_demand_above_the_supply_rejected(self):
        valuations = [ValuationProfile(np.ones(1)), ValuationProfile(np.ones(3))]
        with pytest.raises(ValueError, match="demand exceeds the supply"):
            SelfPlayMarket([self.Idle(), self.Idle()], valuations, make_even_grid(5), 2)

    @pytest.mark.parametrize("width", [1, 4])
    def test_environment_rows_must_be_as_wide_as_the_supply(self, width):
        """A narrower block must not be broadcast into equal bids, nor a wider
        one fail inside numpy: either stops the run, naming both widths."""
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.ones(2))
        env = StochasticAdversary(np.zeros((1, width), dtype=np.int64), [1.0], seed=0)
        market = SelfPlayMarket([ExpWeightsBidder([valuation], grid, 10, [0])],
                                [valuation], grid, 2, env)
        with pytest.raises(ValueError) as excinfo:
            market.play(10)
        assert str(excinfo.value) == (f"round 0: the environment drew bids of shape (10, {width}); "
                                      f"rounds 0-9 at supply 2 need (10, 2)")

    def test_a_group_proposes_one_row_per_member(self):
        """A two-agent group listed with one member stops the run: its second
        agent would learn from the first one's thresholds."""
        grid = make_even_grid(5)
        valuation = ValuationProfile(np.ones(2))
        group = ExpWeightsBidder([valuation] * 2, grid, 10, [1, 2])
        market = SelfPlayMarket([group], [valuation], grid, 2, members=[[0]])
        with pytest.raises(ValueError) as excinfo:
            market.play(10)
        assert str(excinfo.value) == "agent 0, round 0: proposed 2 bid rows for a group of 1"

    @pytest.mark.parametrize("kind, k", [("full", 1), ("full", 3), ("bandit_ix", 1),
                                         ("bandit_ix", 3), ("omd", 1)])
    def test_groups_propose_lists_of_python_ints(self, kind, k):
        """The group interface: k lists of M Python ints, in every round, which
        `play` pools and logs as they are."""
        grid = make_even_grid(11)
        valuation = ValuationProfile(np.array([1.0, 0.7, 0.4]))
        if kind == "omd":
            group = OmdBidder(valuation, grid, 20, seed=1)
        else:
            group = ExpWeightsBidder([valuation] * k, grid, 20, list(range(k)),
                                     mode=FeedbackMode(kind))
        for _ in range(20):
            rows = group.propose()
            assert type(rows) is list and len(rows) == k
            assert all(type(row) is list and len(row) == 3 for row in rows)
            assert all(type(j) is int for row in rows for j in row)
            if group.wants_full_info:
                group.observe(None, [[0, 3, 5]] * k)
            else:
                group.observe([1] * k)


class TestPersistence:
    @settings(max_examples=300, deadline=None)
    @given(run_logs())
    def test_serializers_equal_cell_by_cell_references(self, log):
        assert log.to_csv_text() == csv_text(log)
        if np.isfinite(log.utilities).all() and np.isfinite(log.payments).all():
            assert log.to_json_text() == json_text(log)
        else:  # JSON has no spelling for them
            with pytest.raises(ValueError, match="only finite utilities and payments"):
                log.to_json_text()

    @pytest.mark.parametrize("document", [
        market_scenario(rounds=750),  # 3 agents in self-play, as in the benchmark
        {**benchmark_scenario(rounds=400),  # the environment's rows are wider than the bids
         "agents": [{"algorithm": "ew", "feedback": "bandit_ix", "valuation": [1.0, 0.6]}]},
    ], ids=["self_play", "supply_above_demand"])
    def test_long_logs_equal_cell_by_cell_references(self, document):
        log = run_experiment(validate_scenario(document))
        assert log.to_csv_text() == csv_text(log)
        assert log.to_json_text() == json_text(log)

    def test_csv_round_trip_layout(self):
        log = run_experiment(validate_scenario(benchmark_scenario(rounds=5)))
        lines = log.to_csv_text().strip().splitlines()
        assert lines[0] == "t,agent,bid_1,bid_2,bid_3,allocation,utility,payment"
        # agent row + environment row per round
        assert len(lines) == 1 + 5 * 2

    def test_json_payload_parses(self):
        import json

        log = run_experiment(validate_scenario(benchmark_scenario(rounds=4)))
        payload = json.loads(log.to_json_text())
        assert len(payload["rows"]) == 4 * 2
        assert payload["rows"][0]["agent"] == 0

    def test_summary_totals(self):
        log = run_experiment(validate_scenario(benchmark_scenario(rounds=25)))
        summary = log.summary()
        assert summary["rounds"] == 25
        assert summary["agents"][0]["cumulative_utility"] == pytest.approx(
            float(np.sum(log.utilities[:, 0])), abs=1e-9)
