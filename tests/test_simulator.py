"""Run orchestration: logs, replay, regret reports, and market metrics."""
import math

import numpy as np
import pytest

from pabid import (
    Scenario,
    ScenarioError,
    market_metrics,
    regret_report,
    run_experiment,
    validate_scenario,
)


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


class TestRegretReport:
    def test_hindsight_player_has_zero_regret(self):
        """An agent that plays the (known) hindsight optimum every round."""
        from pabid.auction import settle_prefix

        scenario = validate_scenario(benchmark_scenario(rounds=400))
        log = run_experiment(scenario)
        report = regret_report(log, 0)
        # overwrite the log with the benchmark bid, settled against the
        # thresholds the agent faced, every round
        fixed = report.benchmark_bid
        values = log.valuations[0].values.tolist()
        for t in range(log.rounds):
            log.bids[0][t] = fixed.indices
            x, utility, payment, reward = settle_prefix(
                values, fixed.indices.tolist(), fixed.values.tolist(),
                log.thresholds[0][t].tolist())
            log.allocations[t, 0] = x
            log.utilities[t, 0] = utility
            log.payments[t, 0] = payment
            log.rewards[t, 0] = reward
        assert log.replay_matches()
        fresh = regret_report(log, 0)
        assert fresh.discretized_regret == pytest.approx(0.0, abs=1e-9)
        assert fresh.continuous_regret_upper == pytest.approx(
            3 * log.rounds / 10, abs=1e-9)

    def test_random_bidder_regret_non_negative_in_expectation(self):
        """30 seeds of a uniform-random monotone bidder: mean regret >= 0."""
        import numpy as np

        from pabid import CompetingBids, StochasticAdversary, make_even_grid
        from pabid import ValuationProfile, win_thresholds
        from pabid.hindsight import accumulate_weights_history, hindsight_optimal

        from oracles import iter_monotone_indices, settle

        grid = make_even_grid(6)
        valuation = ValuationProfile(np.ones(2))
        vectors = [idx for idx in iter_monotone_indices(2, 6)]
        rounds = 150
        margins = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            support = [CompetingBids(np.sort(rng.integers(0, 6, size=2)), grid)
                       for _ in range(3)]
            adversary = StochasticAdversary(support, [1 / 3] * 3, seed=seed)
            hist = np.empty((rounds, 2), dtype=np.int64)
            realized = 0.0
            for t in range(rounds):
                competing = adversary.draw(t)
                hist[t] = competing.indices
                from pabid import BidVector

                bid = BidVector(vectors[rng.integers(0, len(vectors))], grid)
                realized += settle(valuation, bid, competing).utility
            best = hindsight_optimal(
                accumulate_weights_history(valuation, win_thresholds(hist, None, 2), grid))
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
        from pabid import BidVector, ValuationProfile, make_even_grid
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
        from pabid import BidVector, ValuationProfile, make_even_grid
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
        from pabid import BidVector, ValuationProfile, make_even_grid
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


class TestPersistence:
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
