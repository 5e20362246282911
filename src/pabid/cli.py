"""Command-line experiment runner.

Subcommands:
  run         execute a scenario file (or bundled scenario) over its seeded
              replications; writes run logs, a metrics file, and a manifest
  hindsight   best fixed bid vector for a history of competing-bid rows
  grid-advice rate-optimal grid size for a feedback mode and horizon

Exit codes: 0 success, 1 runtime failure, 2 validation failure.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
import tempfile
from importlib import resources

import numpy as np

from . import __version__
from .auction import TieBreak, ValuationProfile, win_thresholds
from .grids import make_even_grid
from .hindsight import accumulate_weights_history, hindsight_optimal
from .scenario import Scenario, ScenarioError, canonical_hash, load_scenario
from .simulator import market_metrics, regret_report, run_experiment


def _resolve_scenario_path(name: str) -> str:
    if os.path.exists(name):
        return name
    bundle = resources.files("pabid").joinpath("scenarios", f"{name}.json")
    if bundle.is_file():
        return str(bundle)
    raise FileNotFoundError(f"no scenario file or bundled scenario named {name!r}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_single_replication(args: tuple) -> dict:
    scenario_dict, replication, out_dir, fmt = args
    from .scenario import validate_scenario

    scenario = validate_scenario(scenario_dict)
    log = run_experiment(scenario, replication)
    stem = os.path.join(out_dir, f"runlog_r{replication:03d}")
    if fmt == "csv":
        _atomic_write(stem + ".csv", log.to_csv_text())
    else:
        _atomic_write(stem + ".json", log.to_json_text())

    entry: dict = {"replication": replication, "summary": log.summary()}
    reports = []
    for agent in range(log.num_agents):
        report = regret_report(log, agent)
        reports.append({
            "agent": agent,
            "discretized_regret": report.discretized_regret,
            "continuous_regret_upper": report.continuous_regret_upper,
            "benchmark_utility": report.benchmark_utility,
            "realized_utility": report.realized_utility,
            "benchmark_bid": [float(v) for v in report.benchmark_bid.values],
        })
    entry["regret"] = reports
    if log.rounds > 0:
        metrics = market_metrics(log)
        tail = max(1, log.rounds // 20)
        entry["market"] = {
            "max_welfare": metrics.max_welfare,
            "mean_normalized_welfare": float(np.mean(metrics.normalized_welfare)),
            "mean_normalized_revenue": float(np.mean(metrics.normalized_revenue)),
            "final_tail_median_abs_log2_win_spread": _nan_median_abs(metrics.log2_win_spread[-tail:]),
            "final_tail_median_abs_log2_price_gap": _nan_median_abs(metrics.log2_price_gap[-tail:]),
        }
    return entry


def _nan_median_abs(series: np.ndarray):
    finite = series[np.isfinite(series)]
    if finite.size == 0:
        return None
    return float(np.median(np.abs(finite)))


def cmd_run(args) -> int:
    try:
        path = _resolve_scenario_path(args.scenario)
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        scenario = load_scenario(path)
    except ScenarioError as err:
        for problem in err.problems:
            print(f"scenario error: {problem}", file=sys.stderr)
        return 2

    document = dict(scenario.raw)
    if args.seed is not None:
        document["master_seed"] = args.seed
        try:
            from .scenario import validate_scenario

            scenario = validate_scenario(document)
        except ScenarioError as err:
            for problem in err.problems:
                print(f"scenario error: {problem}", file=sys.stderr)
            return 2

    out_dir = args.out or os.path.join("out", scenario.name)
    os.makedirs(out_dir, exist_ok=True)

    tasks = [(document if args.seed is not None else scenario.raw, r, out_dir, args.format)
             for r in range(scenario.replications)]
    try:
        if args.jobs > 1 and scenario.replications > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                entries = list(pool.map(_run_single_replication, tasks))
        else:
            entries = [_run_single_replication(task) for task in tasks]
    except Exception as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 1

    entries.sort(key=lambda e: e["replication"])
    metrics_doc = {
        "scenario": scenario.name,
        "library_version": __version__,
        "replications": entries,
    }
    _atomic_write(os.path.join(out_dir, "metrics.json"),
                  json.dumps(metrics_doc, indent=2, sort_keys=True) + "\n")
    manifest = {
        "scenario": scenario.name,
        "config_hash": canonical_hash(scenario.raw if args.seed is None else document),
        "master_seed": scenario.master_seed,
        "replications": scenario.replications,
        "format": args.format,
        "library_version": __version__,
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {scenario.replications} replication(s) to {out_dir}")
    return 0


def cmd_hindsight(args) -> int:
    try:
        rows = []
        with open(args.history) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [p for p in line.replace(",", " ").split() if p]
                rows.append(sorted(float(p) for p in parts))
        if not rows:
            print("error: history file contains no rows", file=sys.stderr)
            return 2
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            print("error: history rows have inconsistent lengths", file=sys.stderr)
            return 2
        grid = make_even_grid(args.grid_size)
        valuation = ValuationProfile(np.array([float(x) for x in args.valuation.split(",")]))
        if valuation.demand > next(iter(widths)):
            print("error: valuation longer than competing-bid rows", file=sys.stderr)
            return 2
        comp = grid.indices_of(rows)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    tie = TieBreak.BIDDER_WINS if args.tie == "wins" else TieBreak.BIDDER_LOSES
    thresholds = win_thresholds(comp, None, valuation.demand, tie)
    table = accumulate_weights_history(valuation, thresholds, grid)
    solution = hindsight_optimal(table)
    if args.json:
        print(json.dumps({
            "bid": [float(v) for v in solution.bid.values],
            "total_utility": solution.total_utility,
        }, sort_keys=True))
    else:
        bid_text = ", ".join(f"{v:g}" for v in solution.bid.values)
        print(f"optimal bid: [{bid_text}]")
        print(f"total utility: {solution.total_utility:g}")
    return 0


def cmd_grid_advice(args) -> int:
    horizon = args.t
    demand = args.m
    if horizon < 1 or demand < 1:
        print("error: --t and --m must be positive", file=sys.stderr)
        return 2
    if args.mode == "full":
        suggestion = math.ceil(math.sqrt(horizon / demand))
    elif args.mode == "ew-bandit":
        suggestion = math.ceil(demand ** (-1.0 / 3.0) * horizon ** (1.0 / 3.0))
    else:  # omd-bandit
        suggestion = math.ceil(horizon ** (1.0 / 3.0))
    suggestion = max(suggestion, 2)
    bound = demand * horizon / (suggestion - 1)  # even-grid spacing is 1/(D-1)
    print(f"suggested grid size: {suggestion}")
    print(f"discretization error bound (M*T/(D-1)): {bound:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pabid",
        description="Experiment runner for learned bidding in repeated pay-as-bid auctions",
    )
    parser.add_argument("--version", action="version", version=f"pabid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file or bundled scenario")
    run.add_argument("scenario", help="path to a scenario JSON file, or a bundled scenario name")
    run.add_argument("--out", help="output directory (default: out/<scenario name>)")
    run.add_argument("--jobs", type=int, default=1, help="parallel replications")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="run-log file format")
    run.set_defaults(fn=cmd_run)

    hindsight = sub.add_parser("hindsight", help="optimal fixed bid for a competing-bid history")
    hindsight.add_argument("history", help="text file: one competing-bid row per round")
    hindsight.add_argument("--valuation", required=True,
                           help="comma-separated non-increasing marginal valuations")
    hindsight.add_argument("--grid-size", type=int, required=True, dest="grid_size")
    hindsight.add_argument("--tie", choices=("wins", "loses"), default="wins")
    hindsight.add_argument("--json", action="store_true", help="machine-readable output")
    hindsight.set_defaults(fn=cmd_hindsight)

    advice = sub.add_parser("grid-advice", help="rate-optimal grid size for a mode and horizon")
    advice.add_argument("--mode", choices=("full", "ew-bandit", "omd-bandit"), required=True)
    advice.add_argument("--m", type=int, required=True, help="units demanded")
    advice.add_argument("--t", type=int, required=True, help="horizon")
    advice.set_defaults(fn=cmd_grid_advice)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as err:
        for problem in err.problems:
            print(f"scenario error: {problem}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failures
        print(f"runtime failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
