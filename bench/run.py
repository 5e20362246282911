#!/usr/bin/env python3
"""pabid benchmark: closed-loop replications of one workload.

Run from the repository root:

    python3 bench/run.py --workload market_selfplay --seed 1 --seconds 30 --trace 0

One process, one thread, one replication at a time (a closed loop). The
workload seed generates the scenario document; each replication makes the
calls `pabid run` makes: validate_scenario, build_market,
SelfPlayMarket.play, RunLog.to_csv_text, regret_report for every agent and
market_metrics. The first pass over the workload's fixed replication set
is checked by the correctness gate outside the timed regions; later passes
repeat the same set until `--seconds` have passed and must reproduce the
first pass's log and regret exactly.

`--trace 0` prints the end-to-end metrics, measured with tracing off and
calibrated against a fixed reference block run between the phases (see
`calibration.py`).
`--trace 1` alternates traced and untraced passes, then times the kernel
scaling block, prints the per-layer metrics and writes the trace to
`bench/out/`. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. `--workload all` runs every
workload in turn.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

END_TO_END_UNITS = {
    "setup_s": "s", "agent_rounds_per_s": "1/s", "report_s": "s", "serialize_s": "s",
    "replication_s": "s", "utility_ratio": "1", "welfare_ratio": "1",
}
PHASES = ("setup", "play", "serialize", "report")


def import_pabid():
    """Import pabid from this checkout's `src/`, never from an installed copy."""
    package = SRC / "pabid"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no pabid sources under {package}; "
                         "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import pabid

    if Path(pabid.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported pabid from {pabid.__file__}, not from {package}")
    return pabid


from calibration import REFERENCE_S, Clock  # noqa: E402
from gate import check_replication  # noqa: E402  (bench-local modules)
from tracing import Tracer, percentiles  # noqa: E402
from workloads import WORKLOADS, scenario_document  # noqa: E402


class Replication:
    """The products of one replication and the seconds spent in each phase."""

    def __init__(self, market, log, csv_text, reports, metrics, times, calibrated, clock):
        self.market = market
        self.log = log
        self.reports = reports
        self.metrics = metrics
        self.times = times            # raw seconds, reference blocks excluded
        self.calibrated = calibrated  # calibrated seconds; None when traced
        self.clock = clock
        self.digest = hashlib.sha256(
            csv_text.encode() + repr([(r.realized_utility, r.benchmark_utility)
                                      for r in reports]).encode()).hexdigest()


def run_replication(document: dict, replication: int, tracer: Tracer | None = None) -> Replication:
    """One replication through the same public calls as `pabid run`.

    Untraced, a reference block runs before and after each phase and at
    round starts inside `play`, so that each phase's time can be calibrated.
    """
    from pabid import scenario, simulator

    clock = None if tracer is not None else Clock()
    spans = {}

    def between_phases():
        if clock is not None:
            clock.reference()
        return perf_counter()

    start = between_phases()
    spec = scenario.validate_scenario(document)
    market, seed, config = scenario.build_market(spec, replication)
    spans["setup"] = (start, perf_counter())
    between_phases()
    if tracer is not None:
        tracer.instrument_market(market)
    else:
        clock.hook_rounds(market.learners[0])
    start = perf_counter()
    log = market.play(spec.rounds, config=config, seed=seed)
    spans["play"] = (start, perf_counter())
    start = between_phases()
    csv_text = log.to_csv_text()
    spans["serialize"] = (start, perf_counter())
    start = between_phases()
    reports = [simulator.regret_report(log, agent) for agent in range(log.num_agents)]
    metrics = simulator.market_metrics(log)
    spans["report"] = (start, perf_counter())
    between_phases()
    if clock is None:
        times = {phase: end - begin for phase, (begin, end) in spans.items()}
        calibrated = None
    else:
        measured = {phase: clock.phase(*span) for phase, span in spans.items()}
        times = {phase: raw for phase, (raw, _) in measured.items()}
        calibrated = {phase: value for phase, (_, value) in measured.items()}
    return Replication(market, log, csv_text, reports, metrics, times, calibrated, clock)


def describe_failure(document: dict, replication: int, err: Exception) -> str:
    """The exception, plus agent, round, sweeps and gap for a projection failure."""
    from pabid.mirror_descent import ProjectionError

    text = f"replication {replication}: {type(err).__name__}: {err}"
    if isinstance(err, ProjectionError):
        tracer = Tracer()  # re-run under the tracer to locate the failing call
        with tracer.patched():
            try:
                run_replication(document, replication, tracer)
            except ProjectionError:
                pass
        if tracer.position and tracer.last_projection:
            (agent, round_), (sweeps, gap) = tracer.position, tracer.last_projection
            text += f" [agent {agent}, round {round_}, sweeps {sweeps}, gap {gap:.3e}]"
    return text


class WorkloadRun:
    """Passes over one workload's fixed replication set, and their samples."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.document = scenario_document(self.workload, seed)
        self.failures: dict[int, str] = {}
        self.projection_failures = 0
        self.digests: dict[int, str] = {}
        self.utility_ratios: list[float] = []
        self.welfare: list[float] = []
        self.samples = {mode: {r: {p: [] for p in PHASES}
                               for r in range(self.workload.replications)}
                        for mode in ("untraced", "traced", "calibrated")}
        self.reference_s: list[float] = []

    @property
    def completed(self) -> list[int]:
        return [r for r in range(self.workload.replications) if r not in self.failures]

    def warm_up(self) -> None:
        """Two rounds of one replication, so lazy imports and caches are filled."""
        run_replication({**self.document, "rounds": 2, "replications": 1}, 0)

    def _fail(self, replication: int, err: Exception) -> None:
        from pabid.mirror_descent import ProjectionError

        self.projection_failures += isinstance(err, ProjectionError)
        self.failures[replication] = describe_failure(self.document, replication, err)

    def first_pass(self) -> None:
        """Every replication once, each checked by the correctness gate."""
        gc.collect()
        for r in range(self.workload.replications):
            try:
                rep = run_replication(self.document, r)
                problems = check_replication(rep.market, rep.log, rep.metrics)
            except Exception as err:  # a failed replication is counted, not fatal
                self._fail(r, err)
                continue
            if problems:
                self.failures[r] = f"replication {r}: " + "; ".join(problems)
                continue
            self.digests[r] = rep.digest
            self.utility_ratios += [x.realized_utility / x.benchmark_utility for x in rep.reports]
            self.welfare.append(float(rep.metrics.normalized_welfare.mean()))
            self._record("untraced", r, rep)

    def repeat_pass(self, tracer: Tracer | None = None) -> None:
        """The replications that passed the gate again; outputs must not change."""
        gc.collect()
        mode = "untraced" if tracer is None else "traced"
        for r in self.completed:
            if tracer is not None:
                tracer.replication = r
                tracer.keep_raw = not tracer.passes and r == self.completed[0]
            try:
                rep = run_replication(self.document, r, tracer)
            except Exception as err:
                self._fail(r, err)
                continue
            if rep.digest != self.digests[r]:
                self.failures[r] = f"replication {r}: a repeated pass changed the log or regret"
                continue
            self._record(mode, r, rep)
        if tracer is not None:
            tracer.keep_raw = False
            tracer.end_pass()

    def _record(self, mode: str, replication: int, rep: Replication) -> None:
        for phase in PHASES:
            self.samples[mode][replication][phase].append(rep.times[phase])
            if rep.calibrated is not None:
                self.samples["calibrated"][replication][phase].append(rep.calibrated[phase])
        if rep.clock is not None:
            self.reference_s += rep.clock.reference_seconds()

    def phase_medians(self, mode: str) -> dict[int, dict[str, float]]:
        """Per replication, the median over passes of each phase's seconds."""
        return {r: {p: median(self.samples[mode][r][p]) for p in PHASES}
                for r in self.completed if self.samples[mode][r]["play"]}

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        per_rep = self.phase_medians("calibrated")
        if not per_rep:
            return {}

        def phase(p):
            return median([t[p] for t in per_rep.values()])

        values = {
            "setup_s": phase("setup"),
            "agent_rounds_per_s": self.workload.agents * self.workload.rounds / phase("play"),
            "report_s": phase("report"),
            "serialize_s": phase("serialize"),
            "replication_s": median([sum(t.values()) for t in per_rep.values()]),
            "utility_ratio": sum(self.utility_ratios) / len(self.utility_ratios),
            "welfare_ratio": sum(self.welfare) / len(self.welfare),
        }
        return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}

    def per_layer(self, tracer: Tracer, scaling: dict) -> dict[str, tuple[float, str]]:
        completed = len(self.completed)
        out = tracer.layer_metrics(completed)
        sweeps = tracer.sweeps
        p50, p99 = percentiles(sweeps, (50, 99))
        out["mirror_descent.projection_sweeps.p50"] = (p50, "count")
        out["mirror_descent.projection_sweeps.p99"] = (p99, "count")
        out["mirror_descent.projection_sweeps.max"] = (max(sweeps, default=0), "count")
        out["mirror_descent.projection_sweeps.total"] = (sum(sweeps), "count")
        out["mirror_descent.projection_failures"] = (self.projection_failures, "count")
        untraced = self.phase_medians("untraced")
        traced = self.phase_medians("traced")
        plain = sum(untraced[r]["play"] for r in traced) / max(len(traced), 1)
        with_spans = sum(t["play"] for t in traced.values()) / max(len(traced), 1)
        out["trace.play_untraced_ms"] = (plain * 1e3, "ms")
        out["trace.overhead_ms"] = ((with_spans - plain) * 1e3, "ms")
        in_play = median([p["self_in_play"] for p in tracer.passes] or [0.0]) / max(completed, 1)
        print(f"# play per replication: untraced {plain * 1e3:.6g} ms, traced "
              f"{with_spans * 1e3:.6g} ms, overhead {(with_spans - plain) * 1e3:.6g} ms; "
              f"on the traced passes the play span took {out['simulator.play.busy_ms'][0]:.6g} ms "
              f"and the self times of play and the spans under it sum to {in_play * 1e3:.6g} ms")
        for name in ("compute_partial_sums", "sample_bid", "slot_marginals", "full_info_update"):
            slope_m, slope_d = scaling["slopes"].get(name, (0.0, 0.0))
            out[f"scaling.{name}.slope_M"] = (slope_m, "1")
            out[f"scaling.{name}.slope_D"] = (slope_d, "1")
        out["env.src_lines"] = (src_line_count(), "count")
        return out


def src_line_count() -> int:
    return sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))


def git_commit() -> str:
    """The checkout's commit, read from `.git` when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment(workload: str, seed: int) -> dict:
    import importlib.util

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "src_lines": src_line_count(),
    }


def tail_percentile(values) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    if not n:
        return "none completed"
    text = f"median {median(values):.6g} s, n={n}"
    if n >= 11:
        q = int(100 * (n - 10) / n)
        text += f", p{q} {percentiles(values, (q,))[0]:.6g} s"
    return text


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object of the last output line."""
    run = WorkloadRun(name, seed)
    run.warm_up()
    deadline = perf_counter() + seconds
    run.first_pass()
    tracer = Tracer() if trace else None
    traced_next = trace
    last_pass = perf_counter() - (deadline - seconds)
    # start a pass only if it should end within half a pass of the deadline;
    # a traced run makes at least one traced pass
    while run.completed and (perf_counter() + last_pass / 2 < deadline
                             or (trace and not tracer.passes)):
        started = perf_counter()
        if traced_next:
            with tracer.patched():
                run.repeat_pass(tracer)
        else:
            run.repeat_pass()
            last_pass = perf_counter() - started
        traced_next = trace and not traced_next

    print(f"# workload {name}: {run.workload.why}")
    env = environment(name, seed)
    print("# environment " + json.dumps(env, sort_keys=True))
    attempted = run.workload.replications
    failed = len(run.failures)
    for text in run.failures.values():
        print(f"# failed {text}")
    print(f"failed_share = {failed / attempted:.6g} 1")
    totals = [sum(run.samples["calibrated"][r][p][i] for p in PHASES)
              for r in run.completed for i in range(len(run.samples["calibrated"][r]["play"]))]
    print(f"# replication_s samples (calibrated): {tail_percentile(totals)}")
    raw = run.phase_medians("untraced")
    if raw:
        print("# raw seconds, median over replications of the median over passes: " + ", ".join(
            f"{p} {median([t[p] for t in raw.values()]):.6g}" for p in PHASES))
    print(f"# reference block: median {median(run.reference_s or [0.0]) * 1e3:.6g} ms, "
          f"n={len(run.reference_s)}, calibrated to {REFERENCE_S * 1e3:g} ms")
    if trace:
        scaling = scaling_report(seed)
        metrics = run.per_layer(tracer, scaling)
        write_trace(name, seed, env, metrics, tracer, scaling)
    else:
        metrics = run.end_to_end()
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def scaling_report(seed: int) -> dict:
    from scaling import scaling_block

    block = scaling_block(seed)
    for group in ("ew", "omd"):
        for function, rows in block[group].items():
            points = ", ".join(f"({r['M']},{r['D']}) {r['us']:.1f} us "
                               f"[{r['cells_computed']} cells, computed]" for r in rows)
            print(f"# scaling {function}: {points}")
    for function, (slope_m, slope_d) in block["slopes"].items():
        print(f"# scaling {function}: cost ~ M^{slope_m:.2f} D^{slope_d:.2f}")
    for text in block["absent"]:
        print(f"# scaling absent: {text}")
    return block


def write_trace(name: str, seed: int, env: dict, metrics: dict, tracer: Tracer,
                scaling: dict) -> None:
    for span in sorted(tracer.absent):
        print(f"# trace absent: {span}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    document = {
        "environment": env,
        "absent": sorted(tracer.absent),
        "per_layer": {metric: value for metric, (value, _) in metrics.items()},
        "scaling": scaling,
        "span_fields": ["replication", "id", "parent", "name", "start_s", "end_s"],
        "spans": tracer.raw,
    }
    path.write_text(json.dumps(document) + "\n")
    print(f"# trace written to {path.relative_to(ROOT)}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_pabid()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
