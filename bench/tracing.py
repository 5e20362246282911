"""Outside-in tracing: spans around the public functions of each layer.

Nothing in `src/` changes. Each traced function is replaced, for the length
of a traced pass, by a wrapper installed where its caller looks the name up
(`pabid.simulator.settle`, `pabid.mirror_descent.project_dual_ascent`, a
class attribute, or a learner instance method after `build_market`). A
function a later commit deletes is reported as absent, with zero calls.

Spans stay in memory: every call's duration and self time (its duration
minus its child spans) feeds the per-layer statistics, and the raw spans of
the first traced replication are kept for the trace file written at the end.
"""
from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from time import perf_counter

# (span name, owner that the caller looks the name up in, attribute).
# An owner "module:Class" patches the class attribute.
PATCHED_SPANS = (
    ("scenario.build_market", "pabid.scenario", "build_market"),
    ("simulator.play", "pabid.simulator:SelfPlayMarket", "play"),
    ("simulator.regret_report", "pabid.simulator", "regret_report"),
    ("simulator.RunLog.competing_history", "pabid.simulator:RunLog", "competing_history"),
    ("simulator.market_metrics", "pabid.simulator", "market_metrics"),
    ("simulator.RunLog.to_csv_text", "pabid.simulator:RunLog", "to_csv_text"),
    ("hindsight.accumulate_weights_history", "pabid.simulator", "accumulate_weights_history"),
    ("hindsight.hindsight_optimal", "pabid.simulator", "hindsight_optimal"),
    ("mirror_descent.recover_policy", "pabid.mirror_descent", "recover_policy"),
    ("kernels.ew_tail_sums", "pabid._kernels", "ew_tail_sums"),
    ("kernels.sample_monotone", "pabid._kernels", "sample_monotone"),
    ("kernels.ew_marginals", "pabid._kernels", "ew_marginals"),
    ("kernels.apply_slot_rewards", "pabid._kernels", "apply_slot_rewards"),
    ("kernels.project_dual_ascent", "pabid.mirror_descent", "project_dual_ascent"),
    ("kernels.transport_plan", "pabid._kernels", "transport_plan"),
    ("kernels.sample_chain", "pabid._kernels", "sample_chain"),
    ("auction.settle", "pabid.simulator", "settle"),
    ("adversaries.StochasticAdversary.draw", "pabid.adversaries:StochasticAdversary", "draw"),
)

# Learner methods, traced per instance and named after the learner's module.
LEARNER_MODULES = ("exp_weights", "mirror_descent")
LEARNER_METHODS = ("propose", "observe")

SPAN_NAMES = tuple(name for name, _, _ in PATCHED_SPANS) + tuple(
    f"{module}.{method}" for module in LEARNER_MODULES for method in LEARNER_METHODS)

PROJECTION_SPAN = "kernels.project_dual_ascent"
PLAY_SPAN = "simulator.play"
RAW_SPAN_CAP = 50_000


def _resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name, None) if class_name else module


class Tracer:
    """Span recorder for traced passes; one instance per benchmark run."""

    def __init__(self):
        self.durations = defaultdict(lambda: array("d"))
        self.absent: set[str] = set()
        self.passes: list[dict] = []   # per traced pass: name -> (calls, busy_s, self_s)
        self.sweeps = array("q")       # projection sweeps of the first traced pass
        self.last_projection = None    # (sweeps, gap) of the latest projection
        self.position = None           # (agent, round) of the latest learner call
        self.raw: list[tuple] = []     # (replication, span id, parent id, name, start, end)
        self.keep_raw = False
        self.replication = -1
        self._stack: list[list] = []   # open spans: [span id, child time, under play]
        self._next_id = 0
        self._reset_pass()

    def _reset_pass(self):
        self._calls = defaultdict(int)
        self._busy = defaultdict(float)
        self._self = defaultdict(float)
        self._self_in_play = 0.0

    def end_pass(self) -> None:
        record = {name: (self._calls[name], self._busy[name], self._self[name])
                  for name in SPAN_NAMES}
        record["self_in_play"] = self._self_in_play
        self.passes.append(record)
        self._reset_pass()

    def wrap(self, name: str, fn, on_result=None):
        durations = self.durations[name]
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0, name == PLAY_SPAN or bool(stack and stack[-1][2])]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                durations.append(elapsed)
                self._calls[name] += 1
                self._busy[name] += elapsed
                self._self[name] += elapsed - frame[1]
                if frame[2]:
                    self._self_in_play += elapsed - frame[1]
                if self.keep_raw and len(self.raw) < RAW_SPAN_CAP:
                    parent = stack[-1][0] if stack else None
                    self.raw.append((self.replication, span_id, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _projection_result(self, result) -> None:
        # The kernel returns (q, lam, nu, sweeps, gap); the count is exact.
        if isinstance(result, tuple) and len(result) >= 5:
            self.last_projection = (int(result[3]), float(result[4]))
            if not self.passes:
                self.sweeps.append(int(result[3]))

    @contextmanager
    def patched(self):
        """Install the module and class wrappers; restore the originals on exit."""
        saved = []
        try:
            for name, owner_path, attr in PATCHED_SPANS:
                owner = _resolve(owner_path)
                original = getattr(owner, attr, None)
                if original is None:
                    self.absent.add(name)
                    continue
                hook = self._projection_result if name == PROJECTION_SPAN else None
                setattr(owner, attr, self.wrap(name, original, hook))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def instrument_market(self, market) -> None:
        """Wrap the learners' propose/observe on this market's instances."""
        for agent, learner in enumerate(market.learners):
            module = type(learner).__module__.rsplit(".", 1)[-1]
            for method in LEARNER_METHODS:
                bound = getattr(learner, method)
                setattr(learner, method, self._locating(agent, method,
                                                        self.wrap(f"{module}.{method}", bound)))

    def _locating(self, agent: int, method: str, fn):
        rounds = [0]

        def located(*args, **kwargs):
            self.position = (agent, rounds[0])
            if method == "observe":
                rounds[0] += 1
            return fn(*args, **kwargs)

        return located

    def layer_metrics(self, replications: int) -> dict[str, tuple[float, str]]:
        """`<layer>.{calls,p50_us,p99_us,busy_ms,self_ms}` for every span name.

        `calls` counts the first traced pass (the fixed replication set);
        percentiles pool every traced call; busy and self time are per
        replication, the median over traced passes.
        """
        out = {}
        for name in SPAN_NAMES:
            per_pass = [p[name] for p in self.passes] or [(0, 0.0, 0.0)]
            calls = per_pass[0][0]
            p50, p99 = percentiles(self.durations.get(name, ()), (50, 99))
            busy = median([b for _, b, _ in per_pass]) / max(replications, 1)
            own = median([s for _, _, s in per_pass]) / max(replications, 1)
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.p50_us"] = (p50 * 1e6, "us")
            out[f"{name}.p99_us"] = (p99 * 1e6, "us")
            out[f"{name}.busy_ms"] = (busy * 1e3, "ms")
            out[f"{name}.self_ms"] = (own * 1e3, "ms")
        return out


def percentiles(values, qs) -> list[float]:
    """Nearest-rank percentiles; zeros for an empty sample."""
    values = sorted(values)
    if not values:
        return [0.0 for _ in qs]
    n = len(values)
    return [values[min(n - 1, max(0, -(-q * n // 100) - 1))] for q in qs]
