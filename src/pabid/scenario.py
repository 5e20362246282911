"""Scenario files: schema, validation, seeding, and market construction.

A scenario is a single JSON document describing one experiment: the bid
grid, horizon, agents (algorithm, feedback, valuations, optional rate
overrides), the environment, and how many seeded replications to run.
Validation is strict: unknown keys are errors, every complaint names the
offending field, and a scenario that validates can be built and run.

Validation builds, once per scenario, everything the replications share:
each agent's `FeedbackMode`; the learner groups, in which EW agents of equal
demand, feedback, eta and gamma share a group and each OMD agent is its own;
the environment's table of competing-bid rows in grid indices with their
probabilities, and its tie rule; and the hash of the document. A stochastic
environment's table is its support, each row sorted; the lower-bound
family's is its two rows (`lower_bound_rows`) at the horizon; a self-play
market has none. Each environment kind accepts only the keys it reads,
besides `kind`:
  * self_play: none;
  * stochastic: support, probs, tie;
  * lower_bound: demand, delta, variant, tie.
A key of another kind is "not valid for" this one; any other is unknown.

A replication (`build_market`) builds only what its seeds decide: the drawn
valuations, the learners, and a `StochasticAdversary` over the shared table.

All randomness derives from one master seed. Replication r draws from the
sequence with spawn key (r,) under that seed, built directly in O(1) whatever
the replication count: NumPy defines it as `SeedSequence(master_seed).spawn(R)[r]`
for every R > r. Its children seed the agents, the environment and the
valuations. The bid grid comes from `make_even_grid`, which shares one
read-only grid per size, so validation and every replication read the same one.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversaries import StochasticAdversary, lower_bound_rows
from .auction import ValuationProfile
from .exp_weights import ExpWeightsBidder, FeedbackMode, estimator_offsets
from .grids import make_even_grid
from .mirror_descent import Q_FLOOR, OmdBidder
from .simulator import RunLog, SelfPlayMarket

_AGENT_KEYS = {"algorithm", "feedback", "valuation", "eta", "gamma"}
# the keys each environment kind reads
_ENV_KEYS = {
    "self_play": {"kind"},
    "stochastic": {"kind", "support", "probs", "tie"},
    "lower_bound": {"kind", "demand", "delta", "variant", "tie"},
}
_TOP_KEYS = {"name", "grid_size", "rounds", "replications", "master_seed",
             "supply", "agents", "environment"}
# The most entries an array of a run may hold (512 MiB of float64): each agent's
# (demand, grid_size) learner tables and the log's (rounds, supply) columns. Larger
# sizes would fail in numpy or out of memory only once the run starts, and
# validation builds the grid itself.
MAX_CELLS = 2**26
MAX_REPLICATIONS = 2**14  # `pabid run` holds a task and a metrics.json entry of each


class ScenarioError(ValueError):
    """Validation failure; `problems` lists field-level messages."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid scenario: " + "; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class AgentSpec:
    algorithm: str                       # "ew" | "omd"
    mode: FeedbackMode
    valuation: object                    # list of floats | {"kind": "uniform_sorted", "demand": M}
    eta: Optional[float] = None
    gamma: Optional[float] = None


@dataclass(frozen=True)
class Scenario:
    """A validated scenario and what its replications share, built once by
    `validate_scenario`.

    `groups` lists each learner group's agents, in the order of its rows. An
    EW group's agents share their demand, feedback, eta and gamma, so each
    group runs at one rate.
    `env_table` is the environment's (rows, probabilities), the rows as
    read-only grid indices, or None for self-play; `env_wins_ties` is its tie
    rule. `config_hash` is `canonical_hash` of the document. Each
    replication's `build_market` adds only what its seeds decide: the drawn
    valuations, the learners and the environment's seed.
    """

    name: str
    grid_size: int
    rounds: int
    supply: int
    agents: tuple[AgentSpec, ...]
    groups: tuple[tuple[int, ...], ...]
    env_table: Optional[tuple[np.ndarray, np.ndarray]] = field(compare=False)
    env_wins_ties: bool
    config_hash: str
    replications: int = 1
    master_seed: int = 0


def canonical_hash(document: dict) -> str:
    """Hash of the canonicalized scenario content (key order independent)."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def validate_scenario(document: dict) -> Scenario:
    problems: list[str] = []
    if not isinstance(document, dict):
        raise ScenarioError(["scenario: document must be a JSON object"])
    for key in document:
        if key not in _TOP_KEYS:
            problems.append(f"{key}: unknown key")

    def need(key, kind, check=None, message=""):
        if key not in document:
            problems.append(f"{key}: required field missing")
            return None
        value = document[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            problems.append(f"{key}: expected {kind.__name__}")
            return None
        if check is not None and not check(value):
            problems.append(f"{key}: {message}")
            return None
        return value

    name = need("name", str, lambda s: len(s) > 0, "must be non-empty")
    grid_size = need("grid_size", int, lambda v: 2 <= v <= MAX_CELLS,
                     f"must be at least 2 and at most {MAX_CELLS}")
    rounds = need("rounds", int, lambda v: 0 <= v <= MAX_CELLS,
                  f"must be non-negative and at most {MAX_CELLS}")
    supply = need("supply", int, lambda v: 1 <= v <= MAX_CELLS,
                  f"must be positive and at most {MAX_CELLS}")
    if rounds is not None and supply is not None and max(rounds, 1) * supply > MAX_CELLS:
        problems.append(f"rounds: the log's (rounds, supply) columns of {rounds} x {supply} "
                        f"entries exceed {MAX_CELLS}")
    replications = document.get("replications", 1)
    if not _is_positive_int(replications):
        problems.append("replications: must be a positive integer")
    elif replications > MAX_REPLICATIONS:
        problems.append(f"replications: must be at most {MAX_REPLICATIONS}")
    master_seed = document.get("master_seed", 0)
    if not isinstance(master_seed, int) or isinstance(master_seed, bool) or master_seed < 0:
        problems.append("master_seed: must be a non-negative integer")
    elif master_seed >= 2**128:
        problems.append("master_seed: must be below 2**128")

    agents: list[AgentSpec] = []
    groups: dict = {}  # EW agents of equal demand, feedback, eta and gamma share a group
    raw_agents = document.get("agents")
    if not isinstance(raw_agents, list) or not raw_agents:
        problems.append("agents: must be a non-empty list")
        raw_agents = []
    for i, raw in enumerate(raw_agents):
        prefix = f"agents[{i}]"
        if not isinstance(raw, dict):
            problems.append(f"{prefix}: must be an object")
            continue
        for key in raw:
            if key not in _AGENT_KEYS:
                problems.append(f"{prefix}.{key}: unknown key")
        algorithm = raw.get("algorithm")
        if algorithm not in ("ew", "omd"):
            problems.append(f"{prefix}.algorithm: must be 'ew' or 'omd'")
        mode = next((m for m in FeedbackMode if m.value == raw.get("feedback")), None)
        if mode is None:  # compared by ==, so any JSON value is safe to look up
            problems.append(f"{prefix}.feedback: must be one of "
                            f"{sorted(m.value for m in FeedbackMode)}")
        valuation = raw.get("valuation")
        demand = None  # units demanded, once the valuation is known to be valid
        if isinstance(valuation, list):
            if (valuation and all(_is_number(v) and 0.0 <= v <= 1.0 for v in valuation)
                    and all(valuation[j] >= valuation[j + 1] for j in range(len(valuation) - 1))):
                demand = len(valuation)
            else:
                problems.append(f"{prefix}.valuation: must be a non-increasing list in [0, 1]")
        elif isinstance(valuation, dict):
            if valuation.get("kind") != "uniform_sorted":
                problems.append(f"{prefix}.valuation.kind: only 'uniform_sorted' is supported")
            if _is_positive_int(valuation.get("demand")):
                demand = valuation["demand"]
            else:
                problems.append(f"{prefix}.valuation.demand: must be a positive integer")
            extra = set(valuation) - {"kind", "demand"}
            for key in sorted(extra):
                problems.append(f"{prefix}.valuation.{key}: unknown key")
        else:
            problems.append(f"{prefix}.valuation: must be a list or a generator object")
        shown = demand if demand is None or demand <= MAX_CELLS else f"over {MAX_CELLS}"
        if demand is not None and supply is not None and demand > supply:
            problems.append(f"{prefix}.valuation: demand {shown} exceeds supply {supply}")
            demand = None
        elif demand is not None and demand * (grid_size or 2) > MAX_CELLS:
            problems.append(f"{prefix}.valuation: the (demand, grid_size) learner tables of "
                            f"{shown} x {grid_size or 2} entries exceed {MAX_CELLS}")
            demand = None
        eta, gamma = raw.get("eta"), raw.get("gamma")
        for rate, value in (("eta", eta), ("gamma", gamma)):
            if value is not None and not _is_rate(value):
                problems.append(f"{prefix}.{rate}: must be a positive finite number")
        if gamma is not None and mode is not FeedbackMode.BANDIT_IX:
            problems.append(f"{prefix}.gamma: only valid with bandit_ix feedback")
        if (algorithm == "ew" and mode not in (None, FeedbackMode.FULL_INFO) and demand is not None
                and _is_number(eta) and eta >= 1.0 / demand):
            problems.append(f"{prefix}.eta: bandit feedback needs eta < 1/M = {1.0 / demand:.6g}")
        # every log tail sum is at most eta * M * T + log C(M + D - 1, M)
        if (algorithm == "ew" and mode is FeedbackMode.FULL_INFO and demand is not None
                and rounds is not None and _is_number(eta)
                and eta * demand * max(rounds, 1) > sys.float_info.max / 2):
            problems.append(f"{prefix}.eta: full information needs eta * M * rounds <= "
                            f"{sys.float_info.max / 2:.6g}, or the weights overflow")
        # an OMD step exponentiates eta times a reward estimate of at most 1 under
        # full information and 1 / (Q_FLOOR + gamma) under bandit feedback, gamma the
        # smallest offset: 0 for IPW, and the IX schedule's is that of a full grid row
        if (algorithm == "omd" and mode is not None and grid_size is not None
                and rounds is not None and _is_rate(eta) and (gamma is None or _is_rate(gamma))):
            offset = estimator_offsets(mode, np.ones((1, grid_size), bool), max(rounds, 1),
                                       gamma)[0]
            largest = 1.0 if mode is FeedbackMode.FULL_INFO else 1.0 / (Q_FLOOR + float(offset))
            if eta * largest >= sys.float_info.max / 2:
                problems.append(f"{prefix}.eta: mirror descent needs eta * {largest:.6g} (the "
                                f"largest estimate) < {sys.float_info.max / 2:.6g}, or the step "
                                f"overflows")
        agents.append(AgentSpec(algorithm=algorithm, mode=mode, valuation=valuation, eta=eta,
                                gamma=gamma))
        # a junk rate may be unhashable: it keys as None until validation rejects it
        rates = tuple(v if _is_rate(v) else None for v in (eta, gamma))
        groups.setdefault((demand, mode, rates) if algorithm == "ew" else i, []).append(i)

    raw_env = document.get("environment")
    kind = None
    if not isinstance(raw_env, dict):
        problems.append("environment: must be an object")
    else:
        kind = raw_env.get("kind")
        keys = _ENV_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None:
            problems.append("environment.kind: must be 'self_play', 'stochastic', or 'lower_bound'")
        else:
            for key in raw_env:
                if key not in keys:
                    foreign = any(key in other for other in _ENV_KEYS.values())
                    problems.append(f"environment.{key}: "
                                    + (f"not valid for {kind}" if foreign else "unknown key"))
        tie = raw_env.get("tie", "agent_wins")
        if keys and "tie" in keys and tie not in ("agent_wins", "agent_loses"):
            problems.append("environment.tie: must be 'agent_wins' or 'agent_loses'")
        if kind == "stochastic":
            support = raw_env.get("support")
            probs = raw_env.get("probs")
            rows = support if isinstance(support, list) else []
            if not rows or not all(isinstance(row, list) and row for row in rows):
                problems.append("environment.support: must be a non-empty list of bid rows")
            else:
                problems += _support_problems(rows, grid_size, supply)
            if (not isinstance(probs, list) or not rows or len(probs) != len(rows)
                    or not all(_is_number(p) and p >= 0 for p in probs)
                    or abs(sum(probs) - 1.0) > 1e-9):
                problems.append("environment.probs: must be non-negative and sum to 1, one per support row")
        elif kind == "lower_bound":
            demand = raw_env.get("demand")
            if not _is_positive_int(demand) or demand % 3:
                problems.append("environment.demand: must be a positive multiple of 3")
            elif supply is not None and demand != supply:
                problems.append("environment.demand: must equal supply for the lower-bound family")
            delta = raw_env.get("delta")
            if delta is not None and not (_is_number(delta) and 0.0 <= delta < 1.0 / 6.0):
                problems.append("environment.delta: must lie in [0, 1/6)")
            variant = raw_env.get("variant", "F")
            if variant not in ("F", "G"):
                problems.append("environment.variant: must be 'F' or 'G'")
            if grid_size is not None and (grid_size - 1) % 3 != 0:
                problems.append("grid_size: lower-bound environments need the price 2/3 on the grid "
                                "(grid_size must be 1 mod 3)")

    if problems:
        raise ScenarioError(problems)
    env_table = None
    if kind == "stochastic":
        env_table = (make_even_grid(grid_size).indices_of(np.sort(support, axis=1)),
                     np.array(probs, dtype=float))
    elif kind == "lower_bound":
        env_table = lower_bound_rows(demand, make_even_grid(grid_size), max(rounds, 1), delta,
                                     variant)
    for table in env_table or ():
        table.flags.writeable = False
    return Scenario(
        name=name, grid_size=grid_size, rounds=rounds, supply=supply, agents=tuple(agents),
        groups=tuple(map(tuple, groups.values())), env_table=env_table,
        env_wins_ties=env_table is not None and tie == "agent_loses",
        config_hash=canonical_hash(document), replications=replications,
        master_seed=master_seed,
    )


def _is_number(value) -> bool:
    """An int or float as JSON parses them (bool is not a number) that a float can hold."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def _is_rate(value) -> bool:
    """A positive finite number; the upper bound also turns away ints too large for a float."""
    return _is_number(value) and 0 < value <= sys.float_info.max


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _support_problems(support: list, grid_size: Optional[int], supply: Optional[int]) -> list[str]:
    """Each stochastic support row must hold `supply` grid values."""
    grid = make_even_grid(grid_size) if grid_size is not None else None
    problems = []
    for r, row in enumerate(support):
        field = f"environment.support[{r}]"
        if supply is not None and len(row) != supply:
            problems.append(f"{field}: has {len(row)} entries; rows must have `supply` ({supply})")
        if not all(_is_number(v) for v in row):
            problems.append(f"{field}: entries must be numbers")
        elif grid is not None:
            try:
                grid.indices_of(row)
            except ValueError as err:
                problems.append(f"{field}: {err} (grid_size {grid_size})")
    return problems


def read_document(path) -> dict:
    """The JSON document of a scenario file, not yet validated."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:  # a directory, or a file this process may not read
        raise ScenarioError([f"file: cannot be read ({err})"]) from err
    except ValueError as err:  # not JSON, or an int with more digits than Python converts
        raise ScenarioError([f"file: not valid JSON ({err})"]) from err


def replication_seeds(scenario: Scenario, replication: int) -> list[np.random.SeedSequence]:
    """Per-agent (then environment, then valuation) seed sequences for one replication.

    The replication's sequence is built from its spawn key in O(1): it equals
    `SeedSequence(master_seed).spawn(scenario.replications)[replication]`
    without spawning the other replications' sequences.
    """
    rep_seq = np.random.SeedSequence(scenario.master_seed, spawn_key=(replication,))
    return rep_seq.spawn(len(scenario.agents) + 2)


def _materialize_valuation(spec, seq) -> ValuationProfile:
    if isinstance(spec, list):
        return ValuationProfile(np.asarray(spec, dtype=float))
    rng = np.random.default_rng(seq)
    draws = np.sort(rng.random(spec["demand"]))[::-1]
    return ValuationProfile(draws)


def build_market(scenario: Scenario, replication: int) -> tuple[SelfPlayMarket, int, dict]:
    """Instantiate learners and environment for one replication."""
    if not (0 <= replication < scenario.replications):
        raise ValueError("replication index out of range")
    grid = make_even_grid(scenario.grid_size)
    seqs = replication_seeds(scenario, replication)
    valuation_children = seqs[-1].spawn(len(scenario.agents))

    horizon = max(scenario.rounds, 1)  # schedules divide by the horizon
    valuations = [_materialize_valuation(spec.valuation, valuation_children[i])
                  for i, spec in enumerate(scenario.agents)]
    learners = []
    for members in scenario.groups:
        first = scenario.agents[members[0]]
        if first.algorithm == "ew":
            learners.append(ExpWeightsBidder([valuations[i] for i in members], grid, horizon,
                                             [seqs[i] for i in members], mode=first.mode,
                                             eta=first.eta, gamma=first.gamma))
        else:
            learners.append(OmdBidder(valuations[members[0]], grid, horizon, mode=first.mode,
                                      eta=first.eta, gamma=first.gamma, seed=seqs[members[0]]))

    env = None
    if scenario.env_table is not None:
        env_seed = int(np.random.default_rng(seqs[-2]).integers(0, 2**63 - 1))
        env = StochasticAdversary(*scenario.env_table, seed=env_seed)

    market = SelfPlayMarket(learners, valuations, grid, scenario.supply, environment=env,
                            env_wins_ties=scenario.env_wins_ties, members=scenario.groups)
    return market, replication, {"replication": replication, "config_hash": scenario.config_hash}


def run_experiment(scenario: Scenario, replication: int = 0) -> RunLog:
    """Materialize one replication of a validated scenario into a RunLog."""
    market, seed, config = build_market(scenario, replication)
    return market.play(scenario.rounds, config=config, seed=seed)
