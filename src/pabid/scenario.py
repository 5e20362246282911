"""Scenario files: schema, validation, seeding, and market construction.

A scenario is a single JSON document describing one experiment: the bid
grid, horizon, agents (algorithm, feedback, valuations, optional rate
overrides), the environment, and how many seeded replications to run.
Validation is strict: unknown keys are errors, every complaint names the
offending field, and a scenario that validates can be built and run. All
randomness derives from one master seed.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversaries import StochasticAdversary, lower_bound_instance
from .auction import CompetingBids, ValuationProfile
from .exp_weights import ExpWeightsBidder, FeedbackMode, LearnerConfig
from .grids import make_even_grid
from .mirror_descent import OmdBidder
from .simulator import SelfPlayMarket

_FEEDBACK = {
    "full": FeedbackMode.FULL_INFO,
    "bandit_ipw": FeedbackMode.BANDIT_IPW,
    "bandit_ix": FeedbackMode.BANDIT_IX,
}

_AGENT_KEYS = {"algorithm", "feedback", "valuation", "eta", "gamma"}
_ENV_KEYS = {"kind", "support", "probs", "supply", "tie", "demand", "delta", "variant"}
_TOP_KEYS = {"name", "grid_size", "rounds", "replications", "master_seed",
             "supply", "agents", "environment"}


class ScenarioError(ValueError):
    """Validation failure; `problems` lists field-level messages."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid scenario: " + "; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class AgentSpec:
    algorithm: str                       # "ew" | "omd"
    feedback: str                        # "full" | "bandit_ipw" | "bandit_ix"
    valuation: object                    # list of floats | {"kind": "uniform_sorted", "demand": M}
    eta: Optional[float] = None
    gamma: Optional[float] = None


@dataclass(frozen=True)
class EnvironmentSpec:
    kind: str                            # "self_play" | "stochastic" | "lower_bound"
    support: Optional[list] = None
    probs: Optional[list] = None
    tie: str = "agent_wins"
    demand: Optional[int] = None
    delta: Optional[float] = None
    variant: str = "F"


@dataclass(frozen=True)
class Scenario:
    name: str
    grid_size: int
    rounds: int
    supply: int
    agents: tuple[AgentSpec, ...]
    environment: EnvironmentSpec
    replications: int = 1
    master_seed: int = 0
    raw: dict = field(default_factory=dict, compare=False)


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
    grid_size = need("grid_size", int, lambda v: v >= 2, "must be at least 2")
    rounds = need("rounds", int, lambda v: v >= 0, "must be non-negative")
    supply = need("supply", int, lambda v: v >= 1, "must be positive")
    replications = document.get("replications", 1)
    if not _is_positive_int(replications):
        problems.append("replications: must be a positive integer")
        replications = 1
    master_seed = document.get("master_seed", 0)
    if not isinstance(master_seed, int) or isinstance(master_seed, bool) or master_seed < 0:
        problems.append("master_seed: must be a non-negative integer")
        master_seed = 0

    agents: list[AgentSpec] = []
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
        feedback = raw.get("feedback")
        if feedback not in _FEEDBACK:
            problems.append(f"{prefix}.feedback: must be one of {sorted(_FEEDBACK)}")
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
        if demand is not None and supply is not None and demand > supply:
            problems.append(f"{prefix}.valuation: demand {demand} exceeds supply {supply}")
        eta, gamma = raw.get("eta"), raw.get("gamma")
        for rate, value in (("eta", eta), ("gamma", gamma)):
            # the upper bound also turns away ints too large for a float
            if value is not None and not (_is_number(value) and 0 < value <= sys.float_info.max):
                problems.append(f"{prefix}.{rate}: must be a positive finite number")
        if gamma is not None and feedback != "bandit_ix":
            problems.append(f"{prefix}.gamma: only valid with bandit_ix feedback")
        if (algorithm == "ew" and feedback in ("bandit_ipw", "bandit_ix") and demand is not None
                and _is_number(eta) and eta >= 1.0 / demand):
            problems.append(f"{prefix}.eta: bandit feedback needs eta < 1/M = {1.0 / demand:.6g}")
        agents.append(AgentSpec(algorithm=algorithm, feedback=feedback, valuation=valuation,
                                eta=eta, gamma=gamma))

    raw_env = document.get("environment")
    environment = EnvironmentSpec(kind="self_play")
    if not isinstance(raw_env, dict):
        problems.append("environment: must be an object")
    else:
        for key in raw_env:
            if key not in _ENV_KEYS:
                problems.append(f"environment.{key}: unknown key")
        kind = raw_env.get("kind")
        if kind not in ("self_play", "stochastic", "lower_bound"):
            problems.append("environment.kind: must be 'self_play', 'stochastic', or 'lower_bound'")
        tie = raw_env.get("tie", "agent_wins")
        if tie not in ("agent_wins", "agent_loses"):
            problems.append("environment.tie: must be 'agent_wins' or 'agent_loses'")
        if kind == "stochastic":
            support = raw_env.get("support")
            probs = raw_env.get("probs")
            if (not isinstance(support, list) or not support
                    or not all(isinstance(row, list) and row for row in support)):
                problems.append("environment.support: must be a non-empty list of bid rows")
            else:
                problems += _support_problems(support, grid_size, supply)
            if (not isinstance(probs, list) or not support or len(probs or []) != len(support or [])
                    or not all(_is_number(p) and p >= 0 for p in (probs or []))
                    or abs(sum(probs or [0]) - 1.0) > 1e-9):
                problems.append("environment.probs: must be non-negative and sum to 1, one per support row")
            environment = EnvironmentSpec(kind="stochastic", support=support, probs=probs, tie=tie)
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
            environment = EnvironmentSpec(kind="lower_bound", demand=demand, delta=delta,
                                          variant=variant, tie=tie)
        elif kind == "self_play":
            for key in ("support", "probs", "demand", "delta"):
                if key in raw_env:
                    problems.append(f"environment.{key}: not valid for self_play")
            environment = EnvironmentSpec(kind="self_play", tie=tie)

    if problems:
        raise ScenarioError(problems)
    return Scenario(
        name=name, grid_size=grid_size, rounds=rounds, supply=supply,
        agents=tuple(agents), environment=environment,
        replications=replications, master_seed=master_seed, raw=document,
    )


def _is_number(value) -> bool:
    return type(value) in (int, float)  # as JSON parses them: bool is not a number


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


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as err:
            raise ScenarioError([f"file: not valid JSON ({err})"]) from err
    return validate_scenario(document)


def replication_seeds(scenario: Scenario, replication: int) -> list[np.random.SeedSequence]:
    """Per-agent (then environment, then valuation) seed sequences for one replication."""
    root = np.random.SeedSequence(scenario.master_seed)
    rep_seq = root.spawn(scenario.replications)[replication]
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
    env_seq, valuation_seq = seqs[-2], seqs[-1]
    valuation_children = valuation_seq.spawn(len(scenario.agents))

    horizon = max(scenario.rounds, 1)  # schedules divide by the horizon
    valuations = [_materialize_valuation(spec.valuation, valuation_children[i])
                  for i, spec in enumerate(scenario.agents)]
    # EW agents of equal demand and feedback form one group; each OMD agent is its own.
    groups: dict = {}
    for i, spec in enumerate(scenario.agents):
        key = (valuations[i].demand, spec.feedback) if spec.algorithm == "ew" else i
        groups.setdefault(key, []).append(i)
    learners = []
    for members in groups.values():
        specs = [scenario.agents[i] for i in members]
        mode = _FEEDBACK[specs[0].feedback]
        if specs[0].algorithm == "ew":
            learners.append(ExpWeightsBidder(
                [valuations[i] for i in members], grid, horizon,
                [LearnerConfig(mode=mode, eta=spec.eta, gamma=spec.gamma, seed=seqs[i])
                 for i, spec in zip(members, specs)],
            ))
        else:
            learners.append(OmdBidder(valuations[members[0]], grid, horizon, mode=mode,
                                      eta=specs[0].eta, gamma=specs[0].gamma,
                                      seed=seqs[members[0]]))

    env = None
    env_wins_ties = False
    env_spec = scenario.environment
    if env_spec.kind == "stochastic":
        env_seed = int(np.random.default_rng(env_seq).integers(0, 2**63 - 1))
        support = [CompetingBids.from_values(sorted(row), grid) for row in env_spec.support]
        env = StochasticAdversary(support, env_spec.probs, seed=env_seed)
        env_wins_ties = env_spec.tie == "agent_loses"
    elif env_spec.kind == "lower_bound":
        env_seed = int(np.random.default_rng(env_seq).integers(0, 2**63 - 1))
        instance = lower_bound_instance(env_spec.demand, horizon, env_spec.delta,
                                        env_spec.variant, env_seed)
        env = instance.adversary(grid)
        env_wins_ties = env_spec.tie == "agent_loses"

    market = SelfPlayMarket(learners, valuations, grid, scenario.supply,
                            environment=env, env_wins_ties=env_wins_ties,
                            members=list(groups.values()))
    config = {
        "scenario": scenario.raw,
        "replication": replication,
        "config_hash": canonical_hash(scenario.raw),
    }
    return market, replication, config
