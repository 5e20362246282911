"""Learning to bid in repeated multi-unit pay-as-bid auctions.

The library provides: exact hindsight optimization of a fixed bid vector by
dynamic programming, two families of no-regret online bidders (decoupled
exponential weights and online mirror descent over per-slot occupancy
measures), stochastic and worst-case environments, and a multi-agent market
simulator with regret, welfare, and revenue reporting.
"""

__version__ = "0.1.0"

from .grids import BidGrid, make_even_grid
from .auction import (
    BidVector,
    CompetingBids,
    TieBreak,
    ValuationProfile,
    win_thresholds,
)
from .hindsight import (
    HindsightSolution,
    NodeWeightTable,
    accumulate_weights_history,
    hindsight_optimal,
)
from .exp_weights import (
    ExpWeightsBidder,
    FeedbackMode,
    LearnerConfig,
    PartialSumTable,
    SlotMarginals,
    bandit_update,
    compute_partial_sums,
    eta_schedule,
    full_info_update,
    ix_gamma_schedule,
    sample_bid,
    slot_marginals,
)
from .mirror_descent import (
    OccupancyMeasure,
    OmdBidder,
    ProjectionError,
    ProjectionResult,
    omd_eta_schedule,
    project_to_Q,
    q_membership,
    sample_from_marginals,
    unconstrained_step,
)
from .adversaries import (
    LowerBoundInstance,
    StochasticAdversary,
    lower_bound_instance,
)
from .simulator import (
    MarketMetrics,
    RegretReport,
    RunLog,
    SelfPlayMarket,
    market_metrics,
    regret_report,
    run_experiment,
)
from .scenario import Scenario, ScenarioError, canonical_hash, load_scenario, validate_scenario
