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
    eta_schedule,
    ix_gamma_schedule,
)
from .mirror_descent import (
    OmdBidder,
    ProjectionError,
    omd_eta_schedule,
    q_membership,
    sample_from_marginals,
    unconstrained_step,
)
from .adversaries import StochasticAdversary, lower_bound_rows
from .simulator import (
    MarketMetrics,
    RegretReport,
    RunLog,
    SelfPlayMarket,
    market_metrics,
    regret_report,
)
from .scenario import Scenario, ScenarioError, canonical_hash, run_experiment, validate_scenario
