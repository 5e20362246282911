"""Learning to bid in repeated multi-unit pay-as-bid auctions.

The library provides: exact hindsight optimization of a fixed bid vector by
dynamic programming, two families of no-regret online bidders (decoupled
exponential weights and online mirror descent over per-slot occupancy
measures), stochastic and worst-case environments, and a multi-agent market
simulator with regret, welfare, and revenue reporting.
"""

__version__ = "0.1.0"
