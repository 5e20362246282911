"""Shared test helpers: enumeration oracles, random instance generators and
a one-learner run against an environment."""
from __future__ import annotations

import numpy as np
import pytest

from pabid import _kernels
from pabid._kernels import sample_monotone
from pabid.auction import BidVector, ValuationProfile
from pabid.cli import numpy_build
from pabid.grids import BidGrid, make_even_grid
from pabid.hindsight import NodeWeightTable
from pabid.mirror_descent import q_membership, sample_from_marginals
from pabid.simulator import SelfPlayMarket

from oracles import iter_monotone_indices, unnormalized_kl

# numpy's version and dispatch targets choose the bits of its `exp` and `log`, so an
# expectation that depends on them names the build it was recorded on and this run's.
RECORDED_TARGET = "numpy 2.4.6, dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
BUILD = numpy_build()
TARGETS = (f"recorded on {RECORDED_TARGET}; this run: numpy {BUILD['version']}, "
           f"dispatch {' '.join(BUILD['dispatch'])}")

def play_against(learner, adversary, rounds: int, tie: bool = False):
    """RunLog of one learner group against an environment, as a market of its agents."""
    market = SelfPlayMarket([learner], learner.valuations, learner.grid, adversary.supply,
                            environment=adversary, env_wins_ties=tie,
                            members=[range(len(learner.valuations))])
    return market.play(rounds)


def random_valuation(rng: np.random.Generator, demand: int) -> ValuationProfile:
    return ValuationProfile(np.sort(rng.random(demand))[::-1])


def random_weight_table(
    rng: np.random.Generator,
    demand: int,
    grid_size: int,
    magnitude: float = 3.0,
    with_ir_mask: bool = True,
) -> NodeWeightTable:
    grid = make_even_grid(grid_size)
    if with_ir_mask:
        valuation = random_valuation(rng, demand)
    else:
        valuation = ValuationProfile(np.ones(demand))
    weights = rng.uniform(-magnitude, magnitude, size=(demand, grid_size))
    allowed = valuation.ir_mask(grid)
    weights[~allowed] = 0.0
    return NodeWeightTable(weights=weights, allowed=allowed, grid=grid, valuation=valuation)


def draw_bid(log_prefix: np.ndarray, rng: np.random.Generator, grid: BidGrid) -> BidVector:
    """One draw of the EW sampler from a log prefix table, one uniform per slot."""
    return BidVector(sample_monotone(log_prefix, rng.random(log_prefix.shape[0])), grid)


def feasible_vectors(table: NodeWeightTable) -> list[tuple[int, ...]]:
    """All monotone index vectors whose cells are all individually rational."""
    out = []
    for idx in iter_monotone_indices(*table.weights.shape):
        if all(table.allowed[m, j] for m, j in enumerate(idx)):
            out.append(tuple(int(j) for j in idx))
    return out


def softmax_path_law(table: NodeWeightTable, eta: float) -> dict[tuple[int, ...], float]:
    """Exact exponential-weights law over feasible monotone vectors, by enumeration."""
    vectors = feasible_vectors(table)
    scores = np.array([
        eta * sum(table.weights[m, j] for m, j in enumerate(idx)) for idx in vectors
    ])
    scores -= scores.max()
    mass = np.exp(scores)
    mass /= mass.sum()
    return dict(zip(vectors, mass))


def enumerated_marginals(law: dict[tuple[int, ...], float], demand: int, grid_size: int) -> np.ndarray:
    q = np.zeros((demand, grid_size))
    for idx, p in law.items():
        for m, j in enumerate(idx):
            q[m, j] += p
    return q


def random_policy(rng: np.random.Generator, demand: int, grid_size: int):
    """Markov chain over bid indices: (initial law, transitions[m, b, b']).

    Dirichlet-random rows over feasible (non-increasing) successors.
    """
    initial = rng.dirichlet(np.ones(grid_size))
    transitions = np.zeros((max(demand - 1, 0), grid_size, grid_size))
    for m in range(demand - 1):
        for b in range(grid_size):
            transitions[m, b, : b + 1] = rng.dirichlet(np.ones(b + 1))
    return initial, transitions


def chain_marginals(initial: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Forward recursion: push the slot-1 law through the transition rows."""
    q = np.zeros((transitions.shape[0] + 1, initial.size))
    q[0] = initial
    for m in range(transitions.shape[0]):
        q[m + 1] = q[m] @ transitions[m]
    return q


def random_q_member(rng: np.random.Generator, demand: int, grid_size: int) -> np.ndarray:
    return chain_marginals(*random_policy(rng, demand, grid_size))


def member_on(rng: np.random.Generator, allowed: np.ndarray) -> np.ndarray:
    """A random polytope member supported on `allowed` (an IR staircase):
    slot 1 Dirichlet on its feasible cells, then from bid b a Dirichlet
    over the next slot's feasible cells at or below b."""
    m_units, d = allowed.shape
    q = np.zeros((m_units, d))
    first = rng.dirichlet(np.ones(d)) * allowed[0]
    q[0] = first / first.sum()
    for m in range(1, m_units):
        for b in range(d):
            row = rng.dirichlet(np.ones(b + 1)) * allowed[m, : b + 1]
            q[m, : b + 1] += q[m - 1, b] * row / row.sum()
    return q


# The largest double below 1: the extreme uniform a generator can return.
LAST_UNIFORM = 1.0 - 2.0**-53


class FixedUniform:
    """Stand-in generator whose every uniform is `u`."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def sampler_law(q: np.ndarray) -> dict[tuple[int, ...], float]:
    """Exact law of `sample_from_marginals` on q.

    The draw is a step function of its one uniform, constant between
    consecutive normalized CDF values of the rows; evaluating it once inside
    each interval and weighting by the interval's length gives the law.
    """
    cdf = np.cumsum(q, axis=1)
    cuts = np.unique(np.concatenate([[0.0, 1.0], np.clip(cdf / cdf[:, -1:], 0.0, 1.0).ravel()]))
    law: dict[tuple[int, ...], float] = {}
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        key = tuple(int(j) for j in sample_from_marginals(q, FixedUniform(0.5 * (lo + hi))))
        law[key] = law.get(key, 0.0) + float(hi - lo)
    return law


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


def support_has_member(qt: np.ndarray, allowed: np.ndarray) -> bool:
    """Whether some member of the polytope puts mass only where `qt` does (on `allowed`).

    Dominance makes the rows' top cells non-increasing down the slots, and a
    member can sit on one cell per row, so there is one exactly when each row
    has mass at or below the top cell chosen for the row above.
    """
    cap = qt.shape[1]
    for row in np.where(allowed, qt, 0.0) > 0.0:
        cells = np.flatnonzero(row[:cap])
        if cells.size == 0:
            return False
        cap = int(cells[-1]) + 1
    return True


def assert_same_optimum(got, want, qt, allowed, tol):
    """`got` certifies the projection of the feasible input `qt`, and reaches the
    optimum of the reference projection `want` wherever that certifies too.

    On every input, `got` has gap <= tol, is a member, keeps q = 0 on masked
    cells and is the input reweighted by its own multipliers: log q = log q~ +
    nu + the log factors of lambda on every cell of mass. A point certified at
    `tol` has a KL objective within about `tol` times the sum of its
    multipliers' sizes, |lambda| and |nu|, of the optimum, either side. So
    where `want` certifies, the two objectives agree within twice that sum over
    both points times `tol`, and within 1e-8 when it is small.
    """
    q, lam, nu, _sweeps, gap = got
    target = np.where(allowed, qt, 0.0)
    assert gap <= tol
    assert q_membership(q, tol=tol) == []
    assert np.all(q[target == 0.0] == 0.0)
    cells = q > 0.0
    logs = np.log(target[cells]) + (nu[:, None] + _kernels._log_factors(lam, q.shape))[cells]
    assert np.allclose(np.log(q[cells]), logs, rtol=1e-12, atol=1e-9)
    if want[4] <= tol:
        sizes = sum(float(abs(multipliers).sum()) for multipliers in (lam, nu, *want[1:3]))
        bound = max(1e-8, 2.0 * sizes * tol)
        assert abs(unnormalized_kl(q, target) - unnormalized_kl(want[0], target)) <= bound
