"""Hot per-round numerical kernels.

One implementation per kernel, over float64 arrays. The learner groups
(`exp_weights.ExpWeightsBidder`, `mirror_descent.OmdBidder`) call them
directly; there is no second interface.

Kernels:
  * project_dual_ascent: unnormalized-KL projection onto the dominance
    polytope, certified by the max of layer-sum error, dominance violation
    and complementary-slackness residual. It returns at zero dominance
    multipliers when one prefix table of the normalized rows certifies, and
    otherwise takes projected Newton steps on the Lagrange dual: at most 100
    conjugate-gradient iterations with a matrix-free Hessian, O(M*D) each.
    Each check's prefix table is one full-row `np.add.accumulate`, written
    into the caller's buffer, so on return it holds the returned q's row
    CDFs: the table mirror descent samples its next bid from.
  * backward_pass / forward_pass: the layered graph's two passes (Takimoto &
    Warmuth 2003), one accumulate and one elementwise step per slot, in the
    caller's semiring. Backward: EW's tail sums, (add, multiply) or in logs
    (logaddexp, add), and the hindsight DP in max-plus (maximum, add).
    Forward: EW's marginals, (add, divide, multiply) or in logs (logaddexp,
    subtract, add), and OMD's start on its IR mask.
  * ew_tail_sums / sample_monotone: decoupled exponential weights. The
    backward pass yields the tail sums and their running prefix sums; the
    prefix sums are the sampler's normalizers, so sampling is one bisection
    per slot (one uniform per slot). The pass runs in logs, or on one `exp`
    per table. With `linear`, rows are shifted by their maxima and tested
    per agent, and an agent whose table does not fit a float's range takes
    logs. With `bounded`, the caller has proven the table fits
    (`linear_rounds`, for full-information weights), so the pass runs on
    exp(eta W) unshifted.
  * ew_marginals: the sampler's slot marginals by the forward pass, which
    conserves each row's mass and ignores its scale, so it needs one
    normalization per row at the end. It runs per agent in the domain of
    its tail sums: on linear tables it reads the tail sums and the prefix
    table as they are, at three array operations per slot; on log tables it
    runs the recursion on log ratios, so cells far below the row maximum
    keep their mass.
  * slot_rewards / apply_slot_rewards: full-information tables are win counts
    times v_m - B_j, as in the hindsight DP; each round adds one win to every
    cell at or above its slot's threshold, and EW's rates carry v_m - B_j.

The EW kernels take the slot axis first and bids last: one (M, D) table, or
an (M, k, D) stack of k agents whose slot m is one contiguous (k, D) block.
Both run the same code, one numpy call per slot for all agents, with the same
bits per agent as k separate calls, since every operation is elementwise or
runs along the bid axis; only the sampler loops over the agents. An EW group
keeps one `Workspace`: `ew_tail_sums` given it writes its S and P through its
per-slot row views, `ew_marginals` reads them and writes its q, and
`apply_slot_rewards(..., work=)` its win mask. What they return aliases it
until the group's next `propose`; other callers get new arrays.

Mirror descent samples without a kernel: `mirror_descent.sample_from_marginals`
bisects every slot's CDF at one shared uniform per round, in the prefix table
that the round's projection wrote, so a round builds that table once.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

_NEG_INF = float("-inf")
# Below this shifted log mass a cell sends its agent's tail sums, and so its
# sampler and marginals, from linear tables to logs.
_LINEAR_FLOOR = -960.0 * math.log(2.0)
# Below this prefix sum an agent's linear tail sums give way to logs.
_LINEAR_MIN = 2.0**-960
# Largest log of a prefix sum that a bounded linear table may reach: below
# log(float max) ~ 709.78, with room for the pass's roundoff.
_LINEAR_LOG_MAX = 700.0
# The win update's addend and the row sums' target: a 0-d array skips the conversion a
# Python float takes per call.
_ONE = np.ones(())
# A Newton step's largest multiplier move, and its most CG iterations (one O(M*D) product each).
_MAX_STEP, _CG_ITERATIONS = 4.0, 100


def project_dual_ascent(qt, allowed, tol, max_sweeps, table=None):
    """Unnormalized-KL projection of `qt` onto the dominance polytope.

    The dual has a multiplier lambda[m, j] >= 0 per constraint F_m(j) <=
    F_{m+1}(j): row m of the iterate is the normalized input times
    exp(sum_{j >= k} lambda[m - 1, j] - sum_{j >= k} lambda[m, j]) on cell k,
    renormalized, and nu_m is minus its log scale. The dual value sum(nu) is
    concave in lambda, with gradient the excess F_m(j) - F_{m+1}(j).

    The certificate `gap` is the max of the row-sum error, the dominance
    violation and the complementary-slackness residual |lambda (A - P)|, and a
    NaN gap does not certify. The usual bandit step meets dominance up to
    roundoff, so it is taken first at lambda = 0, on one prefix table of the
    normalized rows. Otherwise projected Newton steps (`_newton_step`)
    maximize the dual, each O(M*D).

    Every check builds the iterate's full-row prefix table, np.add.accumulate(q,
    axis=1), in `table` (an (M, D) float array, or a new one when None). On
    return it holds the returned q's table, the CDF a sampler bisects.

    `max_sweeps` (at least 1) bounds the check plus the Newton steps, the
    count returned. Returns (q, lam, nu, sweeps_used, gap).
    """
    m_units, d = qt.shape
    q = np.where(allowed, qt, 0.0)
    lam = np.zeros((max(m_units - 1, 1), max(d - 1, 1)))
    s = np.add.reduce(q, 1)
    q /= s[:, None]
    nu = 0.0 - np.log(s)
    table = np.add.accumulate(q, 1, None, table)
    excess = _dominance_excess(table)
    sweeps, gap = 1, _kkt_gap(q, excess)
    if not gap > tol:  # lambda = 0 certifies; a NaN gap stops here too
        return q, lam, nu, sweeps, gap
    factors, nu0 = np.zeros(q.shape), nu
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = np.log(q)  # IR-masked cells: -inf
        while gap > tol and sweeps < max_sweeps:
            step = _newton_step(q, lam, excess, logs, factors, nu0)
            if step is None:  # no step ascends
                break
            q, lam, nu, factors = step
            excess = _dominance_excess(np.add.accumulate(q, 1, None, table))
            sweeps, gap = sweeps + 1, _kkt_gap(q, excess, lam)
    return q, lam, nu, sweeps, gap


def _newton_step(q, lam, excess, logs, factors, nu0):
    """One projected Newton step from `lam`: (q, lam, nu, factors), or None if none ascends.

    Conjugate gradients on the free set (lambda > 0 or excess > 0), at most one
    iteration per free multiplier and `_CG_ITERATIONS` in all, give the step,
    or the gradient where there is no curvature. Capped at `_MAX_STEP` per
    multiplier, it is halved along max(lambda + step, 0) until the dual rises
    by 1e-4 of its first-order gain (Armijo). The rise, -log(sum q e^delta)
    per row, is taken against the current iterate, precise where a difference
    of sum(nu) would round away; an emptied row (+inf) or an overflow (NaN)
    fails it. q and nu are rebuilt from the input's `logs` and `nu0`, so
    rounding does not build up.
    """
    free = (lam > 0.0) | (excess > 0.0)
    residual = np.where(free, excess, 0.0)
    direction, step = residual.copy(), np.zeros(residual.shape)
    rr = float((residual * residual).sum())
    goal = rr * min(0.25, rr)  # stop at a residual of min(1/2, |g|) |g|: superlinear steps
    for _ in range(min(int(free.sum()), _CG_ITERATIONS)):
        bend = np.where(free, _curvature(q, direction), 0.0)
        curvature = float((direction * bend).sum())
        if not curvature > 0.0:
            break
        step += rr / curvature * direction
        residual -= rr / curvature * bend
        rr, last = float((residual * residual).sum()), rr
        if rr <= goal:
            break
        direction = residual + (rr / last) * direction
    step = step if step.any() else np.where(free, excess, 0.0)
    step *= min(1.0, _MAX_STEP / abs(step).max(initial=0.0))
    for _ in range(60):
        trial = np.maximum(lam + step, 0.0)
        delta = _log_factors(trial - lam, q.shape)
        rise = -float(np.log1p((q * np.expm1(delta)).sum(axis=1) / q.sum(axis=1)).sum())
        if 0.0 < 1e-4 * float((excess * (trial - lam)).sum()) <= rise < math.inf:
            factors = factors + delta
            cells = logs + factors
            top = cells.max(axis=1, keepdims=True)
            q = np.exp(cells - top)
            s = q.sum(axis=1, keepdims=True)
            return q / s, trial, nu0 - (top + np.log(s))[:, 0], factors
        step *= 0.5
    return None


def _log_factors(lam, shape):
    """Log factor of each cell (m, k): sum_{j >= k} lam[m - 1, j] - sum_{j >= k} lam[m, j]."""
    factors = np.zeros(shape)
    tails = lam[:, ::-1].cumsum(axis=1)[:, ::-1]
    factors[1:, :-1] += tails
    factors[:-1, :-1] -= tails
    return factors


def _curvature(q, v):
    """Minus the dual's Hessian times `v`: the log factors move by `_log_factors(v)`,
    each row's mass by q times their deviation from its mean, the excesses by
    its prefix sums. One suffix cumsum, one product and one prefix cumsum."""
    moved = _log_factors(v, q.shape)
    mass = q * (moved - (q * moved).sum(axis=1, keepdims=True))
    prefix = mass[:, :-1].cumsum(axis=1)
    return prefix[1:] - prefix[:-1]


def _dominance_excess(table):
    """P - A of every constraint from the rows' prefix table: row m's prefix sums
    minus row m + 1's, over the first D - 1 columns."""
    prefix = table[:, :-1]
    return prefix[:-1] - prefix[1:]


def _kkt_gap(q, excess, lam=None):
    """Max of row-sum error, excess and |lambda (A - P)|, which is 0 at lambda = None."""
    gap = float(np.maximum.reduce(abs(np.subtract(np.add.reduce(q, 1), _ONE)), None))
    if excess.size:
        slack = 0.0 if lam is None else float(np.maximum.reduce(abs(lam * excess), None))
        gap = max(gap, float(np.maximum.reduce(excess, None)), slack)
    return gap


def ew_tail_sums(weights, allowed, eta, linear=False, bounded=False, work=None):
    """Tail sums and their running prefix sums, in one backward pass.

    S[m, b] = exp(eta W[m, b]) P[m+1, b], with P[m, b] = sum_{b' <= b}
    S[m, b'] and forbidden cells of zero mass. P[m, cap] is the normalizer of
    slot m's law when the previous slot bid `cap`, so the sampler reads it
    directly. `eta` is a scalar, a stack's (k, 1) rates, or a rate per cell.

    By default the tables are in logs, one `np.logaddexp.accumulate` per
    layer. Returns (log_sums, log_prefix).

    With `bounded`, the caller vouches that every prefix sum of exp(eta W)
    is a finite float (see `linear_rounds`), and the pass runs on exp(eta W)
    itself: one `exp`, then one `np.add.accumulate` and one product per
    layer, with no shift and no test. Returns (sums, prefix), both linear.

    With `linear`, `eta` is one scalar rate for every agent (a bandit group's),
    and the pass runs on E = exp(eta W - row max). Row scales matter neither
    to the sampler nor to the marginals. An agent keeps these tables when
    every feasible E >= 2**-960 and every P[m, 0] >= 2**-960 (NaN fails
    both): no cell then loses mass to underflow, capped totals are normal
    floats and q / P <= 2**960 in the marginal recursion. As E <= 1,
    P[m, D-1] is at most C(M + D - 1, M), the number of monotone tails; a
    shape where that exceeds 2**960 takes logs throughout, so only the row
    shift can overflow, and an agent whose shift does takes logs. Agents that
    take logs get the bits of the default call. Returns (sums, prefix,
    linear), `linear` a (k,) bool array (k = 1 for one table) naming the
    agents on linear tables. The tables are `work`'s (a `Workspace`) or new.
    """
    work = work or Workspace(weights.shape)
    sums = np.multiply(eta, weights, work.sums)
    if bounded:
        np.exp(sums, sums)
        sums *= allowed
        backward_pass(work.backward, np.add.accumulate, np.multiply)
        return sums, work.prefix
    np.putmask(sums, np.logical_not(allowed), _NEG_INF)
    if linear:
        return _linear_tail_sums(weights, allowed, eta, work)
    backward_pass(work.backward, np.logaddexp.accumulate, np.add)
    return sums, work.prefix


def _log_tail_count(m_units, d):
    """log C(M + D - 1, M): the log of the number of monotone tails of M slots on D bids."""
    return math.lgamma(m_units + d) - math.lgamma(m_units + 1) - math.lgamma(d)


def linear_rounds(m_units, d, eta_max):
    """Rounds of full-information updates after which `bounded` tables still fit.

    After t updates a feasible cell's eta W is a win count of at most t times
    a rate eta (v_m - B_j) in [-eta_max VALUE_EPS, eta_max], so its exp(eta W)
    lies in [e**(-eta_max t VALUE_EPS), e**(eta_max t)] and every prefix sum is
    at most C(M + D - 1, M) e**(M eta_max t). Tables fit while that stays below
    e**700, that is for t up to the value returned, -inf for a shape with
    more than e**700 monotone tails; no feasible cell then underflows.
    """
    room = _LINEAR_LOG_MAX - _log_tail_count(m_units, d)
    return room / (m_units * eta_max) if room >= 0.0 else -math.inf


class Workspace:
    """An EW group's per-round tables in its stack's shape: S, P, the backward pass's rows,
    and the bid index and win mask of `apply_slot_rewards`."""

    def __init__(self, shape):
        self.sums, self.prefix = np.empty((2, *shape))
        self.backward = list(zip(self.sums[::-1], self.prefix[::-1]))
        self.win_index = np.arange(shape[-1]), np.empty(shape, bool)

    @functools.cached_property
    def marginals(self):
        """q, a buffer of one cell per row and q's forward rows, built at first use."""
        q = np.empty_like(self.sums)
        return q, np.empty((*q.shape[:-1], 1)), list(forward_rows(q, self.prefix))


def backward_pass(rows, accumulate, combine):
    """The layered graph's backward pass on an (M, D) table or (M, k, D) stack, in
    place, over the pairs `zip(S[::-1], P[::-1])`: from the last slot up, P[m] =
    accumulate(S[m]) along the bids and S[m - 1] = combine(S[m - 1], P[m])."""
    rows = iter(rows)
    row, below = next(rows)
    accumulate(row, -1, None, below)
    for row, out in rows:
        combine(row, below, row)
        below = accumulate(row, -1, None, out)


def forward_rows(q, z):
    """The rows (q[m - 1], q[m], z[m]) from slot 1 down, with a suffix buffer."""
    suffix = np.empty_like(q[0])
    return zip(q[:-1], q[1:], z[1:], itertools.repeat(suffix), itertools.repeat(suffix[..., ::-1]))


def forward_pass(rows, accumulate, ratio, combine):
    """The layered graph's forward pass on (M, D) tables or (M, k, D) stacks, in
    place, over their `forward_rows`: from slot 1 down, q[m] = combine(q[m],
    the suffix accumulate of ratio(q[m - 1], z[m])) along the bids."""
    for above, row, z_row, suffix, backward in rows:
        ratio(above, z_row, suffix)
        accumulate(backward, -1, None, backward)  # suffix sums of the ratios
        combine(row, suffix, row)


def _linear_tail_sums(weights, allowed, eta, work):
    """`ew_tail_sums(..., linear=True)` from its masked eta W: the pass on exp(eta W - row max)."""
    if _log_tail_count(weights.shape[0], weights.shape[-1]) > -_LINEAR_FLOOR:
        logs_only = np.zeros(weights.shape[1:-1], bool).reshape(-1)
        return (*ew_tail_sums(weights, allowed, eta, work=work), logs_only)
    sums, prefix = work.sums, work.prefix
    with np.errstate(over="ignore", invalid="ignore"):  # such a row fails the test below
        sums -= sums.max(axis=-1, keepdims=True)
    lowest = sums.min(axis=-1, where=allowed, initial=0.0)  # of each row's feasible cells
    np.exp(sums, sums)
    backward_pass(work.backward, np.add.accumulate, np.multiply)
    linear = ((lowest >= _LINEAR_FLOOR) & (prefix[..., 0] >= _LINEAR_MIN)).all(axis=0).reshape(-1)
    flags = linear.tolist()
    if not any(flags):
        return (*ew_tail_sums(weights, allowed, eta, work=work), linear)
    if not all(flags):
        logs = ~linear
        sums[:, logs], prefix[:, logs] = ew_tail_sums(weights[:, logs], allowed[:, logs], eta)
    return sums, prefix, linear


def sample_monotone(prefix, uniforms, linear=False):
    """Sequential inverse-CDF sampling; slot m restricted to the previous bid.

    Slot m picks the first cell whose running mass exceeds u_m times the
    prefix sum at the previous pick `cap`, the capped total: one bisection
    of the row, at u_m P[cap] on a linear row and at log(u_m) + log P[cap]
    on a log row. When roundoff leaves no such cell (the threshold equals
    the total), it takes the first cell at which the prefix reaches its
    total: the last cell under the cap with mass. `linear` says per agent
    which rows are linear, as `ew_tail_sums` reports it, or is one bool for
    every agent (by default every row is in logs). Expects mass in cell 0 of
    every row. `uniforms` are (M,) for one table, or (k, M) in agent order
    for an (M, k, D) stack. The picks are Python ints: one list of M for (M,)
    uniforms, k such lists for (k, M). Bisection reads a flat memoryview, so a
    draw converts only the cells it probes; a stack draws agent by agent.
    """
    m_units, d = prefix.shape[0], prefix.shape[-1]
    step = prefix.size // m_units  # k * D: from an agent's row of slot m to slot m + 1
    flags = linear.tolist() if isinstance(linear, np.ndarray) else itertools.repeat(linear)
    cells = memoryview(np.ascontiguousarray(prefix).reshape(-1))
    rows = []
    for agent, (row, agent_linear) in enumerate(zip(uniforms.reshape(-1, m_units).tolist(), flags)):
        cap = d - 1  # an agent's first slot may take any cell
        lo = agent * d  # slot 0 of the agent; slot m starts at (m * k + agent) * D
        picks = []
        for u in row:
            total = cells[lo + cap]
            if agent_linear:
                threshold = u * total
            else:
                threshold = math.log(u) + total if u > 0.0 else _NEG_INF
            pick = bisect.bisect_right(cells, threshold, lo, lo + cap + 1) - lo
            if pick > cap:  # roundoff: fall to the last cell with mass
                pick = bisect.bisect_left(cells, total, lo, lo + cap + 1) - lo
            picks.append(pick)
            cap = pick
            lo += step
        rows.append(picks)
    return rows if uniforms.ndim > 1 else rows[0]


def ew_marginals(sums, prefix=None, linear=None):
    """Unconditional slot marginals of the sequential sampler.

    With z the running row sums of S, q[0] = S[0] / z[0][-1] and q[m] = S[m]
    times the reversed running sum of q[m-1] / z[m]. As z is the prefix sum
    of S, each step keeps the row mass (sum_b q[m, b] = sum_b q[m-1, b]), so
    one normalization per row at the end suffices, and a row's scale
    cancels.

    Agents marked `linear` hold linear S and its prefix sums `prefix`, as
    `ew_tail_sums(..., linear=True)` returns them, and the recursion runs on
    them as they are. The others hold log tail sums (all of them when
    `linear` is None; `prefix` is then not read), shifted here by their row
    maxima, and take `_log_marginals`. Each agent of an (M, k, D) stack gets
    the bits of its own (M, D) call; the marginals take the tables' shape.
    For `sums` a `Workspace`, its S and P are read and linear marginals are
    its q.
    """
    flags = [False] if linear is None else linear.tolist()
    if isinstance(sums, Workspace):
        sums, prefix, (q, total, rows) = sums.sums, sums.prefix, sums.marginals
        if all(flags):
            np.copyto(q, sums)
            return _normalized(marginal_recursion(q, prefix, rows), total)
    if all(flags):
        return _normalized(marginal_recursion(sums.copy(), prefix))
    if any(flags):
        q = np.empty_like(sums)
        q[:, linear] = _normalized(marginal_recursion(sums[:, linear], prefix[:, linear]))
        q[:, ~linear] = ew_marginals(sums[:, ~linear])
        return q
    return _log_marginals(sums - sums.max(axis=-1, keepdims=True))


def marginal_recursion(q, z, rows=None):
    """The marginal recursion on linear S in `q`, overwritten, with z its running row
    sums (`rows`: their `forward_rows`); returns `q`, rows of mass 1 up to roundoff."""
    q[0] /= z[0][..., -1:]
    forward_pass(rows or forward_rows(q, z), np.add.accumulate, np.divide, np.multiply)
    return q


def _log_marginals(s):
    """The marginal recursion on log tail sums `s`, each row shifted by its maximum:
    the forward pass on log q = s, in place, with lz the running log row sums. The
    ratio q[m-1] / z[m] never leaves the log domain, so cells far below their
    row maximum keep their mass."""
    lz = np.logaddexp.accumulate(s, axis=-1)
    forward_pass(forward_rows(s, lz), np.logaddexp.accumulate, np.subtract, np.add)
    return _normalized(np.exp(s - s.max(axis=-1, keepdims=True)))


def _normalized(q, total=None):
    """`q` with every row divided by its sum, in place; `total` takes the sums."""
    return np.divide(q, q.sum(axis=-1, keepdims=True, out=total), q)


def slot_rewards(allowed, valuations, grid_values):
    """The full-information reward of one win: v_m - B_j on feasible cells, 0 elsewhere."""
    return np.where(allowed, valuations[..., None] - grid_values, 0.0)


def apply_slot_rewards(counts, thresholds, work=None):
    """Count a win in every cell (m, j) with j >= thr_m (masked: a bool add casts
    through a buffer). `thresholds` are (M,), or (k, M) in agent order for an (M, k, D)
    stack; `work`, a `Workspace` of the counts' shape, lends its index and win mask."""
    index, wins = work.win_index if work else (np.arange(counts.shape[-1]), None)
    wins = np.greater_equal(index, thresholds.T[..., None], out=wins)
    np.add(counts, _ONE, out=counts, where=wins)
