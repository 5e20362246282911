"""Hot per-round numerical kernels.

One implementation per kernel, over float64 arrays. The learner groups
(`exp_weights.ExpWeightsBidder`, `mirror_descent.OmdBidder`) call them
directly; there is no second interface.

Kernels:
  * project_dual_ascent: unnormalized-KL projection onto the dominance
    polytope by cyclic coordinate ascent on the Lagrange dual, O(M*D) per
    sweep, certified by the max of layer-sum error, dominance violation and
    complementary-slackness residual. The first sweep returns on one prefix
    table's maxima when no pair would move; otherwise every sweep visits
    every pair.
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
    normalization per row at the end. On linear tables it reads the tail
    sums and the prefix table as they are, at three array operations per
    slot. On log tables it chooses per agent: when every finite cell lies
    within log 2**960 of its row maximum, it runs on their `exp`; an agent
    whose rows span more than that runs the recursion on log ratios, so
    cells far below the row maximum keep their mass.
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
bisects every slot's CDF at one shared uniform per round.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

_NEG_INF = float("-inf")
# Below this shifted log mass a cell sends its agent to logs: from linear tail
# sums to log ones, and from linear marginals on log tables to log ratios.
_LINEAR_FLOOR = -960.0 * math.log(2.0)
# Below this prefix sum an agent's linear tail sums give way to logs.
_LINEAR_MIN = 2.0**-960
# Largest log of a prefix sum that a bounded linear table may reach: below
# log(float max) ~ 709.78, with room for the pass's roundoff.
_LINEAR_LOG_MAX = 700.0
# The win update's addend: a 0-d array skips the conversion a Python float takes per call.
_ONE = np.ones(())


def project_dual_ascent(qt, allowed, tol, max_sweeps):
    """Unnormalized-KL projection of `qt` onto the dominance polytope.

    Cyclic coordinate ascent on the Lagrange dual. Each sweep renormalizes
    every row (nu -= log s), then visits the dominance constraints
    F_m(j) <= F_{m+1}(j): layer pairs forward on even sweeps and backward on
    odd ones, and j in the same direction. Constraint (m, j) moves mass
    between the two prefixes by the closed form delta = log(P/A)/2 (P, A the
    shallow and deep prefix masses), with the multiplier clipped at zero.

    One sweep costs O(M*D): within a pair the prefix masses are running sums
    (forward, an update touches only cells <= j, so the next prefix adds one
    untouched cell) or one cumsum times the product of the updates applied so
    far (backward). The cell rescaling is lazy: cell k of the deep row is
    multiplied, once per pair, by exp(sum_{j >= k} delta_j) and the shallow
    row divided by it. A constraint with lambda = 0 and P <= A is skipped,
    since its clipped update is exactly zero.

    The usual bandit step leaves every pair idle, so the first sweep checks
    that on one prefix table of the normalized rows: when its largest P - A,
    one NaN-propagating max, is not positive, nothing moves, and it returns
    if the larger of that and the largest row-sum error certifies. That
    certificate is exact, as the passes' running sums and backward prefixes
    / 1.0 are the table's sums bit for bit. Otherwise one loop runs the
    sweeps, each visiting every pair and ending on the KKT gap.

    The certificate `gap` is the max of the row-sum error, the dominance
    violation and the complementary-slackness residual |lambda (A - P)|.

    `max_sweeps` must be at least 1. Returns (q, lam, nu, sweeps_used, gap).
    """
    m_units, d = qt.shape
    q = np.where(allowed, qt, 0.0)
    lam_shape = (max(m_units - 1, 1), max(d - 1, 1))
    s = q.sum(axis=1)
    q /= s[:, None]
    nu = 0.0 - np.log(s)
    top = float(_dominance_excess(q).max(initial=_NEG_INF))
    if top <= 0.0:  # the first sweep moves no pair (a NaN top is busy)
        gap = max(float(abs(q.sum(axis=1) - 1.0).max()), top)
        if not gap > tol:
            return q, np.zeros(lam_shape), nu, 1, gap
    lam = np.zeros(lam_shape)
    for sweep in range(max_sweeps):
        if sweep:  # the first sweep's normalization is done above
            s = q.sum(axis=1)
            q /= s[:, None]
            nu -= np.log(s)
        forward = sweep % 2 == 0
        for m in range(m_units - 1) if forward else range(m_units - 2, -1, -1):
            _balance_pair(q, lam, m, forward)
        gap = _kkt_gap(q, _dominance_excess(q), lam)
        if not gap > tol:  # converged, or a NaN gap: more sweeps cannot help
            return q, lam, nu, sweep + 1, gap
    return q, lam, nu, max_sweeps, gap


def _balance_pair(q, lam, m, forward):
    """One pass over the d - 1 dominance constraints of rows m, m + 1."""
    n = q.shape[1] - 1
    lams = lam[m, :n].tolist()
    deltas = [0.0] * n
    if forward:
        shallow_cells = q[m, :n].tolist()
        deep_cells = q[m + 1, :n].tolist()
        shallow = deep = 0.0
        for j in range(n):
            shallow += shallow_cells[j]
            deep += deep_cells[j]
            lj = lams[j]
            if lj == 0.0 and shallow <= deep:
                continue
            delta = _dominance_step(lj, shallow, deep)
            if delta != 0.0:
                lams[j] = lj + delta
                deltas[j] = delta
                up = math.exp(delta)
                shallow /= up
                deep *= up
    else:
        shallow_prefix = q[m, :n].cumsum().tolist()
        deep_prefix = q[m + 1, :n].cumsum().tolist()
        up_so_far = 1.0  # exp of the sum of the updates applied so far
        for j in range(n - 1, -1, -1):
            shallow = shallow_prefix[j] / up_so_far
            deep = deep_prefix[j] * up_so_far
            lj = lams[j]
            if lj == 0.0 and shallow <= deep:
                continue
            delta = _dominance_step(lj, shallow, deep)
            if delta != 0.0:
                lams[j] = lj + delta
                deltas[j] = delta
                up_so_far *= math.exp(delta)
    if any(deltas):
        lam[m, :n] = lams
        up = np.exp(np.cumsum(deltas[::-1])[::-1])
        q[m, :n] /= up
        q[m + 1, :n] *= up


def _dominance_step(lam_j, shallow, deep):
    """Clipped dual update of one constraint: log(P/A)/2, lambda kept >= 0.

    Empty shallow prefix: release the multiplier. Empty deep prefix: no move.
    """
    if shallow <= 0.0:
        return -lam_j
    if deep <= 0.0:
        return 0.0
    return max(0.5 * (math.log(shallow) - math.log(deep)), -lam_j)


def _dominance_excess(q):
    """P - A of every constraint: row m's prefix sums minus row m + 1's."""
    prefix = q[:, :-1].cumsum(axis=1)
    return prefix[:-1] - prefix[1:]


def _kkt_gap(q, excess, lam):
    """Max of row-sum error, excess and |lambda (A - P)|."""
    gap = float(abs(q.sum(axis=1) - 1.0).max())
    if excess.size:
        gap = max(gap, float(excess.max()), float(abs(lam * excess).max()))
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
    `bounded` may also be (k,) bools: the agents marked take this pass, the
    others logs, and the sampler takes the bools as its `linear`.

    With `linear`, the pass runs on E = exp(eta W - row max). Row scales
    matter neither to the sampler nor to the marginals. An agent keeps these
    tables when every feasible E >= 2**-960 and every P[m, 0] >= 2**-960
    (NaN fails both): no cell then loses mass to underflow, capped totals are
    normal floats and q / P <= 2**960 in the marginal recursion. As E <= 1,
    P[m, D-1] is at most C(M + D - 1, M), the number of monotone tails; a
    shape where that exceeds 2**960 takes logs throughout, so only the row
    shift can overflow, and an agent whose shift does takes logs. Agents that
    take logs get the bits of the default call. Returns (sums, prefix,
    linear), `linear` a (k,) bool array (k = 1 for one table) naming the
    agents on linear tables. The tables are `work`'s (a `Workspace`) or new.
    """
    work = work or Workspace(weights.shape)
    if isinstance(bounded, np.ndarray):  # per agent; the unmarked take logs
        sums, prefix = ew_tail_sums(weights, allowed, eta, work=work)
        sums[:, bounded], prefix[:, bounded] = ew_tail_sums(
            weights[:, bounded], allowed[:, bounded], eta[..., bounded, :], bounded=True)
        return sums, prefix
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
        rates = eta if np.ndim(eta) == 0 else eta[..., logs, :]
        sums[:, logs], prefix[:, logs] = ew_tail_sums(weights[:, logs], allowed[:, logs], rates)
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
    maxima to s. When every finite s of such an agent is at least
    log 2**-960, the recursion runs on S = exp(s): each S is then a normal
    float, q / z <= 1 / S[m, 0] <= 2**960 and no suffix sum overflows. An
    agent whose rows span more than that takes `_log_marginals`. Every
    choice is made per agent, so each agent of an (M, k, D) stack gets the
    bits of its own (M, D) call; the marginals take the tables' shape. For
    `sums` a `Workspace`, its S and P are read and linear marginals are its q.
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
    s = sums - sums.max(axis=-1, keepdims=True)
    wide = ((s < _LINEAR_FLOOR) & (s > _NEG_INF)).any(axis=(0, -1))
    if not wide.any():
        return _linear_marginals(s)
    if wide.all():
        return _log_marginals(s)
    q = np.empty_like(s)
    q[:, ~wide] = _linear_marginals(s[:, ~wide])
    q[:, wide] = _log_marginals(s[:, wide])
    return q


def _linear_marginals(s):
    """The marginal recursion on S = exp(s); every finite s >= _LINEAR_FLOOR."""
    q = np.exp(s)
    return _normalized(marginal_recursion(q, np.add.accumulate(q, axis=-1)))


def marginal_recursion(q, z, rows=None):
    """The marginal recursion on linear S in `q`, overwritten, with z its running row
    sums (`rows`: their `forward_rows`); returns `q`, rows of mass 1 up to roundoff."""
    q[0] /= z[0][..., -1:]
    forward_pass(rows or forward_rows(q, z), np.add.accumulate, np.divide, np.multiply)
    return q


def _log_marginals(s):
    """The marginal recursion in logs, for rows spanning more than exp's range:
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
