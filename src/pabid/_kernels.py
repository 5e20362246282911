"""Hot per-round numerical kernels.

One implementation per kernel, over float64 arrays. The public modules wrap
these in the typed API.

Kernels:
  * project_dual_ascent: unnormalized-KL projection onto the dominance
    polytope by cyclic coordinate ascent on the Lagrange dual, O(M*D) per
    sweep, certified by the max of layer-sum error, dominance violation and
    complementary-slackness residual; a step inside it costs one prefix table.
  * ew_tail_sums / sample_monotone / ew_marginals: decoupled exponential
    weights, all in logs. One backward pass of `np.logaddexp.accumulate`
    yields the tail sums and their running prefix sums; the prefix sums are
    the sampler's normalizers, so sampling is one bisection per slot (one
    uniform per slot), and the marginals' forward recursion runs on log
    ratios, so rows spanning more than exp's range keep their mass.
  * apply_slot_rewards: the full-information weight update, one masked add
    of the cells at or above each slot's win threshold.

The EW kernels take slots and bids on the last two axes, so one (M, D) table
and a (k, M, D) stack of k agents run the same code, with the same bits per
agent as k separate calls; only the sampler loops over the agents.

Mirror descent samples without a kernel: `mirror_descent.sample_from_marginals`
bisects every slot's CDF at one shared uniform per round.
"""
from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

_NEG_INF = float("-inf")


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
    since its clipped update is exactly zero. Until a pair first moves (lambda
    is all zero), one prefix table of the normalized rows gives every P - A:
    idle pairs (no positive or NaN difference) ahead of the first busy one are
    skipped, and a sweep where none moves reads its certificate off the table,
    exactly, as the passes' running sums and backward prefixes / 1.0 are the
    table's sums bit for bit. Once a pair has moved, sweeps visit every pair.

    The certificate `gap` is the max of the row-sum error, the dominance
    violation and the complementary-slackness residual |lambda (A - P)|.

    Returns (q, lam, nu, sweeps_used, gap).
    """
    m_units, d = qt.shape
    q = np.where(allowed, qt, 0.0)
    lam = np.zeros((max(m_units - 1, 1), max(d - 1, 1)))
    nu = np.zeros(m_units)
    gap = np.inf
    fresh = True  # no pair has moved yet, so every multiplier is still zero
    for sweep in range(max_sweeps):
        s = q.sum(axis=1)
        q /= s[:, None]
        nu -= np.log(s)
        forward = sweep % 2 == 0
        pairs = range(m_units - 1) if forward else range(m_units - 2, -1, -1)
        if fresh:
            excess = _dominance_excess(q)
            idle = (excess <= 0.0).all(axis=1).tolist()  # NaN counts as busy
            pairs = itertools.dropwhile(idle.__getitem__, pairs)
        for m in pairs:
            fresh = not _balance_pair(q, lam, m, forward) and fresh
        gap = _kkt_gap(q, excess) if fresh else _kkt_gap(q, _dominance_excess(q), lam)
        if not gap > tol:  # converged, or a NaN gap: more sweeps cannot help
            return q, lam, nu, sweep + 1, gap
    return q, lam, nu, max_sweeps, gap


def _balance_pair(q, lam, m, forward):
    """One pass over the d - 1 dominance constraints of rows m, m + 1: did one move?"""
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
    moved = any(deltas)
    if moved:
        lam[m, :n] = lams
        up = np.exp(np.cumsum(deltas[::-1])[::-1])
        q[m, :n] /= up
        q[m + 1, :n] *= up
    return moved


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


def _kkt_gap(q, excess, lam=None):
    """Max of row-sum error, excess and |lambda (A - P)|, which is 0 without `lam`."""
    gap = float(abs(q.sum(axis=1) - 1.0).max())
    if excess.size:
        gap = max(gap, float(excess.max()))
        if lam is not None:
            gap = max(gap, float(abs(lam * excess).max()))
    return gap


def ew_tail_sums(weights, allowed, eta):
    """Log tail sums and their running log prefix sums, in one backward pass.

    log S[m, b] = eta W[m, b] + log P[m+1, b], with P[m, b] = sum_{b' <= b}
    S[m, b'] and forbidden cells -inf. Each layer takes one
    `np.logaddexp.accumulate` into the prefix table, which is then added to
    the layer above. log P[m, cap] is the normalizer of slot m's law when the
    previous slot bid `cap`, so the sampler reads it directly. `eta` is a
    scalar, or (k, 1, 1) rates for a stack.

    Returns (log_sums, log_prefix).
    """
    log_sums = np.where(allowed, eta * weights, _NEG_INF)
    log_prefix = np.empty_like(log_sums)
    sums, prefix = log_sums.swapaxes(0, -2), log_prefix.swapaxes(0, -2)  # slot axis first
    for m in range(sums.shape[0] - 1, 0, -1):
        np.logaddexp.accumulate(sums[m], axis=-1, out=prefix[m])
        sums[m - 1] += prefix[m]
    np.logaddexp.accumulate(sums[0], axis=-1, out=prefix[0])
    return log_sums, log_prefix


def sample_monotone(log_prefix, uniforms):
    """Sequential inverse-CDF sampling; slot m restricted to the previous bid.

    Slot m picks the first cell whose log prefix sum exceeds log(u_m) plus the
    prefix sum at the previous pick `cap`, i.e. whose running mass exceeds
    u_m times the capped total: one bisection of the row. When roundoff leaves
    no such cell (log u_m + total == total), it takes the first cell at which
    the prefix reaches its total: the last cell under the cap with mass.
    Expects a finite cell 0 in every row. Bisection reads a flat memoryview,
    so a draw converts only the cells it probes; a stack draws agent by agent.
    """
    m_units, d = log_prefix.shape[-2:]
    cells = memoryview(np.ascontiguousarray(log_prefix).reshape(-1))
    picks = []
    for i, u in enumerate(uniforms.reshape(-1).tolist()):
        if i % m_units == 0:
            cap = d - 1  # an agent's first slot may take any cell
        lo = i * d  # row i of the flat table: agent i // M, slot i % M
        total = cells[lo + cap]
        threshold = math.log(u) + total if u > 0.0 else _NEG_INF
        pick = bisect.bisect_right(cells, threshold, lo, lo + cap + 1) - lo
        if pick > cap:  # roundoff: fall to the last cell with mass
            pick = bisect.bisect_left(cells, total, lo, lo + cap + 1) - lo
        picks.append(pick)
        cap = pick
    return np.array(picks, dtype=np.int64).reshape(uniforms.shape)


def ew_marginals(log_sums):
    """Unconditional slot marginals of the sequential sampler, in logs.

    With s = log S minus its row maximum and lz its running log row sums,
    log q[0] = s[0] and log q[m] = s[m] plus the reversed running log sum of
    log q[m-1] - lz[m]. The ratio q[m-1] / z[m] never leaves the log domain,
    so rows spanning more than exp's range keep their mass. The recursion is
    linear in q, so one normalization per row at the end suffices.
    """
    s = log_sums - log_sums.max(axis=-1, keepdims=True)
    lz = np.logaddexp.accumulate(s, axis=-1)
    log_q = s.copy()
    rows, lz_rows = log_q.swapaxes(0, -2), lz.swapaxes(0, -2)  # slot axis first
    for m in range(1, rows.shape[0]):
        tail = (rows[m - 1] - lz_rows[m])[..., ::-1]
        rows[m] += np.logaddexp.accumulate(tail, axis=-1)[..., ::-1]
    q = np.exp(log_q - log_q.max(axis=-1, keepdims=True))
    return q / q.sum(axis=-1, keepdims=True)


def apply_slot_rewards(weights, allowed, valuations, grid_values, thresholds):
    """Add v_m - B_j to every feasible cell (m, j) that wins: j >= thr_m."""
    wins = np.arange(grid_values.size) >= thresholds[..., None]
    np.add(weights, valuations[..., None] - grid_values, out=weights, where=wins & allowed)
