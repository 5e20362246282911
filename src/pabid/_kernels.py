"""Hot per-round numerical kernels.

One implementation per kernel, over float64 arrays. The public modules wrap
these in the typed API.

Kernels:
  * project_dual_ascent: unnormalized-KL projection onto the dominance
    polytope by cyclic coordinate ascent on the Lagrange dual, O(M*D) per
    sweep, certified by the max of layer-sum error, dominance violation and
    complementary-slackness residual.
  * ew_tail_sums / sample_monotone / ew_marginals: decoupled exponential
    weights, all in logs. One backward pass of `np.logaddexp.accumulate`
    yields the tail sums and their running prefix sums; the prefix sums are
    the sampler's normalizers, so sampling is one bisection per slot (one
    uniform per slot), and the marginals' forward recursion runs on log
    ratios, so rows spanning more than exp's range keep their mass.
  * apply_slot_rewards: the full-information weight update, one masked add
    over a precomputed win matrix.

Mirror descent samples without a kernel: `mirror_descent.sample_from_marginals`
inverts every slot's CDF at one shared uniform per round.
"""
from __future__ import annotations

import bisect
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
    since its clipped update is exactly zero; lambda starts at 0 on every
    call, so in a one-sweep call most constraints take this path.

    The certificate `gap` is the max of the row-sum error, the dominance
    violation and the complementary-slackness residual |lambda (A - P)|.

    Returns (q, lam, nu, sweeps_used, gap).
    """
    m_units, d = qt.shape
    q = np.where(allowed, qt, 0.0)
    lam = np.zeros((max(m_units - 1, 1), max(d - 1, 1)))
    nu = np.zeros(m_units)
    gap = np.inf
    for sweep in range(max_sweeps):
        s = q.sum(axis=1)
        q /= s[:, None]
        nu -= np.log(s)
        forward = sweep % 2 == 0
        for mi in range(m_units - 1):
            m = mi if forward else m_units - 2 - mi
            _balance_pair(q, lam, m, forward)
        gap = _kkt_gap(q, lam)
        if not gap > tol:  # converged, or a NaN gap: more sweeps cannot help
            return q, lam, nu, sweep + 1, gap
    return q, lam, nu, max_sweeps, gap


def _balance_pair(q, lam, m, forward):
    """One pass over the d - 1 dominance constraints between rows m, m + 1."""
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
        shallow_prefix = np.cumsum(q[m, :n]).tolist()
        deep_prefix = np.cumsum(q[m + 1, :n]).tolist()
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


def _kkt_gap(q, lam):
    """Max of row-sum error, dominance violation and |lambda (A - P)|."""
    gap = float(np.max(np.abs(q.sum(axis=1) - 1.0)))
    if q.shape[0] > 1 and q.shape[1] > 1:
        prefix = np.cumsum(q[:, :-1], axis=1)
        violation = prefix[:-1] - prefix[1:]
        gap = max(gap, float(violation.max()), float(np.max(np.abs(lam * violation))))
    return gap


def ew_tail_sums(weights, allowed, eta):
    """Log tail sums and their running log prefix sums, in one backward pass.

    log S[m, b] = eta W[m, b] + log P[m+1, b], with P[m, b] = sum_{b' <= b}
    S[m, b'] and forbidden cells -inf. Each layer takes one
    `np.logaddexp.accumulate` into the prefix table, which is then added to
    the layer above. log P[m, cap] is the normalizer of slot m's law when the
    previous slot bid `cap`, so the sampler reads it directly.

    Returns (log_sums, log_prefix).
    """
    log_sums = np.where(allowed, eta * weights, _NEG_INF)
    log_prefix = np.empty_like(log_sums)
    for m in range(weights.shape[0] - 1, 0, -1):
        np.logaddexp.accumulate(log_sums[m], out=log_prefix[m])
        log_sums[m - 1] += log_prefix[m]
    np.logaddexp.accumulate(log_sums[0], out=log_prefix[0])
    return log_sums, log_prefix


def sample_monotone(log_prefix, uniforms):
    """Sequential inverse-CDF sampling; slot m restricted to the previous bid.

    Slot m picks the first cell whose log prefix sum exceeds log(u_m) plus the
    prefix sum at the previous pick `cap`, i.e. whose running mass exceeds
    u_m times the capped total: one bisection of the row. When roundoff leaves
    no such cell (log u_m + total == total), it takes the first cell at which
    the prefix reaches its total: the last cell under the cap with mass.
    Expects a finite cell 0 in every row.
    """
    rows = log_prefix.tolist()
    cap = len(rows[0]) - 1
    picks = []
    for row, u in zip(rows, uniforms.tolist()):
        total = row[cap]
        threshold = math.log(u) + total if u > 0.0 else _NEG_INF
        pick = bisect.bisect_right(row, threshold, 0, cap + 1)
        if pick > cap:  # roundoff: fall to the last cell with mass
            pick = bisect.bisect_left(row, total, 0, cap + 1)
        picks.append(pick)
        cap = pick
    return np.array(picks, dtype=np.int64)


def ew_marginals(log_sums):
    """Unconditional slot marginals of the sequential sampler, in logs.

    With s = log S minus its row maximum and lz its running log row sums,
    log q[0] = s[0] and log q[m] = s[m] plus the reversed running log sum of
    log q[m-1] - lz[m]. The ratio q[m-1] / z[m] never leaves the log domain,
    so rows spanning more than exp's range keep their mass. The recursion is
    linear in q, so one normalization per row at the end suffices.
    """
    s = log_sums - log_sums.max(axis=1, keepdims=True)
    lz = np.logaddexp.accumulate(s, axis=1)
    log_q = s.copy()
    for m in range(1, s.shape[0]):
        log_q[m] += np.logaddexp.accumulate((log_q[m - 1] - lz[m])[::-1])[::-1]
    q = np.exp(log_q - log_q.max(axis=1, keepdims=True))
    return q / q.sum(axis=1, keepdims=True)


def apply_slot_rewards(weights, allowed, valuations, grid_values, wins):
    """Add v_m - B_j to every feasible cell (m, j) that `wins` this round."""
    np.add(weights, valuations[:, None] - grid_values[None, :], out=weights,
           where=wins & allowed)
