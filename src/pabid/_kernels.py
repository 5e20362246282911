"""Hot per-round numerical kernels.

One implementation per kernel, over float64 arrays. The public modules wrap
these in the typed API.

Kernels:
  * project_dual_ascent: unnormalized-KL projection onto the dominance
    polytope by coordinate ascent on the Lagrange dual (per-layer
    renormalizations for the simplex constraints; closed-form prefix-mass
    rebalancing s = sqrt(P/A) for each dominance halfspace, multiplier
    clipped at zero). Row normalization and the certificate are whole-array
    numpy operations; the constraint walk is a scalar loop that costs O(M*D)
    per sweep: running prefix sums, one lazy suffix rescale per layer pair,
    and a skip of every slack constraint whose multiplier is zero. The
    certificate is the max of layer-sum error, dominance violation, and
    complementary-slackness residual.
  * ew_tail_sums / ew_marginals / sample_monotone: plain loops for the
    log-domain tail-sum recursion of decoupled exponential weights, its
    induced per-slot marginals, and sequential inverse-CDF sampling (one
    uniform per slot).
  * apply_slot_rewards: the full-information weight update, a plain loop.

Mirror descent samples without a kernel: `mirror_descent.sample_from_marginals`
inverts every slot's CDF at one shared uniform per round.
"""
from __future__ import annotations

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
    """log S[m, b] = eta W[m, b] + log sum_{b' <= b} exp(log S[m+1, b'])."""
    m_units, d = weights.shape
    log_sums = np.full((m_units, d), _NEG_INF)
    for j in range(d):
        if allowed[m_units - 1, j]:
            log_sums[m_units - 1, j] = eta * weights[m_units - 1, j]
    for m in range(m_units - 2, -1, -1):
        running = _NEG_INF
        for j in range(d):
            # running <- logaddexp(running, log S[m+1, j])
            nxt = log_sums[m + 1, j]
            if running == _NEG_INF:
                running = nxt
            elif nxt != _NEG_INF:
                if running < nxt:
                    running, nxt = nxt, running
                running = running + np.log1p(np.exp(nxt - running))
            if allowed[m, j]:
                log_sums[m, j] = eta * weights[m, j] + running
    return log_sums


def sample_monotone(log_sums, uniforms):
    """Sequential inverse-CDF sampling; slot m restricted to the previous bid."""
    m_units, d = log_sums.shape
    indices = np.empty(m_units, dtype=np.int64)
    cap = d - 1
    for m in range(m_units):
        top = _NEG_INF
        for j in range(cap + 1):
            if log_sums[m, j] > top:
                top = log_sums[m, j]
        total = 0.0
        for j in range(cap + 1):
            if log_sums[m, j] > _NEG_INF:
                total += np.exp(log_sums[m, j] - top)
        threshold = uniforms[m] * total
        acc = 0.0
        pick = 0
        found = False
        for j in range(cap + 1):
            if log_sums[m, j] > _NEG_INF:
                acc += np.exp(log_sums[m, j] - top)
                if acc > threshold and not found:
                    pick = j
                    found = True
        if not found:  # roundoff: fall to the largest feasible bid
            for j in range(cap, -1, -1):
                if log_sums[m, j] > _NEG_INF:
                    pick = j
                    break
        indices[m] = pick
        cap = pick
    return indices


def ew_marginals(log_sums):
    """Unconditional slot marginals of the sequential sampler."""
    m_units, d = log_sums.shape
    q = np.zeros((m_units, d))
    top = _NEG_INF
    for j in range(d):
        if log_sums[0, j] > top:
            top = log_sums[0, j]
    total = 0.0
    for j in range(d):
        if log_sums[0, j] > _NEG_INF:
            q[0, j] = np.exp(log_sums[0, j] - top)
            total += q[0, j]
    for j in range(d):
        q[0, j] /= total
    s = np.empty(d)
    z = np.empty(d)
    ratio = np.empty(d)
    for m in range(1, m_units):
        top = _NEG_INF
        for j in range(d):
            if log_sums[m, j] > top:
                top = log_sums[m, j]
        running = 0.0
        for j in range(d):
            s[j] = np.exp(log_sums[m, j] - top) if log_sums[m, j] > _NEG_INF else 0.0
            running += s[j]
            z[j] = running
        for j in range(d):
            ratio[j] = q[m - 1, j] / z[j] if z[j] > 0.0 else 0.0
        suffix = 0.0
        for j in range(d - 1, -1, -1):
            suffix += ratio[j]
            q[m, j] = s[j] * suffix
        total = 0.0
        for j in range(d):
            total += q[m, j]
        for j in range(d):
            q[m, j] /= total
    return q


def apply_slot_rewards(weights, allowed, valuations, grid_values, comp_idx, tie_wins):
    """Add one round's realized per-slot rewards to every feasible cell."""
    m_units, d = weights.shape
    for m in range(m_units):
        c = comp_idx[m]
        v = valuations[m]
        for j in range(d):
            if allowed[m, j] and (j > c or (j == c and tie_wins[m])):
                weights[m, j] += v - grid_values[j]
