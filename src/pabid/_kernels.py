"""Hot per-round numerical kernels.

Every function here is written as plain loops over float64 arrays, one
implementation per kernel. The public modules wrap these in the typed API.

Kernels:
  * project_dual_ascent: unnormalized-KL projection onto the dominance
    polytope by coordinate ascent on the Lagrange dual (per-layer
    renormalizations for the simplex constraints; closed-form prefix-mass
    rebalancing s = sqrt(P/A) for each dominance halfspace, multiplier
    clipped at zero). The certificate is the max of layer-sum error,
    dominance violation, and complementary-slackness residual.
  * ew_tail_sums / ew_marginals / sample_monotone: the log-domain tail-sum
    recursion for decoupled exponential weights, its induced per-slot
    marginals, and sequential inverse-CDF sampling (one uniform per slot).
  * apply_slot_rewards: the full-information weight update.

Mirror descent samples without a kernel: `mirror_descent.sample_from_marginals`
inverts every slot's CDF at one shared uniform per round.
"""
from __future__ import annotations

import numpy as np

_NEG_INF = float("-inf")


def project_dual_ascent(qt, allowed, tol, max_sweeps):
    """Returns (q, lam, nu, sweeps_used, gap)."""
    m_units, d = qt.shape
    q = qt.copy()
    for m in range(m_units):
        for j in range(d):
            if not allowed[m, j]:
                q[m, j] = 0.0
    lam = np.zeros((max(m_units - 1, 1), max(d - 1, 1)))
    nu = np.zeros(m_units)
    gap = np.inf
    for sweep in range(max_sweeps):
        for m in range(m_units):
            s = 0.0
            for j in range(d):
                s += q[m, j]
            inv = 1.0 / s
            for j in range(d):
                q[m, j] *= inv
            nu[m] -= np.log(s)
        forward = sweep % 2 == 0
        for mi in range(m_units - 1):
            m = mi if forward else m_units - 2 - mi
            for ji in range(d - 1):
                j = ji if forward else d - 2 - ji
                shallow = 0.0
                deep = 0.0
                for k in range(j + 1):
                    shallow += q[m, k]
                    deep += q[m + 1, k]
                if shallow <= 0.0:
                    delta = -lam[m, j]
                elif deep <= 0.0:
                    continue
                else:
                    delta = 0.5 * (np.log(shallow) - np.log(deep))
                if lam[m, j] + delta < 0.0:
                    delta = -lam[m, j]
                if delta != 0.0:
                    lam[m, j] += delta
                    up = np.exp(delta)
                    down = 1.0 / up
                    for k in range(j + 1):
                        q[m + 1, k] *= up
                        q[m, k] *= down
        gap = 0.0
        for m in range(m_units):
            s = 0.0
            for j in range(d):
                s += q[m, j]
            err = abs(s - 1.0)
            if err > gap:
                gap = err
        for m in range(m_units - 1):
            c_shallow = 0.0
            c_deep = 0.0
            for j in range(d - 1):
                c_shallow += q[m, j]
                c_deep += q[m + 1, j]
                viol = c_shallow - c_deep
                if viol > gap:
                    gap = viol
                slack = abs(lam[m, j] * (c_deep - c_shallow))
                if slack > gap:
                    gap = slack
        if gap <= tol:
            return q, lam, nu, sweep + 1, gap
    return q, lam, nu, max_sweeps, gap


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
