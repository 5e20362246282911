"""Tail-sum recursion, exact sampler law, and slot marginals."""
import math

import numpy as np
import pytest

from pabid import (
    ValuationProfile,
    bandit_update,
    compute_partial_sums,
    make_even_grid,
    path_log_probability,
    sample_bid,
    slot_marginals,
)
from pabid._kernels import ew_marginals, ew_tail_sums, sample_monotone
from pabid.exp_weights import EstimatedWeightTable
from pabid.hindsight import NodeWeightTable, monotone_vector_count

from conftest import (
    enumerated_marginals,
    feasible_vectors,
    random_weight_table,
    softmax_path_law,
)

# chi-square 99th percentiles by degrees of freedom (frozen, no scipy needed)
CHI2_99 = {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086, 6: 16.812,
           7: 18.475, 8: 20.090, 9: 21.666, 10: 23.209}


def loop_log_prefix(row):
    """Running log sums of one row, one cell at a time."""
    out = []
    running = -math.inf
    for nxt in row:
        # running <- logaddexp(running, nxt)
        if running == -math.inf:
            running = nxt
        elif nxt != -math.inf:
            if running < nxt:
                running, nxt = nxt, running
            running = running + np.log1p(np.exp(nxt - running))
        out.append(running)
    return out


def loop_tail_sums(weights, allowed, eta):
    """The tail-sum recursion by its definition, one cell at a time."""
    m_units, d = weights.shape
    log_sums = np.full((m_units, d), -math.inf)
    for j in range(d):
        if allowed[m_units - 1, j]:
            log_sums[m_units - 1, j] = eta * weights[m_units - 1, j]
    for m in range(m_units - 2, -1, -1):
        prefix = loop_log_prefix(log_sums[m + 1])
        for j in range(d):
            if allowed[m, j]:
                log_sums[m, j] = eta * weights[m, j] + prefix[j]
    return log_sums


def loop_sample_monotone(log_sums, uniforms):
    """Sequential inverse-CDF sampling, one cell at a time."""
    m_units, d = log_sums.shape
    indices = np.empty(m_units, dtype=np.int64)
    cap = d - 1
    for m in range(m_units):
        top = max(log_sums[m, : cap + 1])
        total = 0.0
        for j in range(cap + 1):
            if log_sums[m, j] > -math.inf:
                total += np.exp(log_sums[m, j] - top)
        threshold = uniforms[m] * total
        acc = 0.0
        pick = None
        for j in range(cap + 1):
            if log_sums[m, j] > -math.inf:
                acc += np.exp(log_sums[m, j] - top)
                if acc > threshold:
                    pick = j
                    break
        if pick is None:  # roundoff: fall to the largest feasible bid
            pick = max(j for j in range(cap + 1) if log_sums[m, j] > -math.inf)
        indices[m] = cap = pick
    return indices


def loop_marginals(log_sums):
    """Slot marginals of the sequential sampler, one cell at a time."""
    m_units, d = log_sums.shape
    q = np.zeros((m_units, d))
    for m in range(m_units):
        top = max(log_sums[m])
        s = [np.exp(x - top) if x > -math.inf else 0.0 for x in log_sums[m]]
        if m == 0:
            q[0] = s
        else:
            running = 0.0
            z = []
            for j in range(d):
                running += s[j]
                z.append(running)
            suffix = 0.0
            for j in range(d - 1, -1, -1):
                suffix += q[m - 1, j] / z[j] if z[j] > 0.0 else 0.0
                q[m, j] = s[j] * suffix
        total = 0.0
        for j in range(d):
            total += q[m, j]
        q[m] /= total
    return q


def loop_log_sample_monotone(log_sums, uniforms):
    """Exact inverse-CDF sampling in logs, one cell at a time: slot m picks the
    first cell whose running log mass exceeds log(u_m) plus the capped total,
    or, when roundoff leaves none, the first cell at which the running mass
    reaches the total."""
    m_units, d = log_sums.shape
    indices = np.empty(m_units, dtype=np.int64)
    cap = d - 1
    for m in range(m_units):
        prefix = loop_log_prefix(log_sums[m, : cap + 1])
        total = prefix[cap]
        threshold = math.log(uniforms[m]) + total if uniforms[m] > 0.0 else -math.inf
        above = [j for j in range(cap + 1) if prefix[j] > threshold]
        pick = above[0] if above else min(j for j in range(cap + 1) if prefix[j] == total)
        indices[m] = cap = pick
    return indices


def kernel_parity_cases():
    """(weights, allowed, eta): random, random-masked, IR-masked, M = 1, D = 2,
    single feasible cell and 5e5-weight inputs. Cell 0 is feasible in every
    row, as `compute_partial_sums` requires."""
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(20):
        m = int(rng.integers(1, 8))
        d = int(rng.integers(2, 40))
        eta = float(rng.choice([0.01, 0.3, 2.0]))
        weights = rng.uniform(-5.0, 5.0, size=(m, d))
        cases.append((weights, np.ones((m, d), bool), eta))
        masked = rng.random((m, d)) < 0.6
        masked[:, 0] = True
        cases.append((weights, masked, eta))
        table = random_weight_table(rng, m, d)
        cases.append((table.weights, table.allowed, eta))
    for m, d in ((1, 2), (1, 17), (6, 2)):
        table = random_weight_table(rng, m, d, with_ir_mask=False)
        cases.append((table.weights, table.allowed, 0.7))
    single = np.zeros((4, 9), bool)
    single[:, 0] = True
    cases.append((rng.normal(size=(4, 9)), single, 1.0))
    big = random_weight_table(rng, 5, 13, with_ir_mask=False)
    cases.append((np.full((5, 13), 5e5), big.allowed, 1.0))
    cases.append((5e5 + rng.uniform(-3.0, 3.0, size=(5, 13)), big.allowed, 1.0))
    return cases


def wide_spread_cases():
    """Rows whose log tail sums span more than exp's range, so cells far
    below the row (or capped prefix) maximum underflow to zero mass."""
    d = 13
    ramp = 100.0 * np.arange(d)
    deep_ramp = np.vstack([ramp, ramp, ramp])
    # Layer 0 prefers bid 1 by e^50, so slot 1 is capped at a prefix whose
    # maximum sits 1,100 below the full row's.
    prefers_one = np.vstack([-ramp - 50.0 * (np.arange(d) != 1), ramp])
    return [(w, np.ones(w.shape, bool), 1.0) for w in (deep_ramp, prefers_one)]


# Slot 0 bids 2 almost surely, so slot 1 is uniform on {0, 1, 2}; the cells
# below 2 sit 1,000 under row 1's maximum.
EXP_RANGE_WEIGHTS = np.array([[0.0, 0.0, 2000.0, 0.0], [0.0, 0.0, 0.0, 1000.0]])


def wide_table(weights, allowed, estimated=False):
    """An all-ones-valuation weight table over an even grid."""
    m, d = weights.shape
    kind = EstimatedWeightTable if estimated else NodeWeightTable
    return kind(weights.copy(), allowed, make_even_grid(d), ValuationProfile(np.ones(m)))


def zero_table(demand, grid_size):
    grid = make_even_grid(grid_size)
    valuation = ValuationProfile(np.ones(demand))
    return NodeWeightTable(
        weights=np.zeros((demand, grid_size)),
        allowed=valuation.ir_mask(grid),
        grid=grid,
        valuation=valuation,
    )


class TestPartialSums:
    def test_zero_weights_count_monotone_tails(self):
        table = zero_table(2, 3)
        partial = compute_partial_sums(table, eta=0.7)
        # S_1 summed over the first layer counts all monotone vectors: C(4, 2) = 6
        total = np.exp(partial.log_sums[0]).sum()
        assert total == pytest.approx(6.0)
        assert monotone_vector_count(2, 3) == 6
        # S_m(b) counts monotone tails from (m, b): bottom layer is all ones
        assert np.exp(partial.log_sums[1]).tolist() == pytest.approx([1.0, 1.0, 1.0])
        assert np.exp(partial.log_sums[0]).tolist() == pytest.approx([1.0, 2.0, 3.0])

    def test_single_unit_reduces_to_exponentiated_weights(self, rng):
        table = random_weight_table(rng, 1, 6)
        partial = compute_partial_sums(table, eta=0.9)
        expect = np.where(table.allowed[0], 0.9 * table.weights[0], -np.inf)
        assert np.allclose(partial.log_sums[0], expect)

    def test_eta_zero_ignores_weights(self, rng):
        table = random_weight_table(rng, 3, 4)
        with_weights = compute_partial_sums(table, eta=0.0)
        zeros = NodeWeightTable(np.zeros_like(table.weights), table.allowed,
                                table.grid, table.valuation)
        without = compute_partial_sums(zeros, eta=1.0)
        assert np.allclose(with_weights.log_sums, without.log_sums, atol=1e-12)

    def test_large_weights_stay_finite(self):
        table = zero_table(3, 5)
        table.weights[...] = 5e5  # eta * W ~ 5e5: must not overflow in logs
        partial = compute_partial_sums(table, eta=1.0)
        assert np.all(np.isfinite(partial.log_sums[table.allowed]))


class TestSamplerLaw:
    def test_path_probabilities_match_softmax_enumeration(self, rng):
        for _ in range(40):
            demand = int(rng.integers(1, 4))
            grid_size = int(rng.integers(2, 6))
            eta = float(rng.choice([0.1, 1.0]))
            table = random_weight_table(rng, demand, grid_size)
            partial = compute_partial_sums(table, eta)
            law = softmax_path_law(table, eta)
            for idx, expected in law.items():
                got = math.exp(path_log_probability(partial, idx))
                assert got == pytest.approx(expected, rel=1e-9)

    def test_uniform_law_chi_square(self, rng):
        table = zero_table(2, 3)
        partial = compute_partial_sums(table, eta=1.0)
        draws = 60_000
        counts: dict = {}
        for _ in range(draws):
            bid = sample_bid(partial, rng)
            key = tuple(bid.indices.tolist())
            counts[key] = counts.get(key, 0) + 1
        vectors = feasible_vectors(table)
        assert sorted(counts) == sorted(vectors)
        expected = draws / len(vectors)
        chi2 = sum((counts[v] - expected) ** 2 / expected for v in vectors)
        assert chi2 < CHI2_99[len(vectors) - 1]

    def test_dominant_cell_attracts_the_path(self, rng):
        table = zero_table(2, 4)
        table.weights[1, 2] = 40.0  # overwhelming at eta = 1
        partial = compute_partial_sums(table, eta=1.0)
        hits = sum(
            int(sample_bid(partial, rng).indices[1] == 2) for _ in range(2000)
        )
        assert hits > 1980

    def test_single_unit_matches_softmax_in_total_variation(self, rng):
        table = random_weight_table(rng, 1, 5, magnitude=2.0)
        partial = compute_partial_sums(table, eta=1.0)
        logits = np.where(table.allowed[0], table.weights[0], -np.inf)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        draws = 100_000
        counts = np.zeros(5)
        for _ in range(draws):
            counts[sample_bid(partial, rng).indices[0]] += 1
        tv = 0.5 * np.abs(counts / draws - probs).sum()
        assert tv < 0.01

    def test_sampled_bids_respect_ir(self, rng):
        for _ in range(20):
            table = random_weight_table(rng, 3, 6)
            partial = compute_partial_sums(table, eta=0.5)
            for _ in range(50):
                bid = sample_bid(partial, rng)
                bid.check_ir(table.valuation)


class TestSlotMarginals:
    def test_two_layer_uniform_example(self):
        # grid {0, 1}: monotone vectors (1,1), (1,0), (0,0) uniform
        table = zero_table(2, 2)
        q = slot_marginals(compute_partial_sums(table, eta=1.0)).probs
        assert q[0].tolist() == pytest.approx([1 / 3, 2 / 3])
        assert q[1].tolist() == pytest.approx([2 / 3, 1 / 3])

    def test_single_unit_is_softmax(self, rng):
        table = random_weight_table(rng, 1, 6)
        partial = compute_partial_sums(table, eta=0.8)
        q = slot_marginals(partial).probs
        logits = np.where(table.allowed[0], 0.8 * table.weights[0], -np.inf)
        probs = np.exp(logits - logits[np.isfinite(logits)].max())
        probs[~np.isfinite(logits)] = 0.0
        probs /= probs.sum()
        assert np.allclose(q[0], probs, atol=1e-12)

    def test_marginals_match_enumeration(self, rng):
        for _ in range(40):
            demand = int(rng.integers(1, 4))
            grid_size = int(rng.integers(2, 6))
            eta = float(rng.choice([0.1, 1.0]))
            table = random_weight_table(rng, demand, grid_size)
            partial = compute_partial_sums(table, eta)
            law = softmax_path_law(table, eta)
            expected = enumerated_marginals(law, demand, grid_size)
            got = slot_marginals(partial).probs
            assert np.allclose(got, expected, atol=1e-9, rtol=1e-9)

    def test_rows_are_probability_vectors(self, rng):
        table = random_weight_table(rng, 4, 7)
        q = slot_marginals(compute_partial_sums(table, 0.3)).probs
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(q >= 0.0)

    def test_row_spanning_more_than_exp_range(self):
        table = wide_table(EXP_RANGE_WEIGHTS, np.ones((2, 4), bool))
        q = slot_marginals(compute_partial_sums(table, eta=1.0)).probs
        assert q[0].tolist() == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-15)
        assert q[1].tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0], abs=1e-15)

    def test_wide_spread_marginals_match_enumeration(self):
        for weights, allowed, eta in wide_spread_cases():
            table = wide_table(weights, allowed)
            law = softmax_path_law(table, eta)
            expected = enumerated_marginals(law, table.demand, table.grid.count)
            got = slot_marginals(compute_partial_sums(table, eta)).probs
            assert np.allclose(got, expected, atol=1e-9, rtol=1e-9)
        prefers_one = wide_table(*wide_spread_cases()[1][:2])
        q = slot_marginals(compute_partial_sums(prefers_one, 1.0)).probs
        assert q[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_wide_spread_bandit_update_stays_finite(self, rng):
        cases = [(EXP_RANGE_WEIGHTS, np.ones((2, 4), bool), 1.0)] + wide_spread_cases()
        for weights, allowed, eta in cases:
            table = wide_table(weights, allowed, estimated=True)
            partial = compute_partial_sums(table, eta)
            marginals = slot_marginals(partial)
            for allocation in range(table.demand + 1):
                bandit_update(table, marginals, sample_bid(partial, rng), allocation)
                assert np.all(np.isfinite(table.weights))


class TestKernelsMatchLoops:
    """The numpy kernels against their cell-by-cell definitions."""

    def test_tail_sums_match(self):
        for weights, allowed, eta in kernel_parity_cases() + wide_spread_cases():
            got, got_prefix = ew_tail_sums(weights, allowed, eta)
            ref = loop_tail_sums(weights, allowed, eta)
            ref_prefix = np.array([loop_log_prefix(row) for row in ref])
            for g, r in ((got, ref), (got_prefix, ref_prefix)):
                assert np.array_equal(np.isneginf(g), np.isneginf(r))
                finite = ~np.isneginf(r)
                assert np.all(np.isfinite(g[finite]))
                scale = np.maximum(1.0, np.abs(r[finite]))
                assert np.max(np.abs(g[finite] - r[finite]) / scale) <= 1e-12

    def test_marginals_match(self):
        for weights, allowed, eta in kernel_parity_cases():
            log_sums = loop_tail_sums(weights, allowed, eta)
            got = ew_marginals(log_sums)
            ref = loop_marginals(log_sums)
            assert np.array_equal(got == 0.0, ref == 0.0)
            assert np.max(np.abs(got - ref)) <= 1e-12

    def test_sampler_draws_identical_indices(self):
        rng = np.random.default_rng(7)
        top = 1.0 - 2.0**-53
        for weights, allowed, eta in kernel_parity_cases():
            log_sums = loop_tail_sums(weights, allowed, eta)
            _, log_prefix = ew_tail_sums(weights, allowed, eta)
            m = log_sums.shape[0]
            draws = [np.zeros(m), np.full(m, top)] + [rng.random(m) for _ in range(20)]
            for uniforms in draws:
                got = sample_monotone(log_prefix, uniforms)
                assert got.tolist() == loop_sample_monotone(log_sums, uniforms).tolist()
                assert got.tolist() == loop_log_sample_monotone(log_sums, uniforms).tolist()
                assert np.all(np.isfinite(log_sums[np.arange(m), got]))
        # U on a CDF breakpoint: cell 0 holds half the mass, which does not
        # exceed U * total at U = 1/2, so both samplers take cell 1.
        half = np.array([0.5])
        assert loop_sample_monotone(np.zeros((1, 2)), half).tolist() == [1]
        assert sample_monotone(np.log([[1.0, 2.0]]), half).tolist() == [1]

    def test_sampler_inverts_the_exact_cdf_on_wide_rows(self):
        # The linear-domain loop loses cells that underflow against the row
        # maximum (at U = 0 on the deep ramp it picks [10, 7, 0]); the log
        # oracle and the kernel keep them.
        rng = np.random.default_rng(8)
        top = 1.0 - 2.0**-53
        for weights, allowed, eta in wide_spread_cases():
            log_sums = loop_tail_sums(weights, allowed, eta)
            _, log_prefix = ew_tail_sums(weights, allowed, eta)
            m = log_sums.shape[0]
            draws = [np.zeros(m), np.full(m, top)] + [rng.random(m) for _ in range(50)]
            for uniforms in draws:
                got = sample_monotone(log_prefix, uniforms)
                assert got.tolist() == loop_log_sample_monotone(log_sums, uniforms).tolist()
                assert np.all(np.isfinite(log_sums[np.arange(m), got]))
        deep_ramp = wide_spread_cases()[0]
        _, log_prefix = ew_tail_sums(*deep_ramp)
        assert sample_monotone(log_prefix, np.zeros(3)).tolist() == [0, 0, 0]

    def test_roundoff_fallback_takes_largest_finite_cell_under_cap(self):
        # U = 1 leaves no cell whose running mass exceeds U * total.
        log_sums = np.array([
            [0.0, 1.0, 2.0, -np.inf],   # trailing cell masked: pick 2
            [0.0, -np.inf, 3.0, 9.0],   # cell 3 is above the cap of 2: pick 2
            [0.0, 0.5, -np.inf, 5.0],   # cell 2 masked, cell 3 above cap: pick 1
        ])
        log_prefix = np.array([loop_log_prefix(row) for row in log_sums])
        assert sample_monotone(log_prefix, np.ones(3)).tolist() == [2, 2, 1]
        rng = np.random.default_rng(11)
        for _ in range(200):
            picks = sample_monotone(log_prefix, rng.random(3))
            assert np.all(np.isfinite(log_sums[np.arange(3), picks]))
            assert np.all(np.diff(picks) <= 0)
