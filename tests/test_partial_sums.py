"""Tail-sum recursion, exact sampler law, and slot marginals."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabid import _kernels
from pabid._kernels import (
    _LINEAR_FLOOR,
    _log_marginals,
    apply_slot_rewards,
    ew_marginals,
    ew_tail_sums,
    linear_rounds,
    sample_monotone,
)
from pabid.auction import ValuationProfile
from pabid.exp_weights import ExpWeightsBidder, FeedbackMode
from pabid.grids import make_even_grid
from pabid.hindsight import NodeWeightTable
from pabid.scenario import build_market, run_experiment, validate_scenario

from conftest import (
    draw_bid,
    enumerated_marginals,
    feasible_vectors,
    random_weight_table,
    softmax_path_law,
)
from oracles import bandit_step, check_ir, monotone_vector_count, path_log_probability

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
    row, as individual rationality makes it."""
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


def wide_table(weights, allowed):
    """An all-ones-valuation weight table over an even grid."""
    m, d = weights.shape
    return NodeWeightTable(weights.copy(), allowed, make_even_grid(d), ValuationProfile(np.ones(m)))


def log_tables(table, eta):
    """(log tail sums, log prefix table) of one agent's weight table."""
    return ew_tail_sums(table.weights, table.allowed, eta)


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
        log_sums, _ = log_tables(table, eta=0.7)
        # S_1 summed over the first layer counts all monotone vectors: C(4, 2) = 6
        total = np.exp(log_sums[0]).sum()
        assert total == pytest.approx(6.0)
        assert monotone_vector_count(2, 3) == 6
        # S_m(b) counts monotone tails from (m, b): bottom layer is all ones
        assert np.exp(log_sums[1]).tolist() == pytest.approx([1.0, 1.0, 1.0])
        assert np.exp(log_sums[0]).tolist() == pytest.approx([1.0, 2.0, 3.0])

    def test_single_unit_reduces_to_exponentiated_weights(self, rng):
        table = random_weight_table(rng, 1, 6)
        log_sums, _ = log_tables(table, eta=0.9)
        expect = np.where(table.allowed[0], 0.9 * table.weights[0], -np.inf)
        assert np.allclose(log_sums[0], expect)

    def test_eta_zero_ignores_weights(self, rng):
        table = random_weight_table(rng, 3, 4)
        with_weights, _ = log_tables(table, eta=0.0)
        zeros = NodeWeightTable(np.zeros_like(table.weights), table.allowed,
                                table.grid, table.valuation)
        without, _ = log_tables(zeros, eta=1.0)
        assert np.allclose(with_weights, without, atol=1e-12)

    def test_large_weights_stay_finite(self):
        table = zero_table(3, 5)
        table.weights[...] = 5e5  # eta * W ~ 5e5: must not overflow in logs
        log_sums, _ = log_tables(table, eta=1.0)
        assert np.all(np.isfinite(log_sums[table.allowed]))


class TestSamplerLaw:
    def test_path_probabilities_match_softmax_enumeration(self, rng):
        for _ in range(40):
            demand = int(rng.integers(1, 4))
            grid_size = int(rng.integers(2, 6))
            eta = float(rng.choice([0.1, 1.0]))
            table = random_weight_table(rng, demand, grid_size)
            log_sums, log_prefix = log_tables(table, eta)
            law = softmax_path_law(table, eta)
            for idx, expected in law.items():
                got = math.exp(path_log_probability(log_sums, log_prefix, idx))
                assert got == pytest.approx(expected, rel=1e-9)

    def test_uniform_law_chi_square(self, rng):
        table = zero_table(2, 3)
        _, log_prefix = log_tables(table, eta=1.0)
        draws = 60_000
        counts: dict = {}
        for _ in range(draws):
            bid = draw_bid(log_prefix, rng, table.grid)
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
        _, log_prefix = log_tables(table, eta=1.0)
        hits = sum(
            int(draw_bid(log_prefix, rng, table.grid).indices[1] == 2) for _ in range(2000)
        )
        assert hits > 1980

    def test_single_unit_matches_softmax_in_total_variation(self, rng):
        table = random_weight_table(rng, 1, 5, magnitude=2.0)
        _, log_prefix = log_tables(table, eta=1.0)
        logits = np.where(table.allowed[0], table.weights[0], -np.inf)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        draws = 100_000
        counts = np.zeros(5)
        for _ in range(draws):
            counts[draw_bid(log_prefix, rng, table.grid).indices[0]] += 1
        tv = 0.5 * np.abs(counts / draws - probs).sum()
        assert tv < 0.01

    def test_sampled_bids_respect_ir(self, rng):
        for _ in range(20):
            table = random_weight_table(rng, 3, 6)
            _, log_prefix = log_tables(table, eta=0.5)
            for _ in range(50):
                bid = draw_bid(log_prefix, rng, table.grid)
                check_ir(bid, table.valuation)


class TestSlotMarginals:
    def test_two_layer_uniform_example(self):
        # grid {0, 1}: monotone vectors (1,1), (1,0), (0,0) uniform
        table = zero_table(2, 2)
        q = ew_marginals(log_tables(table, eta=1.0)[0])
        assert q[0].tolist() == pytest.approx([1 / 3, 2 / 3])
        assert q[1].tolist() == pytest.approx([2 / 3, 1 / 3])

    def test_single_unit_is_softmax(self, rng):
        table = random_weight_table(rng, 1, 6)
        q = ew_marginals(log_tables(table, eta=0.8)[0])
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
            law = softmax_path_law(table, eta)
            expected = enumerated_marginals(law, demand, grid_size)
            got = ew_marginals(log_tables(table, eta)[0])
            assert np.allclose(got, expected, atol=1e-9, rtol=1e-9)

    def test_rows_are_probability_vectors(self, rng):
        table = random_weight_table(rng, 4, 7)
        q = ew_marginals(log_tables(table, 0.3)[0])
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(q >= 0.0)

    def test_row_spanning_more_than_exp_range(self):
        table = wide_table(EXP_RANGE_WEIGHTS, np.ones((2, 4), bool))
        q = ew_marginals(log_tables(table, eta=1.0)[0])
        assert q[0].tolist() == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-15)
        assert q[1].tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0], abs=1e-15)

    def test_wide_spread_marginals_match_enumeration(self):
        for weights, allowed, eta in wide_spread_cases():
            table = wide_table(weights, allowed)
            law = softmax_path_law(table, eta)
            expected = enumerated_marginals(law, *table.weights.shape)
            got = ew_marginals(log_tables(table, eta)[0])
            assert np.allclose(got, expected, atol=1e-9, rtol=1e-9)
        prefers_one = wide_table(*wide_spread_cases()[1][:2])
        q = ew_marginals(log_tables(prefers_one, 1.0)[0])
        assert q[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_wide_spread_bandit_update_stays_finite(self, rng):
        cases = [(EXP_RANGE_WEIGHTS, np.ones((2, 4), bool), 1.0)] + wide_spread_cases()
        for weights, allowed, eta in cases:
            table = wide_table(weights, allowed)
            log_sums, log_prefix = log_tables(table, eta)
            marginals = ew_marginals(log_sums)
            for allocation in range(table.valuation.demand + 1):
                bandit_step(table, marginals, draw_bid(log_prefix, rng, table.grid), allocation)
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
                got = np.array(sample_monotone(log_prefix, uniforms))
                assert got.tolist() == loop_sample_monotone(log_sums, uniforms).tolist()
                assert got.tolist() == loop_log_sample_monotone(log_sums, uniforms).tolist()
                assert np.all(np.isfinite(log_sums[np.arange(m), got]))
        # U on a CDF breakpoint: cell 0 holds half the mass, which does not
        # exceed U * total at U = 1/2, so both samplers take cell 1.
        half = np.array([0.5])
        assert loop_sample_monotone(np.zeros((1, 2)), half).tolist() == [1]
        assert np.array(sample_monotone(np.log([[1.0, 2.0]]), half)).tolist() == [1]

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
                got = np.array(sample_monotone(log_prefix, uniforms))
                assert got.tolist() == loop_log_sample_monotone(log_sums, uniforms).tolist()
                assert np.all(np.isfinite(log_sums[np.arange(m), got]))
        deep_ramp = wide_spread_cases()[0]
        _, log_prefix = ew_tail_sums(*deep_ramp)
        assert np.array(sample_monotone(log_prefix, np.zeros(3))).tolist() == [0, 0, 0]

    def test_roundoff_fallback_takes_largest_finite_cell_under_cap(self):
        # U = 1 leaves no cell whose running mass exceeds U * total.
        log_sums = np.array([
            [0.0, 1.0, 2.0, -np.inf],   # trailing cell masked: pick 2
            [0.0, -np.inf, 3.0, 9.0],   # cell 3 is above the cap of 2: pick 2
            [0.0, 0.5, -np.inf, 5.0],   # cell 2 masked, cell 3 above cap: pick 1
        ])
        log_prefix = np.array([loop_log_prefix(row) for row in log_sums])
        assert np.array(sample_monotone(log_prefix, np.ones(3))).tolist() == [2, 2, 1]
        rng = np.random.default_rng(11)
        for _ in range(200):
            picks = np.array(sample_monotone(log_prefix, rng.random(3)))
            assert np.all(np.isfinite(log_sums[np.arange(3), picks]))
            assert np.all(np.diff(picks) <= 0)


def loop_backward(sums, plus, times):
    """The backward pass cell by cell, in the semiring (plus, times): S[m, b] =
    S[m, b] times P[m + 1, b], then P[m, b] = S[m, 0] plus ... plus S[m, b]."""
    s = sums.reshape(sums.shape[0], -1, sums.shape[-1]).copy()  # (M, k, D)
    p = np.empty_like(s)
    m_units, k, d = s.shape
    for agent in range(k):
        for m in range(m_units - 1, -1, -1):
            for b in range(d):
                if m < m_units - 1:
                    s[m, agent, b] = times(s[m, agent, b], p[m + 1, agent, b])
                cell = s[m, agent, b]
                p[m, agent, b] = cell if b == 0 else plus(p[m, agent, b - 1], cell)
    return s.reshape(sums.shape), p.reshape(sums.shape)


def loop_forward(q, z, plus, ratio, times):
    """The forward pass cell by cell: q[m, b] = q[m, b] times (r[D-1] plus ...
    plus r[b]), summed from the last bid, with r = ratio(q[m - 1], z[m])."""
    shape = q.shape
    q = q.reshape(shape[0], -1, shape[-1]).copy()  # (M, k, D)
    z = z.reshape(q.shape)
    m_units, k, d = q.shape
    for agent in range(k):
        for m in range(1, m_units):
            for b in range(d - 1, -1, -1):
                r = ratio(q[m - 1, agent, b], z[m, agent, b])
                running = r if b == d - 1 else plus(running, r)
                q[m, agent, b] = times(q[m, agent, b], running)
    return q.reshape(shape)


PASS_SHAPES = [(1, 2), (1, 2, 2), (2, 2), (4, 7), (3, 3, 5), (5, 1, 9), (4, 2, 2)]


def pass_cells(rng, shape, zero):
    """Random cells with about a fifth set to `zero` (the semiring's) and a
    fifth to 0.0, cell 0 of every row kept nonzero."""
    cells = rng.normal(size=shape) if zero == -np.inf else rng.random(shape)
    pick = rng.random(shape)
    cells[pick < 0.2] = zero
    cells[(pick >= 0.2) & (pick < 0.4)] = 0.0
    cells[..., 0] = rng.random(shape[:-1]) + 0.5
    return cells


class TestLayeredPasses:
    """`backward_pass` and `forward_pass` against their cell-by-cell loops, bit
    for bit, in every semiring the library runs them in."""

    @pytest.mark.parametrize("shape", PASS_SHAPES)
    @pytest.mark.parametrize("semiring, zero", [
        ((np.add, np.multiply), 0.0),          # EW's linear tail sums
        ((np.logaddexp, np.add), -np.inf),     # EW's log tail sums
        ((np.maximum, np.add), -np.inf),       # the hindsight DP
    ], ids=["sum_product", "log_sum_product", "max_plus"])
    def test_backward_pass(self, shape, semiring, zero):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        plus, times = semiring
        for _ in range(5):
            sums = pass_cells(rng, shape, zero)
            ref_sums, ref_prefix = loop_backward(sums, plus, times)
            prefix = np.empty_like(sums)
            _kernels.backward_pass(zip(sums[::-1], prefix[::-1]), plus.accumulate, times)
            assert sums.tobytes() == ref_sums.tobytes()
            assert prefix.tobytes() == ref_prefix.tobytes()

    @pytest.mark.parametrize("shape", PASS_SHAPES)
    @pytest.mark.parametrize("semiring, zero", [
        ((np.add, np.divide, np.multiply), 0.0),       # EW's linear marginals, OMD's start
        ((np.logaddexp, np.subtract, np.add), -np.inf),  # EW's log marginals
    ], ids=["linear", "log"])
    def test_forward_pass(self, shape, semiring, zero):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        plus, ratio, times = semiring
        for _ in range(5):
            q = pass_cells(rng, shape, zero)
            z = plus.accumulate(pass_cells(rng, shape, zero), axis=-1)
            ref = loop_forward(q, z, plus, ratio, times)
            _kernels.forward_pass(_kernels.forward_rows(q, z), plus.accumulate, ratio, times)
            assert q.tobytes() == ref.tobytes()


def stacked_cases(k):
    """Each parity case as an (M, k, D) stack: agent i scales the weights and
    eta by 1 + i/2 and keeps the case's mask cut to its own random IR caps
    (non-increasing over slots, cell 0 always feasible). Then, for k > 1, a
    stack whose odd agents have the deep ramp's rows, wider than exp's range,
    and whose even agents have ordinary rows, so under `linear` the stack
    mixes linear tables and logs."""
    rng = np.random.default_rng(31 + k)
    for weights, allowed, eta in kernel_parity_cases() + wide_spread_cases():
        m, d = weights.shape
        caps = [np.sort(rng.integers(0, d, size=m))[::-1] if i else np.full(m, d - 1)
                for i in range(k)]
        stack_w = np.stack([weights * (1.0 + i / 2) for i in range(k)], axis=1)
        stack_a = np.stack([allowed & (np.arange(d) <= cap[:, None]) for cap in caps], axis=1)
        etas = np.array([eta * (1.0 + i / 2) for i in range(k)])
        yield stack_w, stack_a, etas
    if k > 1:
        deep_ramp = wide_spread_cases()[0][0]
        ordinary = rng.uniform(-5.0, 5.0, size=deep_ramp.shape)
        yield (np.stack([deep_ramp if i % 2 else ordinary for i in range(k)], axis=1),
               np.ones((deep_ramp.shape[0], k, deep_ramp.shape[1]), bool), np.ones(k))


class TestBatchedKernels:
    """An (M, k, D) stack gives every agent the bits of its own 2-D call."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_stacked_calls_equal_separate_calls_bit_for_bit(self, k):
        rng = np.random.default_rng(5)
        top = 1.0 - 2.0**-53
        for weights, allowed, etas in stacked_cases(k):
            m, _, d = weights.shape
            log_sums, log_prefix = ew_tail_sums(weights, allowed, etas[:, None])
            marginals = ew_marginals(log_sums)
            singles = [ew_tail_sums(weights[:, i], allowed[:, i], etas[i]) for i in range(k)]
            for i, (sums, prefix) in enumerate(singles):
                assert log_sums[:, i].tobytes() == sums.tobytes()
                assert log_prefix[:, i].tobytes() == prefix.tobytes()
                assert marginals[:, i].tobytes() == ew_marginals(sums).tobytes()
            for uniforms in [np.zeros((k, m)), np.full((k, m), top), rng.random((k, m))]:
                picks = np.array(sample_monotone(log_prefix, uniforms))
                assert picks.shape == (k, m)
                for i, (_, prefix) in enumerate(singles):
                    assert (picks[i].tolist()
                            == np.array(sample_monotone(prefix, uniforms[i])).tolist())
            rng.random((k, m))  # keeps the draws that follow
            thresholds = rng.integers(0, d + 1, size=(k, m))
            stacked, reference = weights.copy(), weights.copy()
            apply_slot_rewards(stacked, thresholds)
            reference += np.arange(d) >= thresholds.T[..., None]
            assert stacked.tobytes() == reference.tobytes()
            for i in range(k):
                single = weights[:, i].copy()
                apply_slot_rewards(single, thresholds[i])
                assert stacked[:, i].tobytes() == single.tobytes()


class TestWorkspace:
    """One `Workspace`, reused round after round, gives the bytes of fresh
    one-shot kernel calls in every regime of the tail sums."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_reused_tables_equal_one_shot_calls(self, k):
        """50 rounds of new weights through one workspace: log, linear and
        bounded tables. In odd rounds the stack's agent 1 has rows wider than
        exp's range, so its linear tables fall to logs between two linear
        agents."""
        rng = np.random.default_rng(26)
        m, d, stack = 4, 9, k > 1
        caps = np.sort(rng.integers(0, d, size=(k, m)), axis=1)[:, ::-1]
        allowed = np.arange(d) <= caps.T[..., None]  # (M, k, D), cell 0 always feasible
        etas = 0.5 + rng.random(k)
        work = _kernels.Workspace((m, k, d) if stack else (m, d))
        regimes = set()
        for t in range(50):
            weights = rng.uniform(-5.0, 5.0, size=(m, k, d))
            wide = stack and t % 2 == 1
            if wide:
                weights[:, 1] *= 400.0
            args = ((weights, allowed, etas[:, None]) if stack
                    else (weights[:, 0], allowed[:, 0], etas[0]))
            calls = [({}, False), ({"linear": True}, None)]
            calls += [] if wide else [({"bounded": True}, True)]
            for kwargs, flags in calls:
                got = ew_tail_sums(*args, **kwargs, work=work)
                ref = ew_tail_sums(*args, **kwargs)
                assert got[0] is work.sums and got[1] is work.prefix
                assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
                flags = got[2] if flags is None else flags
                uniforms = rng.random((k, m) if stack else m)
                assert (np.array(sample_monotone(got[1], uniforms, flags)).tolist()
                        == np.array(sample_monotone(ref[1], uniforms, flags)).tolist())
                if "linear" in kwargs:
                    marginals = ew_marginals(work, linear=flags)
                    assert marginals.tobytes() == ew_marginals(*ref).tobytes()
                    assert np.shares_memory(marginals, work.marginals[0]) == all(flags)
                    regimes.add(tuple(flags.tolist()))
        assert regimes == ({(True, True, True), (True, False, True)} if stack else {(True,)})


class TestKernelArgumentForms:
    """The forms an EW group passes: a stack's rates in its shape, and for
    full information `allowed` as floats, give the bits of (k, 1) rates and a
    bool mask in every regime of the tail sums."""

    def test_full_shape_rates_and_a_float_mask_match(self):
        rng = np.random.default_rng(28)
        m, k, d = 4, 3, 9
        caps = np.sort(rng.integers(0, d, size=(k, m)), axis=1)[:, ::-1]
        allowed = np.arange(d) <= caps.T[..., None]
        etas = 0.5 + rng.random(k)
        rates = np.full((m, k, d), etas[:, None])
        for wide in (False, True):
            weights = rng.uniform(-5.0, 5.0, size=(m, k, d))
            if wide:  # agent 1's rows span more than exp's range: linear falls to logs
                weights[:, 1] *= 400.0
            calls = [{}] + ([] if wide else [{"bounded": True}])
            for kwargs in calls:
                ref = ew_tail_sums(weights, allowed, etas[:, None], **kwargs)
                got = ew_tail_sums(weights, allowed * 1.0, rates, **kwargs)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
            ref = ew_tail_sums(weights, allowed, etas[:, None], linear=True)
            got = ew_tail_sums(weights, allowed, rates, linear=True)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
            assert got[2].tolist() == [True, not wide, True]


class TestSlotRewards:
    """`apply_slot_rewards` counts a win where a fresh mask of the thresholds
    says, with a workspace's kept bid index and mask or without."""

    @staticmethod
    def masked_add(counts, thresholds):
        """The reference: a new bid index and win mask for every call, added."""
        counts += np.arange(counts.shape[-1]) >= thresholds.T[..., None]

    @pytest.mark.parametrize("shape", [(4, 9), (4, 1, 9), (4, 3, 9)])
    def test_every_threshold_with_and_without_work(self, shape):
        """D + 1 rounds in which slot m of agent i has threshold
        (t + m + i) mod (D + 1), so every slot sees every threshold 0..D."""
        rng = np.random.default_rng(28)
        m, d = shape[0], shape[-1]
        agents = np.arange(shape[1])[:, None] if len(shape) == 3 else 0
        rng.random(shape), rng.random(shape[:-1])  # keeps the draws that follow
        start = rng.uniform(-3.0, 3.0, size=shape)
        ref, fresh, kept = start.copy(), start.copy(), start.copy()
        work = _kernels.Workspace(shape)
        for t in range(d + 1):
            thresholds = (t + np.arange(m) + agents) % (d + 1)
            self.masked_add(ref, thresholds)
            apply_slot_rewards(fresh, thresholds)
            apply_slot_rewards(kept, thresholds, work=work)
            assert fresh.tobytes() == ref.tobytes()
            assert kept.tobytes() == ref.tobytes()
        assert not np.array_equal(ref, start)

    def test_the_kept_index_is_one_row_and_one_table_sized_mask(self):
        """At D = 4,097 the workspace's bid index has D cells and its mask the
        table's M k D, and a call through it allocates no mask: far less than
        the M k D bytes of the one-shot call's."""
        m, k, d = 3, 2, 4097
        rng = np.random.default_rng(29)
        counts = np.zeros((m, k, d))
        thresholds = rng.integers(0, d + 1, size=(k, m))
        work = _kernels.Workspace((m, k, d))
        index, wins = work.win_index
        assert index.tolist() == list(range(d))
        assert wins.shape == (m, k, d) and wins.dtype == bool
        peaks = []
        for kept in (work, None):
            tracemalloc.start()
            try:
                apply_slot_rewards(counts, thresholds, work=kept)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < m * k * d // 8 and peaks[1] >= m * k * d


class TestMarginalRegimes:
    """`ew_marginals` on log tail sums runs the recursion in logs, whatever
    an agent's rows span, and matches the cell-by-cell recursion."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 6), d=st.integers(2, 24), eta=st.sampled_from([0.01, 0.3, 2.0]),
           seed=st.integers(0, 2**32 - 1), near_switch=st.booleans(),
           offset=st.floats(-40.0, 40.0))
    def test_matches_the_loop_recursion(self, m, d, eta, seed, near_switch, offset):
        """Random tables and masks; with `near_switch`, some cells of every
        row sit `offset` above log 2**-960 below the row maximum, where the
        tail sums switch to logs, so rows on both sides of it are drawn.
        Every cell stays within 706 of its row maximum, where the loop's own
        exp does not underflow, so the loop is exact enough to be the oracle."""
        rng = np.random.default_rng(seed)
        allowed = rng.random((m, d)) < 0.7
        allowed[:, 0] = True
        log_sums = loop_tail_sums(rng.uniform(-5.0, 5.0, size=(m, d)), allowed, eta)
        if near_switch:
            top = log_sums.max(axis=1, keepdims=True)
            moved = allowed & (rng.random((m, d)) < 0.5) & (log_sums < top)
            log_sums = np.where(moved, top + _LINEAR_FLOOR + offset, log_sums)
        got = ew_marginals(log_sums)
        ref = loop_marginals(log_sums)
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_each_agent_of_a_mixed_stack_takes_its_own_regime(self):
        """Narrow rows and rows wider than exp's range alike take the log recursion."""
        weights, allowed, etas = list(stacked_cases(3))[-1]
        log_sums, _ = ew_tail_sums(weights, allowed, etas[:, None])
        marginals = ew_marginals(log_sums)
        for i, sums in enumerate(log_sums.swapaxes(0, 1)):
            s = sums - sums.max(axis=-1, keepdims=True)
            assert (s.min() < _LINEAR_FLOOR) == bool(i % 2)
            assert marginals[:, i].tobytes() == _log_marginals(s).tobytes()

    def test_benchmark_shape_stays_in_the_linear_domain(self, monkeypatch):
        """One EW bandit-IX agent at M = 20, D = 101 against a stochastic
        environment, for 100 rounds, never takes the log recursion."""
        calls = []

        def counted(s):
            calls.append(s.shape)
            return _log_marginals(s)

        monkeypatch.setattr(_kernels, "_log_marginals", counted)
        tail_sums = _kernels.ew_tail_sums
        tail_calls = []

        def counted_tail_sums(*args, linear=False, **kwargs):
            tail_calls.append(linear)
            return tail_sums(*args, linear=linear, **kwargs)

        monkeypatch.setattr(_kernels, "ew_tail_sums", counted_tail_sums)
        supply = 20
        scenario = validate_scenario({
            "name": "ew_bandit_large", "grid_size": 101, "rounds": 100, "master_seed": 1,
            "supply": supply,
            "agents": [{"algorithm": "ew", "feedback": "bandit_ix", "valuation": [1.0] * supply}],
            "environment": {"kind": "stochastic", "tie": "agent_wins", "probs": [0.5, 0.25, 0.25],
                            "support": [[0.1] * supply, [0.3] * 14 + [1.0] * 6,
                                        [0.4] * 7 + [1.0] * 13]},
        })
        log = run_experiment(scenario)
        assert log.rounds == 100 and calls == []
        assert tail_calls == [True] * 100  # no log-domain tail sums either

    def test_benchmark_full_information_shape_stays_on_bounded_tables(self, monkeypatch):
        """Three EW full-information agents in self-play at M = 5, D = 21, for
        750 rounds at the scheduled rate, whose `linear_rounds` is 4,837: every
        round's tail sums take the unshifted bounded pass."""
        tail_sums = _kernels.ew_tail_sums
        bounded_calls = []

        def counted_tail_sums(*args, bounded=False, **kwargs):
            bounded_calls.append(bounded)
            return tail_sums(*args, bounded=bounded, **kwargs)

        monkeypatch.setattr(_kernels, "ew_tail_sums", counted_tail_sums)
        demand = 5
        scenario = validate_scenario({
            "name": "market_selfplay", "grid_size": 21, "rounds": 750, "master_seed": 1,
            "supply": demand, "environment": {"kind": "self_play"},
            "agents": [{"algorithm": "ew", "feedback": "full",
                        "valuation": {"kind": "uniform_sorted", "demand": demand}}] * 3,
        })
        market, seed, config = build_market(scenario, 0)
        log = market.play(scenario.rounds, config=config, seed=seed)
        (group,) = market.learners
        assert log.rounds == 750 and 4837 < group._linear_rounds < 4838
        assert group.log_rounds.tolist() == [0, 0, 0]
        assert bounded_calls == [True] * 750


def row_shifted(weights, allowed):
    """Each row's weights minus its largest feasible weight. The sampler's law
    depends on a row only up to a constant, as every path has one cell per
    row; shifted rows keep the loop oracle's log sums free of cancellation."""
    return weights - np.where(allowed, weights, -np.inf).max(axis=1, keepdims=True)


def deep_cell_zero_case():
    """Cell 0 of both rows sits 500 below its row maximum, within log 2**-960
    of it, yet the all-zero path's mass P[0, 0] = e**-1000 underflows."""
    weights = np.array([[-500.0, 0.0, 0.0], [-500.0, 0.0, 0.0]])
    return weights, np.ones(weights.shape, bool), 1.0


def scheduled_rate_scenario(mode, demand, grid_size):
    """One EW bandit agent at the scheduled rates, 300 rounds against a
    stochastic environment: every unit at the grid's first step with
    probability 1/2, or the top third of the units at 1 and the rest at the
    grid's midpoint."""
    values = make_even_grid(grid_size).values.tolist()
    third = demand // 3
    return validate_scenario({
        "name": "scheduled_rate", "grid_size": grid_size, "rounds": 300, "master_seed": 5,
        "supply": demand,
        "agents": [{"algorithm": "ew", "feedback": mode,
                    "valuation": {"kind": "uniform_sorted", "demand": demand}}],
        "environment": {"kind": "stochastic", "tie": "agent_wins", "probs": [0.5, 0.5],
                        "support": [[values[1]] * demand,
                                    [values[(grid_size - 1) // 2]] * (demand - third)
                                    + [1.0] * third]},
    })


class TestLinearTables:
    """`ew_tail_sums(..., linear=True)`: one linear table per round for the
    sampler and the marginals, with logs for the agents that do not fit."""

    def test_sampler_picks_equal_the_log_samplers(self):
        rng = np.random.default_rng(7)
        top = 1.0 - 2.0**-53
        cases = kernel_parity_cases() + wide_spread_cases() + [deep_cell_zero_case()]
        for weights, allowed, eta in cases:
            sums, prefix, linear = ew_tail_sums(weights, allowed, eta, linear=True)
            _, log_prefix = ew_tail_sums(weights, allowed, eta)
            log_sums = loop_tail_sums(weights, allowed, eta)
            m = weights.shape[0]
            draws = [np.zeros(m), np.full(m, top)] + [rng.random(m) for _ in range(50)]
            for uniforms in draws:
                got = np.array(sample_monotone(prefix, uniforms, linear))
                assert got.tolist() == np.array(sample_monotone(log_prefix, uniforms)).tolist()
                assert got.tolist() == loop_log_sample_monotone(log_sums, uniforms).tolist()
        # U on a CDF breakpoint: cell 0 holds half the mass, which does not
        # exceed U * total at U = 1/2, so both samplers take cell 1.
        sums, prefix, linear = ew_tail_sums(np.zeros((1, 2)), np.ones((1, 2), bool), 1.0,
                                            linear=True)
        assert linear.tolist() == [True] and prefix.tolist() == [[1.0, 2.0]]
        assert np.array(sample_monotone(prefix, np.array([0.5]), linear)).tolist() == [1]

    def test_parity_cases_are_linear_and_wide_rows_take_logs(self):
        for weights, allowed, eta in kernel_parity_cases():
            assert ew_tail_sums(weights, allowed, eta, linear=True)[2].tolist() == [True]
        for weights, allowed, eta in wide_spread_cases() + [deep_cell_zero_case()]:
            sums, prefix, linear = ew_tail_sums(weights, allowed, eta, linear=True)
            log_sums, log_prefix = ew_tail_sums(weights, allowed, eta)
            assert linear.tolist() == [False]
            assert sums.tobytes() == log_sums.tobytes()
            assert prefix.tobytes() == log_prefix.tobytes()
            marginals = ew_marginals(sums, prefix, linear)
            assert marginals.tobytes() == ew_marginals(log_sums).tobytes()

    def test_bounded_tables_hold_the_largest_growth(self):
        """W = t on every cell, more than t full-information updates can add:
        the total prefix sum is C(M + D - 1, M) e**(M eta t), which stays a
        finite float up to `linear_rounds` and reaches e**695.7 there."""
        m, d, eta = 3, 11, 2.0
        t = math.floor(linear_rounds(m, d, eta))
        weights, allowed = np.full((m, d), float(t)), np.ones((m, d), bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sums, prefix = ew_tail_sums(weights, allowed, eta, bounded=True)
        _, log_prefix = ew_tail_sums(weights, allowed, eta)
        assert t == 115 and 695.0 < math.log(prefix[0, -1]) <= 700.0
        assert np.allclose(np.log(prefix), log_prefix, rtol=1e-13, atol=0.0)

    def test_shapes_with_more_tails_than_e_700_never_take_bounded_tables(self):
        """C(M + D - 1, M) is e**699.9 at M = D = 508 and e**701.2 at 509: no
        round of the larger shape fits, even at an eta whose M eta overflows."""
        assert 0.0 < linear_rounds(508, 508, 1e-3) < 1.0
        assert linear_rounds(508, 508, 1e308) == 0.0
        assert linear_rounds(509, 509, 1e-3) == linear_rounds(509, 509, 1e308) == -math.inf

    def test_shapes_with_more_tails_than_2_960_take_logs(self):
        """M = D = 484 has C(967, 484) > 2**960 monotone tails, which could
        overflow a linear prefix sum, so it takes logs even for all-zero
        weights; M = D = 483 has fewer than 2**960."""
        weights, allowed = np.zeros((484, 484)), np.ones((484, 484), bool)
        sums, prefix, linear = ew_tail_sums(weights, allowed, 1.0, linear=True)
        log_sums, log_prefix = ew_tail_sums(weights, allowed, 1.0)
        assert linear.tolist() == [False]
        assert sums.tobytes() == log_sums.tobytes() and prefix.tobytes() == log_prefix.tobytes()
        smaller = ew_tail_sums(weights[1:, 1:], allowed[1:, 1:], 1.0, linear=True)
        assert smaller[2].tolist() == [True]

    def test_marginals_match_the_loop(self):
        for weights, allowed, eta in kernel_parity_cases():
            sums, prefix, linear = ew_tail_sums(weights, allowed, eta, linear=True)
            got = ew_marginals(sums, prefix, linear)
            ref = loop_marginals(loop_tail_sums(row_shifted(weights, allowed), allowed, eta))
            assert np.array_equal(got == 0.0, ref == 0.0)
            assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 3])
    def test_stacked_tables_equal_solo_calls_bit_for_bit(self, k):
        """Includes, for k = 3, a stack whose odd agent has rows wider than
        exp's range and so takes logs between two linear agents."""
        rng = np.random.default_rng(6)
        top = 1.0 - 2.0**-53
        regimes = set()
        for weights, allowed, etas in stacked_cases(k):
            m = weights.shape[0]
            sums, prefix, linear = ew_tail_sums(weights, allowed, etas[:, None], linear=True)
            marginals = ew_marginals(sums, prefix, linear)
            assert linear.shape == (k,)
            for i in range(k):
                solo = ew_tail_sums(weights[:, i], allowed[:, i], etas[i], linear=True)
                assert linear[i] == solo[2][0]
                assert sums[:, i].tobytes() == solo[0].tobytes()
                assert prefix[:, i].tobytes() == solo[1].tobytes()
                assert marginals[:, i].tobytes() == ew_marginals(*solo).tobytes()
            for uniforms in [np.zeros((k, m)), np.full((k, m), top), rng.random((k, m))]:
                picks = np.array(sample_monotone(prefix, uniforms, linear))
                for i in range(k):
                    solo = ew_tail_sums(weights[:, i], allowed[:, i], etas[i], linear=True)
                    assert picks[i].tolist() == np.array(sample_monotone(
                        solo[1], uniforms[i], solo[2])).tolist()
            regimes.add(tuple(linear.tolist()))
        if k == 3:
            assert (True, False, True) in regimes

    def test_a_run_crosses_regimes(self):
        """Implicit exploration at gamma 1e-6 and a user rate near 1/M drives
        some cells more than log 2**-960 below their row maximum, so the
        agent takes logs in some rounds and linear tables in the others."""
        scenario = validate_scenario({
            "name": "crossing", "grid_size": 11, "rounds": 3000, "master_seed": 3, "supply": 3,
            "agents": [{"algorithm": "ew", "feedback": "bandit_ix", "valuation": [1.0, 0.8, 0.5],
                        "eta": 0.3, "gamma": 1e-6}],
            "environment": {"kind": "stochastic", "tie": "agent_wins", "probs": [0.5, 0.5],
                            "support": [[0.1] * 3, [0.3, 0.3, 1.0]]},
        })
        market, seed, config = build_market(scenario, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log = market.play(scenario.rounds, config=config, seed=seed)
        assert log.replay_matches()
        (group,) = market.learners
        assert 0 < group.log_rounds[0] < scenario.rounds

    @pytest.mark.parametrize("force_logs", [False, True])
    def test_zero_probability_error_names_the_regime(self, monkeypatch, force_logs):
        if force_logs:
            monkeypatch.setattr(_kernels, "_LINEAR_MIN", math.inf)
        grid = make_even_grid(5)
        group = ExpWeightsBidder([ValuationProfile(np.array([1.0, 0.5]))], grid, 10, [1],
                                 mode=FeedbackMode.BANDIT_IPW)
        monkeypatch.setattr(_kernels, "ew_marginals", lambda work, linear: np.zeros(work.sums.shape))
        group.propose()
        assert group.log_rounds.tolist() == [int(force_logs)]
        regime = "log" if force_logs else "linear"
        with pytest.raises(RuntimeError, match=f"under the marginals of the {regime} tail sums"):
            group.observe([1])

    @pytest.mark.parametrize("mode", ["bandit_ipw", "bandit_ix"])
    @pytest.mark.parametrize("demand", [1, 3, 5])
    @pytest.mark.parametrize("grid_size", [5, 11, 21])
    def test_forcing_logs_leaves_scheduled_rate_runs_unchanged(self, monkeypatch, mode, demand,
                                                               grid_size):
        """At the scheduled rates the linear tables and the log ones write the
        same log over 300 rounds."""
        scenario = scheduled_rate_scenario(mode, demand, grid_size)

        def play():
            market, seed, config = build_market(scenario, 0)
            return market.play(scenario.rounds, config=config, seed=seed), market.learners[0]

        linear, linear_group = play()
        monkeypatch.setattr(_kernels, "_LINEAR_MIN", math.inf)  # no agent fits
        logs, logs_group = play()
        assert linear_group.log_rounds.tolist() == [0]
        assert logs_group.log_rounds.tolist() == [scenario.rounds]
        assert linear.to_csv_text() == logs.to_csv_text()
        assert linear.to_json_text() == logs.to_json_text()
