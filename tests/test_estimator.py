import json
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from ergmflow import (ChainConfig, ChangeStats, DyadCovariateSet, EstimationError,
                      FlowNetwork, ModelSpec, TermSpec, ValidationError,
                      build_network, census_sample, conditional_log_pmf,
                      effect_multiplier, fit_mple, mcmc_simulate,
                      penalized_pseudo_loglik, pseudo_bic, stratified_dyad_sample)
import ergmflow.estimator as estimator_mod
from ergmflow.estimator import (_Chunk, _chunks, _dyad_state, _network_chunk, _newton,
                                _objective)
from ergmflow.sampler import _dense_state

from oracles import (brute_conditional_log_pmf, central_gradient,
                     central_hessian, grid_pseudo_loglik, interval_moments,
                     irls_poisson, neighbourhood, offdiag_stratified_sample,
                     relative_error, scipy_log_poisson_interval)


def pairs(sample):
    """The sample's dyads as a list of (i, j) tuples."""
    return list(zip(sample.src.tolist(), sample.dst.tolist()))


class TestStratifiedSample:
    def test_census_when_clamped(self):
        net = build_network([(0, 1, 2), (1, 2, 1)], n_nodes=4)
        s = stratified_dyad_sample(net, 10_000, seed=1)
        assert s.n_dyads == 12
        assert np.all(s.weights == 1.0)
        assert s.strata_counts == (2, 10, 2, 10)

    def test_weights_are_inverse_inclusion(self):
        rng = np.random.default_rng(0)
        mat = (rng.random((60, 60)) < 0.1).astype(int) * 2
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        s = stratified_dyad_sample(net, 1600, seed=4)
        n1t, n0t, s1, s0 = s.strata_counts
        nz = {(i, j) for (i, j), _ in net.items()}
        for (i, j), w in zip(pairs(s), s.weights):
            if (i, j) in nz:
                assert w == pytest.approx(n1t / s1)
            else:
                assert w == pytest.approx(n0t / s0)

    def test_exhausted_nonzero_stratum(self):
        # few nonzero dyads and a large target: every nonzero dyad enters
        # at weight one, the remainder comes from the zero stratum
        records = [(k, k + 1, 1) for k in range(30)]
        net = build_network(records, n_nodes=60)
        s = stratified_dyad_sample(net, 1600, seed=2)
        n1t, n0t, s1, s0 = s.strata_counts
        assert (n1t, s1) == (30, 30)
        assert s0 == 1570
        w_zero = (60 * 59 - 30) / 1570
        assert np.all(s.weights[:30] == 1.0)
        assert s.weights[30:] == pytest.approx(w_zero)

    def test_no_duplicates_and_determinism(self):
        rng = np.random.default_rng(5)
        mat = rng.poisson(0.2, (40, 40))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        a = stratified_dyad_sample(net, 500, seed=9)
        b = stratified_dyad_sample(net, 500, seed=9)
        assert pairs(a) == pairs(b)
        assert len(set(pairs(a))) == 500

    def test_n_total_below_one_rejected(self):
        net = build_network([(0, 1, 1)], n_nodes=3)
        with pytest.raises(ValidationError):
            stratified_dyad_sample(net, 0, seed=0)

    @pytest.mark.parametrize("n_total, seed, match", [
        (2.5, 1, "n_total must be >= 1 and an integer"),
        (True, 1, "n_total must be >= 1 and an integer"),
        (np.float64(4.0), 1, "n_total must be >= 1 and an integer"),
        (4, -1, "seed must be None or an integer >= 0"),
        (4, 1.5, "seed must be None or an integer >= 0"),
        (4, True, "seed must be None or an integer >= 0")])
    def test_non_integer_count_or_bad_seed_rejected(self, n_total, seed, match):
        net = build_network([(0, 1, 1)], n_nodes=3)
        with pytest.raises(ValidationError, match=match):
            stratified_dyad_sample(net, n_total, seed=seed)

    def test_numpy_integer_count_and_seed_accepted(self, tmp_path):
        net = build_network([(0, 1, 1)], n_nodes=3)
        want = stratified_dyad_sample(net, 4, seed=7)
        got = stratified_dyad_sample(net, np.int64(4), seed=np.uint32(7))
        assert pairs(got) == pairs(want)
        assert stratified_dyad_sample(net, 4, seed=None).n_dyads == 4
        # the seed is stored as an int, so fit.json can hold it
        net = build_network([(0, 1, 3), (1, 2, 1), (3, 0, 2)], n_nodes=4)
        sample = stratified_dyad_sample(net, 5, seed=np.int64(3))
        assert type(sample.seed) is int and sample.seed == 3
        fit = fit_mple(ModelSpec(terms=(TermSpec("sum"),)), net, None, None, sample)
        fit.write_json(tmp_path / "fit.json")
        assert json.loads((tmp_path / "fit.json").read_text())["sample"]["seed"] == 3

    def test_full_scale_allocation(self):
        # tie/no-tie with a million-dyad target on a 3142-node network with
        # 274,197 nonzero dyads: the nonzero stratum is exhausted and the
        # zero-dyad weight is (9,869,022 - 274,197) / 725,803
        rng = np.random.default_rng(1)
        n = 3142
        total = n * (n - 1)
        codes = rng.choice(total, size=274_197, replace=False)
        ii = codes // (n - 1)
        rr = codes - ii * (n - 1)
        jj = rr + (rr >= ii)
        net = FlowNetwork(n, {(int(a), int(b)): 1 for a, b in zip(ii, jj)})
        s = stratified_dyad_sample(net, 1_000_000, seed=9)
        assert s.strata_counts == (274_197, 9_594_825, 274_197, 725_803)
        assert np.all(s.weights[:274_197] == 1.0)
        assert s.weights[-1] == pytest.approx(9_594_825 / 725_803)
        assert s.weights[-1] == pytest.approx(13.2196, abs=1e-4)

    @pytest.mark.parametrize("n_total", [1, 40, 300, 1100])
    def test_same_draw_as_setdiff_zero_stratum(self, n_total):
        # the zero-dyad codes, built from a mask, are in the order that
        # np.setdiff1d gave, so the sample is the same draw
        mat = np.random.default_rng(8).poisson(0.3, (34, 34))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        for seed in range(3):
            ii, jj, _w, _counts = offdiag_stratified_sample(net, n_total, seed)
            s = stratified_dyad_sample(net, n_total, seed=seed)
            assert np.array_equal(s.src, ii) and np.array_equal(s.dst, jj)

    @pytest.mark.parametrize("n,rate", [(2, 0.5), (2, 5.0), (3, 0.0), (3, 0.8),
                                        (40, 0.2), (150, 0.05)])
    def test_same_bytes_as_offdiagonal_codes(self, n, rate):
        # the sampler codes dyads as i * n + j; drawing over the n (n - 1)
        # off-diagonal codes instead gives the same samples and censuses
        mat = np.random.default_rng(n).poisson(rate, (n, n))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        for n_total in sorted({1, 2, n, n * n // 3, n * (n - 1) - 1, n * (n - 1)} - {0}):
            for seed in (0, 4):
                want = offdiag_stratified_sample(net, n_total, seed)
                s = stratified_dyad_sample(net, n_total, seed=seed)
                for got, ref in zip((s.src, s.dst, s.weights), want[:3]):
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
                assert s.strata_counts == want[3]


def _interval_grid(n_rates):
    """(a, lo, hi) around each of ``n_rates`` rates lam = e^a from e^-12 to
    1e5: every ordered pair of bounds from the mean plus -40 to 40 sd and
    0, 1, 2, 5 and 1e6 (empty intervals included), and each with hi = inf."""
    a, lo, hi = [], [], []
    for lam in np.exp(np.linspace(-12.0, math.log(1e5), n_rates)):
        sd = max(math.sqrt(lam), 1.0)
        offsets = np.array([-40, -10, -5, -2, -1, -0.5, 0, 0.5, 1, 2, 5, 10, 40])
        bounds = np.unique(np.clip(np.round(np.concatenate(
            [lam + sd * offsets, [0, 1, 2, 5, 1e6]])), 0, 1e6))
        for b_lo in bounds:
            for b_hi in [*bounds, math.inf]:
                a.append(math.log(lam))
                lo.append(b_lo)
                hi.append(b_hi)
    return np.array(a), np.array(lo), np.array(hi)


def _assert_close(got, want):
    """Within 1e-12 * max(1, |want|), and -inf exactly where ``want`` is."""
    assert np.array_equal(got == -np.inf, want == -np.inf)
    fin = want > -np.inf
    err = np.abs(got[fin] - want[fin]) / np.maximum(1.0, np.abs(want[fin]))
    assert err.max(initial=0.0) <= 1e-12, err.max()


class TestPoissonInterval:
    """The interval sums behind the conditional normalizer and its moments,
    against scipy.special and long-double sums."""

    def test_log_probability_matches_scipy(self):
        a, lo, hi = _interval_grid(120)
        got = estimator_mod._poisson_interval(a, lo, hi)[0]
        _assert_close(got, scipy_log_poisson_interval(a, lo, hi))

    def test_straddling_intervals_at_large_rates_match_scipy(self):
        # each tail sum takes thousands of terms, so the doubling blocks are
        # exercised; the bounds stay within 4 sd of the mean, because past
        # about 4.5 sd above it scipy's gammainc loses digits at these rates
        # (5e-6 relative at lam = 1e6 and 5 sd, against mpmath)
        rng = np.random.default_rng(29)
        lam = np.exp(rng.uniform(math.log(1e5), math.log(1e6), 10_000))
        sd = np.sqrt(lam)
        lo = np.floor(lam - rng.uniform(0, 4, lam.size) * sd)
        hi = np.ceil(lam + rng.uniform(0, 4, lam.size) * sd)
        a = np.log(lam)
        got = estimator_mod._poisson_interval(a, lo, hi)[0]
        _assert_close(got, scipy_log_poisson_interval(a, lo, hi))

    def test_moments_match_long_double_sums(self):
        a, lo, hi = _interval_grid(30)
        _log_p, mean, var = estimator_mod._poisson_interval(a, lo, hi)
        live = lo <= hi
        assert np.all(mean[~live] == 0) and np.all(var[~live] == 0)
        want = np.array([interval_moments(math.exp(x), l, h)
                         for x, l, h in zip(a[live], lo[live], hi[live])])
        _assert_close(mean[live], want[:, 0])
        _assert_close(var[live], want[:, 1])

    def test_log_factorial_matches_scipy(self):
        from scipy.special import gammaln
        k = np.concatenate([np.arange(2000.0), np.round(np.geomspace(2000, 1e9, 200))])
        got = estimator_mod._log_factorial(k)
        want = gammaln(k + 1.0)
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, want))  # a few ulps


class TestConditionalLogPmf:
    def test_reference_measure_alone_is_unit_poisson(self):
        model = ModelSpec(terms=(TermSpec("sum"),))
        net = FlowNetwork.empty(3)
        got = conditional_log_pmf(model, np.array([0.0]), net, None, None, (0, 1), 0)
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_poisson_closed_form(self):
        model = ModelSpec(terms=(TermSpec("sum"),))
        net = FlowNetwork.empty(3)
        for lam in (0.1, 1.0, 7.0):
            got = conditional_log_pmf(model, np.array([math.log(lam)]), net,
                                      None, None, (0, 1), 0)
            assert got == pytest.approx(-lam, abs=1e-12)

    def test_matches_brute_force_normalization(self):
        # two-node network, y_10 = 2, model [sum, mutual_min]; at the second
        # theta the mass sits on v <= 2 under a segment rate near 1100, whose
        # Poisson interval probability underflows
        net = build_network([(1, 0, 2)], n_nodes=2)
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("mutual_min")))
        payloads = [("sum", None), ("mutual_min", None)]
        dense = net.dense_matrix().tolist()
        for theta in (np.array([0.5, 0.3]), np.array([-5.0, 12.0])):
            for v in (0, 1, 2, 3, 7):
                got = conditional_log_pmf(model, theta, net, None, None, (0, 1), v)
                want = brute_conditional_log_pmf(payloads, dense, theta, 0, 1, v)
                assert got == pytest.approx(want, abs=1e-10)

    def test_affine_model_reduces_to_poisson_with_covariate_rate(self):
        # every term affine in the focal dyad: conditional pmf is Poisson
        # with rate exp(theta . unit-change), independent of the rest
        rng = np.random.default_rng(9)
        n = 5
        mat = rng.poisson(1.0, (n, n))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        z = rng.normal(0, 0.7, (n, n))
        np.fill_diagonal(z, 0)
        dyads = DyadCovariateSet(n, {"z": z})
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "z")))
        theta = np.array([-0.4, 0.8])
        for (i, j) in [(0, 1), (3, 2), (4, 0)]:
            lam = math.exp(theta[0] + theta[1] * z[i, j])
            for v in (0, 1, 3, 6):
                got = conditional_log_pmf(model, theta, net, None, dyads, (i, j), v)
                want = v * math.log(lam) - lam - math.lgamma(v + 1)
                assert got == pytest.approx(want, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        n = 6
        mat = rng.poisson(1.2, (n, n))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero"),
                                 TermSpec("mutual_min"), TermSpec("waypoint_flow")))
        theta = np.array([0.1, 0.4, 0.2, -0.05])
        for (i, j) in [(0, 1), (2, 5), (4, 3)]:
            top = max(net.value(i, j), net.value(j, i)) + 200
            total = sum(math.exp(conditional_log_pmf(model, theta, net, None,
                                                     None, (i, j), v))
                        for v in range(top))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_support_is_not_truncated(self):
        # a mean far above ten times the largest edge: the whole Poisson(500)
        # support counts, not a grid cut off near the observed values
        model = ModelSpec(terms=(TermSpec("sum"),))
        net = build_network([(0, 1, 3), (1, 2, 1), (2, 0, 2)], n_nodes=3)
        got = conditional_log_pmf(model, np.array([math.log(500.0)]), net,
                                  None, None, (0, 1), 500)
        want = 500 * math.log(500.0) - 500.0 - math.lgamma(501.0)
        assert want == pytest.approx(-4.026, abs=5e-4)
        assert got == pytest.approx(want, abs=1e-12)

    def test_nonfinite_theta_rejected(self):
        model = ModelSpec(terms=(TermSpec("sum"),))
        net = FlowNetwork.empty(2)
        with pytest.raises(ValidationError, match="non-finite"):
            conditional_log_pmf(model, np.array([np.inf]), net, None, None, (0, 1), 0)

    @pytest.mark.parametrize("dyad, v, match", [
        ((0, 1), -1, "non-negative integer"), ((0, 1), 1.5, "non-negative integer"),
        ((1, 1), 0, "self-loop"), ((0, -1), 0, "node -1 out of range for 3 nodes"),
        ((0, 9), 0, "node 9 out of range for 3 nodes"),
        # a bool, a non-number, a non-finite or a negative float is no count
        ((0, 1), True, "^v must be"), ((0, 1), np.bool_(False), "^v must be"),
        ((0, 1), None, "^v must be"), ((0, 1), "2", "^v must be"),
        ((0, 1), math.nan, "^v must be"), ((0, 1), math.inf, "^v must be"),
        ((0, 1), np.float64(-2.0), "^v must be")])
    def test_bad_count_or_dyad_rejected(self, dyad, v, match):
        model = ModelSpec(terms=(TermSpec("sum"),))
        net = FlowNetwork.empty(3)
        with pytest.raises(ValidationError, match=match):
            conditional_log_pmf(model, np.array([0.0]), net, None, None, dyad, v)

    def test_whole_float_count_accepted(self):
        model = ModelSpec(terms=(TermSpec("sum"),))
        net = FlowNetwork.empty(3)
        want = conditional_log_pmf(model, np.array([0.5]), net, None, None, (0, 1), 2)
        for v in (2.0, np.float64(2.0), np.float32(2.0), np.int32(2)):
            assert conditional_log_pmf(model, np.array([0.5]), net, None, None, (0, 1), v) == want


class TestPenalizedPseudoLoglik:
    def test_all_zero_network_value(self):
        model = ModelSpec(terms=(TermSpec("sum"),))
        net = FlowNetwork.empty(5)
        sample = census_sample(net)
        value = penalized_pseudo_loglik(model, np.zeros(1), net, None, None,
                                        sample, ridge_lambda=0.0)
        assert value == pytest.approx(-20.0, abs=1e-9)

    def test_penalty_is_exactly_lambda_theta_sq(self, small_data):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 300, seed=3)
        theta = np.array([-0.5, 0.2, 0.1, -0.4, 0.2])
        v0 = penalized_pseudo_loglik(model, theta, net, nodes, dyads, sample, 0.0)
        v1 = penalized_pseudo_loglik(model, theta, net, nodes, dyads, sample, 0.01)
        assert v1 - v0 == pytest.approx(-0.01 * float(theta @ theta), abs=1e-12)

    def test_value_equals_sum_of_conditionals(self, small_data):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 40, seed=7)
        theta = np.array([-0.6, 0.3, 0.05, -0.5, 0.2])
        value = penalized_pseudo_loglik(model, theta, net, nodes, dyads, sample, 0.0)
        direct = sum(w * conditional_log_pmf(model, theta, net, nodes, dyads,
                                             (i, j), net.value(i, j))
                     for (i, j), w in zip(pairs(sample), sample.weights))
        assert value == pytest.approx(direct, rel=1e-9)

    def test_gradient_and_hessian_match_finite_differences(self):
        rng = np.random.default_rng(42)
        n = 10
        mat = rng.poisson(1.5, (n, n))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        z = rng.normal(0, 1, (n, n))
        z = (z + z.T) / 2
        np.fill_diagonal(z, 0)
        dyads = DyadCovariateSet(n, {"z": z})
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero"),
                                 TermSpec("mutual_min"), TermSpec("waypoint_flow"),
                                 TermSpec("dyad", "z")))
        sample = stratified_dyad_sample(net, 60, seed=3)
        theta = rng.normal(0, 0.2, 5)

        def value(t):
            return penalized_pseudo_loglik(model, t, net, None, dyads, sample, 0.01)

        def grad(t):
            return penalized_pseudo_loglik(model, t, net, None, dyads, sample,
                                           0.01, gradient=True)[1]

        _, g, h = penalized_pseudo_loglik(model, theta, net, None, dyads,
                                          sample, 0.01, gradient=True,
                                          hessian=True)
        assert relative_error(g, central_gradient(value, theta)) < 1e-6
        assert relative_error(h, central_hessian(grad, theta)) < 1e-6

    def test_matches_growing_grid_oracle_on_heavy_counts(self):
        # counts ~ Poisson(40) with a third of the dyads zeroed; the last
        # theta puts segment means near e^8.6, far past the old support
        # ceiling of ten times the largest edge
        rng = np.random.default_rng(77)
        n = 30
        mat = rng.poisson(40.0, (n, n)) * (rng.random((n, n)) < 0.7)
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        z = rng.normal(0, 1, (n, n))
        np.fill_diagonal(z, 0)
        dyads = DyadCovariateSet(n, {"z": z})
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero"),
                                 TermSpec("mutual_min"), TermSpec("waypoint_flow"),
                                 TermSpec("dyad", "z")))
        payloads = [("sum", None), ("nonzero", None), ("mutual_min", None),
                    ("waypoint_flow", None), ("dyad", z)]
        sample = stratified_dyad_sample(net, 500, seed=4)
        assert 10 * net.max_value < math.exp(8.0)
        thetas = [np.array([3.4, 0.8, 0.004, 0.0005, 0.1]),
                  np.array([1.0, -2.0, -0.3, 0.01, -0.5]),
                  np.array([7.6, -1.0, 0.02, -0.002, 0.5])]
        for theta in thetas:
            got = penalized_pseudo_loglik(model, theta, net, None, dyads, sample,
                                          0.01, gradient=True, hessian=True)
            want = grid_pseudo_loglik(payloads, mat, theta, pairs(sample),
                                      sample.weights, ridge_lambda=0.01)
            for g, w in zip(got, want):
                assert relative_error(g, w) < 1e-10

    def test_empty_sample_rejected(self, small_data):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 10, seed=0)
        sample.src = sample.src[:0]
        sample.dst = sample.dst[:0]
        sample.weights = sample.weights[:0]
        with pytest.raises(EstimationError, match="empty"):
            penalized_pseudo_loglik(model, np.zeros(5), net, nodes, dyads, sample)

    @pytest.mark.parametrize("shape", [{}, {"gradient": True}, {"hessian": True},
                                       {"gradient": True, "hessian": True}])
    def test_non_finite_value_raises_for_every_return_shape(self, small_data, shape):
        # e^800 overflows every normalizer
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 100, seed=0)
        theta = np.array([800.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(EstimationError, match="non-finite"):
            penalized_pseudo_loglik(model, theta, net, nodes, dyads, sample, **shape)

    @pytest.mark.parametrize("ridge", [math.nan, math.inf, "x"])
    def test_non_finite_ridge_rejected(self, small_data, ridge):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 100, seed=0)
        with pytest.raises(ValidationError, match="ridge_lambda must be >= 0 and finite"):
            penalized_pseudo_loglik(model, np.zeros(5), net, nodes, dyads, sample, ridge)

    def test_negative_ridge_rejected(self, small_data):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 100, seed=0)
        with pytest.raises(ValidationError, match="ridge_lambda"):
            penalized_pseudo_loglik(model, np.zeros(5), net, nodes, dyads, sample, -0.1)
        with pytest.raises(ValidationError, match="ridge_lambda"):
            fit_mple(model, net, nodes, dyads, sample, ridge_lambda=-0.1)


class TestChunkStorage:
    MODEL = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero"),
                             TermSpec("mutual_min"), TermSpec("waypoint_flow")))

    @staticmethod
    def passes(monkeypatch, chunk, theta, n_passes=2):
        """The (lo, hi, c, d) of ``chunk.cs.segment_terms`` in each of
        ``n_passes`` calls of :func:`_dyad_state`, and its last result."""
        cs, seen = chunk.cs, []

        def recorded(s):
            seen.append(ChangeStats.segment_terms(cs, s))
            return seen[-1]
        monkeypatch.setattr(cs, "segment_terms", recorded)
        for _ in range(n_passes):
            state = _dyad_state(chunk, theta, chunk.y)
        assert len(seen) == n_passes
        return seen, state

    @pytest.mark.parametrize("records, width", [
        ([(0, 1, 3), (1, 0, 2), (1, 2, 5), (2, 3, 1), (3, 1, 4)], np.int32),
        # volumes past 2**31 - 1, which int32 cannot hold
        ([(0, 1, 3_000_000_000), (1, 0, 7), (1, 2, 5), (2, 0, 2_500_000_000)], np.int64),
    ])
    def test_segments_are_rebuilt_exactly(self, monkeypatch, records, width):
        # a chunk stores y and y_ji and rebuilds every segment quantity on each pass
        net = build_network(records, n_nodes=4)
        sample = census_sample(net)
        cs = ChangeStats(self.MODEL, net)
        s = neighbourhood(net, sample.src, sample.dst)
        assert width is (np.int32 if max(a.max() for a in s) <= np.iinfo(np.int32).max
                         else np.int64)
        _lo, hi, c, d = want = cs.segment_terms(s)
        assert d.dtype == np.int8
        chunk = _network_chunk(cs, net, sample.src, sample.dst, sample.weights)
        assert chunk.y.dtype == chunk.y_ji.dtype == np.int64
        assert not hasattr(chunk, "lo")
        seen, (*_, c_pass, d_pass, nl_obs) = self.passes(monkeypatch, chunk, np.zeros(4))
        for got in seen:
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert d_pass.dtype == np.int8
        assert np.array_equal(c_pass, c) and np.array_equal(d_pass, d)
        y = net.values_at(sample.src, sample.dst).astype(np.float64)
        rows, at = np.arange(len(y)), np.sum(hi < y[:, None], axis=1)
        assert np.array_equal(nl_obs, c[rows, at] + d[rows, at] * y[:, None])
        # the chunk's own arrays, not views of the sample's or the network's
        shared = (sample.src, sample.dst, sample.weights, cs.lin_pos, cs.nonlin_pos,
                  net.out_volumes(), net.in_volumes())
        own = sum(a.nbytes for a in vars(chunk).values() if isinstance(a, np.ndarray)
                  and not any(np.shares_memory(a, b) for b in shared))
        assert own == (8 * len(cs.lin_pos) + 8 + 8) * len(y)  # x, y and y_ji
        assert own <= 96 * len(y)

    def test_counts_past_2_53_are_kept_exactly(self, monkeypatch):
        net = build_network([("A", "B", 2**53 + 1), ("C", "B", 2), ("B", "C", 1)],
                            node_ids=["A", "B", "C"])
        cs = ChangeStats(ModelSpec(terms=(TermSpec("sum"), TermSpec("waypoint_flow"))), net)
        sample = census_sample(net)
        chunk = _network_chunk(cs, net, sample.src, sample.dst, sample.weights)
        ab = pairs(sample).index((0, 1))
        assert chunk.y.dtype == np.int64 and int(chunk.y[ab]) == 2**53 + 1
        lo = cs.segment_bounds(neighbourhood(net, sample.src, sample.dst)).astype(np.float64)
        seen, _state = self.passes(monkeypatch, chunk, np.zeros(2))
        for got in seen:
            assert got[0].dtype == np.float64 and np.array_equal(got[0], lo)


class TestChainStateConditional:
    def test_matches_the_snapshot_network(self):
        # a chunk gathered from a chain's state row, not from a network
        model = TestChunkStorage.MODEL
        theta = np.array([0.3, -0.8, 0.4, 0.1])
        n, nn = 6, 36
        run = mcmc_simulate(model, theta, None, None, FlowNetwork.empty(n),
                            ChainConfig(n_networks=1, seed=4))
        snapshot = run.networks[0]
        assert snapshot.n_edges
        row = _dense_state(snapshot, 1)[0]
        ii, jj = np.nonzero(~np.eye(n, dtype=bool))
        chunk = _Chunk(ChangeStats(model, snapshot), ii, jj, np.ones(len(ii)),
                       row[ii * n + jj], row[jj * n + ii], row[nn:nn + n], row[nn + n:])
        for v in (0, 1, 4):
            got = _dyad_state(chunk, theta, np.full(len(ii), float(v)))[0]
            want = [conditional_log_pmf(model, theta, snapshot, None, None, (i, j), v)
                    for i, j in zip(ii.tolist(), jj.tolist())]
            assert got.tolist() == want, v


class TestThreadPool:
    BLAS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

    @pytest.mark.parametrize("env, cpus", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 5),
        ({"MKL_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": " 1 "}, 6),
        ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 5),
        ({"OPENBLAS_NUM_THREADS": "-1", "MKL_NUM_THREADS": "1.5"}, 1),
        ({"OPENBLAS_NUM_THREADS": "32"}, 1),
    ])
    def test_cpus_are_those_blas_leaves_idle(self, monkeypatch, env, cpus):
        # BLAS threads cost the chunk workers nothing, so BLAS leaves every CPU
        # of the affinity set to the pool, whatever the BLAS variables say
        monkeypatch.setattr(estimator_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        for var in self.BLAS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert estimator_mod._cpus() == cpus

    def test_cpus_without_affinity_counts_every_cpu(self, monkeypatch):
        monkeypatch.delattr(estimator_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(estimator_mod.os, "cpu_count", lambda: 4)
        assert estimator_mod._cpus() == 4

    def test_pool_never_exceeds_8_workers(self, monkeypatch):
        monkeypatch.setattr(estimator_mod, "_cpus", lambda: 64)
        lock, running, most = threading.Lock(), [0], [0]

        def work(item):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.02)
            with lock:
                running[0] -= 1
            return item

        assert estimator_mod._thread_map(work, list(range(40))) == list(range(40))
        assert 2 <= most[0] <= 8


class TestFitMple:
    def test_newton_halves_an_overshooting_step(self, small_data):
        # from theta_sum = -6 the full Newton step overshoots, so the line
        # search halves; the rejected candidate's derivatives overflow, which
        # must not warn (CI runs the suite with -W error)
        model, _theta, net, _lag, nodes, dyads = small_data
        chunks = _chunks(model, net, nodes, dyads, stratified_dyad_sample(net, 400, seed=1))
        calls = []

        def objective(t):
            calls.append(t)
            return _objective(chunks, t, 0.01, 2)

        _theta, _value, grad, _hess, iterations = _newton(
            objective, np.array([-6.0, 0.0, 0.0, 0.0, 0.0]), 1e-6, 50, [])
        assert float(np.abs(grad).max()) < 1e-6
        assert len(calls) > iterations + 1  # at least one halving

    def test_newton_rejects_non_finite_derivatives_at_an_accepted_step(self):
        def objective(t):  # value -(t - 1)^2, whose Hessian is NaN off the start
            hess = np.full((1, 1), -2.0 if t[0] == 0.0 else np.nan)
            return -float((t - 1.0) @ (t - 1.0)), -2.0 * (t - 1.0), hess

        with pytest.raises(EstimationError, match="non-finite .* derivatives"):
            _newton(objective, np.zeros(1), 1e-6, 5, [])

    def test_newton_notes_a_stalled_step_halving(self):
        def objective(t):  # the gradient points uphill, but every step falls
            return -float(t @ t) - float(t[0] != 0.0), np.ones(1), -np.eye(1)

        notes = []
        theta, value, _grad, _hess, iterations = _newton(objective, np.zeros(1), 1e-6, 5,
                                                         notes, "Poisson start ")
        assert notes == ["Poisson start step halving stalled at iteration 1"]
        assert theta.tolist() == [0.0] and value == 0.0 and iterations == 1

    def test_objective_memory_does_not_grow_with_the_chunk_count(self, monkeypatch):
        # value and derivatives are taken chunk by chunk, so one evaluation
        # holds one chunk's state whatever the number of chunks; one worker,
        # since how many chunks overlap on several depends on thread timing
        # (the growth with the worker count is the next test's)
        monkeypatch.setattr(estimator_mod, "_cpus", lambda: 1)
        monkeypatch.setattr(estimator_mod, "_CHUNK_DYADS", 512)
        rng = np.random.default_rng(3)
        mat = rng.poisson(0.6, (150, 150))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero"),
                                 TermSpec("mutual_min"), TermSpec("waypoint_flow")))
        chunks = _chunks(model, net, None, None, stratified_dyad_sample(net, 40 * 512, seed=2))
        assert len(chunks) == 40
        theta = np.array([-0.5, 0.2, 0.1, -0.01])
        _objective(chunks[:1], theta, 0.01, 2)  # one-time allocations stay out of the readings

        def peak(part):
            tracemalloc.start()
            try:
                _objective(part, theta, 0.01, 2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(chunks) <= 1.25 * peak(chunks[:2])

    @pytest.mark.parametrize("workers", [1, 3, 8, 16])
    def test_objective_memory_is_one_chunk_per_worker(self, monkeypatch, workers):
        # a worker holds one chunk's state at a time, and at most 8 work at once
        monkeypatch.setattr(estimator_mod, "_CHUNK_DYADS", 512)
        rng = np.random.default_rng(3)
        mat = rng.poisson(0.6, (150, 150))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero"),
                                 TermSpec("mutual_min"), TermSpec("waypoint_flow")))
        chunks = _chunks(model, net, None, None, stratified_dyad_sample(net, 40 * 512, seed=2))
        theta = np.array([-0.5, 0.2, 0.1, -0.01])
        _objective(chunks[:1], theta, 0.01, 2)  # one-time allocations stay out of the readings

        def peak(part, cpus):
            monkeypatch.setattr(estimator_mod, "_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                _objective(part, theta, 0.01, 2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(chunks, workers) <= 1.25 * min(workers, 8) * peak(chunks[:1], 1)

    @pytest.mark.parametrize("theta", [[-0.9, 0.3, 0.1, -0.8, 0.25],
                                       [400.0, -400.0, 0.0, 0.0, 0.0]])  # overflows
    def test_objective_bytes_do_not_depend_on_the_worker_count(self, small_data, monkeypatch,
                                                                theta):
        # one worker takes each chunk's sums and the caller adds them in
        # chunk order, and each worker keeps the caller's error state, so
        # the overflowing theta stays silent under the error filter
        model, _theta, net, _lag, nodes, dyads = small_data
        monkeypatch.setattr(estimator_mod, "_CHUNK_DYADS", 128)
        chunks = _chunks(model, net, nodes, dyads, stratified_dyad_sample(net, 400, seed=1))
        assert len(chunks) >= 3

        def evaluations(workers):
            monkeypatch.setattr(estimator_mod, "_cpus", lambda: workers)
            with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
                warnings.simplefilter("error")
                return [[None if part is None else np.asarray(part).tobytes()
                         for part in _objective(chunks, np.array(theta), 0.01, order)]
                        for order in (0, 1, 2)]

        one = evaluations(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads swap often, so a lost write would show
        try:
            assert evaluations(3) == one
            assert evaluations(8) == one
        finally:
            sys.setswitchinterval(interval)

    def test_fit_bytes_do_not_depend_on_the_worker_count(self, small_data, monkeypatch):
        model, _theta, net, _lag, nodes, dyads = small_data
        monkeypatch.setattr(estimator_mod, "_CHUNK_DYADS", 128)
        sample = stratified_dyad_sample(net, 400, seed=1)
        threads = threading.active_count()

        def fit(workers):
            monkeypatch.setattr(estimator_mod, "_cpus", lambda: workers)
            result = fit_mple(model, net, nodes, dyads, sample)
            assert threading.active_count() == threads  # no worker outlives the fit
            return json.dumps(result.to_json_dict()), result.theta.tobytes()

        assert fit(1) == fit(3)

    def test_sum_only_recovers_log_mean(self):
        rng = np.random.default_rng(0)
        n = 15
        mat = rng.poisson(2.5, (n, n))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        fit = fit_mple(ModelSpec(terms=(TermSpec("sum"),)), net, None, None,
                       census_sample(net), ridge_lambda=0.0)
        mean = mat[~np.eye(n, dtype=bool)].mean()
        assert fit.converged
        assert fit.theta[0] == pytest.approx(math.log(mean), abs=1e-8)

    def test_matches_irls_poisson_oracle(self):
        rng = np.random.default_rng(11)
        n = 60
        d1 = rng.normal(0, 1, (n, n))
        d2 = rng.uniform(-1, 1, (n, n))
        np.fill_diagonal(d1, 0)
        np.fill_diagonal(d2, 0)
        off = ~np.eye(n, dtype=bool)
        rate = np.exp(-0.3 + 0.5 * d1 - 0.7 * d2)
        mat = rng.poisson(rate)
        mat[~off] = 0
        net = FlowNetwork.from_dense(mat)
        dyads = DyadCovariateSet(n, {"d1": d1, "d2": d2})
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "d1"),
                                 TermSpec("dyad", "d2")))
        fit = fit_mple(model, net, None, dyads, census_sample(net),
                       ridge_lambda=0.0, tol=1e-9)
        oracle = irls_poisson(
            np.column_stack([np.ones(off.sum()), d1[off], d2[off]]),
            mat[off])
        assert fit.converged
        assert np.abs(fit.theta - oracle).max() < 1e-6
        # the Poisson start is the optimum of a model without dependence terms
        assert fit.iterations == 0
        assert fit.diagnostics["start_iterations"] > 0

    def test_full_stage_finishes_from_the_poisson_start(self, adequacy_data):
        # nonzero and mutual_min are far from 0 here, so the full stage has
        # work left after the Poisson start
        model, _theta, net, _lag, nodes, dyads = adequacy_data
        sample = census_sample(net)
        fit = fit_mple(model, net, nodes, dyads, sample, tol=1e-6)
        _value, grad = penalized_pseudo_loglik(model, fit.theta, net, nodes, dyads, sample,
                                               ridge_lambda=0.01, gradient=True)
        assert fit.converged
        assert np.abs(grad).max() < 1e-6
        assert fit.iterations <= 4
        short = fit_mple(model, net, nodes, dyads, sample, max_iter=1)
        assert short.diagnostics["start_iterations"] == 1
        assert short.iterations == 1
        assert any(n.startswith("Poisson start not converged")
                   for n in short.diagnostics["notes"])

    @pytest.mark.parametrize("option, match", [
        ({"tol": 0}, "tol must be > 0"), ({"tol": -1.0}, "tol must be > 0"),
        ({"tol": math.nan}, "tol must be > 0"),
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"max_iter": -3}, "max_iter must be >= 1"),
        ({"max_iter": 2.5}, "max_iter must be >= 1 and an integer"),
        ({"max_iter": True}, "max_iter must be >= 1 and an integer"),
        ({"tol": "x"}, "tol must be > 0"),
        ({"ridge_lambda": math.nan}, "ridge_lambda must be >= 0 and finite"),
        ({"ridge_lambda": math.inf}, "ridge_lambda must be >= 0 and finite"),
        ({"ridge_lambda": "x"}, "ridge_lambda must be >= 0 and finite")])
    def test_tol_and_max_iter_out_of_range_rejected(self, small_data, option, match):
        model, _theta, net, _lag, nodes, dyads = small_data
        with pytest.raises(ValidationError, match=match):
            fit_mple(model, net, nodes, dyads, census_sample(net), **option)

    def test_model_without_linear_terms_starts_at_zero(self, small_data):
        model = ModelSpec(terms=(TermSpec("nonzero"), TermSpec("mutual_min")))
        _model, _theta, net, _lag, nodes, dyads = small_data
        fit = fit_mple(model, net, nodes, dyads, census_sample(net))
        assert fit.converged
        assert fit.diagnostics["start_iterations"] == 0

    def test_ridge_shrinkage_monotone(self, small_data):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 800, seed=5)
        norms = [np.linalg.norm(fit_mple(model, net, nodes, dyads, sample,
                                         ridge_lambda=lam).theta)
                 for lam in (0.0, 0.01, 0.1, 1.0)]
        for a, b in zip(norms, norms[1:]):
            assert a >= b - 1e-6

    def test_rate_invariance_under_covariate_shift(self, small_data):
        # shifting a node covariate by a constant reparameterizes the
        # intercept; fitted per-dyad rates are unchanged
        _model, _theta, net, _lag, nodes, dyads = small_data
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("node_out", "psr")))
        sample = census_sample(net)
        fit_a = fit_mple(model, net, nodes, dyads, sample, ridge_lambda=0.0)

        import ergmflow

        shifted = ergmflow.NodeTable(
            ids=nodes.ids, state=nodes.state, region=nodes.region,
            population=nodes.population, density=nodes.density,
            psr=nodes.psr + 5.0, racial_shares=nodes.racial_shares,
            renter_pct=nodes.renter_pct, highered_pct=nodes.highered_pct,
            unemployment_pct=nodes.unemployment_pct, rural_pct=nodes.rural_pct,
            democrat_poll_pct=nodes.democrat_poll_pct,
            immigrant_inflow=nodes.immigrant_inflow)
        fit_b = fit_mple(model, net, shifted, dyads, sample, ridge_lambda=0.0)
        psr = nodes.psr
        rates_a = fit_a.theta[0] + fit_a.theta[1] * psr
        rates_b = fit_b.theta[0] + fit_b.theta[1] * (psr + 5.0)
        assert np.abs(np.exp(rates_a) - np.exp(rates_b)).max() < 1e-8

    def test_divergence_guard(self):
        # a covariate on a vanishing scale sends its coefficient past the
        # norm guard; the fit aborts with a diagnostic instead of looping
        rng = np.random.default_rng(2)
        n = 8
        zt = rng.normal(0, 1, (n, n))
        np.fill_diagonal(zt, 0)
        mat = rng.poisson(np.exp(0.5 + 2.0 * zt))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        dyads = DyadCovariateSet(n, {"z": 1e-8 * zt})
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "z")))
        with pytest.raises(EstimationError, match="diverging"):
            fit_mple(model, net, None, dyads, census_sample(net),
                     ridge_lambda=0.0, max_iter=200)

    def test_singular_hessian_reported_not_fabricated(self):
        # duplicated covariate makes the unpenalized Hessian singular
        rng = np.random.default_rng(4)
        n = 12
        mat = rng.poisson(1.0, (n, n))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        z = rng.normal(0, 1, (n, n))
        np.fill_diagonal(z, 0)
        dyads = DyadCovariateSet(n, {"a": z, "b": z})
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "a"),
                                 TermSpec("dyad", "b")))
        fit = fit_mple(model, net, None, dyads, census_sample(net),
                       ridge_lambda=0.0, max_iter=10)
        assert not fit.converged
        assert np.isnan(fit.std_errors).all()
        assert "hessian_condition" in fit.diagnostics

    def test_subsampled_estimates_near_census(self, coverage_data):
        model, _theta, net, _lag, nodes, dyads = coverage_data
        census_fit = fit_mple(model, net, nodes, dyads, census_sample(net))
        covered = 0
        total = 0
        for seed in range(8):
            sub = stratified_dyad_sample(net, int(0.2 * net.n_dyads),
                                         seed=300 + seed)
            fit = fit_mple(model, net, nodes, dyads, sub)
            ok = np.abs(fit.theta - census_fit.theta) <= 2 * fit.std_errors
            covered += int(ok.sum())
            total += len(ok)
        assert covered / total >= 0.85


class TestPseudoBic:
    def test_deterministic(self, small_data):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 400, seed=11)
        a = fit_mple(model, net, nodes, dyads, sample)
        b = fit_mple(model, net, nodes, dyads, sample)
        assert pseudo_bic(a) == pseudo_bic(b)
        assert a.pseudo_bic == pseudo_bic(a)

    def test_effective_n_default_is_weight_total(self, small_data):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 400, seed=11)
        fit = fit_mple(model, net, nodes, dyads, sample)
        want = -2.0 * fit.unpenalized_pll + model.n_terms * math.log(sample.weight_total)
        assert pseudo_bic(fit) == pytest.approx(want)

    def test_requires_convergence(self, small_data):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 400, seed=11)
        fit = fit_mple(model, net, nodes, dyads, sample)
        fit.converged = False
        with pytest.raises(EstimationError):
            pseudo_bic(fit)

    def test_weight_total_of_one_rejected(self, small_data):
        model, _theta, net, _lag, nodes, dyads = small_data
        fit = fit_mple(model, net, nodes, dyads, stratified_dyad_sample(net, 400, seed=11))
        fit.sample_meta["weight_total"] = 1.0
        with pytest.raises(ValidationError, match="weight total above 1"):
            pseudo_bic(fit)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_not_reported_for_weight_total_of_one(self, seed):
        # one dyad of a two-node network: its stratum's total is the weight total
        net = build_network([(1, 0, 2)], n_nodes=2)
        sample = stratified_dyad_sample(net, 1, seed)
        assert sample.weight_total == 1.0
        fit = fit_mple(ModelSpec(terms=(TermSpec("sum"),)), net, None, None, sample)
        assert fit.converged and np.all(np.isfinite(fit.theta))
        assert math.isnan(fit.pseudo_bic)

    def test_not_reported_for_unconverged_fit(self, small_data, tmp_path):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 400, seed=11)
        fit = fit_mple(model, net, nodes, dyads, sample, max_iter=1)
        assert not fit.converged
        assert math.isnan(fit.pseudo_bic)
        with pytest.raises(EstimationError):
            pseudo_bic(fit)
        fit.write_json(tmp_path / "fit.json")
        assert json.loads((tmp_path / "fit.json").read_text())["pseudo_bic"] is None

    def test_noise_covariate_raises_bic(self):
        rng = np.random.default_rng(21)
        n = 40
        z = rng.normal(0, 1, (n, n))
        np.fill_diagonal(z, 0)
        rate = np.exp(-0.2 + 0.6 * z)
        raised = 0
        reps = 50
        for r in range(reps):
            mat = rng.poisson(rate)
            np.fill_diagonal(mat, 0)
            net = FlowNetwork.from_dense(mat)
            noise = rng.normal(0, 1, (n, n))
            np.fill_diagonal(noise, 0)
            dyads = DyadCovariateSet(n, {"z": z, "noise": noise})
            base = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "z")))
            wide = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "z"),
                                    TermSpec("dyad", "noise")))
            sample = census_sample(net)
            fit_base = fit_mple(base, net, None, dyads, sample, ridge_lambda=0.0)
            fit_wide = fit_mple(wide, net, None, dyads, sample, ridge_lambda=0.0)
            if pseudo_bic(fit_wide) > pseudo_bic(fit_base):
                raised += 1
        assert raised >= 0.9 * reps


class TestEffectMultiplier:
    def test_additive_pp(self):
        assert effect_multiplier(-0.231, 0.10, "additive_pp") == pytest.approx(
            -2.28, abs=0.01)

    def test_relative(self):
        assert effect_multiplier(0.350, 0.10, "relative") == pytest.approx(3.40, abs=0.01)
        assert effect_multiplier(-0.561, 0.10, "relative") == pytest.approx(-5.21, abs=0.01)

    def test_null_coefficient(self):
        assert effect_multiplier(0.0, 0.37, "additive_pp") == 0.0
        assert effect_multiplier(0.0, 0.37, "relative") == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            effect_multiplier(0.3, -1.5, "relative")
        with pytest.raises(ValidationError):
            effect_multiplier(0.3, 0.1, "multiplicative")
