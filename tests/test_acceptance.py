"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from ergmflow import (ChainConfig, DyadCovariateSet, FlowNetwork, ModelSpec,
                      TermSpec, adequacy_check, build_network, census_sample,
                      conditional_log_pmf, effect_multiplier, fit_mple,
                      knockout_experiment, mutual_min_stat,
                      penalized_pseudo_loglik, stratified_dyad_sample,
                      waypoint_flow_stat)
from ergmflow.sampler import _chain, _groups

from oracles import (brute_mutual_min, brute_waypoint, central_gradient,
                     central_hessian, exact_two_node_distribution,
                     irls_poisson, relative_error)


@contextmanager
def criterion(num, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print("[FAIL] criterion %2d: %s" % (num, description))
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        "criterion %d exceeded its %ds budget (%.1fs)" % (num, budget_s, elapsed))
    print("[PASS] criterion %2d (%6.1fs / %ds): %s"
          % (num, elapsed, budget_s, description))


def _star(n_in, n_out):
    records = [(k + 1, 0, 1) for k in range(n_in)]
    records += [(0, n_in + 1 + k, 1) for k in range(n_out)]
    return build_network(records, n_nodes=n_in + n_out + 1)


def test_c01_statistic_oracles():
    with criterion(1, "mutual_min and waypoint_flow match brute-force "
                      "enumeration exactly", 1):
        assert waypoint_flow_stat(_star(3, 3)) == 3
        assert waypoint_flow_stat(_star(4, 2)) == 2
        assert waypoint_flow_stat(_star(5, 1)) == 1
        rng = np.random.default_rng(101)
        for _ in range(1000):
            mat = rng.poisson(1.2, (6, 6))
            np.fill_diagonal(mat, 0)
            net = FlowNetwork.from_dense(mat)
            assert mutual_min_stat(net) == brute_mutual_min(mat)
            assert waypoint_flow_stat(net) == brute_waypoint(mat)


def test_c02_poisson_reduction():
    with criterion(2, "conditional log-pmf equals closed-form Poisson within "
                      "1e-12 for lambda in {0.1, 1, 7}, v in 0..30", 1):
        model = ModelSpec(terms=(TermSpec("sum"),))
        net = FlowNetwork.empty(4)
        for lam in (0.1, 1.0, 7.0):
            theta = np.array([math.log(lam)])
            for v in range(31):
                got = conditional_log_pmf(model, theta, net, None, None, (0, 1), v)
                want = v * math.log(lam) - lam - math.lgamma(v + 1)
                assert abs(got - want) < 1e-12


def test_c03_glm_equivalence():
    with criterion(3, "census-sample MPLE matches an independent IRLS Poisson "
                      "regression within 1e-6 per coefficient", 30):
        rng = np.random.default_rng(11)
        n = 100
        d1 = rng.normal(0.0, 1.0, (n, n))
        d2 = rng.uniform(-1.0, 1.0, (n, n))
        np.fill_diagonal(d1, 0)
        np.fill_diagonal(d2, 0)
        off = ~np.eye(n, dtype=bool)
        mat = rng.poisson(np.exp(-0.3 + 0.5 * d1 - 0.7 * d2))
        mat[~off] = 0
        net = FlowNetwork.from_dense(mat)
        dyads = DyadCovariateSet(n, {"d1": d1, "d2": d2})
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "d1"),
                                 TermSpec("dyad", "d2")))
        fit = fit_mple(model, net, None, dyads, census_sample(net),
                       ridge_lambda=0.0, tol=1e-9)
        oracle = irls_poisson(
            np.column_stack([np.ones(off.sum()), d1[off], d2[off]]), mat[off])
        assert fit.converged
        assert np.abs(fit.theta - oracle).max() < 1e-6


def test_c04_gradient_check():
    with criterion(4, "analytic gradient and Hessian match central finite "
                      "differences within 1e-6 relative on 10 instances", 30):
        rng = np.random.default_rng(404)
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero"),
                                 TermSpec("mutual_min"),
                                 TermSpec("waypoint_flow"), TermSpec("dyad", "z")))
        for rep in range(10):
            n = 10
            mat = rng.poisson(1.5, (n, n))
            np.fill_diagonal(mat, 0)
            net = FlowNetwork.from_dense(mat)
            z = rng.normal(0, 1, (n, n))
            np.fill_diagonal(z, 0)
            dyads = DyadCovariateSet(n, {"z": z})
            sample = stratified_dyad_sample(net, 60, seed=rep)
            theta = rng.normal(0, 0.2, 5)

            def value(t):
                return penalized_pseudo_loglik(model, t, net, None, dyads,
                                               sample, 0.01)

            def grad(t):
                return penalized_pseudo_loglik(model, t, net, None, dyads,
                                               sample, 0.01, gradient=True)[1]

            _, g, h = penalized_pseudo_loglik(model, theta, net, None, dyads,
                                              sample, 0.01, gradient=True,
                                              hessian=True)
            assert relative_error(g, central_gradient(value, theta)) < 1e-6
            assert relative_error(h, central_hessian(grad, theta)) < 1e-6


def test_c05_subsampling_consistency(coverage_data):
    with criterion(5, "50 seeded 20% tie/no-tie subsample fits cover the "
                      "census estimate within 2 SEs for >= 90% of pairs", 600):
        model, _theta, net, _lag, nodes, dyads = coverage_data
        n_total = int(0.2 * net.n_dyads)
        assert net.n_edges < n_total / 2  # nonzero stratum exhausts, as designed
        census_fit = fit_mple(model, net, nodes, dyads, census_sample(net))
        assert census_fit.converged
        covered = 0
        total = 0
        for seed in range(50):
            sub = stratified_dyad_sample(net, n_total, seed=1000 + seed)
            fit = fit_mple(model, net, nodes, dyads, sub)
            assert fit.converged
            ok = np.abs(fit.theta - census_fit.theta) <= 2.0 * fit.std_errors
            covered += int(ok.sum())
            total += len(ok)
        assert covered / total >= 0.90, "coverage %.3f" % (covered / total)


def test_c06_sampler_exactness():
    with criterion(6, "2-node chain matches exact enumeration within total "
                      "variation 0.02 at 1e6 proposals", 120):
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("mutual_min")))
        theta = np.array([math.log(0.9), 0.35])
        burn = 10_000
        steps = 1_000_000
        # every state after each chain's burn-in, over 8 chains, which pay the
        # per-block cost once between them; on 2 nodes the out-volumes are the state
        cfg = ChainConfig(n_networks=steps, burn_in=burn, thin=1, seed=123, n_chains=8)
        init = FlowNetwork.empty(2)
        run = _chain(_groups(model, [theta], None, None, init), init, cfg)[0]
        a, b = run.out_volumes.T
        keep = (a <= 6) & (b <= 6)
        counts = np.zeros((7, 7))
        np.add.at(counts, (a[keep], b[keep]), 1)
        exact = exact_two_node_distribution(theta[0], theta[1])
        box = exact[:7, :7]
        tv = 0.5 * np.abs(counts / counts.sum() - box / box.sum()).sum()
        assert tv < 0.02, "total variation %.4f" % tv


def test_c07_self_fit_adequacy(adequacy_data):
    with criterion(7, "self-fit adequacy: observed-vs-simulated volume "
                      "correlations >= 0.95 with 100 simulated networks", 600):
        model, _theta, net, _lag, nodes, dyads = adequacy_data
        fit = fit_mple(model, net, nodes, dyads, census_sample(net))
        assert fit.converged
        cfg = ChainConfig(n_networks=100, thin=4 * net.n_dyads, seed=99)
        report = adequacy_check(model, fit.theta, nodes, dyads, net, cfg)
        assert report.in_correlation >= 0.95, report.in_correlation
        assert report.out_correlation >= 0.95, report.out_correlation


def test_c08_knockout_monotonicity(knockout_data):
    with criterion(8, "knocking out a negative dissimilarity coefficient "
                      "raises expected flow in >= 95% of 20 chain pairs", 600):
        model, _theta, net, _lag, nodes, dyads = knockout_data
        fit = fit_mple(model, net, nodes, dyads, census_sample(net))
        assert fit.converged
        assert fit.coefficient("dyad:political_dissim") < 0
        wins = 0
        for rep in range(20):
            cfg = ChainConfig(n_networks=15, seed=7000 + rep)
            report = knockout_experiment(model, fit.theta, nodes, dyads,
                                         {"dyad:political_dissim"}, cfg,
                                         init=net)
            wins += report.counterfactual_mean > report.baseline_mean
        assert wins >= 19, "only %d/20 pairs increased" % wins
        noop = knockout_experiment(model, fit.theta, nodes, dyads, set(),
                                   ChainConfig(n_networks=15, seed=7000),
                                   init=net)
        assert noop.abs_diff == 0.0 and noop.pct_diff == 0.0


def test_c09_effect_multiplier_arithmetic():
    with criterion(9, "effect multipliers reproduce the reported in-text "
                      "percentages within 0.05pp", 1):
        cases = [
            (-0.231, 0.10, "additive_pp", -2.3),
            (0.350, 0.10, "relative", 3.4),
            (0.374, 0.10, "relative", 3.6),
            (-0.561, 0.10, "relative", -5.2),
        ]
        for coef, delta, kind, want in cases:
            got = effect_multiplier(coef, delta, kind)
            assert abs(got - want) < 0.05, (coef, kind, got, want)


def test_c10_ridge_shrinkage(small_data):
    with criterion(10, "fitted coefficient norm is non-increasing in the "
                       "ridge penalty over {0, 0.01, 0.1, 1}", 120):
        model, _theta, net, _lag, nodes, dyads = small_data
        sample = stratified_dyad_sample(net, 800, seed=5)
        norms = []
        for lam in (0.0, 0.01, 0.1, 1.0):
            fit = fit_mple(model, net, nodes, dyads, sample, ridge_lambda=lam)
            assert fit.converged
            norms.append(float(np.linalg.norm(fit.theta)))
        for bigger, smaller in zip(norms, norms[1:]):
            assert bigger >= smaller - 1e-6, norms
