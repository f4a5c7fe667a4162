import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import ergmflow.sampler as sampler_mod
import ergmflow.stats as stats_mod
from ergmflow import (ChainConfig, ChangeStats, FlowNetwork, ModelSpec, TermSpec,
                      ValidationError, adequacy_check, build_network, expected_total_flow,
                      knockout_experiment, mcmc_simulate, statistic_vector)

from oracles import correlate_ess, exact_two_node_distribution, scalar_chain

SUM_ONLY = ModelSpec(terms=(TermSpec("sum"),))


class TestChainBasics:
    def test_seed_determinism(self):
        cfg = ChainConfig(n_networks=5, burn_in=500, thin=100, seed=42)
        theta = np.array([math.log(1.5)])
        a = mcmc_simulate(SUM_ONLY, theta, None, None, FlowNetwork.empty(6), cfg)
        b = mcmc_simulate(SUM_ONLY, theta, None, None, FlowNetwork.empty(6), cfg)
        assert a.networks == b.networks
        assert np.array_equal(a.sum_series, b.sum_series)

    def test_different_seeds_differ(self):
        theta = np.array([math.log(1.5)])
        a = mcmc_simulate(SUM_ONLY, theta, None, None, FlowNetwork.empty(6),
                          ChainConfig(n_networks=5, burn_in=500, thin=100, seed=1))
        b = mcmc_simulate(SUM_ONLY, theta, None, None, FlowNetwork.empty(6),
                          ChainConfig(n_networks=5, burn_in=500, thin=100, seed=2))
        assert a.networks != b.networks

    def test_sum_series_matches_networks(self):
        cfg = ChainConfig(n_networks=8, burn_in=300, thin=50, seed=3)
        theta = np.array([math.log(2.0)])
        run = mcmc_simulate(SUM_ONLY, theta, None, None, FlowNetwork.empty(5), cfg)
        assert [net.total_flow for net in run.networks] == run.sum_series.tolist()

    def test_recorded_volumes_match_networks(self, small_data):
        model, theta, current, _lag, nodes, dyads = small_data
        cfg = ChainConfig(n_networks=4, burn_in=2000, thin=500, seed=8)
        run = mcmc_simulate(model, theta, nodes, dyads, current, cfg)
        assert run.in_volumes.shape == run.out_volumes.shape == (4, current.n_nodes)
        for k, net in enumerate(run.networks):
            assert np.array_equal(run.in_volumes[k], net.in_volumes())
            assert np.array_equal(run.out_volumes[k], net.out_volumes())

    def test_incremental_state_matches_recomputation(self, small_data):
        model, theta, current, _lag, nodes, dyads = small_data
        cfg = ChainConfig(n_networks=3, burn_in=2000, thin=500, seed=11)
        run = mcmc_simulate(model, theta, nodes, dyads, current, cfg)
        for net in run.networks:
            g = statistic_vector(model, net, nodes, dyads)
            assert g[0] == net.total_flow

    def test_theta_length_checked(self):
        with pytest.raises(ValidationError):
            mcmc_simulate(SUM_ONLY, np.array([0.0, 1.0]), None, None,
                          FlowNetwork.empty(3), ChainConfig(n_networks=1))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ChainConfig(n_networks=0)
        with pytest.raises(ValidationError):
            ChainConfig(n_networks=1, burn_in=0)
        with pytest.raises(ValidationError, match="thin"):
            ChainConfig(n_networks=1, thin=0)
        with pytest.raises(ValidationError, match="n_chains"):
            ChainConfig(n_chains=0)
        for field, value in [("n_networks", 2.5), ("n_networks", True),
                             ("n_networks", np.bool_(True)), ("n_chains", 1.5),
                             ("burn_in", 6.9), ("thin", 2.0), ("thin", False),
                             ("seed", -1), ("seed", 1.0), ("seed", True), ("seed", "7")]:
            with pytest.raises(ValidationError, match=field):
                ChainConfig(**{field: value})
        # numpy integers count as integers, and a SeedSequence as a seed
        ChainConfig(n_networks=np.int64(3), n_chains=np.int32(2), burn_in=np.uint8(9),
                    thin=np.int16(4), seed=np.uint64(2 ** 63))
        ChainConfig(seed=np.random.SeedSequence(5))

    def test_single_node_rejected_by_every_entry_point(self):
        one = FlowNetwork.empty(1)
        cfg = ChainConfig(n_networks=2, burn_in=10, thin=5)
        theta = np.array([0.0])
        for run in (lambda: mcmc_simulate(SUM_ONLY, theta, None, None, one, cfg),
                    lambda: adequacy_check(SUM_ONLY, theta, None, None, one, cfg),
                    lambda: expected_total_flow(SUM_ONLY, theta, None, None, cfg,
                                                init=one),
                    lambda: knockout_experiment(SUM_ONLY, theta, None, None,
                                                {"sum"}, cfg, init=one)):
            with pytest.raises(ValidationError, match="at least 2 nodes"):
                run()

    def test_unusable_poisson_mean_names_the_dyad(self):
        cfg = ChainConfig(n_networks=1, burn_in=10, thin=1)
        init = FlowNetwork.empty(3, node_ids=("a", "b", "c"))
        # exp(800) overflows; exp(44) is too large for numpy's Poisson draw;
        # exp(43) is not, but six such dyads would pass the 2^52 total below
        # which the chain's float64 arithmetic is exact
        for log_rate in (800.0, 44.0, 43.0):
            with pytest.raises(ValidationError, match="dyad 'a' -> 'b'"):
                mcmc_simulate(SUM_ONLY, np.array([log_rate]), None, None, init, cfg)

    def test_poisson_mean_check_skips_the_diagonal(self):
        rate = np.zeros((3, 3))
        np.fill_diagonal(rate, 1000.0)
        lam = sampler_mod._proposal_means(rate, None)
        assert np.array_equal(lam, 1.0 - np.eye(3))
        rate[1, 2] = 1000.0
        with pytest.raises(ValidationError, match="dyad 1 -> 2"):
            sampler_mod._proposal_means(rate, None)

    def test_node_ids_carried_through(self):
        init = FlowNetwork.empty(3, node_ids=("a", "b", "c"))
        run = mcmc_simulate(SUM_ONLY, np.array([0.0]), None, None, init,
                            ChainConfig(n_networks=2, burn_in=50, thin=20, seed=0))
        assert run.networks[0].node_ids == ("a", "b", "c")


class TestPoissonTarget:
    def test_per_dyad_mean(self):
        # with only a sum term the dyads are independent Poisson(exp(theta))
        n = 10
        d = n * (n - 1)
        cfg = ChainConfig(n_networks=60, burn_in=40 * d, thin=2 * d, seed=7)
        run = mcmc_simulate(SUM_ONLY, np.array([math.log(2.0)]), None, None,
                            FlowNetwork.empty(n), cfg)
        means = run.sum_series / d
        se = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean() - 2.0) <= 3 * max(se, 1e-3)

    def test_variance_matches_mean(self):
        n = 8
        d = n * (n - 1)
        cfg = ChainConfig(n_networks=120, burn_in=40 * d, thin=2 * d, seed=17)
        run = mcmc_simulate(SUM_ONLY, np.array([math.log(1.5)]), None, None,
                            FlowNetwork.empty(n), cfg)
        values = np.concatenate([net.dense_matrix()[~np.eye(n, dtype=bool)]
                                 for net in run.networks]).astype(float)
        assert values.var() == pytest.approx(values.mean(), rel=0.1)

    def test_mean_sum_is_exact_without_dependence(self, knockout_data):
        # with linear terms only every proposal is an exact Poisson draw, so
        # E[Sum] = sum over i != j of exp(rate_ij)
        _model, theta, current, _lag, nodes, dyads = knockout_data
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "political_dissim"),
                                 TermSpec("node_out", "log_population"),
                                 TermSpec("node_in", "log_population")))
        theta = np.delete(theta, 1)  # the knockout model's nonzero term
        rate = ChangeStats(model, current, nodes, dyads).linear_rate_matrix(theta)
        exact = np.exp(rate)[~np.eye(current.n_nodes, dtype=bool)].sum()
        mean, se = expected_total_flow(model, theta, nodes, dyads,
                                       ChainConfig(n_networks=200, seed=13),
                                       init=current)
        assert abs(mean - exact) <= 4 * se

    def test_three_node_waypoint_chain_matches_enumeration(self):
        # validates the chain's waypoint deltas and volume bookkeeping
        # against exact enumeration of the full 6-dyad state space
        from scipy.special import gammaln

        grid = 8
        vals = np.indices((grid + 1,) * 6).reshape(6, -1)
        v01, v02, v10, v12, v20, v21 = vals
        wp = (np.minimum(v01 + v02, v10 + v20)
              + np.minimum(v10 + v12, v01 + v21)
              + np.minimum(v20 + v21, v02 + v12))
        tot = vals.sum(axis=0)
        th_s, th_w = math.log(0.7), 0.25
        logw = th_s * tot + th_w * wp - gammaln(vals + 1).sum(axis=0)
        p = np.exp(logw - logw.max())
        p /= p.sum()
        exact_tot = float(p @ tot)
        exact_wp = float(p @ wp)

        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("waypoint_flow")))
        burn = 20_000
        steps = 500_000
        # every 10th state after each chain's burn-in, read from the recorded
        # volumes of 8 chains, which pay the per-block cost once between them
        cfg = ChainConfig(n_networks=steps // 10, burn_in=burn, thin=10, seed=77,
                          n_chains=8)
        init = FlowNetwork.empty(3)
        run = sampler_mod._chain(sampler_mod._groups(
            model, [np.array([th_s, th_w])], None, None, init), init, cfg)[0]
        wps = np.minimum(run.out_volumes, run.in_volumes).sum(axis=1)
        tots = run.out_volumes.sum(axis=1)

        def batch_se(x):
            x = np.asarray(x, float)
            b = int(math.sqrt(len(x)))
            k = len(x) // b
            return x[: b * k].reshape(b, k).mean(axis=1).std(ddof=1) / math.sqrt(b)

        assert abs(np.mean(tots) - exact_tot) <= 4 * batch_se(tots)
        assert abs(np.mean(wps) - exact_wp) <= 4 * batch_se(wps)

    def test_two_node_chain_matches_enumeration(self):
        # short version of the acceptance run: 200k proposals, once without
        # and once with a nonzero term, whose delta is otherwise unchecked
        def two_node_tv(model, theta, exact):
            # every state after each chain's burn-in, over 8 chains as in c06;
            # on 2 nodes the out-volumes are the state
            burn = 5000
            steps = 200_000
            cfg = ChainConfig(n_networks=steps, burn_in=burn, thin=1, seed=5, n_chains=8)
            init = FlowNetwork.empty(2)
            run = sampler_mod._chain(sampler_mod._groups(model, [theta], None, None, init),
                                     init, cfg)[0]
            a, b = run.out_volumes.T
            keep = (a <= 6) & (b <= 6)
            counts = np.zeros((7, 7))
            np.add.at(counts, (a[keep], b[keep]), 1)
            box = exact[:7, :7]
            return 0.5 * np.abs(counts / counts.sum() - box / box.sum()).sum()

        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("mutual_min")))
        theta = np.array([math.log(0.9), 0.35])
        exact = exact_two_node_distribution(theta[0], theta[1])
        assert two_node_tv(model, theta, exact) < 0.04

        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero"),
                                 TermSpec("mutual_min")))
        theta = np.array([math.log(1.6), -1.2, 0.35])
        exact = exact_two_node_distribution(theta[0], theta[2], theta_nonzero=theta[1])
        assert two_node_tv(model, theta, exact) < 0.04


class TestBlockKernel:
    DEPENDENCE = {"nonzero": -0.9, "mutual_min": 0.45, "waypoint_flow": -0.2}

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 40])
    @pytest.mark.parametrize("kinds", [("nonzero",), ("mutual_min",), ("waypoint_flow",),
                                       ("nonzero", "mutual_min", "waypoint_flow")])
    def test_block_kernel_matches_scalar_loop(self, n, kinds):
        # the same (dyad, v', e) sequence in schedule order through both, for
        # one chain, for three side by side, and for two row groups of two
        # chains whose second group zeroes the first term, each chain from
        # its own start and sharing its exponentials with the other group;
        # it ends mid-block, and records fall every 7 steps, mostly mid-block
        rng = np.random.default_rng(100 + n)
        dependence = [(self.DEPENDENCE[kind], kind) for kind in kinds]
        knocked = [(0.0, kinds[0])] + dependence[1:]
        n_steps = max(3 * n * (n - 1), 500) + n // 2 + 1
        src, dst = (np.concatenate(a)
                    for a in zip(*sampler_mod._schedule(n, n_steps, rng, 1)))
        record_at = np.append(np.arange(3, n_steps, 7), n_steps)
        nn = n * n
        for groups, n_chains in (([dependence], 1), ([dependence], 3),
                                 ([dependence, knocked], 2)):
            shape = (len(groups), n_chains)
            dense = rng.poisson(1.5, shape + (n, n))
            dense[..., np.arange(n), np.arange(n)] = 0
            proposed = rng.poisson(1.5, shape + (n_steps,))
            expo = rng.standard_exponential((n_chains, n_steps))
            state = np.concatenate([sampler_mod._dense_state(FlowNetwork.from_dense(d), 1)
                                    for d in dense.reshape((-1, n, n))]).reshape(shape + (-1,))
            records = []

            def record():
                out_vol = state[:, :, nn:nn + n]
                records.append([[(int(out_vol[g, c].sum()), state[g, c, nn + n:].tolist(),
                                  out_vol[g, c].tolist()) for c in range(n_chains)]
                                for g in range(len(groups))])

            n_rejected = sampler_mod._run_blocks(state, n, sampler_mod._pieces(groups),
                                                 src, dst, proposed, expo, record_at, record)
            assert n_rejected.shape == shape
            for g, dep in enumerate(groups):
                for c in range(n_chains):
                    y, out_vol, in_vol, want_records, want_rejected = scalar_chain(
                        dense[g, c].tolist(), dep, src.tolist(), dst.tolist(),
                        proposed[g, c].tolist(), expo[c].tolist(), record_at.tolist())
                    assert state[g, c, :nn].reshape(n, n).tolist() == y
                    assert state[g, c, nn:nn + n].tolist() == out_vol
                    assert state[g, c, nn + n:].tolist() == in_vol
                    assert [rec[g][c] for rec in records] == want_records
                    assert n_rejected[g, c] == want_rejected
                    if any(th for th, _kind in dep):
                        assert 0 < n_rejected[g, c] < n_steps
                    else:  # without dependence every proposal is accepted
                        assert n_rejected[g, c] == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 200])
    def test_sweeps_visit_every_dyad_once_in_node_disjoint_blocks(self, n):
        sweep = n * (n - 1)
        chunks = list(sampler_mod._schedule(n, 2 * sweep, np.random.default_rng(n), 1))
        codes = np.concatenate([src * n + dst for src, dst in chunks])
        every_dyad = np.flatnonzero(~np.eye(n, dtype=bool))
        for visits in (codes[:sweep], codes[sweep:]):
            assert np.array_equal(np.sort(visits), every_dyad)
        if n >= 6:  # each sweep has its own relabelling
            assert not np.array_equal(codes[:sweep], codes[sweep:])
        size = n // 2
        for src, dst in chunks:
            assert len(src) % size == 0
            nodes = np.sort(np.hstack([src.reshape(-1, size), dst.reshape(-1, size)]), axis=1)
            assert np.all(np.diff(nodes, axis=1) > 0)

    def test_chain_memory_is_bounded_by_a_chunk_not_a_sweep(self):
        # a chunk holds about _RNG_BLOCK proposals over all chains, so the
        # peak beyond the state rows does not grow with the chain count
        n = 400
        sweep = n * (n - 1)  # 159,600 dyads, about 2.4 chunks
        assert sweep > 2 * sampler_mod._RNG_BLOCK
        lam = np.full((n, n), 0.5)
        dependence = [(-0.5, "nonzero"), (0.3, "mutual_min"), (-0.2, "waypoint_flow")]
        for n_chains in (1, 4):
            cfg = ChainConfig(n_networks=2 * n_chains, burn_in=sweep, thin=sweep // 2,
                              seed=3, n_chains=n_chains)
            tracemalloc.start()
            try:
                run = sampler_mod._chain([(lam, dependence)], FlowNetwork.empty(n), cfg)[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert run.n_proposals == 2 * sweep * n_chains
            state = n_chains * (n * n + 2 * n) * 8
            # about 96 bytes per proposal of a chunk; chunks of a whole sweep
            # peak at about 234 bytes per _RNG_BLOCK proposals here
            assert peak - state < 150 * sampler_mod._RNG_BLOCK, (n_chains, peak - state)


class TestMultiChain:
    def test_fewer_networks_keep_a_prefix_of_each_chain(self, knockout_data):
        # 12 networks over 3 chains and 10 over 3 run the same chains, 4
        # recorded samples each; the 10 keep 4, 3 and 3 of them, in chain order
        model, theta, current, _lag, nodes, dyads = knockout_data
        cfg = ChainConfig(n_networks=12, burn_in=2000, thin=500, seed=5, n_chains=3)
        full = mcmc_simulate(model, theta, nodes, dyads, current, cfg)
        part = mcmc_simulate(model, theta, nodes, dyads, current,
                             replace(cfg, n_networks=10))
        rows = [0, 1, 2, 3, 4, 5, 6, 8, 9, 10]
        assert np.array_equal(part.in_volumes, full.in_volumes[rows])
        assert np.array_equal(part.out_volumes, full.out_volumes[rows])
        assert np.array_equal(part.sum_series, full.sum_series[rows])
        assert part.networks == [full.networks[k] for k in rows]
        assert full.n_proposals == part.n_proposals == 3 * (2000 + 4 * 500)
        for run in (full, part):
            for k, net in enumerate(run.networks):
                assert np.array_equal(run.in_volumes[k], net.in_volumes())
                assert np.array_equal(run.out_volumes[k], net.out_volumes())
        # the chains differ, and no more chains run than there are networks
        assert len({tuple(full.sum_series[k::4]) for k in range(4)}) > 1
        one_each = mcmc_simulate(model, theta, nodes, dyads, current,
                                 replace(cfg, n_networks=2, n_chains=5))
        assert one_each.n_proposals == 2 * (2000 + 500)

    def test_single_chain_keeps_config_seed(self, knockout_data):
        model, theta, current, _lag, nodes, dyads = knockout_data
        cfg = ChainConfig(n_networks=6, burn_in=2000, thin=500, seed=5)
        groups = sampler_mod._groups(model, [theta], nodes, dyads, current)
        ref = sampler_mod._chain(groups, current, cfg, True)[0]
        summaries = sampler_mod._chain(groups, current, cfg)[0]
        run = mcmc_simulate(model, theta, nodes, dyads, current, cfg)
        assert [net.total_flow for net in run.networks] == run.sum_series.tolist()
        assert summaries.networks == []
        assert run.networks == ref.networks
        for got in (summaries, run):
            assert np.array_equal(got.sum_series, ref.sum_series)
            assert np.array_equal(got.in_volumes, ref.in_volumes)
            assert np.array_equal(got.out_volumes, ref.out_volumes)
            assert got.n_accepted == ref.n_accepted

    def test_change_stats_built_once_per_simulation(self, knockout_data, monkeypatch):
        model, theta, current, _lag, nodes, dyads = knockout_data
        calls = []

        def counting(*args):
            calls.append(1)
            return ChangeStats(*args)

        monkeypatch.setattr(sampler_mod, "ChangeStats", counting)
        cfg = ChainConfig(n_networks=6, burn_in=2000, thin=500, seed=5, n_chains=3)
        adequacy_check(model, theta, nodes, dyads, current, cfg)
        assert len(calls) == 1

    def test_adequacy_and_knockout_build_no_networks(self, knockout_data, monkeypatch):
        model, theta, current, _lag, nodes, dyads = knockout_data
        calls = []
        build = FlowNetwork.from_dense.__func__

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(FlowNetwork, "from_dense", classmethod(counting))
        cfg = ChainConfig(n_networks=5, burn_in=2000, thin=500, seed=4)
        adequacy_check(model, theta, nodes, dyads, current, cfg)
        knockout_experiment(model, theta, nodes, dyads, {"nonzero"}, cfg, init=current)
        assert len(calls) == 0
        mcmc_simulate(model, theta, nodes, dyads, current, cfg)
        assert len(calls) == 5  # the counter sees the snapshots that are built

    def test_knockout_resolves_once(self, knockout_data, monkeypatch):
        # one ChangeStats, and every-pair evaluations of the baseline's linear
        # terms plus the zeroed one only
        model, theta, current, _lag, nodes, dyads = knockout_data
        built = []
        grids = []
        unit_change = stats_mod.linear_unit_change

        def counting_stats(*args):
            built.append(1)
            return ChangeStats(*args)

        def counting_unit_change(term, ii, jj, *args):
            if np.ndim(ii) == 2:
                grids.append(term.label)
            return unit_change(term, ii, jj, *args)

        monkeypatch.setattr(sampler_mod, "ChangeStats", counting_stats)
        monkeypatch.setattr(stats_mod, "linear_unit_change", counting_unit_change)
        cfg = ChainConfig(n_networks=5, burn_in=2000, thin=500, seed=4)
        knockout_experiment(model, theta, nodes, dyads, {"dyad:political_dissim"}, cfg,
                            init=current)
        assert len(built) == 1
        linear = [t.label for t in model.terms if t.kind != "nonzero"]
        assert grids == linear + ["dyad:political_dissim"]


class TestAdequacy:
    def test_degenerate_match_gives_unit_correlation(self, small_data, monkeypatch):
        # every simulated network equal to the observed one
        model, theta, current, _lag, nodes, dyads = small_data

        def fake_chain(*args, **kwargs):
            return [sampler_mod.ChainRun(
                np.tile(current.in_volumes(), (20, 1)),
                np.tile(current.out_volumes(), (20, 1)),
                np.full(20, float(current.total_flow)), 0, 0, 20.0, [], [], (20,), False)]

        monkeypatch.setattr(sampler_mod, "_chain", fake_chain)
        report = adequacy_check(model, theta, nodes, dyads, current,
                                ChainConfig(n_networks=20, seed=0))
        assert report.in_correlation == pytest.approx(1.0)
        assert report.out_correlation == pytest.approx(1.0)
        assert report.in_outside.sum() == 0
        assert report.out_outside.sum() == 0
        assert report.degenerate
        assert report.warnings

    @pytest.mark.parametrize("n_networks", [1, 2])
    def test_a_real_chain_is_not_degenerate(self, n_networks):
        # one network has sd 0 by construction, which is no sign of a stuck chain
        observed = build_network([(0, 1, 3), (2, 4, 1), (5, 3, 2)], n_nodes=6)
        report = adequacy_check(SUM_ONLY, np.array([math.log(2.0)]), None, None, observed,
                                ChainConfig(n_networks=n_networks, seed=0))
        assert not report.degenerate
        assert not any("degenerate" in w for w in report.warnings)

    @pytest.mark.parametrize("n_networks, degenerate", [(1, False), (2, True)])
    def test_identical_networks_are_degenerate_from_two_up(self, small_data, monkeypatch,
                                                           n_networks, degenerate):
        model, theta, current, _lag, nodes, dyads = small_data
        k = n_networks

        def fake_chain(*args, **kwargs):
            return [sampler_mod.ChainRun(
                np.tile(current.in_volumes(), (k, 1)), np.tile(current.out_volumes(), (k, 1)),
                np.full(k, float(current.total_flow)), 0, 0, float(k), [], [], (k,), False)]

        monkeypatch.setattr(sampler_mod, "_chain", fake_chain)
        report = adequacy_check(model, theta, nodes, dyads, current,
                                ChainConfig(n_networks=k, seed=0))
        assert report.degenerate == degenerate
        assert bool(report.warnings) == degenerate

    def test_envelopes_contain_median(self, knockout_data):
        model, theta, current, _lag, nodes, dyads = knockout_data
        report = adequacy_check(model, theta, nodes, dyads, current,
                                ChainConfig(n_networks=30, seed=2))
        assert np.all(report.in_q025 <= report.in_median + 1e-12)
        assert np.all(report.in_median <= report.in_q975 + 1e-12)
        assert np.all(report.in_min <= report.in_median)
        assert np.all(report.in_median <= report.in_max)
        assert -1.0 <= report.in_correlation <= 1.0
        assert -1.0 <= report.out_correlation <= 1.0

    def test_corrupted_theta_scores_worse(self, knockout_data):
        model, _true_theta, current, _lag, nodes, dyads = knockout_data
        from ergmflow import census_sample, fit_mple

        fit = fit_mple(model, current, nodes, dyads, census_sample(current))
        cfg = ChainConfig(n_networks=40, seed=9)
        good = adequacy_check(model, fit.theta, nodes, dyads, current, cfg)
        corrupted = fit.theta.copy()
        pol = model.index_of("dyad:political_dissim")
        corrupted[pol] = -corrupted[pol]
        bad = adequacy_check(model, corrupted, nodes, dyads, current, cfg)
        assert good.in_correlation > bad.in_correlation
        assert good.out_correlation > bad.out_correlation

    def test_csv_export(self, knockout_data, tmp_path):
        model, theta, current, _lag, nodes, dyads = knockout_data
        report = adequacy_check(model, theta, nodes, dyads, current,
                                ChainConfig(n_networks=10, burn_in=2000,
                                            thin=500, seed=2))
        p_in = tmp_path / "in.csv"
        report.write_volume_csv(p_in, "in")
        lines = p_in.read_text().strip().splitlines()
        assert lines[0] == "node_id,observed,median,min,max,q2.5,q97.5"
        assert len(lines) == current.n_nodes + 1
        report.write_json(tmp_path / "adequacy.json")
        assert (tmp_path / "adequacy.json").exists()
        with pytest.raises(ValidationError, match="direction"):
            report.write_volume_csv(tmp_path / "x.csv", "sideways")

    def test_constant_observed_volumes_give_a_null_correlation(self, tmp_path):
        # every node of a complete unit-flow network has the same volumes,
        # so the correlation with the simulated medians is undefined
        unit = np.ones((4, 4), dtype=np.int64)
        np.fill_diagonal(unit, 0)
        observed = FlowNetwork.from_dense(unit)
        report = adequacy_check(SUM_ONLY, np.array([0.0]), None, None, observed,
                                ChainConfig(n_networks=5, seed=1))
        assert math.isnan(report.in_correlation) and math.isnan(report.out_correlation)
        report.write_json(tmp_path / "adequacy.json")
        got = json.loads((tmp_path / "adequacy.json").read_text())
        assert got["in_correlation"] is None and got["out_correlation"] is None


class TestExpectedTotalFlow:
    def test_poisson_mean(self):
        n = 12
        d = n * (n - 1)
        cfg = ChainConfig(n_networks=40, burn_in=40 * d, thin=2 * d, seed=3)
        mean, se = expected_total_flow(SUM_ONLY, np.array([math.log(3.0)]),
                                       None, None, cfg, init=FlowNetwork.empty(n))
        assert abs(mean - 3 * d) <= 3 * se

    def test_se_shrinks_with_doubling(self):
        n = 8
        d = n * (n - 1)
        theta = np.array([math.log(2.0)])
        _, se1 = expected_total_flow(
            SUM_ONLY, theta, None, None,
            ChainConfig(n_networks=200, burn_in=30 * d, thin=2 * d, seed=5),
            init=FlowNetwork.empty(n))
        _, se2 = expected_total_flow(
            SUM_ONLY, theta, None, None,
            ChainConfig(n_networks=400, burn_in=30 * d, thin=2 * d, seed=5),
            init=FlowNetwork.empty(n))
        ratio = se1 / se2
        assert 0.7 * math.sqrt(2) <= ratio <= 1.3 * math.sqrt(2)

    def test_vanishing_rate(self):
        n = 6
        d = n * (n - 1)
        cfg = ChainConfig(n_networks=10, burn_in=10 * d, thin=d, seed=3)
        mean, _ = expected_total_flow(SUM_ONLY, np.array([-50.0]), None, None,
                                      cfg, init=FlowNetwork.empty(n))
        assert mean == 0.0


class TestKnockout:
    def test_empty_set_reproduces_baseline_exactly(self, knockout_data):
        model, _theta, current, _lag, nodes, dyads = knockout_data
        theta = np.array([-10.3, 0.5, -1.5, 0.55, 0.55])
        cfg = ChainConfig(n_networks=10, burn_in=3000, thin=500, seed=21)
        report = knockout_experiment(model, theta, nodes, dyads, set(), cfg,
                                     init=current)
        assert report.abs_diff == 0.0
        assert report.abs_diff_se == 0.0  # the paired series is all zeros
        assert report.pct_diff == 0.0
        assert report.baseline_mean == report.counterfactual_mean

    def test_zero_coefficient_knockout_is_noop(self, knockout_data):
        model, _theta, current, _lag, nodes, dyads = knockout_data
        theta = np.array([-10.3, 0.0, -1.5, 0.55, 0.55])
        cfg = ChainConfig(n_networks=10, burn_in=3000, thin=500, seed=22)
        report = knockout_experiment(model, theta, nodes, dyads, {"nonzero"},
                                     cfg, init=current)
        assert report.pct_diff == 0.0

    def test_negative_coefficient_knockout_raises_flow(self, knockout_data):
        model, theta, current, _lag, nodes, dyads = knockout_data
        cfg = ChainConfig(n_networks=10, burn_in=5000, thin=1000, seed=23)
        report = knockout_experiment(model, theta, nodes, dyads,
                                     {"dyad:political_dissim"}, cfg, init=current)
        assert report.counterfactual_mean > report.baseline_mean
        assert report.pct_diff > 0
        assert report.abs_diff == pytest.approx(
            report.counterfactual_mean - report.baseline_mean)

    def test_scenarios_are_the_chains_a_simulation_runs(self, knockout_data):
        # the baseline row group draws the stream a lone chain draws; zeroing
        # a dependence term alone leaves the rates as they are, so the
        # coupled counterfactual is the lone chain at the knocked-out theta
        model, theta, current, _lag, nodes, dyads = knockout_data
        cfg = ChainConfig(n_networks=6, burn_in=2000, thin=500, seed=5, n_chains=2)
        report = knockout_experiment(model, theta, nodes, dyads, {"nonzero"}, cfg,
                                     init=current)
        knocked = theta.copy()
        knocked[model.index_of("nonzero")] = 0.0
        assert (report.baseline_mean, report.baseline_se) == expected_total_flow(
            model, theta, nodes, dyads, cfg, init=current)
        assert (report.counterfactual_mean, report.counterfactual_se) == expected_total_flow(
            model, knocked, nodes, dyads, cfg, init=current)

    @pytest.mark.parametrize("theta_pol", [-1.5, 0.8])
    def test_coupled_dyads_follow_the_rates_at_zero_dependence(self, knockout_data,
                                                               theta_pol):
        # zeroing a negative dissimilarity term raises every rate and a
        # positive one lowers it; superposition, or thinning, then moves every
        # dyad of every coupled sample the same way
        _model, _theta, current, _lag, nodes, dyads = knockout_data
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "political_dissim")))
        theta = np.array([-0.5, theta_pol])
        groups = sampler_mod._groups(model, [theta, np.array([-0.5, 0.0])], nodes, dyads,
                                     current)
        cfg = ChainConfig(n_networks=6, burn_in=3000, thin=1000, seed=9, n_chains=2)
        base, cf = sampler_mod._chain(groups, current, cfg, keep_networks=True)
        sign = 1 if theta_pol < 0 else -1
        for b, c in zip(base.networks, cf.networks):
            assert np.all(sign * (c.dense_matrix() - b.dense_matrix()) >= 0)
        assert np.all(sign * (cf.sum_series - base.sum_series) > 0)

    def test_linear_counterfactual_mean_is_exact(self, knockout_data):
        # zeroing the intercept and the origin's population term moves each
        # rate by exp(-0.5 (log_population_i - 10)), up for half the origins
        # and down for the rest, so both thinning and superposition act; the
        # coupled difference of dyad ij is then Poisson(|lam_cf - lam_b|)
        _model, _theta, current, _lag, nodes, dyads = knockout_data
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "political_dissim"),
                                 TermSpec("node_out", "log_population"),
                                 TermSpec("node_in", "log_population")))
        theta = np.array([-5.0, -1.0, 0.5, 0.3])
        knocked = np.array([0.0, -1.0, 0.0, 0.3])
        cs = ChangeStats(model, current, nodes, dyads)
        off = ~np.eye(current.n_nodes, dtype=bool)
        lam_b, lam_cf = (np.exp(cs.linear_rate_matrix(th))[off] for th in (theta, knocked))
        assert (lam_cf > lam_b).any() and (lam_cf < lam_b).any()
        cfg = ChainConfig(seed=13)
        report = knockout_experiment(model, theta, nodes, dyads,
                                     {"sum", "node_out:log_population"}, cfg, init=current)
        assert report.counterfactual_ess == report.baseline_ess == cfg.n_networks
        assert abs(report.counterfactual_mean - lam_cf.sum()) <= 4 * report.counterfactual_se
        assert abs(report.abs_diff - (lam_cf - lam_b).sum()) <= 4 * report.abs_diff_se
        paired = math.sqrt(np.abs(lam_cf - lam_b).sum() / cfg.n_networks)
        assert report.abs_diff_se == pytest.approx(paired, rel=0.25)
        assert report.abs_diff_se < math.hypot(report.baseline_se, report.counterfactual_se)

    def test_single_string_is_one_label(self, knockout_data):
        model, theta, current, _lag, nodes, dyads = knockout_data
        cfg = ChainConfig(n_networks=4, burn_in=2000, thin=500, seed=24)
        one, listed = (knockout_experiment(model, theta, nodes, dyads, labels, cfg,
                                           init=current)
                       for labels in ("nonzero", ["nonzero"]))
        assert one == listed
        assert one.zeroed_labels == ("nonzero",)

    def test_unknown_label_rejected(self, knockout_data):
        model, theta, current, _lag, nodes, dyads = knockout_data
        with pytest.raises(ValidationError, match="unknown term labels"):
            knockout_experiment(model, theta, nodes, dyads, {"nope"},
                                ChainConfig(n_networks=2), init=current)

    def test_json_export(self, knockout_data, tmp_path):
        model, theta, current, _lag, nodes, dyads = knockout_data
        cfg = ChainConfig(n_networks=5, burn_in=2000, thin=500, seed=2)
        report = knockout_experiment(model, theta, nodes, dyads, {"nonzero"},
                                     cfg, init=current)
        report.write_json(tmp_path / "k.json")
        import json

        payload = json.loads((tmp_path / "k.json").read_text())
        assert payload["zeroed_labels"] == ["nonzero"]


class TestDiagnostics:
    def test_ess_of_ar1_matches_closed_form(self):
        rng = np.random.default_rng(0)
        m, rho = 4000, 0.5
        noise = rng.normal(0, 1, m)
        x = np.empty(m)
        x[0] = noise[0] / math.sqrt(1 - rho ** 2)
        for t in range(1, m):
            x[t] = rho * x[t - 1] + noise[t]
        expected = m * (1 - rho) / (1 + rho)
        assert abs(sampler_mod._ess(x) - expected) <= 0.15 * expected

    def test_ess_of_iid_noise_is_near_its_length(self):
        m = 4000
        ess = sampler_mod._ess(np.random.default_rng(0).normal(0, 1, m))
        assert 0.8 * m <= ess <= m

    def test_ess_of_alternating_series_is_capped_at_its_length(self):
        assert sampler_mod._ess(np.tile([1.0, -1.0], 50)) == 100.0

    def test_ess_counts_each_value_of_short_or_constant_series(self):
        assert sampler_mod._ess(np.full(10, 3.0)) == 10.0
        assert sampler_mod._ess(np.array([1.0, 5.0, 2.0])) == 3.0

    @pytest.mark.parametrize("m", [4, 5, 17, 64, 999, 4096, 30_000])
    def test_ess_matches_direct_correlation(self, m):
        # the FFT autocorrelation, padded to a power of two, against the
        # quadratic np.correlate one on AR(1) series
        noise = np.random.default_rng(m).normal(0, 1, m)
        for rho in (-0.5, 0.0, 0.6, 0.95):
            x = np.empty(m)
            x[0] = noise[0]
            for t in range(1, m):
                x[t] = rho * x[t - 1] + noise[t]
            assert sampler_mod._ess(x) == pytest.approx(correlate_ess(x), rel=1e-12)

    def test_sum_ess_sums_each_chains_ess(self, knockout_data):
        model, theta, current, _lag, nodes, dyads = knockout_data
        cfg = ChainConfig(n_networks=10, burn_in=2000, thin=500, seed=6, n_chains=3)
        run = mcmc_simulate(model, theta, nodes, dyads, current, cfg)
        blocks = np.split(run.sum_series, [4, 7])  # the chains keep 4, 3 and 3
        assert run.sum_ess == sum(sampler_mod._ess(b) for b in blocks)

    def test_se_divides_the_sd_by_the_root_of_the_ess(self, knockout_data):
        model, theta, current, _lag, nodes, dyads = knockout_data
        cfg = ChainConfig(n_networks=12, burn_in=2000, thin=500, seed=6)
        run = mcmc_simulate(model, theta, nodes, dyads, current, cfg)
        mean, se = expected_total_flow(model, theta, nodes, dyads, cfg, init=current)
        assert mean == run.sum_series.mean()
        assert se == pytest.approx(run.sum_series.std(ddof=1) / math.sqrt(run.sum_ess))

    def test_knockout_below_a_sweep_warns_for_both_scenarios(self, knockout_data):
        model, theta, current, _lag, nodes, dyads = knockout_data
        sweep = current.n_nodes * (current.n_nodes - 1)
        cfg = ChainConfig(n_networks=4, burn_in=sweep // 4, thin=sweep // 10, seed=2)
        report = knockout_experiment(model, theta, nodes, dyads, {"nonzero"}, cfg,
                                     init=current)
        for scenario in ("baseline", "counterfactual"):
            warned = [w for w in report.warnings if w.startswith(scenario + ": ")]
            assert any("burn_in of %d proposals covers 0.25 sweeps" % (sweep // 4) in w
                       and "75.0% of dyads" in w for w in warned), report.warnings
            assert any("thin of %d proposals covers 0.1 sweeps" % (sweep // 10) in w
                       for w in warned), report.warnings
        assert report.to_json_dict()["warnings"] == report.warnings

    def test_thin_is_not_judged_with_one_sample_a_chain(self, knockout_data):
        model, theta, current, _lag, nodes, dyads = knockout_data
        cfg = ChainConfig(n_networks=2, burn_in=100, thin=1, seed=2, n_chains=2)
        run = mcmc_simulate(model, theta, nodes, dyads, current, cfg)
        assert [w.split(" ")[0] for w in run.warnings] == ["burn_in"]

    def test_linear_chain_at_default_config_counts_every_sample(self, knockout_data):
        # without dependence every proposal is accepted, so a thin of 2
        # sweeps makes every sample an independent exact draw: its ESS is the
        # sample count, not Geyer's noisy estimate of it
        model, theta, current, _lag, nodes, dyads = knockout_data
        keep = [k for k, t in enumerate(model.terms) if t.kind != "nonzero"]
        linear = ModelSpec(terms=tuple(model.terms[k] for k in keep))
        sweep = current.n_nodes * (current.n_nodes - 1)
        for cfg in (ChainConfig(seed=3), ChainConfig(seed=3, n_chains=3)):
            run = mcmc_simulate(linear, theta[keep], nodes, dyads, current, cfg)
            assert run.independent and run.sum_ess == cfg.n_networks == 100
        # a thin below 2 sweeps, or a dependence term, keeps Geyer's estimate
        cfg = ChainConfig(n_networks=20, seed=3)
        for m, th, thin in ((linear, theta[keep], 2 * sweep - 1), (model, theta, 2 * sweep)):
            run = mcmc_simulate(m, th, nodes, dyads, current, replace(cfg, thin=thin))
            assert not run.independent
            assert run.sum_ess == sampler_mod._ess(run.sum_series)

    def test_linear_model_at_default_config_warns_nothing(self, knockout_data):
        model, theta, current, _lag, nodes, dyads = knockout_data
        keep = [k for k, t in enumerate(model.terms) if t.kind != "nonzero"]
        linear = ModelSpec(terms=tuple(model.terms[k] for k in keep))
        cfg = ChainConfig(seed=3)
        adequacy = adequacy_check(linear, theta[keep], nodes, dyads, current, cfg)
        knockout = knockout_experiment(linear, theta[keep], nodes, dyads,
                                       {"dyad:political_dissim"}, cfg, init=current)
        assert adequacy.warnings == []
        assert knockout.warnings == []
        assert knockout.baseline_ess >= 50 and knockout.counterfactual_ess >= 50
