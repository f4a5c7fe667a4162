import math

import numpy as np
import pytest

from ergmflow import (NONLINEAR_KINDS, ChangeStats, DyadCovariateSet, FlowNetwork,
                      ModelSpec, TermSpec, ValidationError, build_network,
                      conditional_profile, dependence_pieces,
                      global_statistic, model_from_dict, model_to_dict,
                      mutual_min_stat, statistic_vector, waypoint_flow_stat)

from oracles import brute_mutual_min, brute_stat_vector, brute_waypoint, neighbourhood


def random_network(rng, n=6, rate=1.2):
    mat = rng.poisson(rate, (n, n))
    np.fill_diagonal(mat, 0)
    return FlowNetwork.from_dense(mat), mat


class TestTermSpec:
    def test_labels_default(self):
        assert TermSpec("sum").label == "sum"
        assert TermSpec("dyad", "log_distance").label == "dyad:log_distance"

    def test_covariate_required(self):
        with pytest.raises(ValidationError, match="requires a covariate"):
            TermSpec("node_out")
        with pytest.raises(ValidationError, match="does not take"):
            TermSpec("sum", "x")

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown term kind"):
            TermSpec("triangle")


class TestModelSpec:
    def test_no_terms_rejected(self):
        with pytest.raises(ValidationError, match="a model needs at least one term"):
            ModelSpec(terms=())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ModelSpec(terms=(TermSpec("sum", label="a"),
                             TermSpec("nonzero", label="a")))

    def test_at_most_one_sum(self):
        with pytest.raises(ValidationError, match="at most one"):
            ModelSpec(terms=(TermSpec("sum", label="a"), TermSpec("sum", label="b")))

    def test_round_trip_dict(self):
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "z")))
        assert model_from_dict(model_to_dict(model)) == model

    def test_lag_depth_accepted_only_as_one(self):
        model = ModelSpec(terms=(TermSpec("sum"),))
        assert "lag_depth" not in model_to_dict(model)
        assert model_from_dict({"terms": [{"kind": "sum"}], "lag_depth": 1}) == model
        for bad in (2, 0, "1", True, None):
            with pytest.raises(ValidationError, match="'lag_depth'"):
                model_from_dict({"terms": [{"kind": "sum"}], "lag_depth": bad})

    def test_unknown_or_malformed_keys_rejected(self):
        with pytest.raises(ValidationError, match=r"model\.terms\[1\]\.lable$"):
            model_from_dict({"terms": [{"kind": "sum"}, {"kind": "nonzero", "lable": "x"}]})
        with pytest.raises(ValidationError, match=r"model\.lag_dept$"):
            model_from_dict({"terms": [{"kind": "sum"}], "lag_dept": 3})
        for bad in ([], {"terms": "sum"}, {"terms": ["sum"]}, {"terms": [{"label": "a"}]}):
            with pytest.raises(ValidationError, match="malformed model spec"):
                model_from_dict(bad)

    def test_check_theta(self):
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero")))
        theta = model.check_theta([1, -2])
        assert theta.dtype == np.float64 and theta.tolist() == [1.0, -2.0]
        with pytest.raises(ValidationError, match="shape"):
            model.check_theta([1.0])
        with pytest.raises(ValidationError, match="non-finite"):
            model.check_theta([1.0, np.nan])
        with pytest.raises(ValidationError, match="theta_true must hold numbers"):
            model.check_theta([1.0, "x"], "theta_true")
        with pytest.raises(ValidationError, match="theta must hold numbers"):
            model.check_theta([1.0, {}])


class TestMutualMin:
    def test_hand_cases(self):
        assert mutual_min_stat(build_network([(0, 1, 3), (1, 0, 1)])) == 1
        assert mutual_min_stat(FlowNetwork.empty(4)) == 0
        net = build_network([(0, 1, 5), (1, 0, 5), (0, 2, 2)])
        assert mutual_min_stat(net) == 5

    def test_against_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            net, mat = random_network(rng)
            assert mutual_min_stat(net) == brute_mutual_min(mat)

    def test_bounded_by_total_flow(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            net, _ = random_network(rng)
            assert mutual_min_stat(net) <= net.total_flow


class TestWaypointFlow:
    def test_star_configurations(self):
        # six migration events split across in/out spokes with distinct
        # neighbors; the focal node contributes min(in, out)
        def star(n_in, n_out):
            records = [(k + 1, 0, 1) for k in range(n_in)]
            records += [(0, n_in + 1 + k, 1) for k in range(n_out)]
            return build_network(records, n_nodes=n_in + n_out + 1)

        assert waypoint_flow_stat(star(3, 3)) == 3
        assert waypoint_flow_stat(star(4, 2)) == 2
        assert waypoint_flow_stat(star(5, 1)) == 1
        assert waypoint_flow_stat(FlowNetwork.empty(3)) == 0

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            net, mat = random_network(rng)
            assert waypoint_flow_stat(net) == brute_waypoint(mat)

    def test_bounded_by_total_flow(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            net, _ = random_network(rng)
            assert waypoint_flow_stat(net) <= net.total_flow

    def test_isomorphism_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            net, mat = random_network(rng)
            perm = rng.permutation(net.n_nodes)
            permuted = FlowNetwork.from_dense(mat[np.ix_(perm, perm)])
            assert waypoint_flow_stat(permuted) == waypoint_flow_stat(net)
            assert mutual_min_stat(permuted) == mutual_min_stat(net)


class TestGlobalStatistic:
    def test_sum(self):
        net = build_network([(0, 1, 3), (1, 0, 1)])
        assert global_statistic(TermSpec("sum"), net) == 4.0

    def test_node_out_linear_form(self):
        net = build_network([(0, 1, 3)], n_nodes=2)

        class Nodes:
            def covariate(self, name):
                assert name == "c"
                return np.array([2.0, 5.0])

        assert global_statistic(TermSpec("node_out", "c"), net, Nodes()) == 6.0

    def test_dyad_covariate_hand_case(self):
        net = build_network([(0, 1, 3), (1, 0, 1)])
        m = np.array([[0.0, 1.5], [1.5, 0.0]])
        dyads = DyadCovariateSet(2, {"log_distance": m})
        got = global_statistic(TermSpec("dyad", "log_distance"), net, None, dyads)
        assert got == pytest.approx(6.0)

    def test_unresolvable_name_rejected(self):
        net = build_network([(0, 1, 3)], n_nodes=2)
        dyads = DyadCovariateSet(2, {})
        with pytest.raises(ValidationError):
            global_statistic(TermSpec("dyad", "nope"), net, None, dyads)
        with pytest.raises(ValidationError):
            global_statistic(TermSpec("node_out", "x"), net, None, dyads)

    def test_vector_composes_terms(self):
        net = build_network([(0, 1, 3), (1, 0, 1)])
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("mutual_min")))
        assert np.array_equal(statistic_vector(model, net), [4.0, 1.0])

    def test_vector_empty_network(self):
        model = ModelSpec(terms=(TermSpec("sum"),))
        assert np.array_equal(statistic_vector(model, FlowNetwork.empty(3)), [0.0])

    def test_vector_hand_enumeration(self):
        net = build_network([(0, 1, 2), (1, 0, 2), (2, 0, 6)])
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero"),
                                 TermSpec("waypoint_flow")))
        assert np.array_equal(statistic_vector(model, net), [10.0, 3.0, 4.0])

    def test_vector_against_brute_force(self):
        rng = np.random.default_rng(6)
        n = 6
        c = rng.normal(0, 1, n)
        m = rng.normal(0, 1, (n, n))
        np.fill_diagonal(m, 0)
        dyads = DyadCovariateSet(n, {"z": m})

        class Nodes:
            def covariate(self, name):
                return c

        model = ModelSpec(terms=(
            TermSpec("sum"), TermSpec("nonzero"), TermSpec("mutual_min"),
            TermSpec("waypoint_flow"), TermSpec("node_out", "c"),
            TermSpec("node_in", "c"), TermSpec("dyad", "z")))
        payloads = [("sum", None), ("nonzero", None), ("mutual_min", None),
                    ("waypoint_flow", None), ("node_out", c), ("node_in", c),
                    ("dyad", m)]
        for _ in range(25):
            net, mat = random_network(rng)
            got = statistic_vector(model, net, Nodes(), dyads)
            want = brute_stat_vector(payloads, mat)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-9)


class TestDependencePieces:
    def test_scalar_changes_match_global_statistics(self):
        # the chain's scalar call: every dyad of random networks, set to
        # values around and past its reciprocal and volumes
        rng = np.random.default_rng(9)
        for _ in range(10):
            mat = rng.poisson(1.5, (5, 5))
            np.fill_diagonal(mat, 0)
            out_v, in_v = mat.sum(axis=1), mat.sum(axis=0)
            base = FlowNetwork.from_dense(mat)
            for i, j in zip(*np.nonzero(~np.eye(5, dtype=bool))):
                for vp in range(8):
                    alt = mat.copy()
                    alt[i, j] = vp
                    net = FlowNetwork.from_dense(alt)
                    for kind in NONLINEAR_KINDS:
                        term = TermSpec(kind)
                        want = global_statistic(term, net) - global_statistic(term, base)
                        got = sum(min(p + vp, q) - min(p + mat[i, j], q)
                                  for p, q in dependence_pieces(
                                      kind, int(mat[i, j]), int(out_v[i]),
                                      int(in_v[j]), int(mat[j, i]),
                                      int(in_v[i]), int(out_v[j])))
                        assert got == want, (kind, i, j, vp)

    def test_linear_kind_rejected(self):
        with pytest.raises(ValidationError):
            dependence_pieces("sum", 0, 0, 0, 0, 0, 0)


class TestSegmentBounds:
    def test_breaks_are_exact_past_2_53(self):
        net = build_network([("A", "B", 2**53 + 1), ("C", "B", 2), ("B", "C", 1)],
                            node_ids=["A", "B", "C"])
        cs = ChangeStats(ModelSpec(terms=(TermSpec("sum"), TermSpec("waypoint_flow"))), net)
        lo = cs.segment_bounds(neighbourhood(net, [1, 2], [0, 0]))  # (B, A) and (C, A)
        assert lo.dtype == np.int64
        assert lo.tolist() == [[0, 2**53 + 2, 2**53 + 3], [0, 0, 2**53 + 2]]


class TestConditionalProfile:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_sum_rows_differ_by_v(self):
        net = build_network([(0, 1, 3), (1, 0, 1)])
        model = ModelSpec(terms=(TermSpec("sum"),))
        prof = conditional_profile(model, net, None, None, (0, 1), 5)
        assert np.array_equal(prof[:, 0] - prof[0, 0], np.arange(6))

    def test_mutual_min_saturates_at_reciprocal(self):
        net = build_network([(0, 1, 3), (1, 0, 2)])
        model = ModelSpec(terms=(TermSpec("mutual_min"),))
        prof = conditional_profile(model, net, None, None, (0, 1), 4)
        rest = prof[0, 0]
        assert np.array_equal(prof[:, 0] - rest, [0, 1, 2, 2, 2])

    def test_waypoint_two_node_case(self):
        net = build_network([(1, 0, 3)], n_nodes=2)
        model = ModelSpec(terms=(TermSpec("waypoint_flow"),))
        prof = conditional_profile(model, net, None, None, (0, 1), 6)
        want = np.array([2 * min(v, 3) for v in range(7)], dtype=float)
        assert np.array_equal(prof[:, 0], want)

    def test_row_at_observed_reproduces_global(self):
        # incremental profile equals full recomputation, exactly
        n = 7
        c = self.rng.normal(0, 1, n)
        m = self.rng.normal(0, 1, (n, n))
        np.fill_diagonal(m, 0)
        dyads = DyadCovariateSet(n, {"z": m})

        class Nodes:
            def covariate(self, name):
                return c

        model = ModelSpec(terms=(
            TermSpec("sum"), TermSpec("nonzero"), TermSpec("mutual_min"),
            TermSpec("waypoint_flow"), TermSpec("node_out", "c"),
            TermSpec("dyad", "z")))
        for _ in range(10):
            mat = self.rng.poisson(1.5, (n, n))
            np.fill_diagonal(mat, 0)
            net = FlowNetwork.from_dense(mat)
            base = statistic_vector(model, net, Nodes(), dyads)
            for (i, j) in [(0, 1), (3, 2), (5, 6)]:
                v_obs = net.value(i, j)
                prof = conditional_profile(model, net, Nodes(), dyads, (i, j),
                                           max(6, v_obs))
                assert np.array_equal(prof[v_obs], base)

    def test_profile_matches_brute_recomputation(self):
        n = 6
        mat = self.rng.poisson(1.5, (n, n))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("nonzero"),
                                 TermSpec("mutual_min"), TermSpec("waypoint_flow")))
        payloads = [("sum", None), ("nonzero", None), ("mutual_min", None),
                    ("waypoint_flow", None)]
        prof = conditional_profile(model, net, None, None, (2, 4), 8)
        work = [list(row) for row in mat]
        for v in range(9):
            work[2][4] = v
            want = brute_stat_vector(payloads, work)
            assert np.array_equal(prof[v], want)

    def test_linear_rows_affine(self):
        net = build_network([(0, 1, 2)], n_nodes=3)
        m = np.full((3, 3), 1.5)
        np.fill_diagonal(m, 0)
        dyads = DyadCovariateSet(3, {"z": m})
        model = ModelSpec(terms=(TermSpec("dyad", "z"),))
        prof = conditional_profile(model, net, None, dyads, (0, 1), 7)
        diffs = np.diff(prof[:, 0])
        assert np.allclose(diffs, 1.5)

    def test_v_max_negative_rejected(self):
        net = build_network([(0, 1, 2)], n_nodes=2)
        model = ModelSpec(terms=(TermSpec("sum"),))
        with pytest.raises(ValidationError, match="v_max"):
            conditional_profile(model, net, None, None, (0, 1), -1)

    @pytest.mark.parametrize("v_max", [True, np.bool_(True), None, "3", 2.5, math.nan,
                                       math.inf, np.float64(-1.0)])
    def test_v_max_not_a_count_rejected(self, v_max):
        net = build_network([(0, 1, 2)], n_nodes=2)
        model = ModelSpec(terms=(TermSpec("sum"),))
        with pytest.raises(ValidationError, match="^v_max must be a non-negative integer"):
            conditional_profile(model, net, None, None, (0, 1), v_max)

    def test_v_max_whole_float_accepted(self):
        net = build_network([(0, 1, 2), (1, 0, 1)], n_nodes=2)
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("mutual_min")))
        want = conditional_profile(model, net, None, None, (0, 1), 3)
        for v_max in (3.0, np.float64(3.0), np.int64(3)):
            got = conditional_profile(model, net, None, None, (0, 1), v_max)
            assert np.array_equal(got, want)

    def test_self_loop_rejected(self):
        net = build_network([(0, 1, 2)], n_nodes=2)
        model = ModelSpec(terms=(TermSpec("sum"),))
        with pytest.raises(ValidationError, match="off-diagonal"):
            conditional_profile(model, net, None, None, (1, 1), 3)


class TestLinearTerms:
    """The one linear-term definition seen through its three readers."""

    @pytest.fixture
    def linear_case(self, small_data):
        model, theta, current, _lag, nodes, dyads = small_data
        model = ModelSpec(terms=model.terms + (
            TermSpec("node_out", "log_population"), TermSpec("node_in", "rural")))
        theta = np.append(theta, [0.3, -0.7])
        return model, theta, current, nodes, dyads

    def test_rate_matrix_matches_design(self, linear_case):
        model, theta, current, nodes, dyads = linear_case
        cs = ChangeStats(model, current, nodes, dyads)
        n = current.n_nodes
        ii, jj = np.nonzero(~np.eye(n, dtype=bool))
        rate = cs.linear_rate_matrix(theta)
        want = cs.linear_design(ii, jj) @ theta[cs.lin_pos]
        assert np.abs(rate[ii, jj] - want).max() <= 1e-12

    def test_global_statistic_matches_design(self, linear_case):
        model, _theta, current, nodes, dyads = linear_case
        cs = ChangeStats(model, current, nodes, dyads)
        src, dst, val = current.edge_arrays()
        design = cs.linear_design(src, dst)
        assert [model.terms[p].kind for p in cs.lin_pos] == [
            "sum", "dyad", "lagged_log_flow", "node_out", "node_in"]
        for k, pos in enumerate(cs.lin_pos):
            got = global_statistic(model.terms[pos], current, nodes, dyads)
            assert got == pytest.approx(float(val @ design[:, k]), rel=1e-12)

    def test_holds_no_square_array(self, linear_case):
        model, _theta, current, nodes, dyads = linear_case
        cs = ChangeStats(model, current, nodes, dyads)
        n = current.n_nodes
        assert all(np.size(v) < n * n for v in vars(cs).values()
                   if isinstance(v, np.ndarray))
        # nor anything that depends on the flows
        other = ChangeStats(model, FlowNetwork.empty(n, node_ids=current.node_ids),
                            nodes, dyads)
        assert vars(cs).keys() == vars(other).keys()
        for name, value in vars(cs).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, vars(other)[name]), name
            else:
                assert value == vars(other)[name], name

    def test_unknown_covariate_rejected_when_built(self, linear_case):
        _model, _theta, current, nodes, dyads = linear_case
        model = ModelSpec(terms=(TermSpec("sum"), TermSpec("dyad", "bogus")))
        with pytest.raises(ValidationError, match="unknown dyad covariate"):
            ChangeStats(model, current, nodes, dyads)
