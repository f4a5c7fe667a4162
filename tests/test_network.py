import warnings

import numpy as np
import pytest

from ergmflow import (DyadCovariateSet, FlowNetwork, ModelSpec, NodeTable,
                      TermSpec, ValidationError, build_network,
                      conditional_log_pmf, conditional_profile, summarize)


def net_abc(records):
    return build_network(records, node_ids=["A", "B", "C"])


class TestBuildNetwork:
    def test_direct_construction(self):
        net = net_abc([("A", "B", 3), ("B", "A", 1)])
        assert net.value(0, 1) == 3
        assert net.value(1, 0) == 1
        assert net.n_edges == 2

    def test_empty_five_nodes(self):
        net = build_network([], n_nodes=5)
        assert net.n_edges == 0
        assert summarize(net).density == 0.0

    def test_zero_count_dropped(self):
        net = net_abc([("A", "B", 0)])
        assert net.n_edges == 0
        assert net.value(0, 1) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            net_abc([("A", "A", 2)])

    def test_unknown_id_rejected(self):
        with pytest.raises(ValidationError, match="unknown node id"):
            net_abc([("A", "Z", 2)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            net_abc([("A", "B", 1), ("A", "B", 2)])

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            net_abc([("A", "B", -1)])

    def test_integer_indices_without_id_map(self):
        net = build_network([(0, 1, 4), (2, 0, 6)])
        assert net.n_nodes == 3
        assert net.value(2, 0) == 6

    def test_round_trip(self):
        records = [("A", "B", 3), ("B", "A", 1), ("C", "A", 9)]
        net = net_abc(records)
        assert sorted(net.to_edge_records()) == sorted(records)


class TestSummarize:
    def test_two_node_hand_case(self):
        net = build_network([(0, 1, 4)], n_nodes=2)
        rep = summarize(net)
        assert rep.edges == 1
        assert rep.density == 0.5
        assert rep.total_flow == 4
        assert rep.mean_flow_per_edge == 4

    def test_three_node_hand_enumeration(self):
        net = net_abc([("A", "B", 2), ("B", "A", 2), ("C", "A", 6)])
        rep = summarize(net)
        assert rep.density == pytest.approx(3 / 6)
        assert rep.total_flow == 10
        assert rep.mean_flow_per_edge == pytest.approx(10 / 3)
        assert rep.mean_degree == pytest.approx(2.0)
        assert rep.mean_flow_per_node == pytest.approx(20 / 3)

    def test_table_arithmetic_matches_definitions(self):
        # the summary formulas reproduce published-style aggregates:
        # density E/(n(n-1)), Freeman mean degree 2E/n, per-node mean 2T/n
        net = build_network([(i, (i + 1) % 9, 7) for i in range(9)])
        rep = summarize(net)
        assert rep.density == pytest.approx(9 / 72)
        assert rep.mean_degree == pytest.approx(2.0)
        assert rep.mean_flow_per_node == pytest.approx(2 * 63 / 9)


class TestVolumes:
    def test_in_volume_sums_entries(self):
        net = net_abc([("A", "B", 3), ("C", "B", 2)])
        assert net.in_volume(1) == 5

    def test_empty_network(self):
        net = build_network([], n_nodes=3)
        assert net.in_volume(0) == 0
        assert net.out_volume(0) == 0

    def test_direct_read(self):
        net = net_abc([("A", "B", 3), ("B", "A", 1)])
        assert net.out_volume(0) == 3
        assert net.in_volume(0) == 1

    def test_out_of_range_rejected(self):
        net = build_network([], n_nodes=3)
        with pytest.raises(ValidationError, match="out of range"):
            net.in_volume(5)

    def test_flow_conservation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mat = rng.poisson(0.8, (7, 7))
            np.fill_diagonal(mat, 0)
            net = FlowNetwork.from_dense(mat)
            assert net.in_volumes().sum() == net.out_volumes().sum() == net.total_flow

    def test_volumes_are_exact_past_2_to_the_53(self):
        net = net_abc([("A", "B", 2 ** 53 + 1), ("C", "B", 1)])
        assert net.in_volumes()[1] == 2 ** 53 + 2
        assert net.in_volumes().dtype == np.int64

    def test_volume_at_the_int64_maximum_is_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net = build_network([("A", "B", 2 ** 63 - 1)], node_ids=["A", "B"])
        assert net.in_volume(1) == net.out_volume(0) == 2 ** 63 - 1

    def test_volume_past_the_int64_maximum_rejected(self):
        with pytest.raises(ValidationError, match="in-volume of node 'B' .* beyond the int64"):
            net_abc([("A", "B", 2 ** 63 - 1), ("C", "B", 1)])


class TestFlowNetwork:
    def test_copy_summary_identical(self):
        net = net_abc([("A", "B", 3), ("B", "C", 5)])
        assert summarize(net.copy()) == summarize(net)
        assert net.copy() == net

    def test_dense_round_trip(self):
        rng = np.random.default_rng(3)
        mat = rng.poisson(1.0, (6, 6))
        np.fill_diagonal(mat, 0)
        net = FlowNetwork.from_dense(mat)
        assert np.array_equal(net.dense_matrix(), mat)

    def test_arrays_read_only(self):
        net = net_abc([("A", "B", 3)])
        with pytest.raises(ValueError):
            net.in_volumes()[0] = 7

    def test_rejects_stored_zero(self):
        with pytest.raises(ValidationError, match="positive integer"):
            FlowNetwork(2, {(0, 1): 0})

    @pytest.mark.parametrize("bad", [1.5, 0.25, 2.9, float("nan"), float("inf")])
    def test_every_constructor_rejects_non_integer_flow(self, bad):
        # the message names the dyad and the offending value
        message = r"\(0, 1\) must be a positive integer, got %s" % bad
        with pytest.raises(ValidationError, match=message):
            FlowNetwork(2, {(0, 1): bad})
        with pytest.raises(ValidationError, match=message):
            FlowNetwork.from_dense([[0, bad], [2, 0]])
        with pytest.raises(ValidationError, match=message):
            build_network([(0, 1, bad), (1, 0, 2)], n_nodes=2)

    def test_from_dense_does_not_truncate(self):
        with pytest.raises(ValidationError, match=r"\(0, 1\).*got 1.5"):
            FlowNetwork.from_dense([[0, 1.5], [2.9, 0]])
        net = FlowNetwork.from_dense(np.array([[0, 2.0], [3.0, 0]]))
        assert net.value(0, 1) == 2 and net.value(1, 0) == 3

    def test_mapping_rejects_self_loop_and_range(self):
        with pytest.raises(ValidationError, match=r"self-loop \(1, 1\)"):
            FlowNetwork(3, {(0, 1): 2, (1, 1): 4})
        with pytest.raises(ValidationError, match=r"\(0, 3\) out of range"):
            FlowNetwork(3, {(0, 3): 2})

    def test_arrays_sorted_and_value_lookup(self):
        rng = np.random.default_rng(9)
        mat = rng.poisson(0.7, (8, 8))
        np.fill_diagonal(mat, 0)
        edges = {(int(i), int(j)): int(mat[i, j]) for i, j in zip(*np.nonzero(mat))}
        net = FlowNetwork(8, dict(reversed(list(edges.items()))))
        src, dst, val = net.edge_arrays()
        codes = src * 8 + dst
        assert np.all(np.diff(codes) > 0)
        assert net == FlowNetwork.from_dense(mat)
        assert hash(net) == hash(FlowNetwork.from_dense(mat))
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert net.value(i, j) == mat[i, j]


def make_nodes(n=4, **overrides):
    base = dict(
        ids=["n%d" % k for k in range(n)],
        state=["s0"] * (n // 2) + ["s1"] * (n - n // 2),
        region=["South"] * n,
        population=[1000 + 10 * k for k in range(n)],
        density=[0.5 + 0.1 * k for k in range(n)],
        psr=[4.0] * n,
        racial_shares=[[0.1, 0.2, 0.1, 0.5, 0.1]] * n,
        renter_pct=[25.0] * n,
        highered_pct=[18.0] * n,
        unemployment_pct=[7.0] * n,
        rural_pct=[40.0 + k for k in range(n)],
        democrat_poll_pct=[45.0] * n,
        immigrant_inflow=[0, 5, 10, 20][:n],
    )
    base.update(overrides)
    return NodeTable(**base)


class TestNodeTable:
    def test_covariates(self):
        nodes = make_nodes()
        assert np.allclose(nodes.covariate("log_population"),
                           np.log(nodes.population))
        assert np.allclose(nodes.covariate("renter"), 0.25)
        assert np.allclose(nodes.covariate("share_white"), 0.5)
        assert np.allclose(nodes.covariate("south"), 1.0)
        assert np.allclose(nodes.covariate("west"), 0.0)
        assert np.allclose(nodes.covariate("log_immigrant_inflow"),
                           np.log1p(nodes.immigrant_inflow))

    def test_log_density_needs_positive_density(self):
        nodes = make_nodes()
        assert np.array_equal(nodes.covariate("log_density"), np.log(nodes.density))
        with pytest.raises(ValidationError, match="log_density.*n1$"):
            make_nodes(density=[0.5, 0.0, 0.7, 0.8]).covariate("log_density")

    def test_unknown_covariate(self):
        with pytest.raises(ValidationError, match="unknown node covariate"):
            make_nodes().covariate("favorite_color")

    def test_bad_shares_rejected(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            make_nodes(racial_shares=[[0.1, 0.2, 0.1, 0.5, 0.08]] * 4)

    def test_bad_region_rejected(self):
        with pytest.raises(ValidationError, match="region"):
            make_nodes(region=["Atlantis"] * 4)

    def test_pct_range_enforced(self):
        with pytest.raises(ValidationError, match="renter_pct"):
            make_nodes(renter_pct=[125.0] * 4)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_nodes(ids=["a", "a", "b", "c"])

    @pytest.mark.parametrize("field", ["population", "immigrant_inflow"])
    def test_integer_column_rejects_fractions(self, field):
        # integral floats such as 3.0 are whole numbers and stay accepted
        kept = getattr(make_nodes(**{field: [2.0, 3.0, 7.0, 1.0]}), field)
        assert kept.dtype == np.int64 and kept.tolist() == [2, 3, 7, 1]
        with pytest.raises(ValidationError,
                           match="%s must be a whole number; first offending node 'n1'" % field):
            make_nodes(**{field: [2.0, 2.7, 7.0, 1.9]})
        # an int64 cannot hold 1e300
        with pytest.raises(ValidationError,
                           match=r"%s must lie in \[\d, 9223372036854774784\]; first offending "
                           "node 'n2'" % field):
            make_nodes(**{field: np.array([2.0, 3.0, 1e300, 1.0])})
        big = [2, 3, 2 ** 62 + 1, 2 ** 63 - 1024]
        assert getattr(make_nodes(**{field: big}), field).tolist() == big

    def test_columns_are_the_node_columns(self):
        with pytest.raises(TypeError, match="NODE_COLUMNS"):
            make_nodes(favorite_color=[1.0] * 4)
        kw = dict(ids=["a"], state=["s"], region=["South"])
        with pytest.raises(TypeError, match="NODE_COLUMNS"):
            NodeTable(**kw, population=[1])


class TestDyadCovariateSet:
    def test_symmetry_enforced(self):
        m = np.zeros((3, 3))
        m[0, 1] = 0.2
        with pytest.raises(ValidationError, match="symmetric"):
            DyadCovariateSet(3, {"political_dissim": m})

    def test_antisymmetry_enforced(self):
        m = np.ones((3, 3))
        with pytest.raises(ValidationError, match="antisymmetric"):
            DyadCovariateSet(3, {"unemp_diff": m})

    def test_dissim_range_enforced(self):
        m = np.full((3, 3), 1.5)
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            DyadCovariateSet(3, {"racial_dissim": m})

    def test_unknown_matrix_name(self):
        ds = DyadCovariateSet(3, {"custom": np.zeros((3, 3))})
        assert ds.has("custom")
        with pytest.raises(ValidationError, match="unknown dyad covariate"):
            ds.matrix("other")

    def test_shape_checked(self):
        with pytest.raises(ValidationError, match="shape"):
            DyadCovariateSet(3, {"custom": np.zeros((2, 2))})

    @pytest.mark.parametrize("i,j,bad", [(-1, 0, -1), (0, 3, 3), (5, 1, 5)])
    def test_value_checks_its_nodes(self, i, j, bad):
        nodes = make_nodes(n=3, immigrant_inflow=[0, 5, 10])
        dyads = DyadCovariateSet._of_nodes(nodes, {"custom": np.ones((3, 3))})
        for name in ("political_dissim", "custom"):
            with pytest.raises(ValidationError, match=r"node %d out of range for 3 nodes" % bad):
                dyads.value(name, i, j)


SUM_ONLY = ModelSpec(terms=(TermSpec("sum"),))


@pytest.mark.parametrize("call", [
    lambda net, dyads: net.value(0, 1.5),
    lambda net, dyads: net.value(np.float64(1.0), 0),
    lambda net, dyads: net.in_volume(1.5),
    lambda net, dyads: net.out_volume(1.0),
    lambda net, dyads: dyads.value("custom", 0, 1.5),
    lambda net, dyads: conditional_profile(SUM_ONLY, net, None, None, (0, 1.5), 3),
    lambda net, dyads: conditional_log_pmf(SUM_ONLY, np.zeros(1), net, None, None,
                                           (0, 1.5), 2),
], ids=["value", "value_float64", "in_volume", "out_volume", "covariate_value",
        "conditional_profile", "conditional_log_pmf"])
def test_fractional_node_index_rejected(call):
    # int() would read 1.5 as node 1, and dyad (0, 1) holds 3
    net = build_network([(0, 1, 3), (1, 0, 2), (2, 3, 1)], n_nodes=4)
    dyads = DyadCovariateSet(4, {"custom": np.ones((4, 4))})
    with pytest.raises(ValidationError, match="is not an integer index"):
        call(net, dyads)
