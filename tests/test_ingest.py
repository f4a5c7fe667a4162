import math
import pickle
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ergmflow import (ModelSpec, NodeTable, TermSpec,
                      ValidationError, build_dyad_covariates, build_network,
                      group_flow_matrix, ingest, load_distances, load_flows,
                      load_nodes, racial_dissimilarity, scalar_dissimilarity,
                      synthetic_generate, write_distances_csv,
                      write_flows_csv, write_nodes_csv)
from ergmflow.network import REGIONS, FlowNetwork
from oracles import (ROWLOOP_NODE_COLUMNS, dense_dyad_covariates,
                     offdiag_dyads, rowloop_load_distances,
                     rowloop_load_flows, rowloop_load_nodes,
                     rowloop_write_distances_csv, rowloop_write_flows_csv,
                     rowloop_write_nodes_csv)

compositions = st.lists(st.floats(min_value=0.0, max_value=1000.0),
                        min_size=5, max_size=5).filter(lambda x: sum(x) > 1e-6)


class TestRacialDissimilarity:
    def test_identity(self):
        assert racial_dissimilarity([0.2, 0.2, 0.2, 0.2, 0.2],
                                    [0.2, 0.2, 0.2, 0.2, 0.2]) == 0.0

    def test_disjoint_support_is_max(self):
        assert racial_dissimilarity([1, 0, 0, 0, 0], [0, 1, 0, 0, 0]) == 1.0

    def test_hand_case(self):
        got = racial_dissimilarity([0.5, 0.5, 0, 0, 0], [0.25, 0.25, 0.5, 0, 0])
        assert got == pytest.approx(0.5)

    def test_counts_normalized(self):
        assert racial_dissimilarity([50, 50, 0, 0, 0],
                                    [1, 1, 2, 0, 0]) == pytest.approx(0.5)

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            racial_dissimilarity([-1, 2, 0, 0, 0], [1, 0, 0, 0, 0])
        with pytest.raises(ValidationError):
            racial_dissimilarity([0, 0, 0, 0, 0], [1, 0, 0, 0, 0])
        with pytest.raises(ValidationError):
            racial_dissimilarity([1, 0, 0], [1, 0, 0, 0, 0])

    @settings(max_examples=200, deadline=None)
    @given(a=compositions, b=compositions, c=compositions)
    def test_semimetric(self, a, b, c):
        dab = racial_dissimilarity(a, b)
        dba = racial_dissimilarity(b, a)
        dac = racial_dissimilarity(a, c)
        dcb = racial_dissimilarity(c, b)
        assert dab == dba
        assert 0.0 <= dab <= 1.0
        assert dab <= dac + dcb + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(a=compositions)
    def test_zero_iff_equal(self, a):
        assert racial_dissimilarity(a, a) <= 1e-15


class TestScalarDissimilarity:
    def test_cases(self):
        assert scalar_dissimilarity(60, 60) == 0.0
        assert scalar_dissimilarity(100, 0) == 1.0
        assert scalar_dissimilarity(41.6, 55.3) == pytest.approx(0.137)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            scalar_dissimilarity(-2, 10)
        with pytest.raises(ValidationError):
            scalar_dissimilarity(2, 110)


class TestBuildDyadCovariates:
    def test_structure(self, small_data):
        _model, _theta, _cur, lagged, nodes, dyads = small_data
        n = nodes.n_nodes
        off = ~np.eye(n, dtype=bool)
        for name in ("political_dissim", "rural_dissim", "racial_dissim"):
            m = dyads.matrix(name)
            assert np.array_equal(m, m.T)
            assert m.min() >= 0 and m.max() <= 1
        u = dyads.matrix("unemp_diff")
        assert np.array_equal(u, -u.T)
        s = dyads.matrix("same_state")
        assert set(np.unique(s)) <= {0.0, 1.0}
        lag = dyads.matrix("lagged_log_flow")
        assert np.allclose(lag, np.log1p(lagged.dense_matrix(dtype=float)))
        assert np.all(np.isfinite(dyads.matrix("log_distance")[off]))

    def test_same_state_semantics(self):
        nodes = _tiny_nodes(states=["s0", "s0", "s1"])
        km = _tiny_km(3)
        dyads = build_dyad_covariates(nodes, km)
        assert dyads.value("same_state", 0, 1) == 1.0
        assert dyads.value("same_state", 0, 2) == 0.0

    def test_log_distance_value(self):
        nodes = _tiny_nodes(states=["s0", "s0", "s1"])
        km = _tiny_km(3, fill=1000.0)
        dyads = build_dyad_covariates(nodes, km)
        assert dyads.value("log_distance", 0, 1) == pytest.approx(6.9078, abs=1e-4)

    def test_lag_transform(self):
        nodes = _tiny_nodes(states=["s0", "s0", "s1"])
        lagged = build_network([(0, 1, 99)], n_nodes=3)
        dyads = build_dyad_covariates(nodes, _tiny_km(3), lagged=lagged)
        assert dyads.value("lagged_log_flow", 0, 1) == pytest.approx(
            math.log(100), abs=1e-10)
        assert dyads.value("lagged_log_flow", 1, 0) == 0.0

    def test_missing_distance_rejected(self):
        nodes = _tiny_nodes(states=["s0", "s0", "s1"])
        km = _tiny_km(3)
        km[0, 2] = km[2, 0] = np.nan
        with pytest.raises(ValidationError, match="missing distance"):
            build_dyad_covariates(nodes, km)

    def test_nonpositive_distance_rejected(self):
        nodes = _tiny_nodes(states=["s0", "s0", "s1"])
        km = _tiny_km(3)
        km[0, 1] = km[1, 0] = 0.0
        with pytest.raises(ValidationError, match="positive"):
            build_dyad_covariates(nodes, km)


def _random_inputs(n, seed):
    """A random node table on n nodes with shared states, a symmetric km
    matrix and a sparse lagged network."""
    rng = np.random.default_rng(seed)
    draw = ingest.DEFAULT_COVARIATE_DISTRIBUTIONS
    fields = ("population", "density", "psr", "racial_shares", "renter_pct",
              "highered_pct", "unemployment_pct", "rural_pct",
              "democrat_poll_pct", "immigrant_inflow")
    nodes = NodeTable(ids=["n%04d" % k for k in range(n)],
                      state=["s%02d" % s for s in rng.integers(0, max(2, n // 8), n)],
                      region=[REGIONS[k % 4] for k in range(n)],
                      **{f: draw[f](rng, n) for f in fields})
    km = np.triu(rng.uniform(1.0, 3000.0, (n, n)), 1)
    flows = rng.poisson(0.03, (n, n)) * rng.integers(1, 50, (n, n))
    np.fill_diagonal(flows, 0)
    return nodes, km + km.T, FlowNetwork.from_dense(flows)


class TestOnDemandCovariates:
    """Covariates evaluated on the dyads asked for, against the dense
    matrices the package used to store."""

    def test_bit_equal_to_dense_construction(self):
        n = 150
        nodes, km, lagged = _random_inputs(n, seed=5)
        dyads = build_dyad_covariates(nodes, km, lagged=lagged)
        want = dense_dyad_covariates(nodes, lagged)
        want["log_distance"] = np.log(km + np.eye(n))
        assert dyads.names == tuple(sorted(want))
        off = ~np.eye(n, dtype=bool)
        every = np.arange(n)
        ii, jj = offdiag_dyads(np.random.default_rng(6).integers(0, n * (n - 1), 5000), n)
        for name, m in want.items():
            bits = m.view(np.int64)
            full = dyads.matrix(name)
            assert np.array_equal(full.view(np.int64)[off], bits[off]), name
            assert not np.diagonal(full).any(), name
            grid = dyads.values_at(name, every[:, None], every[None, :])
            assert np.array_equal(grid.view(np.int64)[off], bits[off]), name
            batch = dyads.values_at(name, ii, jj)
            assert np.array_equal(batch.view(np.int64), bits[ii, jj]), name
            assert dyads.value(name, 3, 7) == m[3, 7] and dyads.value(name, 4, 4) == 0.0

    def test_build_stores_only_the_distance_matrix(self):
        n = 600
        nodes, km, lagged = _random_inputs(n, seed=8)
        square = 8 * n * n  # bytes of one (n, n) float64 matrix
        tracemalloc.start()
        try:
            dyads = build_dyad_covariates(nodes, km, lagged=lagged)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dyads.has("lagged_log_flow")
        assert kept <= 1.1 * square, kept / square  # log_distance alone
        assert peak <= 3 * square, peak / square

    def test_pickled_set_evaluates_the_same(self, small_data):
        dyads = small_data[-1]
        back = pickle.loads(pickle.dumps(dyads))
        assert back.names == dyads.names
        for name in dyads.names:
            assert np.array_equal(back.matrix(name), dyads.matrix(name)), name


def _tiny_nodes(states):
    from ergmflow import NodeTable

    n = len(states)
    return NodeTable(
        ids=["n%d" % k for k in range(n)],
        state=states,
        region=["West"] * n,
        population=[1000] * n,
        density=[1.0] * n,
        psr=[4.0] * n,
        racial_shares=[[0.2, 0.2, 0.2, 0.2, 0.2]] * n,
        renter_pct=[20.0] * n,
        highered_pct=[15.0] * n,
        unemployment_pct=[5.0] * n,
        rural_pct=[50.0] * n,
        democrat_poll_pct=[50.0] * n,
        immigrant_inflow=[0] * n,
    )


def _tiny_km(n, fill=100.0):
    km = np.full((n, n), fill)
    np.fill_diagonal(km, 0.0)
    return km


class TestLoaders:
    def test_flow_fixture(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("origin,destination,count\nA,B,3\nB,A,1\nC,A,9\n")
        records = load_flows(p)
        net = build_network(records, node_ids=["A", "B", "C"])
        assert net.n_edges == 3

    def test_duplicate_row_named(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("origin,destination,count\nA,B,3\nA,B,4\n")
        with pytest.raises(ValidationError, match="row 3"):
            load_flows(p)

    def test_non_numeric_cell_named(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("origin,destination,count\nA,B,many\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_flows(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("origin,count\nA,3\n")
        with pytest.raises(ValidationError, match="missing columns"):
            load_flows(p)

    def test_node_shares_validation(self, tmp_path, small_data):
        _m, _t, _c, _l, nodes, _d = small_data
        p = tmp_path / "nodes.csv"
        write_nodes_csv(p, nodes)
        text = p.read_text().splitlines()
        parts = text[1].split(",")
        parts[6] = repr(float(parts[6]) - 2.0)  # break the share sum
        text[1] = ",".join(parts)
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(ValidationError, match="sum to"):
            load_nodes(p)

    def test_duplicate_node_id(self, tmp_path, small_data):
        _m, _t, _c, _l, nodes, _d = small_data
        p = tmp_path / "nodes.csv"
        write_nodes_csv(p, nodes)
        lines = p.read_text().splitlines()
        lines.append(lines[1])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="duplicate node id"):
            load_nodes(p)

    def test_round_trip(self, tmp_path, small_data):
        _m, _t, current, _l, nodes, dyads = small_data
        fp, np_, dp = (tmp_path / x for x in ("f.csv", "n.csv", "d.csv"))
        write_flows_csv(fp, current)
        write_nodes_csv(np_, nodes)
        km = np.exp(dyads.matrix("log_distance")).copy()
        np.fill_diagonal(km, 0.0)
        write_distances_csv(dp, km, nodes.ids)

        nodes2 = load_nodes(np_)
        net2 = build_network(load_flows(fp), node_ids=nodes2.ids)
        km2 = load_distances(dp, nodes2.ids)
        assert net2 == current
        assert nodes2.ids == nodes.ids
        assert np.allclose(nodes2.racial_shares, nodes.racial_shares, atol=1e-12)
        off = ~np.eye(nodes.n_nodes, dtype=bool)
        assert np.allclose(km2[off], km[off], rtol=1e-12)

    @pytest.mark.parametrize("cell, want", [
        ("12", 12), ("12.0", 12), ("1e3", 1000), (" +7 ", 7),
        ("9007199254740993", 2 ** 53 + 1)])  # a literal stays exact past 2**53
    def test_integer_columns_take_whole_numbers(self, tmp_path, cell, want):
        p = _write(tmp_path, "\n".join([NODE_HEADER, _node_line("a", population=cell),
                                        _node_line("b", immigrant_inflow=cell)]) + "\n")
        nodes = load_nodes(p)
        assert nodes.population[0] == want and nodes.immigrant_inflow[1] == want

    @pytest.mark.parametrize("column, cell", [
        ("population", "12.5"), ("immigrant_inflow", "0.1"), ("population", "inf"),
        ("population", "x"), ("immigrant_inflow", "")])
    def test_integer_columns_reject_other_cells(self, tmp_path, column, cell):
        p = _write(tmp_path, "\n".join([NODE_HEADER, _node_line("a"),
                                        _node_line("b", **{column: cell})]) + "\n")
        with pytest.raises(ValidationError) as info:
            load_nodes(p)
        assert str(info.value) == ("%s row 3: %s value %r is not a whole number"
                                   % (p, column, cell))

    @pytest.mark.parametrize("loader", ["flows", "nodes", "flow_header", "distance_km",
                                        "flow_count_arrays"])
    def test_oversized_field_named(self, tmp_path, loader):
        # a field over csv's 131,072-character limit in the third row, or in
        # a flow file's header; np.loadtxt would read the zero-padded numbers
        big = "x" * 140_000
        row = 3
        if loader == "flows":
            text, load = "origin,destination,count\nA,B,3\n\n%s,A,1\n" % big, load_flows
        elif loader == "flow_header":
            text, load, row = "origin,destination,%s\nA,B,3\n" % big, load_flows, 1
        elif loader == "distance_km":
            text = "id_a,id_b,km\nA,B,3\nA,C,%s5\n" % ("0" * 140_000)
            load = lambda q: load_distances(q, IDS)
        elif loader == "flow_count_arrays":
            text = "origin,destination,count\nA,B,3\nA,C,%s5\n" % ("0" * 140_000)
            load = lambda q: ingest._load_network(q, IDS, "")
        else:
            text = "\n".join([NODE_HEADER, _node_line("a"), "", _node_line(big)]) + "\n"
            load = load_nodes
        p = _write(tmp_path, text)
        with pytest.raises(ValidationError) as info:
            load(p)
        assert str(info.value).startswith("%s row %d: field larger than field limit" % (p, row))

    def test_distance_unknown_id(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id_a,id_b,km\nX,Y,5\n")
        with pytest.raises(ValidationError, match="unknown node id"):
            load_distances(p, ["A", "B"])

    def test_distance_conflict(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id_a,id_b,km\nA,B,5\nB,A,6\n")
        with pytest.raises(ValidationError, match="conflicting"):
            load_distances(p, ["A", "B"])


class TestGroupFlow:
    def test_hand_assignment(self):
        net = build_network([(0, 1, 3), (1, 0, 1)], n_nodes=2)
        gfm = group_flow_matrix(net, [0, 1])
        assert gfm.totals.tolist() == [[0, 3], [1, 0]]
        assert gfm.total_flow == 4
        # everyone arriving in group 1 came from group 0
        assert gfm.share_into(1, 0) == 1.0

    def test_degenerate_partition(self):
        net = build_network([(0, 1, 3), (2, 0, 2)], n_nodes=3)
        gfm = group_flow_matrix(net, [0, 0, 0])
        assert gfm.totals[0, 0] == 5
        assert gfm.totals.sum() == net.total_flow
        assert math.isnan(gfm.column_proportions[0, 1])

    def test_totals_sum_to_network_total(self, small_data):
        _m, _t, current, _l, nodes, _d = small_data
        part = (nodes.democrat_poll_pct > 50).astype(int)
        gfm = group_flow_matrix(current, part)
        assert gfm.totals.sum() == current.total_flow
        cols = gfm.column_proportions.sum(axis=0)
        assert np.allclose(cols[np.isfinite(cols)], 1.0)

    def test_partition_validation(self):
        net = build_network([(0, 1, 3)], n_nodes=2)
        with pytest.raises(ValidationError):
            group_flow_matrix(net, [0, 2])
        with pytest.raises(ValidationError):
            group_flow_matrix(net, [0])


class TestSyntheticGenerate:
    def test_determinism(self):
        model = ModelSpec(terms=(TermSpec("sum"),))
        theta = np.array([math.log(0.3)])
        a = synthetic_generate(20, model, theta, seed=5)
        b = synthetic_generate(20, model, theta, seed=5)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert np.array_equal(a[2].population, b[2].population)

    def test_sum_only_total_close_to_rate(self):
        model = ModelSpec(terms=(TermSpec("sum"),))
        theta = np.array([math.log(0.5)])
        current, _, _, _ = synthetic_generate(50, model, theta, seed=6)
        expected = 0.5 * 50 * 49
        assert abs(current.total_flow - expected) <= 3 * math.sqrt(expected)

    def test_negative_dissim_coefficient_gives_negative_correlation(self):
        model = ModelSpec(terms=(TermSpec("sum"),
                                 TermSpec("dyad", "political_dissim")))
        theta = np.array([math.log(0.6), -2.5])
        current, _, nodes, dyads = synthetic_generate(40, model, theta, seed=7)
        m = dyads.matrix("political_dissim")
        y = current.dense_matrix(dtype=float)
        off = ~np.eye(40, dtype=bool)
        corr = np.corrcoef(m[off], y[off])[0, 1]
        assert corr < 0.0

    def test_lagged_term_generation(self, small_data):
        model, theta, current, lagged, nodes, dyads = small_data
        assert model.has_lag
        assert lagged.period_label == "lagged"
        assert current.period_label == "current"
        assert dyads.has("lagged_log_flow")

    def test_validation(self):
        model = ModelSpec(terms=(TermSpec("sum"),))
        with pytest.raises(ValidationError):
            synthetic_generate(1, model, np.array([0.0]), seed=0)
        with pytest.raises(ValidationError):
            synthetic_generate(10, model, np.array([0.0, 1.0]), seed=0)


# -- streaming loaders against the row-at-a-time oracle ---------------------------

IDS = ["A", "B", "C", "D"]


def _outcome(load, *args):
    try:
        return "ok", load(*args)
    except ValidationError as exc:
        return "error", str(exc)


def _assert_same_outcome(new, old):
    assert new[0] == old[0], (new, old)
    if new[0] == "error":
        assert new[1] == old[1]
    return new[1]


def _assert_same_nodes(a, b):
    assert a.ids == b.ids
    for name in ("state", "region", "population", "density", "psr",
                 "racial_shares", "renter_pct", "highered_pct",
                 "unemployment_pct", "rural_pct", "democrat_poll_pct",
                 "immigrant_inflow"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        if x.dtype.kind == "f":
            assert np.array_equal(x.view(np.int64), y.view(np.int64)), name
        else:
            assert np.array_equal(x, y), name


def _long_distances(n):
    """Header plus every unordered pair of n nodes, one block and more."""
    ids = ["n%03d" % k for k in range(n)]
    lines = ["id_a,id_b,km"]
    lines += ["%s,%s,%d.5" % (ids[a], ids[b], 1 + (a * 7 + b) % 997)
              for a in range(n) for b in range(a + 1, n)]
    return ids, lines


def _long_flows(n_rows):
    lines = ["origin,destination,count"]
    lines += ["o%d,d%d,%d" % (k % 97, k, 1 + k % 13) for k in range(n_rows)]
    return lines


def _long_flow_ids(n_rows):
    return ["o%d" % k for k in range(97)] + ["d%d" % k for k in range(n_rows)]


def _node_line(node_id, **change):
    row = dict(zip(ROWLOOP_NODE_COLUMNS, [
        node_id, "s1", "West", "1000", "1.5", "4.0", "10.0", "20.0", "5.0",
        "60.0", "5.0", "30.0", "20.0", "5.0", "50.0", "45.0", "12"]))
    row.update(change)
    return ",".join(row[c] for c in ROWLOOP_NODE_COLUMNS)


NODE_HEADER = ",".join(ROWLOOP_NODE_COLUMNS)

DISTANCE_CORPUS = {
    "unknown_a": "id_a,id_b,km\nA,B,5\nX,B,5\n",
    "unknown_b": "id_a,id_b,km\nA,Y,5\n",
    "self_pair": "id_a,id_b,km\nA,B,5\nC,C,5\n",
    "non_numeric": "id_a,id_b,km\nA,B,five\n",
    "empty_km": "id_a,id_b,km\nA,B,\n",
    "zero": "id_a,id_b,km\nA,B,0\n",
    "negative": "id_a,id_b,km\nA,B,-3.5\n",
    "minus_inf": "id_a,id_b,km\nA,B,-inf\n",
    "conflict": "id_a,id_b,km\nA,B,5\nC,D,2\nB,A,6\n",
    "same_value_duplicate": "id_a,id_b,km\nA,B,5\nB,A,5.0\nA,B,5\n",
    "unknown_then_non_numeric": "id_a,id_b,km\nX,B,5\nA,B,zz\n",
    "non_numeric_then_unknown": "id_a,id_b,km\nA,B,zz\nX,B,5\n",
    "self_then_conflict": "id_a,id_b,km\nA,B,5\nC,C,1\nA,B,6\n",
    "conflict_then_self": "id_a,id_b,km\nA,B,5\nA,B,6\nC,C,1\n",
    "unknown_and_non_numeric_one_row": "id_a,id_b,km\nA,Z,zz\n",
    "blank_lines": "id_a,id_b,km\n\nA,B,5\n\n\nC,D,-1\n",
    "quoted_commas": 'id_a,id_b,km\n"A,1","B,2",5\n"A,1",C,0\n',
    "reordered_extra_columns": "note,km,id_b,x,id_a\nhi,5,B,1,A\nyo,5,C,2,C\n",
    "short_row_km": "id_a,id_b,km\nA,B,5\nA,C\n",
    "short_row_id": "km,id_a,id_b\n5,A,B\n5,A\n",
    "long_row": "id_a,id_b,km\nA,B,5,9,9\nB,C,x,1\n",
    "missing_column": "id_a,km\nA,5\n",
    "empty_file": "",
    "blank_header": "\nid_a,id_b,km\nA,B,5\n",
    "repeated_column": "id_a,id_b,km,km\nA,B,5,6\nA,B,6\n",
    "id_longer_than_every_node_id": "id_a,id_b,km\nA,B,5\nDDDDDDDD,B,5\n",
    "km_underscore": "id_a,id_b,km\nA,B,1_0\n",
    "km_arabic_indic_digit": "id_a,id_b,km\nA,B,\u0663\n",
    "km_spaces": "id_a,id_b,km\nA,B, 5 \n",
    "km_plus": "id_a,id_b,km\nA,B,+5\n",
    "km_trailing_point": "id_a,id_b,km\nA,B,5.\n",
    "km_leading_point": "id_a,id_b,km\nA,B,.5\n",
    "km_underflow": "id_a,id_b,km\nA,B,1e-400\n",
    "km_hex": "id_a,id_b,km\nA,B,0x10\n",
}
DISTANCE_LOADS = {"same_value_duplicate", "km_underscore", "km_arabic_indic_digit",
                  "km_spaces", "km_plus", "km_trailing_point", "km_leading_point"}

FLOW_CORPUS = {
    "non_numeric": "origin,destination,count\nA,B,many\n",
    "fractional": "origin,destination,count\nA,B,2\nA,C,3.5\n",
    "whole_decimals": "origin,destination,count\nA,B,2.0\nA,C,1e3\nB,C,4\n",
    "negative": "origin,destination,count\nA,B,-2\n",
    "duplicate": "origin,destination,count\nA,B,3\nC,D,1\nA,B,3\n",
    "negative_then_duplicate": "origin,destination,count\nA,B,-1\nA,B,1\nA,B,1\n",
    "duplicate_then_negative": "origin,destination,count\nA,B,1\nA,B,1\nC,D,-1\n",
    "duplicate_and_non_numeric_one_row": "origin,destination,count\nA,B,1\nA,B,x\n",
    "blank_lines": "origin,destination,count\n\nA,B,1\n\nA,B,2\n",
    "quoted_commas": 'origin,destination,count\n"A,1","B,2",1\n"A,1","B,2",4\n',
    "reordered_extra_columns": "count,x,destination,origin\n1,q,B,A\n-4,r,A,B\n",
    "short_row": "origin,destination,count\nA,B,1\nA,B\n",
    "short_row_valid": "count,origin,destination\n1,A,B\n2,A\n",
    "missing_column": "origin,count\nA,3\n",
    "valid": "origin,destination,count\nA,B,1\nB,A,0\n C , D ,+7\n",
}
FLOW_LOADS = {"short_row_valid", "valid", "whole_decimals"}

# flow files for the array loader over NETWORK_IDS: ids the node table does
# not hold, and counts int() reads that np.loadtxt may not
NETWORK_IDS = IDS + [" E ", "F\0"]
NETWORK_CORPUS = {
    "unknown_id": "origin,destination,count\nA,B,1\nA,Z,2\n",
    "self_loop": "origin,destination,count\nA,B,1\nC,C,2\n",
    "zero_self_loop": "origin,destination,count\nA,B,1\nC,C,0\n",
    "zero_counts": "origin,destination,count\nA,B,0\nB,A,3\nA,C,0\n",
    "zero_count_duplicate": "origin,destination,count\nA,B,0\nB,A,3\nA,B,1\n",
    "id_holding_nul": "origin,destination,count\nF\0,A,1\nA,F\0,2\n",
    "unknown_id_holding_nul": "origin,destination,count\nA\0,B,1\n",
    "id_holding_spaces": "origin,destination,count\n E ,A,1\nA, E ,2\n",
    "id_without_its_spaces": "origin,destination,count\nE,A,1\n",
    "count_underscore": "origin,destination,count\nA,B,1_000\n",
    "count_arabic_indic_digit": "origin,destination,count\nA,B,\u0663\n",
    "count_spaces": "origin,destination,count\nA,B, 5 \n",
    "count_plus": "origin,destination,count\nA,B,+5\n",
    "count_hex": "origin,destination,count\nA,B,0x10\n",
    "count_trailing_point": "origin,destination,count\nA,B,5.\n",
    "count_beyond_int64": "origin,destination,count\nA,B,9223372036854775808\n",
}
NETWORK_LOADS = {"zero_counts", "id_holding_nul", "id_holding_spaces",
                 "count_underscore", "count_arabic_indic_digit", "count_spaces",
                 "count_plus", "count_trailing_point"}

NODE_CORPUS = {
    "duplicate_id": [_node_line("a"), _node_line("b"), _node_line("a")],
    "non_numeric_population": [_node_line("a", population="12 000")],
    "fractional_population": [_node_line("a"), _node_line("b", population="12.5")],
    "whole_decimals": [_node_line("a", population="12.0", immigrant_inflow="1e3")],
    "large_integer_population": [_node_line("a", population="9007199254740993")],
    "non_numeric_pct": [_node_line("a"), _node_line("b", pct_asian="?")],
    "bad_sum": [_node_line("a", pct_white="58.0")],
    "bad_sum_before_bad_renter": [_node_line("a", pct_white="58.0", pct_renter="?")],
    "bad_renter_then_bad_sum": [_node_line("a", pct_renter="?"),
                                _node_line("b", pct_white="58.0")],
    "bad_sum_then_duplicate": [_node_line("a", pct_white="58.0"), _node_line("a")],
    "non_numeric_inflow": [_node_line("a", immigrant_inflow="n/a")],
    "fractional_inflow": [_node_line("a", immigrant_inflow="1.5")],
    "negative_density": [_node_line("a", density="-1")],
    "bad_region": [_node_line("a", region="Atlantis")],
    "short_row": [_node_line("a"), "b,s1,West,10"],
    "quoted_ids": ['"a,1"' + _node_line("a")[1:], '"b ""2"""' + _node_line("b")[1:]],
    "blank_lines": ["", _node_line("a"), "", _node_line("a", psr="x")],
    "no_rows": [],
}
NODE_LOADS = {"quoted_ids", "whole_decimals", "large_integer_population"}


def _write(tmp_path, text, name="in.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _assert_same_network(p, ids):
    """The array loader returns what build_network makes of the row loop's
    records, or raises the same message."""
    new = _outcome(ingest._load_network, p, ids, "lagged")
    old = _outcome(lambda q: build_network(rowloop_load_flows(q), node_ids=ids,
                                           period_label="lagged"), p)
    net = _assert_same_outcome(new, old)
    if new[0] == "ok":
        assert net == old[1]
        assert (net.node_ids, net.period_label) == (old[1].node_ids, "lagged")
    return new


class TestLoaderParity:
    """The streaming loaders return what the row loop returned, bit for bit,
    and raise the same message naming the same row."""

    @pytest.mark.parametrize("case", sorted(DISTANCE_CORPUS))
    def test_distance_corpus(self, tmp_path, case):
        p = _write(tmp_path, DISTANCE_CORPUS[case])
        ids = IDS + ["A,1", "B,2"]
        new = _outcome(load_distances, p, ids)
        assert new[0] == ("ok" if case in DISTANCE_LOADS else "error")
        old = _outcome(rowloop_load_distances, p, ids)
        km = _assert_same_outcome(new, old)
        if new[0] == "ok":
            assert np.array_equal(km, old[1], equal_nan=True)

    @pytest.mark.parametrize("case", sorted(FLOW_CORPUS))
    def test_flow_corpus(self, tmp_path, case):
        p = _write(tmp_path, FLOW_CORPUS[case])
        new = _outcome(load_flows, p)
        assert new[0] == ("ok" if case in FLOW_LOADS else "error")
        records = _assert_same_outcome(new, _outcome(rowloop_load_flows, p))
        if new[0] == "ok":
            assert records == rowloop_load_flows(p)
            assert [type(r[2]) for r in records] == [int] * len(records)
        _assert_same_network(p, IDS)

    @pytest.mark.parametrize("case", sorted(NETWORK_CORPUS))
    def test_network_corpus(self, tmp_path, case):
        p = _write(tmp_path, NETWORK_CORPUS[case])
        new = _assert_same_network(p, NETWORK_IDS)
        assert new[0] == ("ok" if case in NETWORK_LOADS else "error")
        if case == "count_beyond_int64":  # it would wrap to a negative int64
            assert new[1] == ("flow value for (0, 1) is 9223372036854775808, "
                              "beyond the int64 maximum 9223372036854775807")

    @pytest.mark.parametrize("case", sorted(NODE_CORPUS))
    def test_node_corpus(self, tmp_path, case):
        p = _write(tmp_path, "\n".join([NODE_HEADER] + NODE_CORPUS[case]) + "\n")
        new = _outcome(load_nodes, p)
        assert new[0] == ("ok" if case in NODE_LOADS else "error")
        table = _assert_same_outcome(new, _outcome(rowloop_load_nodes, p))
        if new[0] == "ok":
            _assert_same_nodes(table, rowloop_load_nodes(p))

    @pytest.mark.parametrize("text", ["id_a,id_b,km\nA,B,5\n",
                                      "id_a,id_b,km\nA\0,B,5\n"])
    def test_node_id_holding_nul(self, tmp_path, text):
        p = _write(tmp_path, text)
        ids = ["A\0", "B"]
        new = _outcome(load_distances, p, ids)
        old = _outcome(rowloop_load_distances, p, ids)
        km = _assert_same_outcome(new, old)
        if new[0] == "ok":
            assert np.array_equal(km, old[1], equal_nan=True)

    def test_valid_files_match(self, tmp_path, small_data):
        _m, _t, current, lagged, nodes, dyads = small_data
        fp, lp, np_, dp = (tmp_path / x for x in ("f.csv", "l.csv", "n.csv", "d.csv"))
        write_flows_csv(fp, current)
        write_flows_csv(lp, lagged)
        write_nodes_csv(np_, nodes)
        km = np.exp(dyads.matrix("log_distance"))
        write_distances_csv(dp, km, nodes.ids)
        for path in (fp, lp):
            assert load_flows(path) == rowloop_load_flows(path)
        _assert_same_nodes(load_nodes(np_), rowloop_load_nodes(np_))
        got, want = load_distances(dp, nodes.ids), rowloop_load_distances(dp, nodes.ids)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_multi_block_files_match(self, tmp_path):
        ids, lines = _long_distances(140)  # 9,730 rows: two blocks
        assert len(lines) - 1 > ingest._BLOCK_ROWS
        # both directions, shuffled, so duplicates meet within and across blocks
        rng = np.random.default_rng(3)
        rows = lines[1:] + [",".join((b, a, d)) for a, b, d in
                            (x.split(",") for x in lines[1:])]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        p = _write(tmp_path, "\n".join(["id_a,id_b,km"] + rows) + "\n")
        got, want = load_distances(p, ids), rowloop_load_distances(p, ids)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        flows = _write(tmp_path, "\n".join(_long_flows(20000)) + "\n", "f.csv")
        assert load_flows(flows) == rowloop_load_flows(flows)

    @pytest.mark.parametrize("fault", ["non_numeric", "unknown", "self",
                                       "conflict_in_earlier_block",
                                       "conflict_in_same_block"])
    def test_fault_in_second_block(self, tmp_path, fault):
        ids, lines = _long_distances(140)
        k = ingest._BLOCK_ROWS + 500  # a row of the second block
        a, b, _d = lines[k].split(",")
        if fault == "non_numeric":
            lines[k] = "%s,%s,n/a" % (a, b)
        elif fault == "unknown":
            lines[k] = "%s,zz,3" % a
        elif fault == "self":
            lines[k] = "%s,%s,3" % (a, a)
        elif fault == "conflict_in_earlier_block":
            a, b, d = lines[3].split(",")
            lines[k] = "%s,%s,%s" % (b, a, float(d) + 1.0)
        else:
            a, b, d = lines[k - 10].split(",")
            lines[k] = "%s,%s,%s" % (b, a, float(d) + 1.0)
        p = _write(tmp_path, "\n".join(lines) + "\n")
        new = _outcome(load_distances, p, ids)
        assert new[0] == "error" and ("row %d:" % (k + 1)) in new[1]
        _assert_same_outcome(new, _outcome(rowloop_load_distances, p, ids))

    @pytest.mark.parametrize("later_fault", [False, True])
    @pytest.mark.parametrize("odd", ["quote", "nul", "bare_cr", "whitespace_line",
                                     "blank_line", "long_id"])
    def test_second_block_read_as_csv(self, tmp_path, odd, later_fault):
        # a line the block parser must leave to csv in the second block, and
        # maybe a bad row in the third, which csv must number as the row loop
        ids, lines = _long_distances(190)  # 17,955 rows: three blocks
        assert len(lines) - 1 > 2 * ingest._BLOCK_ROWS
        k = ingest._BLOCK_ROWS + 500
        if later_fault:
            a, b, _d = lines[k + ingest._BLOCK_ROWS].split(",")
            lines[k + ingest._BLOCK_ROWS] = "%s,%s,n/a" % (a, b)
        if odd == "quote":  # a quoted line break in an extra column hides a row
            lines[k] += ',"x'
            lines[k + 1] += ',"'
        elif odd == "nul":  # numpy's str type would drop it
            lines[k] = lines[k].replace(",", "\0,", 1)
        elif odd == "bare_cr":
            lines[k:k + 2] = [lines[k] + "\r" + lines[k + 1]]
        elif odd == "long_id":  # cut to the longest id's width, "n0011" is "n001"
            lines[k] = lines[k].replace(",", "1,", 1)
        else:
            lines.insert(k, " " if odd == "whitespace_line" else "")
        p = _write(tmp_path, "\n".join(lines) + "\n")
        new = _outcome(load_distances, p, ids)
        old = _outcome(rowloop_load_distances, p, ids)
        assert new[0] == ("ok" if odd in ("quote", "bare_cr", "blank_line")
                          and not later_fault else "error")
        km = _assert_same_outcome(new, old)
        if new[0] == "ok":
            assert np.array_equal(km.view(np.int64), old[1].view(np.int64))

    def test_flow_duplicate_across_blocks(self, tmp_path):
        lines = _long_flows(ingest._BLOCK_ROWS + 100)
        lines.append(lines[5])
        p = _write(tmp_path, "\n".join(lines) + "\n")
        new = _outcome(load_flows, p)
        assert new[0] == "error" and "first at row 6" in new[1]
        _assert_same_outcome(new, _outcome(rowloop_load_flows, p))
        new = _assert_same_network(p, _long_flow_ids(ingest._BLOCK_ROWS + 100))
        assert new[0] == "error" and "first at row 6" in new[1]

    @pytest.mark.parametrize("fault", ["unknown", "self", "negative", "non_numeric",
                                       "duplicate_in_same_block", "quote", "blank_line"])
    def test_flow_fault_in_second_block(self, tmp_path, fault):
        n_rows = 2 * ingest._BLOCK_ROWS + 100
        lines = _long_flows(n_rows)
        k = ingest._BLOCK_ROWS + 500  # a row of the second block
        a, b, _c = lines[k].split(",")
        if fault == "unknown":
            lines[k] = "%s,zz,3" % a
        elif fault == "self":
            lines[k] = "%s,%s,3" % (a, a)
        elif fault == "negative":
            lines[k] = "%s,%s,-3" % (a, b)
        elif fault == "non_numeric":
            lines[k] = "%s,%s,n/a" % (a, b)
        elif fault == "duplicate_in_same_block":
            lines[k] = lines[k - 10]
        elif fault == "quote":
            lines[k] = '"%s",%s,3' % (a, b)
        else:
            lines.insert(k, "")
        p = _write(tmp_path, "\n".join(lines) + "\n")
        new = _assert_same_network(p, _long_flow_ids(n_rows))
        assert new[0] == ("ok" if fault in ("quote", "blank_line") else "error")
        if fault in ("negative", "non_numeric", "duplicate_in_same_block"):
            assert ("row %d:" % (k + 1)) in new[1]
        elif fault == "unknown":  # build_network names the id or the pair, not the row
            assert new[1] == "unknown node id 'zz'"
        elif fault == "self":
            assert new[1] == "self-loop (%d, %d) is not allowed" % ((int(a[1:]),) * 2)

    def test_node_duplicate_across_blocks(self, tmp_path):
        lines = [_node_line("n%05d" % k) for k in range(ingest._BLOCK_ROWS + 50)]
        lines.append(_node_line("n00007"))
        p = _write(tmp_path, "\n".join([NODE_HEADER] + lines) + "\n")
        new = _outcome(load_nodes, p)
        assert new[0] == "error" and "first at row 9" in new[1]
        _assert_same_outcome(new, _outcome(rowloop_load_nodes, p))


class TestNonFiniteRejected:
    """Where the streaming loaders part from the row loop on purpose."""

    @pytest.mark.parametrize("text,row,shown,rowloop_km", [
        ("id_a,id_b,km\nA,C,2\nA,B,nan\nA,B,5\n", 3, "nan", 5.0),
        ("id_a,id_b,km\nA,B,inf\n", 2, "inf", math.inf),
        ("id_a,id_b,km\nA,B,Infinity\n", 2, "inf", math.inf),
        ("id_a,id_b,km\nA,B,infinity\n", 2, "inf", math.inf),
        ("id_a,id_b,km\nA,B,1e999\n", 2, "inf", math.inf),
    ])
    def test_distance(self, tmp_path, text, row, shown, rowloop_km):
        p = _write(tmp_path, text)
        with pytest.raises(ValidationError, match=r"row %d: non-finite distance %s "
                           "between distinct nodes" % (row, shown)):
            load_distances(p, IDS)
        # the row loop took NaN for an unset pair and loaded inf
        assert rowloop_load_distances(p, IDS)[0, 1] == rowloop_km

    @pytest.mark.parametrize("column,field", [
        ("density", "density"), ("psr", "psr"),
        ("pct_unemployment", "unemployment_pct"), ("pct_rural", "rural_pct"),
        ("pct_renter", "renter_pct")])
    def test_node_column(self, tmp_path, column, field):
        lines = [_node_line("a"), _node_line("b", **{column: "nan"}),
                 _node_line("c", **{column: "nan"})]
        p = _write(tmp_path, "\n".join([NODE_HEADER] + lines) + "\n")
        with pytest.raises(ValidationError,
                           match=r"%s must be finite; first offending node 'b'" % field):
            load_nodes(p)

    def test_node_table_rejects_nan_and_inf(self):
        def table(**change):
            kw = dict(ids=["x", "y"], state=["s", "s"], region=["West"] * 2,
                      population=[1, 2], density=[1.0, 1.0], psr=[1.0, 1.0],
                      racial_shares=[[0.2] * 5] * 2, renter_pct=[1.0, 1.0],
                      highered_pct=[1.0, 1.0], unemployment_pct=[1.0, 1.0],
                      rural_pct=[1.0, 1.0], democrat_poll_pct=[1.0, 1.0],
                      immigrant_inflow=[0, 0])
            kw.update(change)
            return NodeTable(**kw)

        table()
        with pytest.raises(ValidationError, match="density must be finite.*'y'"):
            table(density=[1.0, math.inf])
        with pytest.raises(ValidationError, match="psr must be finite.*'x'"):
            table(psr=[math.nan, 1.0])
        with pytest.raises(ValidationError, match="racial_shares must be finite.*'y'"):
            table(racial_shares=[[0.2] * 5, [math.nan] * 5])
        with pytest.raises(ValidationError, match="democrat_poll_pct must be finite"):
            table(democrat_poll_pct=[1.0, math.nan])


def test_distance_loader_memory_is_a_block_not_the_file(tmp_path):
    n = 400
    ids = ["n%03d" % k for k in range(n)]
    rng = np.random.default_rng(0)
    km = rng.uniform(1.0, 3000.0, (n, n))
    km = np.triu(km, 1) + np.triu(km, 1).T
    p = tmp_path / "d.csv"
    write_distances_csv(p, km, ids)  # 79,800 rows
    peaks = {}
    for name, load in (("new", load_distances), ("oracle", rowloop_load_distances)):
        tracemalloc.start()
        try:
            got = load(p, ids)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del got
    assert peaks["new"] <= 0.5 * peaks["oracle"], peaks


def test_flow_arrays_take_less_memory_than_flow_records(tmp_path):
    n, rows = 400, 60_000
    ids = ["n%03d" % k for k in range(n)]
    rng = np.random.default_rng(0)
    src, off = np.divmod(rng.choice(n * (n - 1), rows, replace=False), n - 1)
    net = FlowNetwork._from_arrays(n, src, off + (off >= src), rng.integers(1, 50, rows),
                                   node_ids=ids)
    p = tmp_path / "f.csv"
    write_flows_csv(p, net)
    peaks = {}
    for name, load in (("arrays", lambda: ingest._load_network(p, ids, "")),
                       ("records", lambda: build_network(load_flows(p), node_ids=ids))):
        tracemalloc.start()
        try:
            assert load() == net
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["arrays"] <= 0.5 * peaks["records"], peaks


# -- writer -> loader round trips --------------------------------------------------

# ids that need CSV quoting: commas, quotes, line breaks, spaces
_ID_TEXT = st.text(alphabet=st.sampled_from('ab, "\n\r\'xé;'), min_size=1, max_size=6)
_NODE_IDS = st.lists(st.one_of(_ID_TEXT, st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)),
    min_size=2, max_size=7, unique=True)


def _round_trip(write, written, load, *load_args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "round_trip.csv"
        write(path, *written)
        return load(path, *load_args)


@settings(max_examples=60, deadline=None)
@given(ids=_NODE_IDS, empty_id=st.booleans(), data=st.data(),
       dtype=st.sampled_from([np.float64, np.float32, np.int64]))
def test_distance_writer_matches_row_loop(ids, empty_id, data, dtype):
    ids = ids + [""] * empty_id
    km = data.draw(arrays(dtype, (len(ids), len(ids))))
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        write_distances_csv(new, km, ids)
        rowloop_write_distances_csv(old, km, ids)
        assert new.read_bytes() == old.read_bytes()


def test_distance_writer_checks_shape(tmp_path):
    p = tmp_path / "d.csv"
    for km, ids, shape in ((np.full((4, 5), 2.0), ["a", "b", "c"], "(4, 5), expected (3, 3)"),
                           (np.full((3, 3), 2.0), ["a", "b", "c", "d"],
                            "(3, 3), expected (4, 4)"),
                           (np.full(3, 2.0), ["a", "b", "c"], "(3,), expected (3, 3)")):
        with pytest.raises(ValidationError) as exc:
            write_distances_csv(p, km, ids)
        assert str(exc.value) == "distance matrix has shape " + shape
        assert not p.exists()


def _assert_writes_row_loop_bytes(write, rowloop_write, *args):
    """``write`` gives ``rowloop_write``'s bytes, also in blocks of 3 rows."""
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        rowloop_write(old, *args)
        write(new, *args)
        assert new.read_bytes() == old.read_bytes()
        with mock.patch.object(ingest, "_BLOCK_ROWS", 3):
            write(new, *args)
        assert new.read_bytes() == old.read_bytes()


@settings(max_examples=60, deadline=None)
@given(ids=_NODE_IDS, empty_id=st.booleans(), with_ids=st.booleans(), data=st.data())
def test_flow_writer_matches_row_loop(ids, empty_id, with_ids, data):
    ids = ids + [""] * empty_id
    n = len(ids)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges = data.draw(st.dictionaries(pairs, st.integers(1, 2**62), max_size=12))
    net = FlowNetwork(n, edges, node_ids=ids if with_ids else None)
    _assert_writes_row_loop_bytes(write_flows_csv, rowloop_write_flows_csv, net)


@settings(max_examples=40, deadline=None)
@given(ids=_NODE_IDS, data=st.data())
def test_node_writer_matches_row_loop(ids, data):
    _assert_writes_row_loop_bytes(write_nodes_csv, rowloop_write_nodes_csv,
                                  _draw_node_table(ids, data))


def _draw_node_table(ids, data):
    """A NodeTable over ``ids`` with every column drawn over its whole range."""
    n = len(ids)

    def column(elements):
        return data.draw(st.lists(elements, min_size=n, max_size=n))

    pct = st.floats(min_value=0.0, max_value=100.0)
    raw_shares = np.array(column(st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=5, max_size=5)))
    return NodeTable(
        ids=ids, state=column(_ID_TEXT), region=column(st.sampled_from(REGIONS)),
        population=column(st.integers(1, 2**62)),
        density=column(st.floats(min_value=0.0, max_value=1e12)),
        psr=column(st.floats(min_value=0.0, max_value=1e3)),
        racial_shares=raw_shares / raw_shares.sum(axis=1, keepdims=True),
        renter_pct=column(pct), highered_pct=column(pct),
        unemployment_pct=column(pct), rural_pct=column(pct),
        democrat_poll_pct=column(pct),
        immigrant_inflow=column(st.integers(0, 2**62)))


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(ids=_NODE_IDS, data=st.data())
    def test_flows(self, ids, data):
        n = len(ids)
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1])
        edges = data.draw(st.dictionaries(pairs, st.integers(1, 10**12), max_size=12))
        net = build_network([(ids[i], ids[j], c) for (i, j), c in edges.items()],
                            node_ids=ids)
        records = _round_trip(write_flows_csv, (net,), load_flows)
        assert records == net.to_edge_records()
        assert build_network(records, node_ids=ids) == net

    @settings(max_examples=60, deadline=None)
    @given(ids=_NODE_IDS, data=st.data())
    def test_distances(self, ids, data):
        n = len(ids)
        upper = data.draw(st.lists(
            st.floats(min_value=5e-324, max_value=1e300, allow_nan=False),
            min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        km = np.zeros((n, n))
        km[np.triu_indices(n, 1)] = upper
        km = km + km.T
        got = _round_trip(write_distances_csv, (km, ids), load_distances, ids)
        assert np.array_equal(got.view(np.int64), km.view(np.int64))

    @settings(max_examples=40, deadline=None)
    @given(ids=_NODE_IDS, data=st.data())
    def test_nodes(self, ids, data):
        nodes = _draw_node_table(ids, data)
        got = _round_trip(write_nodes_csv, (nodes,), load_nodes)
        assert got.ids == nodes.ids
        for name in ("state", "region", "population", "density", "psr",
                     "renter_pct", "highered_pct", "unemployment_pct",
                     "rural_pct", "democrat_poll_pct", "immigrant_inflow"):
            assert np.array_equal(getattr(got, name), getattr(nodes, name)), name
        assert np.allclose(got.racial_shares, nodes.racial_shares, rtol=0, atol=1e-15)
