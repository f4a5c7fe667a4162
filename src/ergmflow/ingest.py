"""File loaders, covariate engineering, group-flow aggregation, and a
seed-deterministic synthetic data generator.

File formats (all CSV, UTF-8, locale-independent numerals):

* flows:     ``origin,destination,count``
* nodes:     ``id,state,region,population,density,psr,pct_hispanic,
             pct_black,pct_asian,pct_white,pct_other,pct_renter,
             pct_highered,pct_unemployment,pct_rural,pct_democrat_2008,
             immigrant_inflow``
* distances: ``id_a,id_b,km`` (symmetric; one direction is sufficient)

Covariate scaling: dissimilarities and percent-derived covariates are
proportions in [0, 1]; logged covariates of counts use log(1 + x) because
zeros occur (lagged flows, immigrant inflows). Distances enter as log km.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import (RACIAL_CATEGORIES, DyadCovariateSet, FlowNetwork,
                      NodeTable)
from .sampler import ChainConfig, mcmc_simulate
from .stats import ModelSpec

__all__ = [
    "racial_dissimilarity",
    "scalar_dissimilarity",
    "dissimilarity_matrices",
    "build_dyad_covariates",
    "load_flows",
    "load_nodes",
    "load_distances",
    "write_flows_csv",
    "write_nodes_csv",
    "write_distances_csv",
    "GroupFlowMatrix",
    "group_flow_matrix",
    "synthetic_generate",
]


# -- dissimilarity scores ------------------------------------------------------

def _as_composition(x):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1 or len(a) < 2:
        raise ValidationError("composition must be a 1-d vector of shares or counts")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValidationError("composition entries must be finite and non-negative")
    s = a.sum()
    if s <= 0:
        raise ValidationError("composition must have positive total")
    return a / s


def racial_dissimilarity(a, b):
    """Half the L1 distance between two composition vectors, in [0, 1].

    Raw counts are normalized to shares first. 0 means identical
    compositions; 1 means disjoint support.
    """
    pa = _as_composition(a)
    pb = _as_composition(b)
    if len(pa) != len(pb):
        raise ValidationError("compositions have different lengths")
    return 0.5 * float(np.abs(pa - pb).sum())


def scalar_dissimilarity(x_a, x_b):
    """Absolute difference of two percentages, rescaled to [0, 1]."""
    for x in (x_a, x_b):
        if not (0.0 <= x <= 100.0):
            raise ValidationError("percent input %r outside [0, 100]" % (x,))
    return abs(x_a - x_b) / 100.0


def dissimilarity_matrices(nodes):
    """The three pairwise dissimilarity matrices for a node table.

    Returns a dict with ``political_dissim``, ``rural_dissim`` and
    ``racial_dissim``, each symmetric with zero diagonal.
    """
    dem = nodes.democrat_poll_pct / 100.0
    rural = nodes.rural_pct / 100.0
    political = np.abs(dem[:, None] - dem[None, :])
    rural_m = np.abs(rural[:, None] - rural[None, :])
    n = nodes.n_nodes
    racial = np.empty((n, n))
    shares = nodes.racial_shares
    block = max(1, (1 << 22) // max(1, n * shares.shape[1]))
    for start in range(0, n, block):
        stop = min(n, start + block)
        racial[start:stop] = 0.5 * np.abs(
            shares[start:stop, None, :] - shares[None, :, :]).sum(axis=2)
    for m in (political, rural_m, racial):
        np.fill_diagonal(m, 0.0)
    return {"political_dissim": political, "rural_dissim": rural_m,
            "racial_dissim": racial}


def build_dyad_covariates(nodes, distance, lagged=None, extra=None):
    """Assemble the standard dyad covariates for a node table.

    ``distance`` is either a path to a distance CSV or a dense (n, n)
    kilometre matrix. Produces log_distance, same_state, the three
    dissimilarity scores, unemp_diff (destination minus origin, proportion
    scale), and lagged_log_flow when a lagged network is supplied. Every
    off-diagonal pair needs a positive distance.
    """
    n = nodes.n_nodes
    if isinstance(distance, (str, bytes)) or hasattr(distance, "__fspath__"):
        km = load_distances(distance, nodes.ids)
    else:
        km = np.asarray(distance, dtype=np.float64)
        if km.shape != (n, n):
            raise ValidationError("distance matrix has shape %r, expected (%d, %d)"
                                  % (km.shape, n, n))
    off = ~np.eye(n, dtype=bool)
    missing = np.argwhere(off & ~np.isfinite(km))
    if len(missing):
        pairs = ", ".join("(%s, %s)" % (nodes.ids[i], nodes.ids[j])
                          for i, j in missing[:10])
        raise ValidationError("missing distance for %d pairs, e.g. %s"
                              % (len(missing), pairs))
    nonpos = np.argwhere(off & (km <= 0))
    if len(nonpos):
        pairs = ", ".join("(%s, %s)" % (nodes.ids[i], nodes.ids[j])
                          for i, j in nonpos[:10])
        raise ValidationError("distance must be positive between distinct "
                              "nodes; offending pairs: %s" % pairs)

    log_distance = np.zeros((n, n))
    log_distance[off] = np.log(km[off])
    same_state = (nodes.state[:, None] == nodes.state[None, :]).astype(np.float64)
    unemp = nodes.unemployment_pct / 100.0
    unemp_diff = unemp[None, :] - unemp[:, None]

    matrices = dissimilarity_matrices(nodes)
    matrices.update({
        "log_distance": log_distance,
        "same_state": same_state,
        "unemp_diff": unemp_diff,
    })
    if lagged is not None:
        if lagged.n_nodes != n:
            raise ValidationError("lagged network has %d nodes, table has %d"
                                  % (lagged.n_nodes, n))
        matrices["lagged_log_flow"] = np.log1p(lagged.dense_matrix(dtype=np.float64))
    if extra:
        for name, m in extra.items():
            matrices[name] = m
    return DyadCovariateSet(n, matrices)


# -- loaders -------------------------------------------------------------------

def _open_rows(path, required):
    # unreadable paths surface as OSError (an I/O failure, not a validation
    # failure); only malformed content raises ValidationError
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise ValidationError("%s is missing columns: %s"
                                  % (path, ", ".join(missing)))
        rows = list(reader)
    return rows


def _num(row, col, rownum, path, convert=float):
    raw = row[col]
    try:
        return convert(raw)
    except (TypeError, ValueError):
        raise ValidationError("%s row %d: non-numeric %s value %r"
                              % (path, rownum, col, raw)) from None


def load_flows(path):
    """Read a flow edge list; returns (origin, destination, count) records.

    Counts must be non-negative integers; duplicate ordered pairs are
    rejected with their row number.
    """
    rows = _open_rows(path, ("origin", "destination", "count"))
    records = []
    seen = {}
    for k, row in enumerate(rows, start=2):
        count = _num(row, "count", k, path, convert=int)
        if count < 0:
            raise ValidationError("%s row %d: negative count %d" % (path, k, count))
        key = (row["origin"], row["destination"])
        if key in seen:
            raise ValidationError("%s row %d: duplicate ordered pair %r "
                                  "(first at row %d)" % (path, k, key, seen[key]))
        seen[key] = k
        records.append((row["origin"], row["destination"], count))
    return records


_NODE_COLUMNS = ("id", "state", "region", "population", "density", "psr",
                 "pct_hispanic", "pct_black", "pct_asian", "pct_white",
                 "pct_other", "pct_renter", "pct_highered",
                 "pct_unemployment", "pct_rural", "pct_democrat_2008",
                 "immigrant_inflow")


def load_nodes(path):
    """Read a node covariate table into a validated :class:`NodeTable`.

    Racial percentage columns must sum to 100 per node (they become shares
    summing to 1); violations are rejected naming the node.
    """
    rows = _open_rows(path, _NODE_COLUMNS)
    if not rows:
        raise ValidationError("%s contains no data rows" % path)
    ids, state, region = [], [], []
    population, density, psr = [], [], []
    shares = []
    renter, highered, unemp, rural, democrat, immig = [], [], [], [], [], []
    seen = {}
    for k, row in enumerate(rows, start=2):
        node_id = row["id"]
        if node_id in seen:
            raise ValidationError("%s row %d: duplicate node id %r (first at row %d)"
                                  % (path, k, node_id, seen[node_id]))
        seen[node_id] = k
        ids.append(node_id)
        state.append(row["state"])
        region.append(row["region"])
        population.append(_num(row, "population", k, path, convert=int))
        density.append(_num(row, "density", k, path))
        psr.append(_num(row, "psr", k, path))
        pct = [_num(row, "pct_" + cat, k, path) for cat in RACIAL_CATEGORIES]
        if abs(sum(pct) - 100.0) > 1e-7 * 100.0:
            raise ValidationError(
                "%s row %d: racial percentages for node %r sum to %.6f, "
                "expected 100" % (path, k, node_id, sum(pct)))
        shares.append([p / 100.0 for p in pct])
        renter.append(_num(row, "pct_renter", k, path))
        highered.append(_num(row, "pct_highered", k, path))
        unemp.append(_num(row, "pct_unemployment", k, path))
        rural.append(_num(row, "pct_rural", k, path))
        democrat.append(_num(row, "pct_democrat_2008", k, path))
        immig.append(_num(row, "immigrant_inflow", k, path, convert=int))
    shares = np.asarray(shares)
    shares = shares / shares.sum(axis=1, keepdims=True)
    return NodeTable(ids=ids, state=state, region=region, population=population,
                     density=density, psr=psr, racial_shares=shares,
                     renter_pct=renter, highered_pct=highered,
                     unemployment_pct=unemp, rural_pct=rural,
                     democrat_poll_pct=democrat, immigrant_inflow=immig)


def load_distances(path, node_ids):
    """Read pairwise distances into a dense km matrix over the given ids.

    Rows set both directions; conflicting duplicates and unknown ids are
    rejected. Pairs never mentioned are NaN (completeness is enforced by
    :func:`build_dyad_covariates`).
    """
    node_ids = [str(x) for x in node_ids]
    index = {x: k for k, x in enumerate(node_ids)}
    n = len(node_ids)
    km = np.full((n, n), np.nan)
    np.fill_diagonal(km, 0.0)
    rows = _open_rows(path, ("id_a", "id_b", "km"))
    for k, row in enumerate(rows, start=2):
        a, b = row["id_a"], row["id_b"]
        if a not in index:
            raise ValidationError("%s row %d: unknown node id %r" % (path, k, a))
        if b not in index:
            raise ValidationError("%s row %d: unknown node id %r" % (path, k, b))
        i, j = index[a], index[b]
        if i == j:
            raise ValidationError("%s row %d: distance given for a node to itself (%r)"
                                  % (path, k, a))
        d = _num(row, "km", k, path)
        if d <= 0:
            raise ValidationError("%s row %d: non-positive distance %r between "
                                  "distinct nodes" % (path, k, d))
        for x, yy in ((i, j), (j, i)):
            if not np.isnan(km[x, yy]) and km[x, yy] != d:
                raise ValidationError("%s row %d: conflicting distance for (%r, %r)"
                                      % (path, k, a, b))
            km[x, yy] = d
    return km


# -- writers (round-trip partners of the loaders) -------------------------------

def write_flows_csv(path, network):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "destination", "count"])
        for origin, destination, count in network.to_edge_records():
            writer.writerow([origin, destination, count])


def write_nodes_csv(path, nodes):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_NODE_COLUMNS))
        for k in range(nodes.n_nodes):
            pct = [repr(float(100.0 * s)) for s in nodes.racial_shares[k]]
            writer.writerow([
                nodes.ids[k], nodes.state[k], nodes.region[k],
                int(nodes.population[k]), repr(float(nodes.density[k])),
                repr(float(nodes.psr[k])), *pct,
                repr(float(nodes.renter_pct[k])),
                repr(float(nodes.highered_pct[k])),
                repr(float(nodes.unemployment_pct[k])),
                repr(float(nodes.rural_pct[k])),
                repr(float(nodes.democrat_poll_pct[k])),
                int(nodes.immigrant_inflow[k]),
            ])


def write_distances_csv(path, km, node_ids):
    node_ids = [str(x) for x in node_ids]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "km"])
        n = len(node_ids)
        for i in range(n):
            for j in range(i + 1, n):
                writer.writerow([node_ids[i], node_ids[j], repr(float(km[i, j]))])


# -- group-flow aggregation ------------------------------------------------------

@dataclass(frozen=True)
class GroupFlowMatrix:
    """2x2 flow totals over a binary node partition.

    ``totals[a, b]`` is the flow from group-a origins to group-b
    destinations; ``column_proportions[:, b]`` are origin-group shares among
    migrants into group b (NaN when nothing flows into b).
    """

    totals: np.ndarray
    column_proportions: np.ndarray
    total_flow: int

    def share_into(self, dest_group, origin_group):
        return float(self.column_proportions[origin_group, dest_group])


def group_flow_matrix(network, partition):
    """Aggregate flows within and between the two groups of a partition.

    ``partition`` assigns 0 or 1 to every node.
    """
    part = np.asarray(partition)
    if part.shape != (network.n_nodes,):
        raise ValidationError("partition must assign a group to every node")
    if not np.all(np.isin(part, (0, 1))):
        raise ValidationError("partition values must be 0 or 1")
    part = part.astype(np.intp)
    src, dst, val = network.edge_arrays()
    totals = np.zeros((2, 2))
    np.add.at(totals, (part[src], part[dst]), val)
    colsum = totals.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        props = np.where(colsum > 0, totals / colsum, np.nan)
    return GroupFlowMatrix(totals=totals, column_proportions=props,
                           total_flow=int(val.sum()))


# -- synthetic data ---------------------------------------------------------------

DEFAULT_COVARIATE_DISTRIBUTIONS = {
    "population": lambda rng, n: np.maximum(1, rng.lognormal(10.0, 1.0, n)).astype(np.int64),
    "density": lambda rng, n: rng.lognormal(-1.0, 1.0, n),
    "psr": lambda rng, n: np.clip(rng.normal(4.4, 1.2, n), 0.5, None),
    "racial_shares": lambda rng, n: rng.dirichlet((1.5, 1.0, 0.7, 6.0, 0.8), n),
    "renter_pct": lambda rng, n: 100.0 * rng.beta(3.5, 9.0, n),
    "highered_pct": lambda rng, n: 100.0 * rng.beta(2.5, 10.0, n),
    "unemployment_pct": lambda rng, n: 100.0 * rng.beta(2.0, 24.0, n),
    "rural_pct": lambda rng, n: 100.0 * rng.beta(1.3, 1.0, n),
    "democrat_poll_pct": lambda rng, n: 100.0 * rng.beta(4.2, 5.8, n),
    "immigrant_inflow": lambda rng, n: np.floor(rng.lognormal(4.0, 1.8, n)).astype(np.int64),
    "coords": lambda rng, n: rng.uniform(0.0, 3000.0, (n, 2)),
}


def synthetic_generate(n_nodes, model, theta_true, seed,
                       covariate_distributions=None, generation_chain=None):
    """Generate a full synthetic dataset from known coefficients.

    Draws node covariates from simple documented distributions (override
    any entry of :data:`DEFAULT_COVARIATE_DISTRIBUTIONS` through
    ``covariate_distributions``), derives distances from latent planar
    coordinates, simulates a lagged network from ``theta_true`` with any
    lagged-flow term dropped, then simulates the current network from the
    full model. Everything is determined by ``seed``.

    Returns (current, lagged, NodeTable, DyadCovariateSet).
    """
    n_nodes = int(n_nodes)
    if n_nodes < 2:
        raise ValidationError("n_nodes must be >= 2")
    theta_true = np.asarray(theta_true, dtype=np.float64)
    if theta_true.shape != (model.n_terms,):
        raise ValidationError("theta_true has shape %r for a %d-term model"
                              % (theta_true.shape, model.n_terms))
    dists = dict(DEFAULT_COVARIATE_DISTRIBUTIONS)
    if covariate_distributions:
        unknown = set(covariate_distributions) - set(dists)
        if unknown:
            raise ValidationError("unknown covariate distribution keys: %s"
                                  % ", ".join(sorted(unknown)))
        dists.update(covariate_distributions)

    root = np.random.SeedSequence(seed)
    cov_ss, lag_ss, cur_ss = root.spawn(3)
    rng = np.random.default_rng(cov_ss)

    n_states = max(2, n_nodes // 8)
    state_of_node = rng.integers(0, n_states, n_nodes)
    region_of_state = rng.choice(("Northeast", "South", "West", "Midwest"), n_states)
    ids = ["n%04d" % k for k in range(n_nodes)]
    nodes = NodeTable(
        ids=ids,
        state=["s%03d" % s for s in state_of_node],
        region=[region_of_state[s] for s in state_of_node],
        population=dists["population"](rng, n_nodes),
        density=dists["density"](rng, n_nodes),
        psr=dists["psr"](rng, n_nodes),
        racial_shares=dists["racial_shares"](rng, n_nodes),
        renter_pct=dists["renter_pct"](rng, n_nodes),
        highered_pct=dists["highered_pct"](rng, n_nodes),
        unemployment_pct=dists["unemployment_pct"](rng, n_nodes),
        rural_pct=dists["rural_pct"](rng, n_nodes),
        democrat_poll_pct=dists["democrat_poll_pct"](rng, n_nodes),
        immigrant_inflow=dists["immigrant_inflow"](rng, n_nodes),
    )
    coords = dists["coords"](rng, n_nodes)
    diff = coords[:, None, :] - coords[None, :, :]
    km = np.sqrt((diff ** 2).sum(axis=2))
    off = ~np.eye(n_nodes, dtype=bool)
    km[off] = np.maximum(km[off], 1.0)

    n_dyads = n_nodes * (n_nodes - 1)
    if generation_chain is None:
        generation_chain = ChainConfig(n_networks=1, burn_in=40 * n_dyads, thin=1)

    def one_network(m, theta, dyads_, ss):
        from dataclasses import replace
        cfg = replace(generation_chain, n_networks=1, seed=ss)
        init = FlowNetwork.empty(n_nodes, node_ids=ids)
        return mcmc_simulate(m, theta, nodes, dyads_, init, cfg)[0]

    lag_terms = tuple(t for t in model.terms if t.kind != "lagged_log_flow")
    lag_theta = np.array([theta_true[k] for k, t in enumerate(model.terms)
                          if t.kind != "lagged_log_flow"])
    lag_model = ModelSpec(terms=lag_terms)
    dyads_nolag = build_dyad_covariates(nodes, km)
    lagged = one_network(lag_model, lag_theta, dyads_nolag, lag_ss)
    lagged = FlowNetwork._from_arrays(n_nodes, *lagged.edge_arrays(),
                                      period_label="lagged", node_ids=ids)

    dyads = build_dyad_covariates(nodes, km, lagged=lagged)
    current = one_network(model, theta_true, dyads, cur_ss)
    current = FlowNetwork._from_arrays(n_nodes, *current.edge_arrays(),
                                       period_label="current", node_ids=ids)
    return current, lagged, nodes, dyads
