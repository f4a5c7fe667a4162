"""Benchmark workloads: seed-deterministic inputs drawn from a known rate.

Every dyad is an independent Poisson draw from a log-linear rate in the
README's covariates. The lagged network is drawn first; the current network
adds a ``log(1 + lagged flow)`` effect. Independent Poisson dyads are exactly
the model with the three dependence coefficients (nonzero, reciprocity,
waypoint) at 0, so a fit must recover the generating coefficients and put
the dependence terms near 0.

Covariates are computed here from their documented definitions, not by the
package's own covariate code, so the generator is an independent reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ergmflow.ingest import (DEFAULT_COVARIATE_DISTRIBUTIONS,
                             write_distances_csv, write_flows_csv,
                             write_nodes_csv)
from ergmflow.network import REGIONS, FlowNetwork, NodeTable

# The 13-term roster of the README config, in its order.
TERMS = (
    {"kind": "sum"},
    {"kind": "nonzero"},
    {"kind": "mutual_min", "label": "reciprocity"},
    {"kind": "waypoint_flow"},
    {"kind": "dyad", "covariate": "political_dissim"},
    {"kind": "dyad", "covariate": "rural_dissim"},
    {"kind": "dyad", "covariate": "racial_dissim"},
    {"kind": "dyad", "covariate": "log_distance"},
    {"kind": "dyad", "covariate": "same_state"},
    {"kind": "dyad", "covariate": "unemp_diff"},
    {"kind": "node_out", "covariate": "log_population"},
    {"kind": "node_in", "covariate": "log_population"},
    {"kind": "lagged_log_flow"},
)
LABELS = tuple(t.get("label") or (t["kind"] if "covariate" not in t
                                  else "%s:%s" % (t["kind"], t["covariate"]))
               for t in TERMS)
KNOCKOUT_LABELS = ("dyad:political_dissim", "dyad:rural_dissim",
                   "dyad:racial_dissim")
MAP_SEED = 2205


@dataclass(frozen=True)
class Workload:
    name: str
    n_nodes: int
    theta: tuple          # generating coefficients, in TERMS order
    sample_size: int | None  # None: census of all dyads
    chain: dict           # n_networks, burn_in, thin for gof and knockout


def _theta(intercept, dist, node, lag):
    values = {
        "sum": intercept, "nonzero": 0.0, "reciprocity": 0.0,
        "waypoint_flow": 0.0,
        "dyad:political_dissim": -1.5, "dyad:rural_dissim": -1.0,
        "dyad:racial_dissim": -1.2, "dyad:log_distance": dist,
        "dyad:same_state": 0.7, "dyad:unemp_diff": -3.0,
        "node_out:log_population": node, "node_in:log_population": node,
        "lagged_log_flow": lag,
    }
    return tuple(values[label] for label in LABELS)


WORKLOADS = {w.name: w for w in (
    # The county run's shape on the node-count axis: about 3% of 999,000
    # ordered dyads nonzero, a 200,000-dyad tie/no-tie sample. Ingest, the
    # dense n x n data layer and the chain state grow with n^2.
    Workload(
        name="sparse1000", n_nodes=1000,
        theta=_theta(intercept=-9.5, dist=-0.8, node=0.6, lag=0.8),
        sample_size=200_000,
        chain={"n_networks": 10, "burn_in": 200_000, "thin": 20_000}),
    # The count-magnitude axis: about half of 39,800 dyads nonzero, counts
    # up to about 80, a census sample. The estimator's support grid, which
    # grows with the largest edge, sets fit time and memory.
    Workload(
        name="heavy200", n_nodes=200,
        theta=_theta(intercept=-6.15, dist=-0.65, node=0.55, lag=0.35),
        sample_size=None,
        chain={"n_networks": 20, "burn_in": 400_000, "thin": 20_000}),
    # Every stage and every check in seconds, so the harness cannot rot.
    Workload(
        name="smoke30", n_nodes=30,
        theta=_theta(intercept=-5.5, dist=-0.5, node=0.45, lag=0.5),
        sample_size=None,
        chain={"n_networks": 10, "burn_in": 20_000, "thin": 1_000}),
)}


@dataclass
class Inputs:
    """What the generator drew, kept for the output checks."""

    workload: Workload
    seed: int
    nodes: NodeTable
    km: np.ndarray
    current: FlowNetwork
    lagged: FlowNetwork

    @property
    def theta(self):
        return np.asarray(self.workload.theta, dtype=np.float64)


def _node_table(rng, n):
    dists = DEFAULT_COVARIATE_DISTRIBUTIONS
    n_states = max(2, n // 8)
    state_of_node = rng.integers(0, n_states, n)
    region_of_state = rng.choice(REGIONS, n_states)
    table = NodeTable(
        ids=["c%04d" % k for k in range(n)],
        state=["s%03d" % s for s in state_of_node],
        region=[region_of_state[s] for s in state_of_node],
        **{field: dists[field](rng, n) for field in (
            "population", "density", "psr", "racial_shares", "renter_pct",
            "highered_pct", "unemployment_pct", "rural_pct",
            "democrat_poll_pct", "immigrant_inflow")})
    coords = dists["coords"](rng, n)
    km = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    km = np.maximum(km, 1.0)
    np.fill_diagonal(km, 0.0)
    return table, km


def _log_rate(theta, nodes, km):
    """Linear predictor of every ordered dyad, lagged-flow term excluded."""
    t = dict(zip(LABELS, theta))
    dem = nodes.democrat_poll_pct / 100.0
    rural = nodes.rural_pct / 100.0
    unemp = nodes.unemployment_pct / 100.0
    shares = nodes.racial_shares
    racial = 0.5 * np.abs(shares[:, None, :] - shares[None, :, :]).sum(axis=2)
    logpop = np.log(nodes.population.astype(np.float64))
    with np.errstate(divide="ignore"):
        log_km = np.log(km)
    eta = (t["sum"]
           + t["dyad:political_dissim"] * np.abs(dem[:, None] - dem[None, :])
           + t["dyad:rural_dissim"] * np.abs(rural[:, None] - rural[None, :])
           + t["dyad:racial_dissim"] * racial
           + t["dyad:log_distance"] * log_km
           + t["dyad:same_state"] * (nodes.state[:, None] == nodes.state[None, :])
           + t["dyad:unemp_diff"] * (unemp[None, :] - unemp[:, None])
           + t["node_out:log_population"] * logpop[:, None]
           + t["node_in:log_population"] * logpop[None, :])
    np.fill_diagonal(eta, -np.inf)
    return eta, t["lagged_log_flow"]


def generate(workload, seed, workdir):
    """Draw the workload's inputs and write them to ``workdir``.

    The map (node covariates and distances) comes from the fixed
    ``MAP_SEED``, like a fixed set of counties; ``seed`` draws the lagged and
    current flows on it. A fixed map keeps the largest rates the same from
    seed to seed; the estimator's support grid, and with it the fit's time
    and memory, grows with the largest edge.

    Writes flows.csv, lagged_flows.csv, nodes.csv, distances.csv and
    config.json through the package's own writers; returns :class:`Inputs`.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    lag_ss, cur_ss = np.random.SeedSequence(seed).spawn(2)
    nodes, km = _node_table(np.random.default_rng(MAP_SEED), workload.n_nodes)
    eta, lag_coef = _log_rate(workload.theta, nodes, km)
    y_lag = np.random.default_rng(lag_ss).poisson(np.exp(eta))
    y = np.random.default_rng(cur_ss).poisson(np.exp(eta + lag_coef * np.log1p(y_lag)))
    lagged = FlowNetwork.from_dense(y_lag, period_label="lagged", node_ids=nodes.ids)
    current = FlowNetwork.from_dense(y, node_ids=nodes.ids)

    write_flows_csv(workdir / "flows.csv", current)
    write_flows_csv(workdir / "lagged_flows.csv", lagged)
    write_nodes_csv(workdir / "nodes.csv", nodes)
    write_distances_csv(workdir / "distances.csv", km, nodes.ids)
    config = {
        "seed": seed,
        "flows": "flows.csv",
        "lagged_flows": "lagged_flows.csv",
        "nodes": "nodes.csv",
        "distances": "distances.csv",
        "model": {"terms": list(TERMS), "lag_depth": 1},
        "estimator": {"ridge_lambda": 0.01, "tol": 1e-6, "max_iter": 50,
                      "seed": seed},
        "chain": dict(workload.chain, seed=seed),
    }
    if workload.sample_size is not None:
        config["estimator"]["sample_size"] = workload.sample_size
    (workdir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    return Inputs(workload, seed, nodes, km, current, lagged)


def describe(inputs):
    """Shape of the drawn network, for the benchmark's log."""
    net = inputs.current
    return {"nodes": net.n_nodes, "edges": net.n_edges,
            "density": round(net.density, 4), "total_flow": net.total_flow,
            "max_edge": net.max_value}
