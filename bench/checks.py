"""Output checks for one benchmark round.

Every check compares against what the generator drew (coefficients, edge
count, total flow, per-node volumes) or against a property the method must
have. None compares against stored output. Each function returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from ergmflow.estimator import penalized_pseudo_loglik, stratified_dyad_sample
from ergmflow.ingest import build_dyad_covariates, load_nodes
from ergmflow.stats import model_from_dict

from workloads import KNOCKOUT_LABELS, LABELS, TERMS

MIN_CORRELATION = 0.95
# |fitted - generating| <= COEF_ABS_TOL + COEF_SE_TOL * reported SE. The
# reported SEs ignore the dependence terms and the dyad subsampling, so they
# understate the spread: over twenty seeds per workload the largest error was
# 6.2 reported SEs (waypoint_flow on sparse1000), 65% of its tolerance.
COEF_ABS_TOL = 0.1
COEF_SE_TOL = 6.0
# The sum term's score equation matches the model's expected total flow to
# the observed one; allow this many Poisson standard deviations (sqrt of the
# total) of Monte-Carlo and fitting error. Twenty seeds per workload stayed
# within 2.1.
BASELINE_TOTAL_SDS = 5.0


def summary(edges, total_flow, inputs):
    """The summary reports the edge count and total flow drawn (as text)."""
    failures = []
    for key, got, want in (("edges", edges, inputs.current.n_edges),
                           ("total_flow", total_flow, inputs.current.total_flow)):
        if got != str(want):
            failures.append("summarize %s is %r, generator drew %d" % (key, got, want))
    return failures


def fit(payload, inputs):
    """Converged; every coefficient near its generating value, which is 0
    for the dependence terms (the generator draws independent dyads)."""
    if not payload.get("converged"):
        return ["fit did not converge"]
    if tuple(payload["labels"]) != LABELS:
        return ["fit labels %r differ from the model roster" % (payload["labels"],)]
    failures = []
    for label, est, se, true in zip(LABELS, payload["theta"], payload["std_errors"],
                                    inputs.workload.theta):
        if se is None:
            failures.append("%s has no standard error" % label)
            continue
        tol = COEF_ABS_TOL + COEF_SE_TOL * se
        if not abs(est - true) <= tol:
            failures.append("%s = %.4f, generating value %.4f (tolerance %.3f)"
                            % (label, est, true, tol))
    return failures


def objective(theta_hat, inputs, workdir):
    """The penalized pseudo-log-likelihood is no lower at the fitted
    coefficients than at the generating ones, on the fit's own sample."""
    model = model_from_dict({"terms": list(TERMS)})
    nodes = load_nodes(workdir / "nodes.csv")
    dyads = build_dyad_covariates(nodes, inputs.km, lagged=inputs.lagged)
    size = inputs.workload.sample_size or inputs.current.n_dyads
    sample = stratified_dyad_sample(inputs.current, size, seed=inputs.seed)
    values = [penalized_pseudo_loglik(model, theta, inputs.current, nodes, dyads,
                                      sample, ridge_lambda=0.01)
              for theta in (np.asarray(theta_hat), inputs.theta)]
    if not values[0] >= values[1]:
        return ["objective at the fit %.6f is below the one at the generating "
                "coefficients %.6f" % tuple(values)]
    return []


def _envelope_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def gof(in_csv, out_csv, report, inputs):
    """Observed columns equal the drawn per-node volumes; every envelope is
    ordered; both correlations reach MIN_CORRELATION."""
    failures = []
    net = inputs.current
    for path, observed in ((in_csv, net.in_volumes()), (out_csv, net.out_volumes())):
        rows = _envelope_rows(path)
        ids = [r["node_id"] for r in rows]
        if ids != list(net.node_ids):
            failures.append("%s: node ids differ from the node table" % path.name)
            continue
        got = np.array([int(r["observed"]) for r in rows])
        if not np.array_equal(got, observed):
            failures.append("%s: observed volumes differ from the generator's"
                            % path.name)
        cols = np.array([[float(r[c]) for c in ("min", "q2.5", "median", "q97.5", "max")]
                         for r in rows])
        if not np.all(np.diff(cols, axis=1) >= 0):
            failures.append("%s: some envelope is not min <= q2.5 <= median "
                            "<= q97.5 <= max" % path.name)
    for key in ("in_correlation", "out_correlation"):
        if not report[key] >= MIN_CORRELATION:
            failures.append("gof %s %.4f below %.2f" % (key, report[key], MIN_CORRELATION))
    return failures


def knockout(report, inputs):
    """Zeroing three negative coefficients raises expected flow; the baseline
    mean stays near the observed total."""
    failures = []
    if tuple(report["zeroed_labels"]) != tuple(sorted(KNOCKOUT_LABELS)):
        failures.append("knockout zeroed %r" % (report["zeroed_labels"],))
    if not report["pct_diff"] > 0:
        failures.append("knockout pct_diff %.3f is not above 0" % report["pct_diff"])
    total = inputs.current.total_flow
    if not abs(report["baseline_mean"] - total) <= BASELINE_TOTAL_SDS * math.sqrt(total):
        failures.append("knockout baseline mean %.1f is more than %g sqrt(total) from "
                        "the observed total %d" % (report["baseline_mean"],
                                                   BASELINE_TOTAL_SDS, total))
    return failures
