"""Traced mode: the whole pipeline in one process, with spans per layer.

Spans are recorded from here, around the calls into each module: for the
length of a traced round the public functions listed in ``_PATCHES`` are
swapped for timed wrappers, so calls the package makes internally (the
chain inside ``adequacy_check``, the ``FlowNetwork.from_dense`` snapshots
inside the chain, the ``ChangeStats`` build inside ``fit_mple``) get spans
too. The package itself is not changed. Spans are kept in memory and
written to ``trace_spans.json`` when the run ends.

A layer's self time is the wall time during which the innermost open span
belongs to that layer.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import threading
import time

import numpy as np

from ergmflow import estimator, ingest, network, sampler, stats

from workloads import KNOCKOUT_LABELS, TERMS

LAYERS = ("ingest", "network", "stats", "estimator", "sampler")
_RSS_INTERVAL_S = 0.005
_PAGE = os.sysconf("SC_PAGE_SIZE")

# Per-layer metrics of one traced round, with their units; cli.startup_s is
# measured outside the round.
UNITS = {
    "ingest.load_distances_s": "s", "ingest.load_flows_s": "s",
    "ingest.load_nodes_s": "s", "ingest.build_dyad_covariates_s": "s",
    "ingest.peak_rss_mb": "MB", "ingest.self_s": "s",
    "network.build_network_s": "s", "network.from_dense_s": "s",
    "network.from_dense_calls": "count", "network.self_s": "s",
    "stats.change_stats_s": "s", "stats.self_s": "s",
    "estimator.dyad_sample_s": "s", "estimator.objective_value_s": "s",
    "estimator.objective_full_s": "s", "estimator.fit_mple_s": "s",
    "estimator.newton_iterations": "count", "estimator.peak_rss_mb": "MB",
    "estimator.self_s": "s",
    "sampler.chain_s": "s", "sampler.proposals_per_s": "1/s",
    "sampler.acceptance_rate": "ratio", "sampler.invalid_proposals": "count",
    "sampler.sum_ess_per_s": "1/s", "sampler.adequacy_s": "s",
    "sampler.knockout_s": "s", "sampler.peak_rss_mb": "MB", "sampler.self_s": "s",
}


def _maxrss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _rss_bytes(fh):
    fh.seek(0)
    return int(fh.read().split()[1]) * _PAGE


class _RssSampler(threading.Thread):
    """Reads the process's current RSS every few milliseconds."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []  # (perf_counter, rss bytes)
        self._halt = threading.Event()

    def run(self):
        with open("/proc/self/statm", "rb") as fh:
            while not self._halt.wait(_RSS_INTERVAL_S):
                self.samples.append((time.perf_counter(), _rss_bytes(fh)))

    def stop(self):
        self._halt.set()
        self.join()


class Tracer:
    """Nested spans (name, start, end, parent) held in memory, each with the
    RSS at its ends and the process's RSS high-water mark at its ends."""

    def __init__(self, statm):
        self.spans = []
        self._open = []
        self._statm = statm

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "maxrss_start": _maxrss_bytes(), "rss_start": _rss_bytes(self._statm),
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["maxrss_end"] = _maxrss_bytes()
            rec["rss_end"] = _rss_bytes(self._statm)
            self._open.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap the traced functions in; restore them on exit."""
        saved = []
        try:
            for owner, attr, name in _PATCHES:
                orig = owner.__dict__[attr]
                if isinstance(orig, classmethod):
                    new = classmethod(self.wrap(name, orig.__func__))
                elif name is None:
                    new = self._wrap_objective(orig)
                else:
                    new = self.wrap(name, orig)
                saved.append((owner, attr, orig))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _wrap_objective(self, fn):
        def traced(*args, **kwargs):
            full = kwargs.get("hessian", False)
            with self.span("estimator.objective_full" if full
                           else "estimator.objective_value"):
                return fn(*args, **kwargs)
        return traced


# (owner, attribute, span name); ChangeStats is patched where it is looked
# up, in the modules that build one. The objective's span name (None here)
# depends on whether the call asks for the Hessian.
_PATCHES = (
    (ingest, "load_nodes", "ingest.load_nodes"),
    (ingest, "load_flows", "ingest.load_flows"),
    (ingest, "load_distances", "ingest.load_distances"),
    (ingest, "build_dyad_covariates", "ingest.build_dyad_covariates"),
    (network, "build_network", "network.build_network"),
    (network.FlowNetwork, "from_dense", "network.from_dense"),
    (stats, "ChangeStats", "stats.change_stats"),
    (estimator, "ChangeStats", "stats.change_stats"),
    (sampler, "ChangeStats", "stats.change_stats"),
    (estimator, "stratified_dyad_sample", "estimator.dyad_sample"),
    (estimator, "fit_mple", "estimator.fit_mple"),
    (estimator, "penalized_pseudo_loglik", None),
    (sampler, "mcmc_simulate", "sampler.chain"),
    (sampler, "adequacy_check", "sampler.adequacy"),
    (sampler, "knockout_experiment", "sampler.knockout"),
)


def pipeline(inputs, workdir):
    """One round: every stage of fit, gof and knockout, called in order
    through the module attributes (so the patched versions run)."""
    w = inputs.workload
    model = stats.model_from_dict({"terms": list(TERMS)})
    nodes = ingest.load_nodes(workdir / "nodes.csv")
    net = network.build_network(ingest.load_flows(workdir / "flows.csv"),
                                node_ids=nodes.ids)
    lagged = network.build_network(ingest.load_flows(workdir / "lagged_flows.csv"),
                                   node_ids=nodes.ids, period_label="lagged")
    km = ingest.load_distances(workdir / "distances.csv", nodes.ids)
    dyads = ingest.build_dyad_covariates(nodes, km, lagged=lagged)
    summary = network.summarize(net)
    network.FlowNetwork.from_dense(net.dense_matrix(), node_ids=nodes.ids)
    stats.ChangeStats(model, net, nodes, dyads)

    sample = estimator.stratified_dyad_sample(
        net, w.sample_size or net.n_dyads, seed=inputs.seed)
    fit = estimator.fit_mple(model, net, nodes, dyads, sample,
                             ridge_lambda=0.01, tol=1e-6, max_iter=50)
    estimator.penalized_pseudo_loglik(model, fit.theta, net, nodes, dyads, sample,
                                      ridge_lambda=0.01)
    estimator.penalized_pseudo_loglik(model, fit.theta, net, nodes, dyads, sample,
                                      ridge_lambda=0.01, hessian=True)

    chain = sampler.ChainConfig(seed=inputs.seed, **w.chain)
    run = sampler.mcmc_simulate(model, fit.theta, nodes, dyads, net, chain)
    adequacy = sampler.adequacy_check(model, fit.theta, nodes, dyads, net, chain)
    knockout = sampler.knockout_experiment(model, fit.theta, nodes, dyads,
                                           KNOCKOUT_LABELS, chain, init=net)
    return {"summary": summary, "fit": fit, "run": run,
            "adequacy": adequacy, "knockout": knockout}


def sum_ess(series):
    """Effective sample size by Geyer's initial positive sequence."""
    x = np.asarray(series, dtype=np.float64)
    n = len(x)
    if n < 4 or x.std() == 0:
        return float(n)
    x = x - x.mean()
    acf = np.correlate(x, x, mode="full")[n - 1:] / (x @ x)
    tau = -1.0
    for m in range(0, n - 1, 2):
        pair = acf[m] + acf[m + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
    return n / max(tau, 1e-12)


def _span_peak_mb(rec, samples):
    # The high-water mark is exact when it rose inside the span; otherwise
    # take the largest RSS read while the span was open.
    if rec["maxrss_end"] > rec["maxrss_start"]:
        peak = rec["maxrss_end"]
    else:
        peak = max([rec["rss_start"], rec["rss_end"]]
                   + [rss for t, rss in samples if rec["start"] <= t <= rec["end"]])
    return peak / 2 ** 20


def round_metrics(spans, root, outputs, samples):
    """Per-layer metrics of one traced round from its spans."""
    members = [s for s in spans if s["id"] > root["id"] and s["start"] >= root["start"]
               and s["end"] <= root["end"]]
    by_name = {}
    for s in members:
        by_name.setdefault(s["name"], []).append(s)
    child_time = {}
    for s in members:
        child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def median(name):
        return statistics.median(s["end"] - s["start"] for s in by_name[name])

    def top(name):
        return next(s["end"] - s["start"] for s in by_name[name]
                    if s["parent"] == root["id"])

    m = {}
    for layer in LAYERS:
        spans_l = [s for s in members if s["name"].split(".")[0] == layer]
        m[layer + ".self_s"] = sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                                   for s in spans_l)
        if layer in ("ingest", "estimator", "sampler"):
            m[layer + ".peak_rss_mb"] = max(_span_peak_mb(s, samples) for s in spans_l)
    for name in ("ingest.load_distances", "ingest.load_flows", "ingest.load_nodes",
                 "ingest.build_dyad_covariates", "network.build_network",
                 "estimator.dyad_sample", "estimator.fit_mple",
                 "estimator.objective_value", "estimator.objective_full",
                 "sampler.adequacy", "sampler.knockout"):
        m[name + "_s"] = total(name)
    m["network.from_dense_s"] = median("network.from_dense")
    m["network.from_dense_calls"] = len(by_name["network.from_dense"])
    m["stats.change_stats_s"] = median("stats.change_stats")
    m["estimator.newton_iterations"] = outputs["fit"].iterations
    run = outputs["run"]
    chain_s = top("sampler.chain")
    m["sampler.chain_s"] = chain_s
    m["sampler.proposals_per_s"] = run.n_proposals / chain_s
    m["sampler.acceptance_rate"] = run.acceptance_rate
    m["sampler.invalid_proposals"] = run.n_rejected_invalid
    m["sampler.sum_ess_per_s"] = sum_ess(run.sum_series) / chain_s
    return m


def run_traced(inputs, workdir, seconds, check):
    """Traced rounds until ``seconds`` have passed (at least one).

    ``check(outputs)`` returns failure messages for a round's outputs.
    Returns (per-round metric dicts, attempted, failed, failures).
    """
    rounds, failures = [], []
    attempted = failed = 0
    origin = time.perf_counter()
    rss = _RssSampler()
    with open("/proc/self/statm", "rb") as statm:
        tracer = Tracer(statm)
        rss.start()
        try:
            while True:
                attempted += 1
                with tracer.patched(), tracer.span("round") as root:
                    try:
                        outputs = pipeline(inputs, workdir)
                    except Exception as exc:  # a failed round is counted, not fatal
                        failed += 1
                        failures.append("traced round %d raised %r" % (attempted, exc))
                        break
                failures += check(outputs)
                rounds.append(round_metrics(tracer.spans, root, outputs, rss.samples))
                if time.perf_counter() - origin >= seconds:
                    break
        finally:
            rss.stop()
    _write_spans(workdir / "trace_spans.json", tracer.spans, rss.samples, origin)
    return rounds, attempted, failed, failures


def _write_spans(path, spans, samples, origin):
    out = [{"id": s["id"], "name": s["name"], "parent": s["parent"],
            "start_s": s["start"] - origin, "end_s": s["end"] - origin,
            "peak_rss_mb": _span_peak_mb(s, samples)} for s in spans]
    path.write_text(json.dumps(out, indent=1) + "\n")
