"""Command-line surface: summarize, dissim, fit, gof, simulate, knockout, synth.

Runs are driven by a JSON config file; command-line flags override config
values. All randomness flows from one root seed; every command writes a
manifest recording the effective config hash, derived seeds, and library
version. Timestamps live only in the sidecar ``run.log`` so outputs are
byte-identical across reruns.

Exit codes: 0 success, 2 validation error, 3 non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._jsonio import write_json
from .errors import EstimationError, ValidationError
from .estimator import fit_mple, stratified_dyad_sample
from .ingest import (build_dyad_covariates, load_flows, load_nodes,
                     synthetic_generate, write_distances_csv, write_flows_csv,
                     write_nodes_csv)
from .network import DyadCovariateSet, build_network, summarize
from .sampler import (ChainConfig, adequacy_check, knockout_experiment,
                      mcmc_simulate)
from .stats import model_from_dict, model_to_dict

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4

def derive_seed(root_seed, name):
    digest = hashlib.sha256(("%s:%s" % (root_seed, name)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 63)


def _config_hash(config):
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise _IOFailure("cannot read config %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError("config %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(config, dict):
        raise ValidationError("config root must be a JSON object")
    return config


class _IOFailure(Exception):
    pass


def _outdir(args, config):
    out = args.out or config.get("out") or "ergmflow_out"
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _IOFailure("cannot create output directory %s: %s" % (path, exc)) from exc
    return path


def _write_manifest(outdir, command, config, seeds, outputs, **fields):
    """Write ``manifest.json``, with any command-specific ``fields``, and
    append a timestamped line to the sidecar ``run.log``."""
    manifest = {
        "command": command,
        "version": __version__,
        "config_sha256": _config_hash(config),
        "root_seed": seeds.get("root"),
        "seeds": seeds,
        "outputs": sorted(outputs),
        **fields,
    }
    write_json(outdir / "manifest.json", manifest)
    with open(outdir / "run.log", "a", encoding="utf-8") as fh:
        fh.write("%s %s completed (config %s)\n"
                 % (datetime.datetime.now().isoformat(timespec="seconds"),
                    command, manifest["config_sha256"][:12]))


def _require(config, key):
    value = config.get(key)
    if not value:
        raise ValidationError("config is missing required field %r" % key)
    return value


def _load_dataset(config, need_lag):
    nodes = load_nodes(_require(config, "nodes"))
    flow_records = load_flows(_require(config, "flows"))
    network = build_network(flow_records, node_ids=nodes.ids)
    lagged = None
    lag_path = config.get("lagged_flows")
    if lag_path:
        lagged = build_network(load_flows(lag_path), node_ids=nodes.ids,
                               period_label="lagged")
    elif need_lag:
        raise ValidationError("model uses lagged_log_flow but config has no "
                              "'lagged_flows' path")
    dyads = build_dyad_covariates(nodes, _require(config, "distances"),
                                  lagged=lagged)
    return network, lagged, nodes, dyads


def _model_from_config(config):
    model_dict = config.get("model")
    if not model_dict:
        raise ValidationError("config is missing the 'model' section")
    return model_from_dict(model_dict)


def _section(config, key):
    """A config section as a dict ({} when absent)."""
    section = config.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ValidationError("config section %r must be a JSON object" % key)
    return section


def _number(section, name, default=None, integer=True, minimum=None):
    """The config value at dotted ``name`` (its last part is the key in
    ``section``) as an int, or a float when ``integer`` is false; ``default``
    when absent or null. Anything else, including a fractional value for an
    integer key or one below ``minimum``, raises ValidationError naming the
    key."""
    value = section.get(name.rsplit(".", 1)[-1])
    if value is None:
        return default
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = math.isfinite(value) and (value.is_integer() or not integer)
    if not ok or (minimum is not None and value < minimum):
        raise ValidationError("config key %r must be %s%s, got %r"
                              % (name, "an integer" if integer else "a finite number",
                                 "" if minimum is None else " >= %r" % minimum, value))
    return int(value) if integer else float(value)


def _flag_or_number(flag, value, section, name, default, minimum=None):
    """``value`` of command-line ``flag`` when given, else :func:`_number` of
    config key ``name``; either one below ``minimum`` raises ValidationError."""
    if value is None:
        return _number(section, name, default, minimum=minimum)
    if minimum is not None and value < minimum:
        raise ValidationError("%s must be >= %d, got %d" % (flag, minimum, value))
    return value


def _root_seed(args, config, minimum=None):
    return _flag_or_number("--seed", args.seed, config, "seed", 0, minimum)


def _chain_config(config, root_seed, threads):
    """The ChainConfig of the config's ``chain`` section, running ``threads``
    chains, and its seed."""
    section = _section(config, "chain")
    unknown = sorted(set(section) - {"n_networks", "burn_in", "thin", "seed"})
    if unknown:
        raise ValidationError("unknown chain config keys: %s" % ", ".join(unknown))
    seed = _number(section, "chain.seed", minimum=0)
    if seed is None:
        seed = derive_seed(root_seed, "chain")
    return ChainConfig(
        n_networks=_number(section, "chain.n_networks", 100),
        burn_in=_number(section, "chain.burn_in"),
        thin=_number(section, "chain.thin"),
        seed=seed,
        n_chains=threads,
    ), seed


def _fit_from_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise _IOFailure("cannot read fit file %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError("fit file %s is not valid JSON: %s" % (path, exc)) from exc
    try:
        model = model_from_dict(payload["model"])
        return model, model.check_theta(payload["theta"])
    except KeyError as exc:
        raise ValidationError("fit file %s lacks field %s" % (path, exc)) from exc


# -- commands -----------------------------------------------------------------

def cmd_summarize(args, config):
    flows_path = args.flows or config.get("flows")
    if not flows_path:
        raise ValidationError("summarize needs --flows or a config with 'flows'")
    records = load_flows(flows_path)
    ids = sorted({r[0] for r in records} | {r[1] for r in records})
    network = build_network(records, node_ids=ids)
    report = summarize(network)
    lines = [
        ("vertices", report.vertices),
        ("edges", report.edges),
        ("density", "%.6f" % report.density),
        ("mean_degree", "%.3f" % report.mean_degree),
        ("total_flow", report.total_flow),
        ("mean_flow_per_node", "%.3f" % report.mean_flow_per_node),
        ("mean_flow_per_edge", "%.3f" % report.mean_flow_per_edge),
    ]
    for name, value in lines:
        print("%-22s %s" % (name, value))
    if args.out or config.get("out"):
        outdir = _outdir(args, config)
        with open(outdir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["statistic", "value"])
            for name, value in report.to_dict().items():
                writer.writerow([name, value])
        write_json(outdir / "summary.json", report.to_dict())
        _write_manifest(outdir, "summarize", {"flows": str(flows_path)},
                        {"root": None}, ["summary.csv", "summary.json"])
    return EXIT_OK


def cmd_dissim(args, config):
    nodes_path = args.nodes or config.get("nodes")
    if not nodes_path:
        raise ValidationError("dissim needs --nodes or a config with 'nodes'")
    nodes = load_nodes(nodes_path)
    names = ("political_dissim", "rural_dissim", "racial_dissim")
    dyads = DyadCovariateSet._of_nodes(nodes, {})
    outdir = _outdir(args, config)
    out = outdir / "dissimilarity.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", *names])
        for i in range(nodes.n_nodes):  # one origin's pairs at a time
            later = np.arange(i + 1, nodes.n_nodes)
            columns = [dyads.values_at(name, i, later).tolist() for name in names]
            for j, *scores in zip(later.tolist(), *columns):
                writer.writerow([nodes.ids[i], nodes.ids[j], *map(repr, scores)])
    _write_manifest(outdir, "dissim", {"nodes": str(nodes_path)},
                    {"root": None}, ["dissimilarity.csv"])
    print("wrote %s" % out)
    return EXIT_OK


def cmd_fit(args, config):
    model = _model_from_config(config)
    network, _lagged, nodes, dyads = _load_dataset(config, model.has_lag)
    root_seed = _root_seed(args, config)
    section = _section(config, "estimator")
    est_seed = _number(section, "estimator.seed", minimum=0)
    if est_seed is None:
        est_seed = derive_seed(root_seed, "estimator")
    sample_size = _number(section, "estimator.sample_size", network.n_dyads)
    tol = _number(section, "estimator.tol", 1e-6, integer=False)
    if tol <= 0:
        raise ValidationError("config key 'estimator.tol' must be > 0, got %r" % tol)
    sample = stratified_dyad_sample(network, sample_size, seed=est_seed)
    fit = fit_mple(
        model, network, nodes, dyads, sample,
        ridge_lambda=_number(section, "estimator.ridge_lambda", 0.01, integer=False),
        tol=tol, max_iter=_number(section, "estimator.max_iter", 50, minimum=1),
    )
    outdir = _outdir(args, config)
    fit.write_json(outdir / "fit.json")
    fit.write_coefficients_csv(outdir / "coefficients.csv")
    _write_manifest(outdir, "fit", config,
                    {"root": root_seed, "estimator": est_seed},
                    ["fit.json", "coefficients.csv"])
    for label, est, se in zip(fit.labels, fit.theta, fit.std_errors):
        print("%-32s %12.6f  (SE %.6f)" % (label, est, se))
    bic = "%.1f" % fit.pseudo_bic if np.isfinite(fit.pseudo_bic) else "n/a"
    print("converged: %s after %d iterations (%d from the Poisson start); pseudo-BIC %s"
          % (fit.converged, fit.iterations, fit.diagnostics["start_iterations"], bic))
    if not fit.converged:
        print("warning: fit did not converge; report written anyway",
              file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_gof(args, config):
    model, theta = _fit_from_file(args.fit)
    network, _lagged, nodes, dyads = _load_dataset(config, model.has_lag)
    root_seed = _root_seed(args, config)
    chain, chain_seed = _chain_config(config, root_seed, args.threads)
    report = adequacy_check(model, theta, nodes, dyads, network, chain)
    outdir = _outdir(args, config)
    report.write_volume_csv(outdir / "adequacy_in_volume.csv", "in")
    report.write_volume_csv(outdir / "adequacy_out_volume.csv", "out")
    report.write_json(outdir / "adequacy.json")
    _write_manifest(outdir, "gof", config,
                    {"root": root_seed, "chain": chain_seed},
                    ["adequacy_in_volume.csv", "adequacy_out_volume.csv",
                     "adequacy.json"],
                    n_chains=chain.n_chains)
    print("in-volume correlation  %.4f" % report.in_correlation)
    print("out-volume correlation %.4f" % report.out_correlation)
    return EXIT_OK


def cmd_simulate(args, config):
    model, theta = _fit_from_file(args.fit)
    network, _lagged, nodes, dyads = _load_dataset(config, model.has_lag)
    root_seed = _root_seed(args, config)
    chain, chain_seed = _chain_config(config, root_seed, args.threads)
    run = mcmc_simulate(model, theta, nodes, dyads, network, chain)
    outdir = _outdir(args, config)
    names = []
    for k, net in enumerate(run.networks):
        name = "sim_%03d.csv" % k
        write_flows_csv(outdir / name, net)
        names.append(name)
    _write_manifest(outdir, "simulate", config,
                    {"root": root_seed, "chain": chain_seed}, names,
                    n_chains=chain.n_chains)
    print("wrote %d simulated networks (acceptance rate %.3f)"
          % (len(run.networks), run.acceptance_rate))
    return EXIT_OK


def cmd_knockout(args, config):
    model, theta = _fit_from_file(args.fit)
    network, _lagged, nodes, dyads = _load_dataset(config, model.has_lag)
    labels = [x for x in (args.labels or "").split(",") if x]
    root_seed = _root_seed(args, config)
    chain, chain_seed = _chain_config(config, root_seed, args.threads)
    report = knockout_experiment(model, theta, nodes, dyads, labels, chain,
                                 init=network)
    outdir = _outdir(args, config)
    report.write_json(outdir / "knockout.json")
    _write_manifest(outdir, "knockout", config,
                    {"root": root_seed, "chain": chain_seed},
                    ["knockout.json"],
                    n_chains=chain.n_chains)
    print("baseline total %.1f, counterfactual %.1f, change %+.2f%%"
          % (report.baseline_mean, report.counterfactual_mean, report.pct_diff))
    return EXIT_OK


_DEFAULT_SYNTH_MODEL = {
    "terms": [
        {"kind": "sum"},
        {"kind": "nonzero"},
        {"kind": "mutual_min"},
        {"kind": "waypoint_flow"},
        {"kind": "dyad", "covariate": "political_dissim"},
        {"kind": "dyad", "covariate": "rural_dissim"},
        {"kind": "dyad", "covariate": "racial_dissim"},
        {"kind": "dyad", "covariate": "log_distance"},
        {"kind": "dyad", "covariate": "same_state"},
        {"kind": "node_out", "covariate": "log_population"},
        {"kind": "node_in", "covariate": "log_population"},
        {"kind": "lagged_log_flow"},
    ],
}
_DEFAULT_SYNTH_THETA = [-4.2, 1.0, 0.05, -0.01, -0.8, -0.5, -0.5, -0.35,
                        0.4, 0.25, 0.25, 0.25]


def cmd_synth(args, config):
    section = _section(config, "synth")
    n_nodes = _flag_or_number("--nodes", args.nodes, section, "synth.n_nodes", 50, 2)
    # the generator seeds numpy directly, which takes no negative seed
    root_seed = _root_seed(args, config, minimum=0)
    model = model_from_dict(section.get("model") or _DEFAULT_SYNTH_MODEL)
    theta = model.check_theta(section.get("theta_true") or _DEFAULT_SYNTH_THETA,
                              "synth.theta_true")
    current, lagged, nodes, dyads = synthetic_generate(
        n_nodes, model, theta, seed=root_seed)
    outdir = _outdir(args, config)
    write_flows_csv(outdir / "flows.csv", current)
    write_flows_csv(outdir / "lagged_flows.csv", lagged)
    write_nodes_csv(outdir / "nodes.csv", nodes)
    km = np.exp(dyads.matrix("log_distance"))
    write_distances_csv(outdir / "distances.csv", km, nodes.ids)
    write_json(outdir / "meta.json", {
        "n_nodes": n_nodes,
        "seed": root_seed,
        "model": model_to_dict(model),
        "theta_true": [float(x) for x in theta],
        "edges": current.n_edges,
        "total_flow": current.total_flow,
    })
    _write_manifest(outdir, "synth", {"synth": section, "n_nodes": n_nodes},
                    {"root": root_seed},
                    ["flows.csv", "lagged_flows.csv", "nodes.csv",
                     "distances.csv", "meta.json"])
    print("wrote synthetic dataset to %s (%d nodes, %d edges, total flow %d)"
          % (outdir, n_nodes, current.n_edges, current.total_flow))
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------

def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %s" % text)
    return int(text)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None,
                        help="root seed (overrides config)")
    common.add_argument("--out", default=None,
                        help="output directory (overrides config)")
    chains = argparse.ArgumentParser(add_help=False, parents=[common])
    chains.add_argument("--threads", type=_positive_int, default=1,
                        help="chains, run in up to as many worker processes")

    parser = argparse.ArgumentParser(
        prog="ergmflow",
        description="Valued ERGM pipeline for directed flow networks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", parents=[common],
                       help="descriptive statistics of a flow file")
    p.add_argument("--flows", help="flow CSV (overrides config)")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("dissim", parents=[common],
                       help="pairwise dissimilarity scores from a node file")
    p.add_argument("--nodes", help="node CSV (overrides config)")
    p.set_defaults(func=cmd_dissim)

    p = sub.add_parser("fit", parents=[common],
                       help="fit the model by subsampled penalized MPLE")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("gof", parents=[chains],
                       help="simulation-based adequacy check of a fit")
    p.add_argument("--fit", required=True, help="fit.json from the fit command")
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("simulate", parents=[chains],
                       help="simulate networks from a fit")
    p.add_argument("--fit", required=True, help="fit.json from the fit command")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("knockout", parents=[chains],
                       help="zero selected coefficients and compare totals")
    p.add_argument("--fit", required=True, help="fit.json from the fit command")
    p.add_argument("--labels", default="",
                   help="comma-separated term labels to zero")
    p.set_defaults(func=cmd_knockout)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic fixture dataset")
    p.add_argument("--nodes", type=int, default=None, help="node count")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except ValidationError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except EstimationError as exc:
        print("estimation failed: %s" % exc, file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except _IOFailure as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
