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
from .ingest import (_load_network, build_dyad_covariates, load_flows,
                     load_nodes, synthetic_generate, write_distances_csv,
                     write_flows_csv, write_nodes_csv)
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


# Every config key: a top-level ``key`` or a ``section.key``. A number's
# entry is (type, default, smallest allowed value), a path's is str (a string
# or null); any other key's is None. The estimator's and the chain's defaults
# are read from fit_mple and ChainConfig.
_FIT = fit_mple.__kwdefaults__
_KEYS = {
    "seed": (int, 0, 0),  # synth seeds numpy with it, which takes no negative seed
    "out": str, "flows": str, "lagged_flows": str, "nodes": str, "distances": str,
    "model": None, "estimator": None, "chain": None, "synth": None,
    "estimator.seed": (int, None, 0),  # None: derived from the root seed
    "estimator.sample_size": (int, None, 1),  # None: a census of all dyads
    "estimator.ridge_lambda": (float, _FIT["ridge_lambda"], 0.0),
    "estimator.tol": (float, _FIT["tol"], math.ulp(0.0)),  # the smallest float > 0
    "estimator.max_iter": (int, _FIT["max_iter"], 1),
    "chain.n_networks": (int, ChainConfig.n_networks, 1),
    "chain.burn_in": (int, None, 1),  # None: ChainConfig's default
    "chain.thin": (int, None, 1),
    "chain.seed": (int, None, 0),
    "chain.n_chains": (int, ChainConfig.n_chains, 1),
    "synth.n_nodes": (int, 50, 2),
    "synth.model": None,
    "synth.theta_true": None,
}
_SECTIONS = sorted({name.split(".")[0] for name in _KEYS if "." in name})


def _read_json_object(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise OSError("cannot read %s %s: %s" % (what, path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError("%s %s is not valid JSON: %s" % (what, path, exc)) from exc
    if not isinstance(payload, dict):
        raise ValidationError("%s %s: the root must be a JSON object" % (what, path))
    return payload


def _load_config(path):
    """The config at ``path`` ({} when None), checked against :data:`_KEYS`
    before any data is read: unknown keys raise ValidationError naming each
    one, and a malformed number or path one naming its key."""
    config = {} if path is None else _read_json_object(path, "config")
    unknown = [key for key in config if key not in _KEYS]
    for section in _SECTIONS:
        values = config.get(section)
        if values is not None and not isinstance(values, dict):
            raise ValidationError("config section %r must be a JSON object" % section)
        unknown += ["%s.%s" % (section, key) for key in values or ()
                    if "%s.%s" % (section, key) not in _KEYS]
    if unknown:
        raise ValidationError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    for name, entry in _KEYS.items():
        if entry is str:
            value = config.get(name)
            if value is not None and not isinstance(value, str):
                raise ValidationError("config key %r must be a string or null, got %r"
                                      % (name, value))
        elif entry is not None:
            _number(config, name)
    return config


def _number(config, name, flag=None, value=None):
    """The number at dotted config key ``name``, or ``value`` of command-line
    ``flag`` when given, checked against the key's :data:`_KEYS` entry: the
    key's default when absent or null. A value of the wrong type (a
    fractional one for an integer key) or below the smallest allowed raises
    ValidationError naming the key or the flag."""
    kind, default, minimum = _KEYS[name]
    where = flag
    if value is None:
        section, _, key = name.rpartition(".")
        value = ((config.get(section) or {}) if section else config).get(key)
        where = "config key %r" % name
        if value is None:
            return default
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = math.isfinite(value) and (value.is_integer() or kind is float)
    if not ok or value < minimum:
        raise ValidationError("%s must be %s >= %r, got %r"
                              % (where, "an integer" if kind is int else "a finite number",
                                 minimum, value))
    return kind(value)


def _seed(config, section, root_seed):
    """``section.seed`` when set, else a seed derived from the root seed."""
    seed = _number(config, section + ".seed")
    return derive_seed(root_seed, section) if seed is None else seed


def _outdir(args, config):
    out = args.out or config.get("out") or "ergmflow_out"
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError("cannot create output directory %s: %s" % (path, exc)) from exc
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
    network = _load_network(_require(config, "flows"), nodes.ids, "")
    lagged = None
    lag_path = config.get("lagged_flows")
    if lag_path:
        lagged = _load_network(lag_path, nodes.ids, "lagged")
    elif need_lag:
        raise ValidationError("model uses lagged_log_flow but config has no "
                              "'lagged_flows' path")
    dyads = build_dyad_covariates(nodes, _require(config, "distances"),
                                  lagged=lagged)
    return network, nodes, dyads


def _fit_from_file(path):
    payload = _read_json_object(path, "fit file")
    try:
        model = model_from_dict(payload["model"])
        return model, model.check_theta(payload["theta"])
    except KeyError as exc:
        raise ValidationError("fit file %s lacks field %s" % (path, exc)) from exc


def _simulation_inputs(args, config):
    """What ``gof``, ``simulate`` and ``knockout`` share: the fit's model and
    theta, the observed network, nodes and dyads, the ChainConfig and the
    seeds for the manifest."""
    model, theta = _fit_from_file(args.fit)
    network, nodes, dyads = _load_dataset(config, model.has_lag)
    root_seed = _number(config, "seed", "--seed", args.seed)
    chain = ChainConfig(
        n_networks=_number(config, "chain.n_networks"),
        burn_in=_number(config, "chain.burn_in"),
        thin=_number(config, "chain.thin"),
        seed=_seed(config, "chain", root_seed),
        n_chains=_number(config, "chain.n_chains"),
    )
    return model, theta, network, nodes, dyads, chain, \
        {"root": root_seed, "chain": chain.seed}


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
    model = model_from_dict(_require(config, "model"))
    network, nodes, dyads = _load_dataset(config, model.has_lag)
    root_seed = _number(config, "seed", "--seed", args.seed)
    est_seed = _seed(config, "estimator", root_seed)
    sample_size = _number(config, "estimator.sample_size") or network.n_dyads
    sample = stratified_dyad_sample(network, sample_size, seed=est_seed)
    fit = fit_mple(
        model, network, nodes, dyads, sample,
        ridge_lambda=_number(config, "estimator.ridge_lambda"),
        tol=_number(config, "estimator.tol"),
        max_iter=_number(config, "estimator.max_iter"),
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
    model, theta, network, nodes, dyads, chain, seeds = _simulation_inputs(args, config)
    report = adequacy_check(model, theta, nodes, dyads, network, chain)
    outdir = _outdir(args, config)
    report.write_volume_csv(outdir / "adequacy_in_volume.csv", "in")
    report.write_volume_csv(outdir / "adequacy_out_volume.csv", "out")
    report.write_json(outdir / "adequacy.json")
    sys.stderr.writelines("warning: %s\n" % message for message in report.warnings)
    _write_manifest(outdir, "gof", config, seeds,
                    ["adequacy_in_volume.csv", "adequacy_out_volume.csv", "adequacy.json"],
                    n_chains=chain.n_chains)
    print("in-volume correlation  %.4f" % report.in_correlation)
    print("out-volume correlation %.4f" % report.out_correlation)
    return EXIT_OK


def cmd_simulate(args, config):
    model, theta, network, nodes, dyads, chain, seeds = _simulation_inputs(args, config)
    run = mcmc_simulate(model, theta, nodes, dyads, network, chain)
    outdir = _outdir(args, config)
    names = []
    for k, net in enumerate(run.networks):
        name = "sim_%03d.csv" % k
        write_flows_csv(outdir / name, net)
        names.append(name)
    _write_manifest(outdir, "simulate", config, seeds, names, n_chains=chain.n_chains)
    sys.stderr.writelines("warning: %s\n" % message for message in run.warnings)
    print("wrote %d simulated networks (acceptance rate %.3f)"
          % (len(run.networks), run.acceptance_rate))
    return EXIT_OK


def cmd_knockout(args, config):
    model, theta, network, nodes, dyads, chain, seeds = _simulation_inputs(args, config)
    labels = [x for x in (args.labels or "").split(",") if x]
    report = knockout_experiment(model, theta, nodes, dyads, labels, chain,
                                 init=network)
    outdir = _outdir(args, config)
    report.write_json(outdir / "knockout.json")
    sys.stderr.writelines("warning: %s\n" % message for message in report.warnings)
    _write_manifest(outdir, "knockout", config, seeds, ["knockout.json"],
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
    section = config.get("synth") or {}
    n_nodes = _number(config, "synth.n_nodes", "--nodes", args.nodes)
    root_seed = _number(config, "seed", "--seed", args.seed)
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

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None,
                        help="root seed (overrides config)")
    common.add_argument("--out", default=None,
                        help="output directory (overrides config)")

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

    p = sub.add_parser("gof", parents=[common],
                       help="simulation-based adequacy check of a fit")
    p.add_argument("--fit", required=True, help="fit.json from the fit command")
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate networks from a fit")
    p.add_argument("--fit", required=True, help="fit.json from the fit command")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("knockout", parents=[common],
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
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
