import inspect
import json

import numpy as np
import pytest

from ergmflow import ChainConfig, build_network, cli, fit_mple, ingest
from ergmflow._jsonio import write_json
from ergmflow.cli import main


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(["synth", "--nodes", "50", "--seed", "11", "--out", str(out)])
    assert code == 0
    return out


def _fit_config(synth_dir, out, chain=None, estimator=None, model=None):
    config = {
        "seed": 7,
        "flows": str(synth_dir / "flows.csv"),
        "lagged_flows": str(synth_dir / "lagged_flows.csv"),
        "nodes": str(synth_dir / "nodes.csv"),
        "distances": str(synth_dir / "distances.csv"),
        "model": model or json.loads((synth_dir / "meta.json").read_text())["model"],
        "estimator": estimator or {"ridge_lambda": 0.01},
        "chain": chain or {"n_networks": 10, "burn_in": 4000, "thin": 1000},
        "out": str(out),
    }
    path = out / "config.json"
    out.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config))
    return path


class TestSynth:
    def test_files_written(self, synth_dir):
        for name in ("flows.csv", "lagged_flows.csv", "nodes.csv",
                     "distances.csv", "meta.json", "manifest.json"):
            assert (synth_dir / name).exists()
        meta = json.loads((synth_dir / "meta.json").read_text())
        assert meta["n_nodes"] == 50
        assert meta["edges"] > 0
        assert "lag_depth" not in meta["model"]


@pytest.mark.parametrize("argv, config, name", [
    (["--seed", "-3"], None, "--seed"),
    (["--nodes", "0"], None, "--nodes"),
    (["--nodes", "1"], None, "--nodes"),
    ([], {"seed": -3}, "'seed'"),
    ([], {"synth": {"n_nodes": 0}}, "synth.n_nodes"),
    ([], {"synth": {"theta_true": ["x"] + [0.0] * 11}}, "synth.theta_true"),
])
def test_synth_bad_seed_or_size_exits_2_naming_it(tmp_path, capsys, argv, config, name):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(["synth", "--out", str(tmp_path / "out")] + argv) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out" / "flows.csv").exists()


class TestFit:
    def test_fit_converges_and_writes_reports(self, synth_dir, tmp_path):
        cfg = _fit_config(synth_dir, tmp_path / "run")
        code = main(["fit", "--config", str(cfg)])
        assert code == 0
        fit = json.loads((tmp_path / "run" / "fit.json").read_text())
        assert fit["converged"]
        assert len(fit["theta"]) == len(fit["labels"])
        assert (tmp_path / "run" / "coefficients.csv").exists()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert "config_sha256" in manifest
        # timestamps live only in the sidecar log
        assert "time" not in json.dumps(manifest).lower()

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        cfg_a = _fit_config(synth_dir, tmp_path / "a")
        cfg_b = _fit_config(synth_dir, tmp_path / "b")
        assert main(["fit", "--config", str(cfg_a)]) == 0
        assert main(["fit", "--config", str(cfg_b)]) == 0
        csv_a = (tmp_path / "a" / "coefficients.csv").read_bytes()
        csv_b = (tmp_path / "b" / "coefficients.csv").read_bytes()
        assert csv_a == csv_b

    def test_unknown_covariate_exits_2(self, synth_dir, tmp_path):
        model = {"terms": [{"kind": "sum"}, {"kind": "dyad", "covariate": "bogus"}]}
        cfg = _fit_config(synth_dir, tmp_path / "bad", model=model)
        assert main(["fit", "--config", str(cfg)]) == 2

    def test_missing_flow_file_exits_4(self, synth_dir, tmp_path):
        cfg_path = _fit_config(synth_dir, tmp_path / "gone")
        config = json.loads(cfg_path.read_text())
        config["flows"] = str(tmp_path / "nope.csv")
        cfg_path.write_text(json.dumps(config))
        assert main(["fit", "--config", str(cfg_path)]) == 4

    def test_nonconvergence_exits_3_with_report(self, synth_dir, tmp_path, capsys):
        cfg = _fit_config(synth_dir, tmp_path / "nc",
                          estimator={"ridge_lambda": 0.01, "max_iter": 1,
                                     "tol": 1e-14})
        assert main(["fit", "--config", str(cfg)]) == 3
        fit = json.loads((tmp_path / "nc" / "fit.json").read_text())
        assert not fit["converged"]
        # no pseudo-BIC for a fit that pseudo_bic() would refuse
        assert fit["pseudo_bic"] is None
        assert "pseudo-BIC n/a" in capsys.readouterr().out

    def test_missing_model_exits_2(self, synth_dir, tmp_path):
        cfg_path = _fit_config(synth_dir, tmp_path / "nomodel")
        config = json.loads(cfg_path.read_text())
        del config["model"]
        cfg_path.write_text(json.dumps(config))
        assert main(["fit", "--config", str(cfg_path)]) == 2


@pytest.fixture(scope="module")
def fitted(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fitrun")
    cfg = _fit_config(synth_dir, out)
    assert main(["fit", "--config", str(cfg)]) == 0
    return cfg, out / "fit.json"


class TestGof:
    def test_writes_adequacy_files(self, fitted, tmp_path):
        cfg, fit_path = fitted
        code = main(["gof", "--config", str(cfg), "--fit", str(fit_path),
                     "--out", str(tmp_path / "gof")])
        assert code == 0
        payload = json.loads((tmp_path / "gof" / "adequacy.json").read_text())
        assert "in_correlation" in payload
        assert -1.0 <= payload["in_correlation"] <= 1.0
        header = (tmp_path / "gof" / "adequacy_in_volume.csv").read_text().splitlines()[0]
        assert header == "node_id,observed,median,min,max,q2.5,q97.5"
        assert (tmp_path / "gof" / "adequacy_out_volume.csv").exists()

    def test_threaded_run_is_byte_identical(self, fitted, tmp_path):
        cfg, fit_path = fitted
        cfg = _with_chain(cfg, tmp_path, n_chains=2)
        for sub in ("t1", "t2"):
            assert main(["gof", "--config", str(cfg), "--fit", str(fit_path),
                         "--out", str(tmp_path / sub)]) == 0
        for name in ("adequacy_in_volume.csv", "adequacy_out_volume.csv",
                     "adequacy.json", "manifest.json"):
            assert (tmp_path / "t1" / name).read_bytes() == \
                (tmp_path / "t2" / name).read_bytes()

    def test_missing_fit_file_exits_4(self, fitted, tmp_path):
        cfg, _fit_path = fitted
        code = main(["gof", "--config", str(cfg),
                     "--fit", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "gof2")])
        assert code == 4


def _with_chain(cfg_path, tmp_path, **chain):
    """A copy of the config at ``cfg_path`` with the ``chain`` keys given."""
    config = json.loads(cfg_path.read_text())
    config["chain"] = dict(config["chain"], **chain)
    path = tmp_path / "config_chain.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("command", ["gof", "simulate", "knockout"])
def test_fit_file_whose_root_is_not_an_object_exits_2_naming_it(fitted, tmp_path,
                                                                capsys, command):
    cfg, _fit_path = fitted
    bad = tmp_path / "fit_list.json"
    bad.write_text("[1, 2]")
    assert main([command, "--config", str(cfg), "--fit", str(bad),
                 "--out", str(tmp_path / "out")]) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def _bogus_fit(fit_path, out):
    # a fit file naming a dyad covariate that the dataset does not have
    payload = json.loads(fit_path.read_text())
    payload["model"]["terms"].append({"kind": "dyad", "covariate": "bogus"})
    payload["theta"].append(0.1)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "fit_bogus.json"
    path.write_text(json.dumps(payload))
    return path


class TestUnknownCovariateInFit:
    def test_gof_exits_2(self, fitted, tmp_path):
        cfg, fit_path = fitted
        bogus = _bogus_fit(fit_path, tmp_path)
        code = main(["gof", "--config", str(cfg), "--fit", str(bogus),
                     "--out", str(tmp_path / "gof")])
        assert code == 2
        assert not (tmp_path / "gof" / "adequacy.json").exists()

    def test_knockout_exits_2(self, fitted, tmp_path):
        cfg, fit_path = fitted
        bogus = _bogus_fit(fit_path, tmp_path)
        code = main(["knockout", "--config", str(cfg), "--fit", str(bogus),
                     "--labels", "dyad:bogus", "--out", str(tmp_path / "ko")])
        assert code == 2
        assert not (tmp_path / "ko" / "knockout.json").exists()


def test_non_numeric_theta_in_fit_file_exits_2_naming_it(fitted, tmp_path, capsys):
    cfg, fit_path = fitted
    payload = json.loads(fit_path.read_text())
    payload["theta"][0] = "x"
    bad = tmp_path / "fit_bad.json"
    bad.write_text(json.dumps(payload))
    code = main(["gof", "--config", str(cfg), "--fit", str(bad),
                 "--out", str(tmp_path / "gof")])
    assert code == 2
    assert "theta must hold numbers" in capsys.readouterr().err
    assert not (tmp_path / "gof" / "adequacy.json").exists()


def test_fit_file_without_theta_exits_2_naming_it(fitted, tmp_path, capsys):
    cfg, fit_path = fitted
    payload = json.loads(fit_path.read_text())
    del payload["theta"]
    bad = tmp_path / "fit_no_theta.json"
    bad.write_text(json.dumps(payload))
    code = main(["gof", "--config", str(cfg), "--fit", str(bad),
                 "--out", str(tmp_path / "gof")])
    assert code == 2
    assert "lacks field 'theta'" in capsys.readouterr().err
    assert not (tmp_path / "gof" / "adequacy.json").exists()


class TestSimulate:
    def test_writes_networks(self, fitted, tmp_path):
        cfg, fit_path = fitted
        code = main(["simulate", "--config", str(cfg), "--fit", str(fit_path),
                     "--out", str(tmp_path / "sims")])
        assert code == 0
        files = sorted((tmp_path / "sims").glob("sim_*.csv"))
        assert len(files) == 10
        assert files[0].read_text().splitlines()[0] == "origin,destination,count"

    def test_deterministic_outputs(self, fitted, tmp_path):
        cfg, fit_path = fitted
        for sub in ("s1", "s2"):
            assert main(["simulate", "--config", str(cfg), "--fit",
                         str(fit_path), "--out", str(tmp_path / sub)]) == 0
        a = (tmp_path / "s1" / "sim_004.csv").read_bytes()
        b = (tmp_path / "s2" / "sim_004.csv").read_bytes()
        assert a == b

    def test_threaded_run_writes_every_network_byte_identically(self, fitted, tmp_path):
        cfg, fit_path = fitted
        cfg = _with_chain(cfg, tmp_path, n_chains=2)
        for sub in ("t1", "t2"):
            assert main(["simulate", "--config", str(cfg), "--fit", str(fit_path),
                         "--out", str(tmp_path / sub)]) == 0
        names = ["sim_%03d.csv" % k for k in range(10)]
        assert sorted(p.name for p in (tmp_path / "t1").glob("sim_*.csv")) == names
        for name in names + ["manifest.json"]:
            assert (tmp_path / "t1" / name).read_bytes() == \
                (tmp_path / "t2" / name).read_bytes()

    def test_manifest_records_the_chain_count(self, fitted, tmp_path):
        # the chain count is a config key, so the config hash tells the runs apart
        cfg, fit_path = fitted
        manifests = []
        for n_chains in (1, 2):
            out = tmp_path / ("t%d" % n_chains)
            out.mkdir()
            assert main(["simulate", "--config", str(_with_chain(cfg, out, n_chains=n_chains)),
                         "--fit", str(fit_path), "--out", str(out)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        one, two = manifests
        assert (one.pop("n_chains"), two.pop("n_chains")) == (1, 2)
        assert one.pop("config_sha256") != two.pop("config_sha256")
        assert one == two


@pytest.mark.parametrize("command", ["gof", "simulate", "knockout"])
def test_threads_below_one_exits_2_naming_it(fitted, tmp_path, capsys, command):
    # the chain count is the chain.n_chains key; it is checked before any
    # data is read, so the missing flow file (exit 4) is never reached
    cfg, fit_path = fitted
    cfg = _with_chain(cfg, tmp_path, n_chains=0)
    cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()),
                                   flows=str(tmp_path / "missing.csv"))))
    assert main([command, "--config", str(cfg), "--fit", str(fit_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "chain.n_chains" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


class TestKnockout:
    def test_empty_label_set_is_noop(self, fitted, tmp_path):
        cfg, fit_path = fitted
        code = main(["knockout", "--config", str(cfg), "--fit", str(fit_path),
                     "--labels", "", "--out", str(tmp_path / "ko")])
        assert code == 0
        payload = json.loads((tmp_path / "ko" / "knockout.json").read_text())
        assert payload["pct_diff"] == 0.0
        assert payload["abs_diff_se"] == 0.0

    def test_unknown_label_exits_2(self, fitted, tmp_path):
        cfg, fit_path = fitted
        code = main(["knockout", "--config", str(cfg), "--fit", str(fit_path),
                     "--labels", "nope", "--out", str(tmp_path / "ko2")])
        assert code == 2

    def test_real_knockout_reports_change(self, fitted, tmp_path):
        cfg, fit_path = fitted
        code = main(["knockout", "--config", str(cfg), "--fit", str(fit_path),
                     "--labels", "dyad:political_dissim,dyad:rural_dissim",
                     "--out", str(tmp_path / "ko3")])
        assert code == 0
        payload = json.loads((tmp_path / "ko3" / "knockout.json").read_text())
        assert payload["baseline_mean"] > 0
        assert payload["zeroed_labels"] == ["dyad:political_dissim",
                                            "dyad:rural_dissim"]

    def test_one_network_writes_strict_json(self, fitted, tmp_path):
        # standard errors are undefined for a single sample
        cfg_path, fit_path = fitted
        config = json.loads(cfg_path.read_text())
        config["chain"] = dict(config["chain"], n_networks=1)
        config["out"] = str(tmp_path / "ko")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["knockout", "--config", str(path), "--fit", str(fit_path),
                     "--labels", "dyad:political_dissim"]) == 0
        payload = _strict_json(tmp_path / "ko" / "knockout.json")
        assert payload["baseline_se"] is None
        assert payload["counterfactual_se"] is None
        assert payload["baseline_mean"] > 0
        manifest = _strict_json(tmp_path / "ko" / "manifest.json")
        assert manifest["n_chains"] == 1


@pytest.mark.parametrize("command", ["gof", "simulate", "knockout"])
def test_chain_below_a_sweep_prints_its_warnings_and_exits_0(fitted, tmp_path, capsys,
                                                              command):
    cfg, fit_path = fitted
    cfg = _with_chain(cfg, tmp_path, burn_in=1, thin=1)
    argv = [command, "--config", str(cfg), "--fit", str(fit_path),
            "--out", str(tmp_path / "out")]
    if command == "knockout":
        argv += ["--labels", "dyad:political_dissim"]
    assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    prefix = "warning: baseline: " if command == "knockout" else "warning: "
    assert any(line.startswith(prefix + "burn_in of 1 proposals") for line in err), err
    assert any(line.startswith(prefix + "thin of 1 proposals") for line in err), err
    assert all(line.startswith("warning: ") for line in err), err
    if command == "knockout":
        warnings = json.loads((tmp_path / "out" / "knockout.json").read_text())["warnings"]
        assert err == ["warning: " + w for w in warnings]
        assert any(w.startswith("counterfactual: thin") for w in warnings)


def _strict_json(path):
    def reject(token):
        raise ValueError("non-standard JSON constant %s in %s" % (token, path))
    return json.loads(path.read_text(), parse_constant=reject)


def test_json_outputs_write_non_finite_floats_as_null(tmp_path):
    payload = {"se": float("nan"), "cond": float("inf"),
               "nested": [np.float64(-np.inf), (1.5, np.float64(0.25))],
               "n": 3, "note": None}
    write_json(tmp_path / "out.json", payload)
    assert _strict_json(tmp_path / "out.json") == {
        "se": None, "cond": None, "nested": [None, [1.5, 0.25]], "n": 3, "note": None}
    finite = {"a": [0.1, np.float64(1e-300)], "b": 2}
    write_json(tmp_path / "finite.json", finite)
    assert (tmp_path / "finite.json").read_text() == \
        json.dumps(finite, indent=2, sort_keys=True) + "\n"


class TestSummarizeAndDissim:
    def test_summarize_prints_and_writes(self, synth_dir, tmp_path, capsys):
        code = main(["summarize", "--flows", str(synth_dir / "flows.csv"),
                     "--out", str(tmp_path / "sum")])
        assert code == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "total_flow" in out
        text = (tmp_path / "sum" / "summary.csv").read_text()
        assert text.startswith("statistic,value")

    def test_dissim_writes_pairs(self, synth_dir, tmp_path):
        code = main(["dissim", "--nodes", str(synth_dir / "nodes.csv"),
                     "--out", str(tmp_path / "dis")])
        assert code == 0
        lines = (tmp_path / "dis" / "dissimilarity.csv").read_text().splitlines()
        assert lines[0] == "id_a,id_b,political_dissim,rural_dissim,racial_dissim"
        assert len(lines) == 1 + 50 * 49 // 2

    def test_summarize_missing_file_exits_4(self, tmp_path):
        assert main(["summarize", "--flows", str(tmp_path / "none.csv")]) == 4

    def test_summarize_oversized_field_exits_2_naming_the_row(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("origin,destination,count\n%s,A,1\n" % ("x" * 140_000))
        assert main(["summarize", "--flows", str(flows)]) == 2
        assert "%s row 2: field larger than field limit" % flows in capsys.readouterr().err


_CHAIN = {"n_networks": 10, "burn_in": 4000, "thin": 1000}


@pytest.mark.parametrize("command, section, value, key", [
    ("gof", "chain", dict(_CHAIN, burn_in="abc"), "chain.burn_in"),
    ("gof", "chain", dict(_CHAIN, n_networks="x"), "chain.n_networks"),
    ("gof", "chain", dict(_CHAIN, thin=2.5), "chain.thin"),
    ("gof", "chain", dict(_CHAIN, seed=True), "chain.seed"),
    ("gof", "chain", dict(_CHAIN, seed=-1), "chain.seed"),
    ("gof", "chain", [1, 2], "'chain'"),
    ("gof", "chain", dict(_CHAIN, proposal={"p_unit": 0.8}), "proposal"),
    ("fit", "estimator", {"ridge_lambda": "a"}, "estimator.ridge_lambda"),
    ("fit", "estimator", {"max_iter": "x"}, "estimator.max_iter"),
    ("fit", "estimator", {"sample_size": "big"}, "estimator.sample_size"),
    ("fit", "estimator", {"sample_size": 2.7}, "estimator.sample_size"),
    ("fit", "estimator", {"tol": float("nan")}, "estimator.tol"),
    ("fit", "estimator", {"seed": -1}, "estimator.seed"),
    ("fit", "model", {"terms": [{"kind": "sum"}], "lag_depth": 2}, "lag_depth"),
    ("fit", "estimator", {"tol": 0}, "estimator.tol"),
    ("fit", "estimator", {"tol": -1.0}, "estimator.tol"),
    ("fit", "estimator", {"max_iter": 0}, "estimator.max_iter"),
    ("fit", "estimator", {"max_iter": -3}, "estimator.max_iter"),
    ("gof", "chain", dict(_CHAIN, n_chains=0), "chain.n_chains"),
    ("gof", "chain", dict(_CHAIN, n_chains=1.5), "chain.n_chains"),
    ("fit", "seed", -1, "'seed'"),
])
def test_malformed_config_value_exits_2_naming_it(fitted, tmp_path, capsys,
                                                  command, section, value, key):
    cfg_path, fit_path = fitted
    config = json.loads(cfg_path.read_text())
    config[section] = value
    config["out"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path)]
    if command == "gof":
        argv += ["--fit", str(fit_path)]
    assert main(argv) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("value", [["a"], 3])
@pytest.mark.parametrize("key", ["nodes", "flows", "lagged_flows", "distances", "out"])
def test_non_string_path_exits_2_naming_it(fitted, tmp_path, capsys, key, value):
    # checked before any file is read: an integer would open a file descriptor
    cfg_path, _fit_path = fitted
    config = json.loads(cfg_path.read_text())
    config["out"] = str(tmp_path / "out")
    config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["fit", "--config", str(path)]) == 2
    assert "%r must be a string or null" % key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_float_config_value_accepted(fitted, tmp_path):
    cfg_path, fit_path = fitted
    config = json.loads(cfg_path.read_text())
    config["chain"] = dict(_CHAIN, n_networks=10.0)
    config["out"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["gof", "--config", str(path), "--fit", str(fit_path)]) == 0


@pytest.mark.parametrize("command, edit, keys", [
    ("fit", {"estimator": {"ridge_lamda": 0.01}}, ["estimator.ridge_lamda"]),
    ("fit", {"estimator": {"max_iters": 50}}, ["estimator.max_iters"]),
    ("fit", {"chian": {"n_networks": 10}}, ["chian"]),
    ("synth", {"synth": {"n_node": 12}}, ["synth.n_node"]),
    ("gof", {"chian": {}, "chain": dict(_CHAIN, n_chain=2)}, ["chain.n_chain", "chian"]),
    ("fit", {"model": {"terms": [{"kind": "sum", "lable": "intercept"}]}},
     ["model.terms[0].lable"]),
    ("fit", {"model": {"terms": [{"kind": "sum"}], "lag_dept": 3}}, ["model.lag_dept"]),
])
def test_unknown_config_key_exits_2_naming_it(fitted, tmp_path, capsys, command, edit, keys):
    cfg_path, fit_path = fitted
    config = dict(json.loads(cfg_path.read_text()), **edit)
    config["out"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path)]
    if command == "gof":
        argv += ["--fit", str(fit_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys), err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_dataset_flow_files_are_read_without_flow_records(synth_dir, tmp_path, monkeypatch):
    config = json.loads(_fit_config(synth_dir, tmp_path / "run").read_text())
    nodes = ingest.load_nodes(config["nodes"])
    want = [build_network(ingest.load_flows(config[key]), node_ids=nodes.ids)
            for key in ("flows", "lagged_flows")]

    def refuse(path):
        raise AssertionError("load_flows read %s" % path)

    monkeypatch.setattr(ingest, "load_flows", refuse)
    network, _nodes, dyads = cli._load_dataset(config, True)
    lagged = dyads._covariates["lagged_log_flow"][1]
    assert (network, lagged) == tuple(want)
    assert (network.period_label, lagged.period_label) == ("", "lagged")


def test_lagged_term_without_lagged_flows_exits_2_naming_it(synth_dir, tmp_path, capsys):
    cfg_path = _fit_config(synth_dir, tmp_path / "nolag")
    config = json.loads(cfg_path.read_text())
    del config["lagged_flows"]
    cfg_path.write_text(json.dumps(config))
    assert main(["fit", "--config", str(cfg_path)]) == 2
    assert "lagged_flows" in capsys.readouterr().err
    assert not (tmp_path / "nolag" / "fit.json").exists()


def test_config_without_estimator_or_chain_keys_runs_at_the_library_defaults(
        fitted, tmp_path, monkeypatch):
    cfg_path, fit_path = fitted
    config = json.loads(cfg_path.read_text())
    config.update(estimator={}, chain={}, out=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    calls = {}

    def spy(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            calls[name] = args, kwargs
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, call)

    spy("fit_mple")
    spy("adequacy_check")
    assert main(["fit", "--config", str(path)]) == 0
    assert main(["gof", "--config", str(path), "--fit", str(fit_path)]) == 0
    keys = ("ridge_lambda", "tol", "max_iter")
    defaults = inspect.signature(fit_mple).parameters
    assert {k: calls["fit_mple"][1][k] for k in keys} == {k: defaults[k].default for k in keys}
    chain = calls["adequacy_check"][0][-1]
    assert (chain.n_networks, chain.n_chains) == (ChainConfig().n_networks,
                                                  ChainConfig().n_chains)
