"""No command loads scipy, only fitting loads a thread pool, and nothing
loads a process pool: every chain count runs in one process, and the fit's
chunk passes run on threads.

Each check runs in a fresh interpreter, because by the time these tests run
other tests have already imported scipy, which they use as an oracle, into
this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# prints the loaded modules of scipy and of the two packages with worker pools
_PRINT_WATCHED = """
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "concurrent", "multiprocessing"))))
"""
# runs ``cli.main`` on the given arguments, then prints the watched modules
_RUN_CLI = """
import json, sys
from ergmflow import cli
code = cli.main(sys.argv[1:])
""" + _PRINT_WATCHED + """
sys.exit(code)
"""


def _cold(code, *argv):
    """The watched modules that ``code`` loads, run in a fresh interpreter
    that imports the package from the sources; it must exit 0."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_scipy():
    assert _cold("import json, sys, ergmflow, ergmflow.cli\n" + _PRINT_WATCHED) == []


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """A 12-node synth dataset and a fit of it, each made in a fresh
    interpreter, with the watched modules each run loaded."""
    out = tmp_path_factory.mktemp("cold")
    runs = {"synth": _cold(_RUN_CLI, "synth", "--nodes", "12", "--seed", "5",
                           "--out", str(out / "data"))}
    config = {
        "flows": str(out / "data" / "flows.csv"),
        "lagged_flows": str(out / "data" / "lagged_flows.csv"),
        "nodes": str(out / "data" / "nodes.csv"),
        "distances": str(out / "data" / "distances.csv"),
        "model": {"terms": [{"kind": "sum"}, {"kind": "nonzero"},
                            {"kind": "dyad", "covariate": "log_distance"}]},
        "chain": {"n_networks": 3, "burn_in": 50, "thin": 10},
    }
    cfg = out / "config.json"
    cfg.write_text(json.dumps(config))
    runs["fit"] = _cold(_RUN_CLI, "fit", "--config", str(cfg), "--out", str(out / "fit"))
    return out, cfg, runs


def test_fit_succeeds_from_a_cold_interpreter(cold_runs):
    out, _cfg, runs = cold_runs
    assert [m for m in runs["fit"] if m.split(".")[0] == "scipy"] == []
    assert json.loads((out / "fit" / "fit.json").read_text())["converged"]


def test_fit_loads_no_process_pool(cold_runs):
    loaded = cold_runs[2]["fit"]
    assert "concurrent.futures.thread" in loaded  # the probe sees the thread pool
    assert [m for m in loaded if m == "concurrent.futures.process"
            or m.split(".")[0] == "multiprocessing"] == []


@pytest.mark.parametrize("command", ["synth", "summarize", "dissim", "gof",
                                     "simulate", "knockout"])
def test_command_loads_no_scipy(cold_runs, command):
    out, cfg, runs = cold_runs
    fit = ["--config", str(cfg), "--fit", str(out / "fit" / "fit.json")]
    argv = {
        "summarize": ["--flows", str(out / "data" / "flows.csv")],
        "dissim": ["--nodes", str(out / "data" / "nodes.csv")],
        "gof": fit,
        "simulate": fit,
        "knockout": fit + ["--labels", "dyad:log_distance"],
    }
    if command == "synth":
        loaded = runs["synth"]
    else:
        loaded = _cold(_RUN_CLI, command, *argv[command], "--out", str(out / command))
    assert loaded == []


def test_several_chains_load_no_process_pool(cold_runs):
    out, cfg, _runs = cold_runs
    config = json.loads(cfg.read_text())
    config["chain"]["n_chains"] = 2
    two = out / "config_two_chains.json"
    two.write_text(json.dumps(config))
    assert _cold(_RUN_CLI, "gof", "--config", str(two), "--fit",
                 str(out / "fit" / "fit.json"), "--out", str(out / "gof2")) == []
