"""End-to-end benchmark of the ergmflow pipeline: fit, gof and knockout.

    python3 bench/run.py --workload sparse1000 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run draws the workload's inputs from
``--seed`` (timed as ``setup_s``, the median of several set-ups), then runs
whole rounds of ``ergmflow summarize``, ``fit``, ``gof`` and ``knockout``
until ``--seconds`` have passed (at least one round). Each command is its own
process, started one at a time, reading the CSVs and writing its outputs as
a user would. Every round's outputs are checked against the generator's
known values, and must be byte-identical to the first round's.

``--trace 1`` instead runs the same stages in this process with spans at
each layer boundary (see tracing.py) and reports the per-layer metrics;
end-to-end numbers come only from ``--trace 0``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 2 means the run could
not start (for example, no ``src/ergmflow`` next to this directory).
"""

import os

# One BLAS and OpenMP thread here and in every command started from here;
# set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up repeats at least SETUP_REPEATS times and for SETUP_SECONDS.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
STARTUP_REPEATS = 3
# Address-space ceiling inherited by every command, so a runaway allocation
# fails that command instead of exhausting a shared machine's memory.
MEMORY_LIMIT = 4 << 30
OUTPUTS = ("fit.json", "coefficients.csv", "adequacy_in_volume.csv",
           "adequacy_out_volume.csv", "adequacy.json", "knockout.json")


class Cli:
    """Runs ``python -m ergmflow.cli`` from the checkout's sources."""

    def __init__(self, workdir):
        self.workdir = workdir
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def run(self, *args):
        """(exit code, wall seconds, peak RSS in MB, stdout) of one command."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ergmflow.cli", *args],
                                cwd=self.workdir, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.workdir / "cli.log", "ab") as fh:
            fh.write(b"$ ergmflow %s -> %d\n" % (" ".join(args).encode(), proc.returncode))
            fh.write(out)
        return proc.returncode, seconds, usage.ru_maxrss / 1024, out.decode("utf-8", "replace")


def set_up(workload, seed, workdir):
    """Generate and write the inputs several times; (median seconds, inputs)."""
    import workloads

    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        inputs = workloads.generate(workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return statistics.median(times), inputs


def end_to_end(inputs, workdir, seconds, setup_s):
    import checks
    from workloads import KNOCKOUT_LABELS

    cli = Cli(workdir)
    cli.run("--version")  # compiles bytecode on a fresh checkout; not timed
    samples = {k: [] for k in ("fit_s", "fit_rss_mb", "gof_s", "gof_rss_mb",
                               "knockout_s", "knockout_rss_mb")}
    attempted = failed = 0
    failures = []
    first = None
    out = workdir / "out"
    commands = (
        ("summarize", ("summarize", "--flows", "flows.csv")),
        ("fit", ("fit", "--config", "config.json", "--out", "out")),
        ("gof", ("gof", "--config", "config.json", "--fit", "out/fit.json",
                 "--out", "out")),
        ("knockout", ("knockout", "--config", "config.json", "--fit", "out/fit.json",
                      "--out", "out", "--labels", ",".join(KNOCKOUT_LABELS))),
    )
    origin = time.perf_counter()
    while True:
        for name, args in commands:
            attempted += 1
            code, secs, rss, stdout = cli.run(*args)
            if code != 0:
                failed += 1
                failures.append("ergmflow %s exited with %d" % (name, code))
                continue
            if name == "summarize":
                fields = dict(parts for parts in map(str.split, stdout.splitlines())
                              if len(parts) == 2)
                failures += checks.summary(fields.get("edges"), fields.get("total_flow"),
                                           inputs)
                continue
            samples[name + "_s"].append(secs)
            samples[name + "_rss_mb"].append(rss)
            if name == "fit":
                failures += checks.fit(json.loads((out / "fit.json").read_text()), inputs)
            elif name == "gof":
                failures += checks.gof(out / "adequacy_in_volume.csv",
                                       out / "adequacy_out_volume.csv",
                                       json.loads((out / "adequacy.json").read_text()),
                                       inputs)
            else:
                failures += checks.knockout(
                    json.loads((out / "knockout.json").read_text()), inputs)
        produced = {f: (out / f).read_bytes() for f in OUTPUTS if (out / f).exists()}
        if first is None:
            first = produced
        elif produced != first:
            failures.append("outputs differ from the first round's: %s" % ", ".join(
                sorted(f for f in set(first) | set(produced)
                       if first.get(f) != produced.get(f))))
        if time.perf_counter() - origin >= seconds:
            break
    if "fit.json" in first:
        theta = json.loads(first["fit.json"])["theta"]
        failures += checks.objective(theta, inputs, workdir)
    metrics = {"setup_s": (setup_s, "s")}
    for key, values in samples.items():
        if values:
            metrics[key] = (statistics.median(values), "s" if key.endswith("_s") else "MB")
    return metrics, attempted, failed, failures


def traced(inputs, workdir, seconds):
    import checks
    import tracing

    cli = Cli(workdir)
    cli.run("--version")  # compiles bytecode on a fresh checkout; not timed
    startup = statistics.median(cli.run("--version")[1] for _ in range(STARTUP_REPEATS))

    def check(outputs):
        summary = outputs["summary"]
        failures = checks.summary(str(summary.edges), str(summary.total_flow), inputs)
        failures += checks.fit(outputs["fit"].to_json_dict(), inputs)
        adequacy = outputs["adequacy"]
        adequacy.write_volume_csv(workdir / "adequacy_in_volume.csv", "in")
        adequacy.write_volume_csv(workdir / "adequacy_out_volume.csv", "out")
        failures += checks.gof(workdir / "adequacy_in_volume.csv",
                               workdir / "adequacy_out_volume.csv",
                               adequacy.to_json_dict(), inputs)
        failures += checks.knockout(outputs["knockout"].to_json_dict(), inputs)
        return failures

    rounds, attempted, failed, failures = tracing.run_traced(inputs, workdir, seconds, check)
    metrics = {"cli.startup_s": (startup, "s")}
    if rounds:
        for key, unit in tracing.UNITS.items():
            metrics[key] = (statistics.median(r[key] for r in rounds), unit)
    return metrics, attempted, failed, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ergmflow" / "cli.py").is_file():
        print("bench: no ergmflow sources at %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("bench: unknown workload %r; known: %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    setup_s, inputs = set_up(workloads.WORKLOADS[args.workload], args.seed, workdir)
    print("inputs: %s" % json.dumps(workloads.describe(inputs)))
    if args.trace:
        metrics, attempted, failed, failures = traced(inputs, workdir, args.seconds)
    else:
        metrics, attempted, failed, failures = end_to_end(
            inputs, workdir, args.seconds, setup_s)
    for failure in failures:
        print("check failed: %s" % failure, file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (key, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
