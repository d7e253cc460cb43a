#!/usr/bin/env python3
"""Benchmark of the spincert certificate suites, time to verdict.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gauge --seed 1 --seconds 30 --trace 0

One client in this process calls ``spincert.cli.main`` with generated
arguments and starts the next invocation only after the previous one
returns (a closed loop); the harness starts no threads.  A pass is one
round of a workload's invocations.  Passes repeat with the same inputs
until ``--seconds`` have gone by, and at least ``MIN_PASSES`` times so
that every run compares two reports of the same inputs.  Every verdict
is checked.  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
``tracing.py`` with ``--trace 1``.  Each run also writes a record with
its inputs, environment and per-pass numbers to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("gauge", "batch")
MIN_PASSES = 2
IMPORT_PROBES = 5
PROBE_EVERY_S = 5.0
DESIGNED_SKIPS = frozenset({"arf_crosscheck_g5", "arf_crosscheck_g6"})
TIME_FIELDS = ("generated", "elapsed_ms")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def workload_plan(name, seed):
    """The generated inputs of a workload and the argv lists of one pass.
    Every invocation must exit 0 with every check passing, apart from
    DESIGNED_SKIPS."""
    if name == "gauge":
        return {}, [["run", "instanton"]]
    if name == "batch":
        return {"seed": seed}, [["run", "all", "--seed", str(seed)]]
    raise ValueError("unknown workload %r" % name)


def check_declared_metrics():
    """Stop unless BENCHMARK.json declares exactly the metrics, with the
    units, that this harness and tracing.py report."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, units in (("end_to_end", E2E_UNITS), ("per_layer", tracing.METRIC_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            raise SystemExit(
                "error: BENCHMARK.json %s differs from the reported metrics: %s"
                % (key, sorted(set(declared.items()) ^ set(units.items())))
            )


def strip_times(obj):
    if isinstance(obj, dict):
        return {k: strip_times(v) for k, v in obj.items() if k not in TIME_FIELDS}
    if isinstance(obj, list):
        return [strip_times(v) for v in obj]
    return obj


def check_verdict(argv, code, report):
    """Problems with one invocation's verdict, and its check statistics."""
    problems = []
    if code != 0:
        problems.append("exit code %r, expected 0" % (code,))
    suites = [block["suite"] for block in report["suites"]]
    want_suites = list(tracing.SUITES) if argv[1] == "all" else [argv[1]]
    if suites != want_suites or not all(block["checks"] for block in report["suites"]):
        problems.append("suites %r, expected %r, each with checks" % (suites, want_suites))
    checks = [c for block in report["suites"] for c in block["checks"]]
    wrong = 0
    for c in checks:
        want = "skipped" if c["name"] in DESIGNED_SKIPS else "pass"
        if c["status"] != want:
            wrong += 1
            problems.append("check %s is %s, expected %s" % (c["name"], c["status"], want))
    failed = [n for block in report["suites"] for n in block["failed_checks"]]
    if failed:
        problems.append("failed checks %r, expected none" % (failed,))
    check_s = sum(c["elapsed_ms"] for c in checks) / 1000.0
    return problems, len(checks), wrong, check_s


def cpu_seconds():
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def invoke(cli, argv):
    """Call cli.main once; (exit code, stdout text, wall s, cpu s, error)."""
    out = io.StringIO()
    code = None
    error = None
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
        error = "SystemExit(%r)" % (exc.code,)
    except Exception as exc:  # an escaping exception is a failed verdict
        error = "%s: %s" % (type(exc).__name__, exc)
    wall = time.perf_counter() - start
    return code, out.getvalue(), wall, cpu_seconds() - cpu0, error


class Client:
    """The closed-loop client: runs passes and checks every verdict,
    including that a repeated pass reproduces each report exactly."""

    def __init__(self, cli, invocations, overlapping, tracer=None):
        self.cli = cli
        self.invocations = invocations
        self.overlapping = overlapping
        self.tracer = tracer
        self.reference = [None] * len(invocations)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.requests = 0

    def run_pass(self):
        gc.collect()
        row = {"wall_s": 0.0, "cpu_s": 0.0, "setup_s": 0.0, "check_s": 0.0,
               "checks": 0, "checks_failed": 0}
        for i, argv in enumerate(self.invocations):
            self.requests += 1
            if self.tracer is not None:
                self.tracer.request = self.requests
            code, text, wall, cpu, error = invoke(self.cli, argv)
            row["wall_s"] += wall
            row["cpu_s"] += cpu
            problems = [error] if error else []
            if not problems:
                try:
                    report = json.loads(text)
                except ValueError:
                    report = None
                    problems.append("report is not JSON")
            if not problems:
                found, n_checks, wrong, check_s = check_verdict(argv, code, report)
                problems += found
                row["checks"] += n_checks
                row["checks_failed"] += wrong
                row["check_s"] += check_s
                if not self.overlapping:
                    row["setup_s"] += wall - check_s
                stripped = json.dumps(strip_times(report), sort_keys=True)
                if self.reference[i] is None:
                    self.reference[i] = stripped
                elif stripped != self.reference[i]:
                    problems.append("report differs from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append({"argv": argv, "problems": problems})
        return row


def import_probe_seconds():
    """Wall time from starting a fresh interpreter until it has imported
    spincert.cli.

    The child reads the end time itself: waiting on a child with a
    timeout polls at up to 50 ms intervals, which would round the
    measured time up by as much.  perf_counter is CLOCK_MONOTONIC on
    Linux, one clock for every process, and the bounds check below
    rejects a clock that is not shared.
    """
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", "import time, spincert.cli; print(repr(time.perf_counter()))"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
        timeout=120,
        capture_output=True,
        text=True,
    )
    end = float(out.stdout)
    if not start < end < time.perf_counter():
        raise RuntimeError("the import probe's clock is not this process's clock")
    return end - start


def git_sha():
    """The checked-out commit, or None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def load_cli():
    if not os.path.isfile(os.path.join(SRC, "spincert", "cli.py")):
        raise SystemExit("error: no spincert sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import spincert.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: imported spincert from %s, not %s" % (cli.__file__, SRC))
    return cli


def measure(cli, workload, seed, seconds, traced):
    plan_inputs, invocations = workload_plan(workload, seed)
    overlapping = workload == "batch"
    tracer = tracing.Tracer() if traced else None
    client = Client(cli, invocations, overlapping, tracer)
    plain, traced_rows, layer_rows, probes = [], [], [], []
    deadline = time.perf_counter() + seconds
    next_probe = 0.0
    while len(plain) + len(traced_rows) < MIN_PASSES or time.perf_counter() < deadline:
        # import probes run between passes, spread over the run so that
        # they meet the host in more than one state
        if not traced and time.perf_counter() >= next_probe:
            probes.append(import_probe_seconds())
            next_probe = time.perf_counter() + PROBE_EVERY_S
        plain.append(client.run_pass())
        if tracer is None:
            continue
        first_span = len(tracer.spans)
        tracer.install()
        try:
            row = client.run_pass()
            counts = tracer.counts()
        finally:
            tracer.uninstall()
        traced_rows.append(row)
        layer = tracing.pass_metrics(tracer.spans[first_span:], counts)
        layer["cli.checks"] = row["checks"]
        layer["cli.checks_failed"] = row["checks_failed"]
        layer["cli.check_overlap"] = row["check_s"] / row["wall_s"]
        layer_rows.append(layer)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "inputs": plan_inputs,
        "argv": invocations,
        "passes": plain,
        "traced_passes": traced_rows,
    }
    if traced:
        metrics = tracing.median_metrics(layer_rows)
        # each traced pass against the untraced pass just before it,
        # which ran under nearly the same host conditions
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced_rows)
        )
        units = tracing.METRIC_UNITS
    else:
        while len(probes) < IMPORT_PROBES:
            probes.append(import_probe_seconds())
        record["import_probe_s"] = probes
        # The host's CPU speed swings by up to 1.6x within seconds, and a
        # whole run can fall in a slow stretch, so each metric takes the
        # fastest pass of the run rather than the median: it varies far
        # less from run to run.
        metrics = {
            "wall_s": min(r["wall_s"] for r in plain),
            "setup_s": min(probes) + min(r["setup_s"] for r in plain),
            "cpu_s": min(r["cpu_s"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    record["metrics"] = metrics
    return record, client, tracer, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    check_declared_metrics()
    env = environment()
    cli = load_cli()
    tag = "%s-seed%d" % (args.workload, args.seed)
    workdir = os.path.join(OUT, tag)
    os.makedirs(workdir, exist_ok=True)
    record, client, tracer, metrics = measure(
        cli, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    record["environment"] = env
    record["attempted"] = client.attempted
    record["failed"] = client.failed
    record["problems"] = client.problems
    with open(os.path.join(workdir, "result-trace%d.json" % args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(os.path.join(workdir, "spans.json.gz"), {"workload": args.workload, "seed": args.seed})

    walls = [r["wall_s"] for r in record["passes"]]
    # a traced batch run has one untraced pass
    q1, med, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(
        "%s: %d passes, wall_s fastest %.4f, median %.4f (quartiles %.4f..%.4f), "
        "fail_frac %d/%d, python %s, nproc %s, load %.2f, git %s"
        % (tag, len(walls), min(walls), med, q1, q3, client.failed, client.attempted,
           env["python"], env["nproc"], env["loadavg_at_start"][0], env["git_sha"])
    )
    for problem in client.problems[:5]:
        print("FAILED %s: %s" % (" ".join(problem["argv"]), "; ".join(problem["problems"])))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
