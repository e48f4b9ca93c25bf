"""qracbox benchmark: time each report until it comes back checked.

Usage, from the repository root::

    python3 bench/run.py --workload rounds --seed 1 --seconds 38 --trace 0

One process drives every report of the workload through the public
entry point ``qracbox.cli.main(argv)``, one report at a time, and
repeats the workload's report list until ``--seconds`` have passed.
Every report goes through a correctness gate (exit code, report schema,
communication tallies, identical bytes on every repeat); one that fails
it counts as failed.  The package is imported from ``src/`` next to this
directory, never from an installed copy.

With ``--trace 0`` the last line of output carries the end-to-end
metrics.  With ``--trace 1`` the run is split: untraced passes first,
then passes with every layer wrapped (see ``layers.py``), and the last
line carries the per-layer metrics.  Earlier lines give sample counts,
tail percentiles, report digests and every wrapped span.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
TRACE_UNTRACED_SHARE = 0.3
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

LATENCY_METRICS = (
    "qrac_s",
    "qrac_qubit_only_s",
    "nonsignaling_sampled_s",
    "tomography_sampled_s",
    "tomography_s",
    "nonsignaling_s",
    "mixture_s",
    "dilation_s",
)

# (layer label, metrics taken from its span); see layers.py for labels
LAYER_METRICS = (
    ("quantum.bell_measure", ("calls", "self_s", "bytes")),
    ("quantum.bell_project", ("calls", "self_s", "kept_ratio", "bytes")),
    ("quantum.measure_project", ("calls", "self_s", "kept_ratio")),
    ("quantum.measure_computational", ("calls", "self_s")),
    ("quantum.apply_unitary", ("calls", "self_s", "bytes")),
    ("quantum.reduced_density", ("calls", "self_s", "bytes")),
    ("quantum.validate", ("calls", "self_s")),
    ("qrac.qrac_alice", ("calls", "self_s")),
    ("qrac.qrac_bob", ("calls", "self_s")),
    ("qrac.dense_decode", ("calls", "self_s")),
    ("qrac.channel_branches", ("calls", "self_s", "branches")),
    ("qrac.sample_channel", ("calls", "self_s")),
    ("qrac.sample_alice_output", ("calls", "self_s")),
    ("boxes.PRBox", ("calls",)),
    ("boxes.rac_round", ("calls", "self_s")),
    ("boxes.verify_rac_privacy", ("self_s",)),
    ("channel.tomography", ("calls", "self_s")),
    ("channel.subchannels", ("calls", "self_s")),
    ("channel.mixture_check", ("calls", "self_s")),
    ("channel.build_dilation", ("calls", "self_s")),
    ("channel.environment_orthogonality_check", ("calls", "self_s")),
    ("channel.verify_nonsignaling", ("calls", "self_s")),
    ("channel.ChoiMatrix", ("calls", "self_s")),
    ("metering.send", ("calls", "self_s")),
    ("harness.run_qrac_protocol", ("calls", "self_s")),
    ("harness.run_rac_protocol", ("calls", "self_s")),
    ("harness.run_experiment", ("self_s",)),
    ("harness.canonical_json", ("calls", "self_s", "bytes")),
    ("rng.make_rng", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)

UNITS = {
    "calls": "count",
    "self_s": "s",
    "bytes": "B-computed",
    "kept_ratio": "ratio",
    "branches": "count",
}


def import_cli():
    """Import qracbox.cli from this checkout's src/, or exit non-zero."""
    if not (SRC / "qracbox" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'qracbox'}")
    sys.path.insert(0, str(SRC))
    import qracbox.cli

    if Path(qracbox.cli.__file__).resolve().parent != SRC / "qracbox":
        sys.exit(f"bench: imported qracbox from {qracbox.cli.__file__}, not from {SRC}")
    return qracbox.cli


class Gate:
    """Per-report correctness gate; remembers each passing report's digest."""

    def __init__(self, schema_path: Path) -> None:
        try:
            import jsonschema
        except ImportError:
            sys.exit("bench: the correctness gate needs the jsonschema package")
        with open(schema_path) as handle:
            self._validator = jsonschema.Draft7Validator(json.load(handle))
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _problem(self, report: workloads.Report, code: int | str, text: str) -> str | None:
        if code != 0:
            return f"exit code {code}" if isinstance(code, int) else f"raised {code}"
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        error = next(iter(self._validator.iter_errors(data)), None)
        if error is not None:
            return f"schema: {error.message}"
        if data["config"]["experiment"] != report.experiment or data["config"]["seed"] != report.seed:
            return "report echoes another config"
        if data["tallies"] != report.expected_tallies:
            return f"tallies {data['tallies']} != {report.expected_tallies}"
        failed = [check["name"] for check in data["checks"] if not check["pass"]]
        if failed:
            return f"failed checks {failed}"
        return None

    def check(self, index: int, report: workloads.Report, code: int | str, text: str) -> None:
        self.attempted += 1
        digest = hashlib.sha256(text.encode()).hexdigest()
        known = self.digests.get(index)
        if known is not None:
            problem = None if digest == known else "bytes differ from the first run of this report"
        else:
            problem = self._problem(report, code, text)
            if problem is None:
                self.digests[index] = digest
        if problem is not None:
            self.failures.append(f"{' '.join(report.argv)}: {problem}")


def run_pass(cli, reports, gate) -> tuple[float, list[float]]:
    """Run every report once; returns (pass time, per-report times)."""
    times = []
    for index, report in enumerate(reports):
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(report.argv))
        except Exception as exc:  # the CLI promises an exit code, never a traceback
            code = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        gate.check(index, report, code, out.getvalue())
    return sum(times), times


def run_passes(cli, reports, gate, budget_s: float, min_passes: int,
               tracer=None, before_pass=None) -> list:
    """Repeat the report list for about ``budget_s`` seconds.

    A further pass starts only if at least half of it fits the budget.
    ``before_pass(elapsed)``, if given, runs untimed before each pass.
    Returns one (pass time, per-report times, spans or None) per pass.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or (
        (elapsed := time.perf_counter() - start) + elapsed / len(passes) / 2 < budget_s
    ):
        if before_pass is not None:
            before_pass(time.perf_counter() - start)
        if tracer is not None:
            tracer.reset()
        wall, times = run_pass(cli, reports, gate)
        passes.append((wall, times, tracer.snapshot() if tracer is not None else None))
    return passes


# a fresh interpreter that imports the CLI, builds the inputs and says so
_PROBE = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import qracbox.cli, workloads
workloads.build({workload!r}, {seed!r})
print("ready", flush=True)
"""


class SetupProbe:
    """Times fresh interpreters from spawn until they are ready to run.

    Probes run with bytecode caching on, as a user's interpreter does;
    the probe made on construction fills the cache and is not counted.
    """

    def __init__(self, workload: str, seed: int) -> None:
        code = _PROBE.format(src=str(SRC), bench=str(Path(__file__).resolve().parent),
                             workload=workload, seed=seed)
        self._argv = [sys.executable, "-c", code]
        self._env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.samples: list[float] = []
        self._spawn()

    def _spawn(self) -> float:
        start = time.perf_counter()
        with subprocess.Popen(self._argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=self._env) as probe:
            try:
                line = probe.stdout.readline()
                elapsed = time.perf_counter() - start
                probe.wait(timeout=60)
            finally:
                if probe.poll() is None:
                    probe.kill()
                    probe.wait()
        if line.strip() != "ready" or probe.returncode != 0:
            sys.exit(f"bench: setup probe failed with exit code {probe.returncode}")
        return elapsed

    def sample(self) -> None:
        self.samples.append(self._spawn())


def summarize(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered)}
    for pct in PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            summary[f"p{pct:g}"] = ordered[math.ceil(pct / 100 * n) - 1]
            break
    return summary


def latency_samples(reports, passes) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for _, times, _ in passes:
        for report, elapsed in zip(reports, times):
            if report.metric is not None:
                samples.setdefault(report.metric, []).append(elapsed)
    return samples


def layer_metrics(passes) -> tuple[dict, list[str]]:
    """Per-layer values from traced passes, plus any repeatability problems."""
    spans = [snapshot for _, _, snapshot in passes]
    problems = []
    calls = [{label: span["calls"] for label, span in snap.items()} for snap in spans]
    if any(c != calls[0] for c in calls[1:]):
        problems.append("per-layer calls differ between traced passes")
    metrics = {}
    for label, names in LAYER_METRICS:
        first = spans[0][label]
        for name in names:
            if name == "self_s":
                value = statistics.median(snap[label]["self_s"] for snap in spans)
            elif name == "kept_ratio":
                value = first["kept"] / first["calls"] if first["calls"] else 0.0
            elif name == "branches":
                value = first["items"]
            else:
                value = first[name]
            metrics[f"{label}.{name}"] = {"value": value, "unit": UNITS[name]}
    return metrics, problems


def print_lines(metrics: dict, summaries: dict) -> None:
    """One line per metric; sampled timings also give their count and tail."""
    rows = [(name, metric["value"], metric["unit"]) for name, metric in metrics.items()]
    rows += [(name, s["median"], "s") for name, s in summaries.items() if name not in metrics]
    for name, value, unit in rows:
        extra = summaries.get(name, {})
        tail = ", ".join(f"{k}={v:.6g}" for k, v in extra.items() if k != "median")
        print(f"{name:48s} {value:.6g} {unit}" + (f"  ({tail})" if tail else ""))


def end_to_end(cli, reports, gate, args) -> tuple[dict, list, dict]:
    """Untraced run: timed passes, with set-up probes spread between them.

    Spreading the probes over the run exposes them to the same drift in
    machine speed as the passes, rather than to one moment of it.
    Returns (metrics, the passes whose per-report times are reported,
    extra details); ``per_layer`` returns the same shape.  A detail
    named ``problems`` lists run-level faults that make the run incorrect.
    """
    probe = SetupProbe(args.workload, args.seed)
    interval = args.seconds / SETUP_PROBES

    def probe_when_due(elapsed: float) -> None:
        while len(probe.samples) < SETUP_PROBES and elapsed >= len(probe.samples) * interval:
            probe.sample()

    passes = run_passes(cli, reports, gate, args.seconds, min_passes=1, before_pass=probe_when_due)
    while len(probe.samples) < SETUP_PROBES:
        probe.sample()
    setup = probe.samples
    walls = [wall for wall, _, _ in passes]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    return metrics, passes, {"summaries": {"setup_s": summarize(setup), "wall_s": summarize(walls)}}


def per_layer(cli, reports, gate, args) -> tuple[dict, list, dict]:
    """Untraced passes, then traced passes; the gate holds both to the same bytes."""
    untraced = run_passes(cli, reports, gate, args.seconds * TRACE_UNTRACED_SHARE, min_passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(cli, reports, gate, args.seconds * (1 - TRACE_UNTRACED_SHARE),
                            min_passes=2, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics, problems = layer_metrics(traced)
    untraced_wall = statistics.median(wall for wall, _, _ in untraced)
    traced_wall = statistics.median(wall for wall, _, _ in traced)
    metrics["trace_overhead"] = {"value": traced_wall / untraced_wall - 1, "unit": "ratio"}
    latencies = latency_samples(reports, untraced)
    for name in LATENCY_METRICS:
        value = statistics.median(latencies[name]) if name in latencies else 0.0
        metrics[name] = {"value": value, "unit": "s"}
    return metrics, untraced, {
        "problems": problems, "spans_per_pass": traced[0][2], "traced_passes": len(traced),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    cli = import_cli()
    reports = workloads.build(args.workload, args.seed)
    gate = Gate(SRC / "qracbox" / "report_schema.json")
    measure = per_layer if args.trace else end_to_end
    metrics, passes, details = measure(cli, reports, gate, args)
    summaries = details.pop("summaries", {})
    problems = details.setdefault("problems", [])
    for name, samples in latency_samples(reports, passes).items():
        summaries[name] = summarize(samples)
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        passes=len(passes),
        reports_per_pass=len(reports),
        summaries=summaries,
        failures=gate.failures,
        digests={
            f"{args.workload}/{reports[i].experiment}/{reports[i].seed}": digest
            for i, digest in sorted(gate.digests.items())
        },
    )
    print("details " + json.dumps(details, sort_keys=True))
    print_lines(metrics, summaries)
    print(json.dumps({
        "correct": not gate.failures and not problems,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
