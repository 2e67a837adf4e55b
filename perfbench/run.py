"""The repository's benchmark: three workloads, one command, layer attribution.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-figures --seed 7 --seconds 25 --trace 0

Workloads (see each module's docstring for why it exists):

* ``paper-figures`` (``figures.py``): Figures 4–8 via ``run_experiment``;
* ``ingest`` (``ingest.py``): N-Triples parse, chain build, σ, mutation,
  snapshot round trip and out-of-core build;
* ``serve-churn`` (``churn.py``): an open loop of evaluate/refine/mutate
  requests against ``repro serve --async --workers 2``.

A run sets up several times (three, or as many as the workload asks
for; reporting the median set-up time), then
repeats the workload's fixed unit of work while another pass still fits
in ``--seconds`` (at least once), checks the outputs outside the timed
region, and prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
timing wrappers; with ``--trace 1`` they are the per-layer ones, taken
by wrapping the program's public calls (``layers.py``).  The line before
it records the environment (CPU count, interpreter, NumPy, SciPy and
HiGHS versions, seed), so results from other hardware are not compared.

Deterministic work counters (solver calls and statuses, lowered model
sizes, search probes, the server's mutation log length, ...) must repeat
exactly: between the passes of a run, and between runs of the same
workload, seed and run length over the same ``src/`` and ``perfbench/``
sources (recorded under ``perfbench/.state/``).  A mismatch counts as a failed operation.

Programs run single-process (``REPRO_JOBS=1``, ``REPRO_TRACE`` unset),
apart from ``serve-churn``'s server and its two pool workers.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"paper-figures": "figures", "ingest": "ingest", "serve-churn": "churn"}
#: Set-ups per run, unless the workload names its own ``setup_repeats``.
SETUP_REPEATS = 3

#: Metric names and units, per mode, as ``BENCHMARK.json`` declares them.
DECLARED = ROOT / "BENCHMARK.json"

#: Program counters that must repeat exactly (read off the tracer).
PROGRAM_COUNTERS = (
    "solve.status.optimal", "solve.status.infeasible", "solve.status.time_limit",
    "solve.status.error", "ilp.rows", "ilp.cols", "ilp.nnz",
    "search.probes", "search.solver_probes",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # A terminated or interrupted run still unwinds, so the serve-churn
    # server is stopped; the server inherits a working SIGINT even when
    # this process was started with SIGINT ignored.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_JOBS"] = "1"
    os.environ.pop("REPRO_TRACE", None)

    declared = json.loads(DECLARED.read_text())
    units = {
        mode: {metric["name"]: metric["unit"] for metric in declared[key]}
        for mode, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    module = importlib.import_module(WORKLOADS[args.workload])
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        report = measure(module, args, work, units[args.trace])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": environment(args)}, sort_keys=True))
    print(json.dumps(report, sort_keys=True))
    return 0


def measure(module, args, work: Path, units: Dict[str, str]) -> Dict[str, object]:
    from common import peak_rss_mb
    from layers import Tracer, install_program_wrappers

    workload = module.Workload(args.seed, work, args.seconds)
    traced = bool(args.trace)
    try:
        setups = []
        for _ in range(getattr(workload, "setup_repeats", SETUP_REPEATS)):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)

        def run_pass(timed: bool):
            tracer = Tracer(timed=timed)
            if workload.program_in_process:
                install_program_wrappers(tracer)
            try:
                result = workload.one_pass()
            finally:
                tracer.restore()
            counters = {name: tracer.counts.get(name, 0) for name in PROGRAM_COUNTERS}
            counters["solve.calls"] = tracer.counts.get("solve.backend_s.calls", 0)
            counters.update(result.counters)
            return result, tracer, counters

        reference_wall = None
        runs = []
        budget = args.seconds
        if traced and workload.program_in_process:
            reference = run_pass(timed=False)
            reference_wall = reference[0].wall_s
            budget -= reference_wall
            runs.append(reference)
        measured = []
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            measured.append(run_pass(timed=traced))
            now = time.perf_counter()
            if (now - started) + (now - pass_started) > budget:
                break
        runs += measured
        # The output checks below build data of their own; the peak that
        # counts is the workload's, so this process's is read first.
        own_peak = peak_rss_mb(resource.RUSAGE_SELF)
        problems = workload.check()
        layer_extra = workload.layer_metrics() if traced else {}
    finally:
        workload.close()
    peak = own_peak if workload.program_in_process else peak_rss_mb(resource.RUSAGE_CHILDREN)

    results = [result for result, _, _ in measured]
    attempted = sum(r.attempted for r, _, _ in runs)
    attempted += sum(c["solve.calls"] for _, _, c in runs)
    failed = sum(r.failed for r, _, _ in runs)
    failed += sum(c["solve.status.time_limit"] + c["solve.status.error"] for _, _, c in runs)
    mismatches = counter_mismatches([c for _, _, c in runs], args)
    failed += len(mismatches)
    for problem in problems + mismatches:
        print(f"perfbench: {problem}", file=sys.stderr)

    if not traced:
        latencies = [latency for result in results for latency in result.latencies_s]
        # A batch workload that fits one pass in the run has one latency,
        # which is then every percentile.
        twentieths = (
            statistics.quantiles(latencies, n=20, method="inclusive")
            if len(latencies) > 1 else latencies * 19
        )
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r.wall_s for r in results),
            "peak_rss_mb": peak,
            "latency_p50_ms": twentieths[9] * 1000,
            "latency_p95_ms": twentieths[18] * 1000,
        }
    else:
        values = layer_values(measured, layer_extra, reference_wall)
        values["fail_ratio"] = failed / max(attempted, 1)
    return {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }


def layer_values(measured, layer_extra, reference_wall) -> Dict[str, float]:
    """Per-layer metrics, as means per traced pass, from the tracers and pass results."""
    from layers import LAYERS

    n = len(measured)
    values: Dict[str, float] = {}
    layers = {layer: 0.0 for layer in LAYERS}
    extra: Dict[str, List[float]] = {}
    max_solve = 0.0
    for result, tracer, _ in measured:
        for name, value in [*tracer.seconds.items(), *tracer.counts.items()]:
            values[name] = values.get(name, 0.0) + value / n
        for layer, value in tracer.layer_seconds.items():
            layers[layer] += value / n
        max_solve = max(max_solve, tracer.max_seconds.get("solve.highs_s", 0.0))
        for name, value in result.metrics.items():
            extra.setdefault(name, []).append(value)
    for name, samples in extra.items():
        if name.startswith("self_s."):
            layers[name[len("self_s."):]] += sum(samples) / n
        else:
            values[name] = statistics.median(samples)
    wall = sum(result.wall_s for result, _, _ in measured) / n
    parse_s, probes = values.get("rdf.parse_s", 0.0), values.get("search.probes", 0)
    values.update({
        "rules.count_calls": values.get("rules.count_s.calls", 0),
        "encode.calls": values.get("encode.build_s.calls", 0),
        "solve.calls": values.get("solve.backend_s.calls", 0),
        "solve.max_s": max_solve,
        "rdf.triples_per_s": values.get("rdf.triples", 0) / parse_s if parse_s else 0.0,
        "search.witness_ratio": (
            (probes - values.get("search.solver_probes", 0)) / probes if probes else 0.0
        ),
        "traced_wall_s": wall,
        "trace_overhead": wall / reference_wall if reference_wall else 1.0,
        "unattributed_s": wall - sum(layers.values()),
    })
    values.update({f"self_s.{layer}": value for layer, value in layers.items()})
    for name, value in measured[0][2].items():
        values.setdefault(name, value)
    values.update(layer_extra)
    return values


def counter_mismatches(per_pass: List[Dict[str, int]], args) -> List[str]:
    """Deterministic counters that differ between passes or from earlier runs."""
    problems = []
    first = per_pass[0]
    for index, counters in enumerate(per_pass[1:], start=2):
        for name in sorted(set(first) | set(counters)):
            if first.get(name) != counters.get(name):
                problems.append(
                    f"counter {name} is {counters.get(name)} in pass {index}, "
                    f"{first.get(name)} in pass 1"
                )
    state = HERE / ".state" / (
        f"{args.workload}-seed{args.seed}-s{args.seconds:g}-{source_digest()[:16]}.json"
    )
    if state.exists():
        recorded = json.loads(state.read_text())
        for name in sorted(set(first) | set(recorded)):
            if first.get(name) != recorded.get(name):
                problems.append(
                    f"counter {name} is {first.get(name)}, an earlier run recorded "
                    f"{recorded.get(name)}"
                )
    else:
        state.parent.mkdir(parents=True, exist_ok=True)
        partial = state.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(first, sort_keys=True))
        os.replace(partial, state)
    return problems


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's source files.

    Counters recorded by other code, or by another version of a workload,
    are never compared.
    """
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> Dict[str, object]:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs

        highs_version = ".".join(
            str(getattr(highs, f"HIGHS_VERSION_{part}")) for part in ("MAJOR", "MINOR", "PATCH")
        )
    except (ImportError, AttributeError):
        highs_version = f"bundled with scipy {scipy.__version__}"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version,
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    sys.exit(main())
