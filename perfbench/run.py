"""End-to-end and per-layer benchmark of the Polaris reproduction.

Runs one workload (``--workload NAME``) or all four in turn, each in a
process of its own, and prints every metric by name with its unit and
clock.  The last line of a single-workload run is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the process runs a plain and a traced twin of the
workload, pass for pass, checks that they agree exactly on simulated
time and result digests, and reports the per-layer metrics of the
traced twin.  Any correctness-check failure makes the exit code 1.

Usage::

    python3 perfbench/run.py --workload tpch_power --seed 42 --seconds 45
    python3 perfbench/run.py --workload lst_wp1 --trace 1
    python3 perfbench/run.py            # all four workloads

See ``perfbench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Builds timed before the first pass; ``setup_s`` is the median of these
#: and of every rebuild between rounds.
SETUP_REPEATS = 3

#: Samples beyond the highest reported percentile a run must collect.
TAIL_SAMPLES = 10

#: A run whose passes have not collected their samples by then fails
#: (set-up comes on top; a run must end within 180 s).
MAX_RUN_S = 120.0

#: The workloads, in the order a run of all of them takes.
WORKLOAD_NAMES = ("tpch_power", "tpch_analyzed", "lst_wp1", "gateway_commit")

#: End-to-end metrics: name -> (unit, clock).
END_TO_END = {
    "setup_s": ("s", "wall"),
    "pass_wall_s": ("s", "wall"),
    "pass_sim_s": ("sim_s", "simulated"),
    "query_wall_ms_geomean": ("ms", "wall"),
    "query_wall_ms_p90": ("ms", "wall"),
    "write_amp": ("ratio", "bytes"),
    "space_amp": ("ratio", "bytes"),
    "peak_rss_mb": ("MB", "memory"),
}


def percentile(samples, q):
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(samples) -> float:
    """Geometric mean, the TPC-H power metric's average of query times."""
    return math.exp(statistics.fmean(math.log(s) for s in samples))


def tail_count(samples, q) -> int:
    """How many samples lie above the ``q``-th percentile."""
    if not samples:
        return 0
    cut = percentile(samples, q)
    return sum(1 for s in samples if s > cut)


def _build(workload, setup_times):
    gc.collect()
    start = time.perf_counter()
    state = workload.build()
    setup_times.append(time.perf_counter() - start)
    return state


def _enough(workload, passes) -> bool:
    queries = [ms for p in passes for ms in p.query_ms]
    writes = [ms for p in passes for ms in p.write_ms]
    return tail_count(queries, 90) >= TAIL_SAMPLES and (
        not workload.has_writes or tail_count(writes, 90) >= TAIL_SAMPLES
    )


def _rounds(workload, seconds, states, setup_times, run_passes, need_tails):
    """Drive passes for ``seconds``, rebuilding between rounds.

    ``states`` holds the current build of each twin; ``run_passes(index)``
    runs one pass on every twin and returns the plain twin's record.
    Stops once the time is up, the round is complete and, with
    ``need_tails``, the percentile tails have their samples.  Rebuilds
    are timed into ``setup_times``.  Returns (records, problems,
    storage figures); the storage figures of every round and twin must
    agree.
    """
    per_build = workload.passes_per_build
    started = time.perf_counter()
    records, problems, closings = [], [], []
    used = 0
    while True:
        if per_build is not None and used == per_build:
            for twin in range(len(states)):
                closings.append(workload.close(states[twin]))
                states[twin] = None
            for twin in range(len(states)):
                states[twin] = _build(workload, setup_times)
            used = 0
        records.append(run_passes(len(records)))
        used += 1
        elapsed = time.perf_counter() - started
        if (
            elapsed >= seconds
            and (per_build is None or used == per_build)
            and (not need_tails or _enough(workload, records))
        ):
            break
        if elapsed > MAX_RUN_S:
            problems.append(
                f"collected too few samples within {MAX_RUN_S:g}s to report "
                "p90 with ten samples above it"
            )
            break
    for state in states:
        closings.append(workload.close(state))
    if any(closing != closings[0] for closing in closings):
        problems.append(f"storage figures differ between rounds: {closings}")
    return records, problems, closings[0]


def measure(workload, seconds):
    """A plain run: end-to-end metrics and the correctness checks."""
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous build before the next one
        state = _build(workload, setup_times)
    problems, figures = workload.check_once(state)
    states = [state]
    pass_problems = []

    def run_passes(index):
        record = workload.run_pass(states[0])
        pass_problems.extend(workload.check_pass(states[0], record, index))
        return record

    records, more, storage = _rounds(
        workload, seconds, states, setup_times, run_passes, need_tails=True
    )
    problems += pass_problems + more
    queries = [ms for r in records for ms in r.query_ms]
    writes = [ms for r in records for ms in r.write_ms]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_wall_s": statistics.median(r.wall_s for r in records),
        "pass_sim_s": round(statistics.median(r.sim_s for r in records), 9),
        "query_wall_ms_geomean": geomean(queries),
        "query_wall_ms_p90": percentile(queries, 90),
        "write_amp": storage["write_amp"],
        "space_amp": storage["space_amp"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    report = {
        "passes": len(records),
        "setups": len(setup_times),
        "query_samples": len(queries),
        "query_wall_ms_p50": percentile(queries, 50),
        "write_samples": len(writes),
        "failed_fraction": failed / attempted if attempted else 0.0,
        **figures,
    }
    if writes:
        report["write_wall_ms_p50"] = percentile(writes, 50)
        report["write_wall_ms_p90"] = percentile(writes, 90)
    report.update(workload.report_figures(records[0]))
    return metrics, report, attempted, failed, problems


def measure_traced(workload, seconds):
    """A plain and a traced twin, pass for pass: per-layer metrics."""
    from layers import LayerTracer

    setup_times = []
    states = [_build(workload, setup_times) for _ in range(2)]
    problems, __ = workload.check_once(states[0])
    tracer = LayerTracer()
    traced = []

    def run_passes(index):
        plain = workload.run_pass(states[0])
        problems.extend(workload.check_pass(states[0], plain, index))
        with tracer.installed():
            twin = workload.run_pass(states[1], tracer)
        # The checks touch the state too (COUNT(*) scans), so both twins
        # run them to stay identical.
        problems.extend(workload.check_pass(states[1], twin, index))
        traced.append(twin)
        if twin.digests != plain.digests:
            problems.append(f"pass {index}: traced result digests differ")
        if twin.sim_s != plain.sim_s:
            problems.append(
                f"pass {index}: traced pass_sim_s {twin.sim_s!r} != plain "
                f"{plain.sim_s!r}"
            )
        return plain

    records, more, __ = _rounds(
        workload, seconds, states, setup_times, run_passes, need_tails=False
    )
    problems += more
    metrics = tracer.per_pass(len(traced), sum(t.wall_s for t in traced))
    metrics["telemetry.overhead_fraction"] = (
        statistics.median(t.wall_s for t in traced)
        / statistics.median(r.wall_s for r in records)
        - 1.0
    )
    attempted = sum(r.attempted for r in records + traced)
    failed = sum(r.failed for r in records + traced)
    report = {"passes": len(records), "traced_passes": len(traced)}
    return metrics, report, attempted, failed, problems


def unit_of(name: str) -> str:
    """The unit of a per-layer or report-only metric, from its name."""
    if name.endswith("per_sim_s") or name == "max_rate_within_slo":
        return "1/sim_s"
    if "_ms" in name:
        return "ms"
    if "sim_s" in name:
        return "sim_s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("ratio", "fraction")):
        return "ratio"
    return "count"


#: The clock a unit is measured on.
CLOCKS = {"ms": "wall", "s": "wall", "sim_s": "simulated", "1/sim_s": "simulated"}


def run_one(args) -> int:
    from workloads import WORKLOADS

    factory, default_seed = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed
    workload = factory(seed)
    if args.trace:
        metrics, report, attempted, failed, problems = measure_traced(
            workload, args.seconds
        )
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, report, attempted, failed, problems = measure(workload, args.seconds)
        units = {name: unit for name, (unit, __) in END_TO_END.items()}
    print(f"workload {args.workload}  seed {seed}  trace {args.trace}")
    for name, value in list(report.items()) + list(metrics.items()):
        unit = units.get(name) or unit_of(name)
        clock = END_TO_END[name][1] if name in END_TO_END else CLOCKS.get(unit, "")
        print(f"  {name:<34} {value:.6g} {unit} {clock}".rstrip())
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        status = max(status, subprocess.run(command).returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, choices=WORKLOAD_NAMES,
                        help="the workload to run (default: all, one "
                        "process each)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: TPC-H 42, TPC-DS 7, gateway 0)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced twin")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
