"""The repository benchmark: one workload per run, or all three.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch_sampling --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run sets the workload up, warms it up with one run, then drives a
closed loop of seeded fleets (see :mod:`perfbench.workloads`) for
``--seconds`` and until enough fleets have finished for a median with
ten samples beyond it.  Afterwards a seeded sample of the delivered
records, covering every build-key group, is compared byte for byte with
``SerialExecutor`` output.

``--trace 0`` reports the end-to-end metrics: throughput, fleet
latency and CPU per run (each the median over fleets), set-up time
(median of fresh-process set-ups) and peak RSS.  CPU seconds, and
wall seconds of the workloads that do not mostly wait, are scaled to
a reference host by the host-speed probe timed next to them (see
:mod:`perfbench.host`), so that the CPU speed a shared host happens to
give does not read as a change in the program.  ``--trace 1`` runs the loop for half the window
untraced and half with the timing wrappers of :mod:`perfbench.spans`
installed, and reports per-layer calls, self time and counts of the
traced phase plus the tracing overhead.  Metric names and units are
the ones ``BENCHMARK.json`` declares.  Human-readable lines come first;
the last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"

#: fleets a phase needs so its median has ten samples beyond it
MIN_FLEETS = 20
#: fresh-process set-ups whose median is ``setup_s``
SETUP_PROBES = 5
#: records checked beyond one per build-key group and cache state
SAMPLE_EXTRA = 10


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` declares, in its order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"]) for entry in declared[kind]]


#: tail percentiles that no run of this length has the samples for
UNREPORTABLE = ["service.client.submit_runs.p99_ms",
                "service.worker.lease_ack.p99_ms"]


def say(line: str = "") -> None:
    print(line, flush=True)


# -- metrics ------------------------------------------------------------------

def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def fleet_figures(phase: Any, waits: bool
                  ) -> tuple[list[float], list[float], list[float]]:
    """Per-fleet runs per second, latency and CPU seconds per run, in
    reference-host seconds; the wall time of a workload that mostly
    waits stays as measured."""
    from perfbench.host import scale

    rates, latencies, cpu_per_run = [], [], []
    for fleet in phase.fleets:
        factor = scale(fleet.probe_s)
        latency = fleet.latency_s * (1.0 if waits else factor)
        runs = len(fleet.run_ids)
        rates.append(_ratio(runs, latency))
        latencies.append(latency)
        cpu_per_run.append(_ratio(fleet.cpu_s * factor, runs))
    return rates, latencies, cpu_per_run


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(totals: Any, traced: Any, untraced: Any, waits: bool
                  ) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """The per-layer metrics of the traced phase, and why any is 0
    for want of samples."""
    from perfbench.spans import percentile, samples_needed

    calls, counts = totals.calls, totals.counts
    untraced_rate = median(fleet_figures(untraced, waits)[0])
    traced_rate = median(fleet_figures(traced, waits)[0])
    derived = {
        "fleet.compiled.hit_ratio": _ratio(
            counts["fleet.compiled.memory_hits"]
            + counts["fleet.compiled.disk_hits"],
            calls["fleet.compiled.get"]),
        "service.client.slots.empty_ratio": _ratio(
            counts["service.client.slots.empty"],
            calls["service.client.slots"]),
        "service.client.lease.empty_ratio": _ratio(
            counts["service.client.lease.empty"],
            calls["service.client.lease"]),
        "fleet.executors.payload_bytes": _ratio(
            counts["fleet.executors.payload_bytes"],
            counts["fleet.executors.payload_runs"]),
        "service.journal.bytes_per_run": _ratio(
            counts["service.journal.bytes"], traced.attempted),
        "trace.runs": traced.delivered,
        "trace.untraced_runs_per_s": untraced_rate,
        "trace.traced_runs_per_s": traced_rate,
        "trace.overhead_pct": 100.0 * (_ratio(untraced_rate,
                                              traced_rate) - 1.0),
    }
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for name, unit in declared_metrics("per_layer"):
        base, _, leaf = name.rpartition(".")
        if name in derived:
            value = float(derived[name])
        elif leaf == "calls":
            value = float(calls[base])
        elif leaf == "self_s":
            value = totals.self_s[base]
        elif leaf == "total_s":
            value = totals.total_s[base]
        elif leaf.startswith("p") and leaf.endswith("_ms"):
            q = int(leaf[1:-3]) / 100.0
            data = totals.samples.get(base) or totals.durations.get(base, [])
            found = percentile(data, q)
            value = 0.0 if found is None else found * 1e3
            if found is None:
                absent.append(f"{name}: {len(data)} samples, "
                              f"needs {samples_needed(q)}")
        else:
            value = float(counts[name])
        metrics[name] = (value, unit)
    for name in UNREPORTABLE:
        base, _, leaf = name.rpartition(".")
        data = totals.samples.get(base) or totals.durations.get(base, [])
        absent.append(f"{name}: not reported, {len(data)} samples, needs "
                      f"{samples_needed(int(leaf[1:-3]) / 100.0)}")
    return metrics, absent


def latency_lines(latencies: list[float]) -> list[str]:
    from perfbench.spans import percentile, samples_needed

    lines = []
    for q in (0.5, 0.9, 0.99):
        value = percentile(latencies, q)
        label = f"fleet_latency_p{round(q * 100)}_s"
        lines.append(f"{label}: {value:.4f} s (n={len(latencies)})"
                     if value is not None else
                     f"{label}: not reported (n={len(latencies)}, "
                     f"needs {samples_needed(q)})")
    return lines


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0       # ru_maxrss is in KiB on Linux


# -- steps -------------------------------------------------------------------

def verify(phases: list[Any], sampler: Any) -> tuple[list[str], list[str]]:
    """Mismatching run ids, and problems with the delivered run lists."""
    from perfbench.check import mismatches

    fleets = {fleet.plan.index: fleet
              for phase in phases for fleet in phase.fleets}
    items = sampler.sample(SAMPLE_EXTRA)
    runs, delivered, problems = [], [], []
    for index in sorted({item.fleet for item in items}):
        fleet = fleets[index]
        expected = fleet.plan.sweep.expand()
        if [run.run_id for run in expected] != fleet.run_ids:
            problems.append(f"fleet {index}: records out of order or "
                            f"for the wrong runs")
        for item in items:
            if item.fleet == index:
                runs.append(expected[item.position])
                delivered.append(item.record)
    say(f"output check: {len(runs)} records from {len(fleets)} fleets "
        f"against SerialExecutor")
    return mismatches(runs, delivered), problems


def probe_setup(args: argparse.Namespace, work: Path, waits: bool
                ) -> float:
    """Seconds from spawning a fresh benchmark process to its first
    finished warm-up run; in reference-host seconds, by the host-speed
    probes on either side of it, unless the workload mostly waits."""
    from perfbench.host import probe_s, scale
    from perfbench.workloads import guarded, stop_process

    command = [sys.executable, str(Path(__file__)), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "1",
               "--trace", "0", "--setup-probe"]
    log_path = work / "probe.log"
    before = probe_s()
    with log_path.open("ab") as log:
        started = perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=log, stdin=subprocess.DEVNULL)
    try:
        assert proc.stdout is not None
        line = guarded(proc.stdout.readline, args.stall_s)
        elapsed = perf_counter() - started
        if line.strip() != b"ready":
            raise RuntimeError("set-up probe failed: "
                               + log_path.read_text()[-2000:])
        guarded(proc.wait, args.stall_s)
    finally:
        stop_process(proc)
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    if waits:
        return elapsed
    return elapsed * scale((before + probe_s()) / 2.0)


def setup_probe(args: argparse.Namespace, work: Path) -> int:
    from perfbench.workloads import WORKLOADS, guarded

    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        workload.setup()
        plan = workload.warm_up_plan()
        guarded(lambda: workload.run_fleet(plan), args.stall_s)
        say("ready")
    finally:
        workload.teardown()
    return 0


def measure(args: argparse.Namespace, work: Path) -> dict[str, Any]:
    import random

    from perfbench.check import Sampler
    from perfbench.spans import (Recorder, aggregate, install,
                                 read_span_files)
    from perfbench.workloads import WORKLOADS, guarded, run_phase

    workload = WORKLOADS[args.workload](args.seed, work)
    sampler = Sampler(random.Random(f"sample:{args.seed}"))
    # A traced run splits its window between the untraced and the
    # traced phase, so it takes as long as an untraced run.
    loop = dict(seconds=args.seconds / (2 if args.trace else 1),
                min_fleets=MIN_FLEETS, stall_s=args.stall_s)
    phases = []
    problems: list[str] = []
    span_dir = work / "spans"
    recorder: Optional[Recorder] = None
    missing: list[str] = []

    def measured_phase(**extra: Any) -> Any:
        hits = workload.cache_hits()
        phase = run_phase(workload, sampler, **loop, **extra)
        phases.append(phase)
        repeats = sum(fleet.plan.repeats for fleet in phase.fleets)
        if hits is not None and not phase.error \
                and workload.cache_hits() - hits != repeats:
            problems.append(f"{workload.cache_hits() - hits} result-cache "
                            f"hits for {repeats} repeated runs")
        return phase

    try:
        started = perf_counter()
        workload.setup()
        warm_up = workload.warm_up_plan()
        guarded(lambda: workload.run_fleet(warm_up), args.stall_s)
        say(f"{args.workload}: set up and warmed up in "
            f"{perf_counter() - started:.3f} s (seed {args.seed})")
        untraced = measured_phase()
        if args.trace:
            span_dir.mkdir()
            workload.use_traced_worker(span_dir)
            warm_up = workload.warm_up_plan()
            guarded(lambda: workload.run_fleet(warm_up), args.stall_s)
            recorder = Recorder(span_dir)
            uninstall, missing = install(recorder)
            try:
                traced = measured_phase(tag=recorder.set_tag)
            finally:
                uninstall()
    finally:
        workload.teardown()
    rss = peak_rss_mb()

    mismatched, order_problems = verify(phases, sampler)
    problems += order_problems + [p for phase in phases
                                  for p in phase.problems]
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(max(0, phase.attempted - phase.delivered)
                 for phase in phases) + len(mismatched)
    if mismatched:
        problems.append(f"records differ from SerialExecutor: "
                        f"{', '.join(mismatched[:5])}")

    waits = workload.waits
    rates, latencies, cpu_per_run = fleet_figures(untraced, waits)
    probes = [fleet.probe_s for fleet in untraced.fleets]
    say(f"fleets: {len(untraced.fleets)}, runs: {untraced.delivered} "
        f"in {untraced.wall_s:.3f} s; host-speed probe median "
        f"{median(probes) * 1e3:.2f} ms")
    for line in latency_lines(latencies):
        say(line)
    say(f"failed_run_ratio: {_ratio(failed, attempted):.6f} ratio "
        f"({failed} of {attempted} runs)")

    absent: list[str] = []
    if args.trace:
        assert recorder is not None
        spans, events = recorder.drain()
        child_spans, child_events = read_span_files(span_dir)
        totals = aggregate(spans + child_spans, events + child_events,
                           traced.start, traced.end)
        metrics, absent = layer_metrics(totals, traced, untraced, waits)
        absent += [f"{target}: not in the program, its layer reads 0"
                   for target in missing]
    else:
        setups = [probe_setup(args, work, waits)
                  for _ in range(SETUP_PROBES)]
        say("set-up probes: " + ", ".join(f"{s:.3f}" for s in setups) + " s")
        values = {
            "runs_per_s": median(rates),
            "fleet_latency_p50_s": median(latencies),
            "setup_s": median(setups),
            "cpu_s_per_run": median(cpu_per_run),
            "peak_rss_mb": rss,
        }
        metrics = {name: (values[name], unit)
                   for name, unit in declared_metrics("end_to_end")}
    for name, (value, unit) in metrics.items():
        say(f"  {name:<40} {value:>14.6g} {unit}")
    for line in absent:
        say(f"  absent: {line}")
    for problem in problems:
        say(f"FAILED: {problem}")
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in a fresh process."""
    from perfbench.workloads import WORKLOADS

    results: dict[str, Any] = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            say(line)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "error":
                             f"exit {proc.returncode}, no result"}
        say()
    say(f"{'workload':<16} {'correct':<8} metric")
    for name, result in results.items():
        for metric, entry in result.get("metrics", {}).items():
            say(f"{name:<16} {str(result['correct']):<8} {metric} = "
                f"{entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r.get("correct") for r in results.values()) else 1


def main(argv: list[str]) -> int:
    names = ("batch_sampling", "process_builds", "service_mixed")
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A stalled phase is cut off this long after its window.
    args.stall_s = max(30.0, args.seconds)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: repro imported from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.setup_probe:
            return setup_probe(args, work)
        result = measure(args, work)
    except Exception as exc:
        print(f"error: {args.workload} failed: {type(exc).__name__}: "
              f"{exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    if not result["correct"]:
        print(f"error: {args.workload} failed its checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
