"""Tests of the benchmark's own code: self time, the percentile rule,
the output check, the stall path and the timing wrappers."""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import check, spans, workloads  # noqa: E402


def _span(span_id, parent, start, end, pid=1, name="x"):
    return (pid, span_id, parent, name, start, end, None)


def test_self_time_subtracts_nested_and_overlapping_children():
    trace = [
        _span(1, 0, 0.0, 10.0, name="root"),
        _span(2, 1, 1.0, 3.0, name="a"),
        _span(3, 1, 2.0, 5.0, name="b"),     # overlaps a: [1, 5] once
        _span(4, 1, 8.0, 12.0, name="c"),    # clipped to the root's end
        _span(5, 2, 1.5, 2.5, name="a.child"),
        _span(2, 0, 0.0, 1.0, pid=2, name="other"),  # same id, other pid
    ]
    result = {name: (duration, own)
              for name, duration, own in spans.self_times(trace)}
    assert result["root"] == (10.0, 4.0)
    assert result["a"] == (2.0, 1.0)
    assert result["b"] == (3.0, 3.0)
    assert result["other"] == (1.0, 1.0)


def test_covered_merges_intervals_inside_the_window():
    assert spans.covered(0.0, 4.0, [(3.0, 9.0), (-1.0, 1.0), (0.5, 2.0)]) \
        == pytest.approx(3.0)
    assert spans.covered(0.0, 1.0, []) == 0.0


def test_percentile_needs_ten_samples_beyond_it():
    assert spans.percentile(list(range(19)), 0.5) is None
    assert spans.percentile(list(range(20)), 0.5) == 9
    assert spans.percentile(list(range(99)), 0.9) is None
    assert spans.percentile(list(range(100)), 0.9) == 89
    assert spans.percentile([], 0.5) is None
    assert [spans.samples_needed(q) for q in (0.5, 0.9, 0.99)] \
        == [20, 100, 1000]


def _records():
    from repro.fleet import SweepAxis, SweepSpec
    from repro.scenarios import skopje

    sweep = SweepSpec(bases=(skopje(),),
                      axes=(SweepAxis(workloads.HANDOVER_PATH,
                                      (0.03, 0.06)),),
                      seeds=(3,), density=1.0)
    runs = sweep.expand()
    return runs, check.serial_records(runs)


def test_output_check_flags_one_mutated_record():
    runs, records = _records()
    assert check.mismatches(runs, records) == []
    summary = records[1].summary
    mutated = dataclasses.replace(
        records[1], summary=dataclasses.replace(
            summary, detour_km=summary.detour_km + 1e-9))
    assert check.mismatches(runs, [records[0], mutated]) \
        == [runs[1].run_id]


def test_sampler_covers_every_stratum():
    runs, records = _records()
    sampler = check.Sampler(random.Random(1))
    sampler.offer(0, records, [False, True])
    sampler.offer(1, records, [False, False])
    picked = sampler.sample(extra=0)
    assert {item.stratum for item in picked} == {
        ("skopje", 3, False), ("skopje", 3, True)}


class _Stuck(workloads.Workload):
    name = "stuck"

    def __init__(self) -> None:
        super().__init__(0, Path("."))
        self.release = threading.Event()

    def next_fleet(self):
        return self._plan(_Sweep())

    def run_fleet(self, plan):
        self.release.wait(30)
        return workloads.FleetRun((), ())


class _Sweep:
    run_count = 3


def test_a_stalled_loop_reports_failures_instead_of_hanging():
    workload = _Stuck()
    started = time.perf_counter()
    try:
        phase = workloads.run_phase(
            workload, check.Sampler(random.Random(0)), seconds=0.05,
            min_fleets=1, stall_s=0.2)
    finally:
        workload.release.set()
    assert time.perf_counter() - started < 5.0
    assert phase.error.startswith("stalled")
    assert (phase.attempted, phase.delivered) == (3, 0)
    with pytest.raises(workloads.Stalled):
        workloads.guarded(lambda: time.sleep(2), 0.05)


def test_workloads_are_seeded():
    def plans(seed):
        return [cls(seed, Path(".")).next_fleet().sweep.to_dict()
                for cls in workloads.WORKLOADS.values()]
    assert plans(4) == plans(4)
    assert plans(4) != plans(5)


def test_wrappers_record_every_batch_layer_and_restore_originals():
    from repro.fleet import SweepAxis, SweepSpec, run_sweep
    from repro.fleet.executors import BatchExecutor
    from repro.scenarios import skopje

    original = BatchExecutor.map
    recorder = spans.Recorder()
    uninstall, missing = spans.install(recorder)
    try:
        sweep = SweepSpec(bases=(skopje(),),
                          axes=(SweepAxis(workloads.HANDOVER_PATH,
                                          (0.03, 0.05, 0.07)),),
                          seeds=(5,), density=1.0)
        started = time.perf_counter()
        run_sweep(sweep, executor="batch")
        ended = time.perf_counter()
    finally:
        uninstall()
    assert missing == []
    assert BatchExecutor.map is original
    trace, events = recorder.drain()
    totals = spans.aggregate(trace, events, started, ended)
    assert totals.calls["core.compiled.evaluate"] == 3
    assert totals.calls["probes.kernel.sample_run"] == 3
    assert totals.calls["core.compiled.compile"] == 1
    assert totals.counts["fleet.compiled.builds"] == 1
    assert totals.counts["fleet.compiled.memory_hits"] == 2
    assert totals.counts["probes.kernel.samples"] > 0
    for name in totals.calls:
        assert totals.self_s[name] <= totals.total_s[name] + 1e-9


def test_fleet_figures_scale_cpu_work_to_the_reference_host():
    from perfbench import host, run

    fleet = workloads.FleetDone(
        workloads.FleetPlan(0, _Sweep()), ["a", "b"], 0.0, 1.0, [],
        cpu_s=0.8, probe_s=2 * host.REFERENCE_S)
    phase = workloads.Phase(fleets=[fleet])
    rates, latencies, cpu_per_run = run.fleet_figures(phase, waits=False)
    assert rates == [pytest.approx(4.0)]
    assert latencies == [pytest.approx(0.5)]
    assert cpu_per_run == [pytest.approx(0.2)]
    # a workload that mostly waits keeps its wall time as measured
    rates, latencies, cpu_per_run = run.fleet_figures(phase, waits=True)
    assert (rates, latencies) == ([pytest.approx(2.0)], [pytest.approx(1.0)])
    assert cpu_per_run == [pytest.approx(0.2)]
