"""Span recording for the traced run, from outside the program.

The benchmark times the repository's layers without editing them: it
replaces each public function listed by :func:`_layers` with a timing
wrapper, patched where its caller looks the name up (a class attribute
for methods, the importing module's global for functions such as
``repro.core.compiled.sample_run``), and restores the originals
afterwards.

A :class:`Recorder` keeps events in memory: spans ``(pid, id, parent
id, name, start, end, tag)`` whose parent is the span open on the same
thread, and timestamped counts and samples.  The tag is the fleet or
run the thread is working on.  Pool processes inherit the wrappers by
fork and exit without running ``atexit``, so a recorder in a process
other than the one that created it appends its events to a per-process
file after every run; the traced service worker does the same after
every posted result.  :func:`aggregate` merges the files with the
in-memory events and derives each layer's self time: a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

#: (pid, span id, parent span id or 0, name, start, end, tag)
Span = tuple[int, int, int, str, float, float, Optional[str]]


class Recorder:
    """In-memory spans, counts and samples of one traced phase.

    ``span_dir`` receives per-process event files from processes other
    than the creating one (fork children) and from a worker that calls
    :meth:`flush` itself.
    """

    def __init__(self, span_dir: Optional[Path] = None) -> None:
        self.span_dir = span_dir
        self.owner_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        #: (time, kind, name, value); kind "c" adds to a count, "x"
        #: appends a sample
        self.events: list[tuple[float, str, str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self) -> threading.local:
        if os.getpid() != self.pid:
            # A fork child starts empty: the parent's events and its
            # open spans belong to the parent.
            self._reset()
        return self._local

    # -- spans ------------------------------------------------------------

    def open(self) -> tuple[int, int, float]:
        local = self._state()
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, perf_counter()

    def close(self, name: str, token: tuple[int, int, float]) -> None:
        end = perf_counter()
        span_id, parent, start = token
        local = self._local
        local.stack.pop()
        self.spans.append((self.pid, span_id, parent, name, start, end,
                           getattr(local, "tag", None)))

    def set_tag(self, tag: Optional[str]) -> None:
        """Label the calling thread's next spans with a fleet or run."""
        self._state().tag = tag

    # -- counts and samples ----------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self._state()
        self.events.append((perf_counter(), "c", name, value))

    def sample(self, name: str, value: float) -> None:
        self._state()
        self.events.append((perf_counter(), "x", name, value))

    def mark(self, key: str) -> None:
        """Remember the current time under ``key`` on this thread."""
        setattr(self._state(), key, perf_counter())

    def since(self, key: str) -> Optional[float]:
        start = getattr(self._state(), key, None)
        return None if start is None else perf_counter() - start

    # -- export -----------------------------------------------------------

    def drain(self) -> tuple[list[Span], list[tuple[float, str, str, float]]]:
        """Everything recorded so far in this process; clears it."""
        self._state()
        spans, events = self.spans, self.events
        self.spans, self.events = [], []
        return spans, events

    def flush(self) -> None:
        """Append this process's events to its file in ``span_dir``."""
        if self.span_dir is None:
            return
        spans, events = self.drain()
        if not spans and not events:
            return
        path = self.span_dir / f"events-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps({"spans": spans, "events": events})
                         + "\n")


def read_span_files(span_dir: Path) -> tuple[list[Span], list[Any]]:
    """Every span and event the per-process files hold."""
    spans: list[Span] = []
    events: list[Any] = []
    for path in sorted(span_dir.glob("events-*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                chunk = json.loads(line)
            except ValueError:
                continue            # a torn last line of a killed worker
            spans.extend(tuple(span) for span in chunk["spans"])
            events.extend(tuple(event) for event in chunk["events"])
    return spans, events


# -- self time ------------------------------------------------------------

def covered(start: float, end: float,
            intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> list[tuple[str, float, float]]:
    """``(name, duration, self time)`` per span.

    Children are the spans naming it as parent in the same process;
    overlapping children count once.
    """
    children: dict[tuple[int, int], list[tuple[float, float]]] = \
        defaultdict(list)
    for pid, _, parent, _, start, end, _ in spans:
        if parent:
            children[(pid, parent)].append((start, end))
    result = []
    for pid, span_id, _, name, start, end, _ in spans:
        kids = children.get((pid, span_id), ())
        result.append((name, end - start,
                       end - start - covered(start, end, kids)))
    return result


# -- percentiles ------------------------------------------------------------

#: samples that must lie beyond a percentile before it is reported
TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q`` percentile (0 < q < 1), or ``None`` when
    fewer than :data:`TAIL_SAMPLES` samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < TAIL_SAMPLES:
        return None
    return sorted(samples)[max(rank, 1) - 1]


def samples_needed(q: float) -> int:
    """The smallest sample count for which ``q`` is reportable."""
    n = 1
    while n - math.ceil(q * n) < TAIL_SAMPLES:
        n += 1
    return n


# -- aggregation ------------------------------------------------------------

@dataclass
class LayerTotals:
    """Per-name totals over one phase, across every process."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_s: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    total_s: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    durations: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    counts: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    samples: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))


def aggregate(spans: Sequence[Span], events: Iterable[Any],
              start: float, end: float) -> LayerTotals:
    """Totals of the spans starting and events falling in [start, end]."""
    window = [span for span in spans if start <= span[4] <= end]
    totals = LayerTotals()
    for name, duration, own in self_times(window):
        totals.calls[name] += 1
        totals.self_s[name] += own
        totals.total_s[name] += duration
        totals.durations[name].append(duration)
    for when, kind, name, value in events:
        if not start <= when <= end:
            continue
        if kind == "c":
            totals.counts[name] += value
        else:
            totals.samples[name].append(value)
    return totals


# -- wrappers ---------------------------------------------------------------

Hook = Callable[[Recorder, tuple, Any, Any], None]


def _timed(rec: Recorder, name: str, fn: Callable[..., Any], *,
           before: Optional[Callable[[tuple], Any]] = None,
           after: Optional[Hook] = None) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        state = before(args) if before is not None else None
        token = rec.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(name, token)
        if after is not None:
            after(rec, args, result, state)
        return result
    return wrapper


def _timed_steps(rec: Recorder, name: str,
                 fn: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
    """A generator wrapper: one span per resumption, so the time a
    consumer spends between items is not charged to ``name``."""
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        inner = fn(*args, **kwargs)
        try:
            while True:
                token = rec.open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.close(name, token)
                yield item
        finally:
            inner.close()
    return wrapper


def _compiled_stats(args: tuple) -> tuple[int, int, int]:
    stats = args[0].stats
    return stats.builds, stats.memory_hits, stats.disk_hits


def _compiled_delta(rec: Recorder, args: tuple, result: Any,
                    before: tuple[int, int, int]) -> None:
    after = _compiled_stats(args)
    for name, old, new in zip(("builds", "memory_hits", "disk_hits"),
                              before, after):
        if new != old:
            rec.count(f"fleet.compiled.{name}", new - old)


def _cache_get(rec: Recorder, args: tuple, result: Any, _: Any) -> None:
    rec.count("fleet.cache.get.hits" if result is not None
              else "fleet.cache.get.misses")


def _store_bytes(rec: Recorder, args: tuple, result: Any, _: Any) -> None:
    rec.count("fleet.store.bytes", os.path.getsize(result))


def _samples(rec: Recorder, args: tuple, result: Any, _: Any) -> None:
    rec.count("probes.kernel.samples", len(result))


def _journal_size(args: tuple) -> int:
    segments = args[0].segments()
    return segments[-1].stat().st_size if segments else 0


def _journal_bytes(rec: Recorder, args: tuple, result: Any,
                   before: int) -> None:
    # The broker appends under its lock, so no compaction can swap the
    # live segment between the two sizes.
    rec.count("service.journal.bytes", _journal_size(args) - before)


def _execute_run(rec: Recorder, args: tuple, result: Any, _: Any) -> None:
    rec.count("fleet.executors.payload_bytes",
              len(json.dumps(args[0])) + len(json.dumps(result)))
    rec.count("fleet.executors.payload_runs")
    if os.getpid() != rec.owner_pid:
        rec.flush()


def _slots(rec: Recorder, args: tuple, result: Any, _: Any) -> None:
    slots = result[0]
    if not slots or slots[0]["state"] != "done":
        rec.count("service.client.slots.empty")


def _lease(rec: Recorder, args: tuple, result: Any, _: Any) -> None:
    if result is None:
        rec.count("service.client.lease.empty")
        return
    rec.mark("granted")
    rec.set_tag(result.run.get("run_id"))


def _post_result(rec: Recorder, args: tuple, result: Any, _: Any) -> None:
    elapsed = rec.since("granted")
    if elapsed is not None:
        rec.sample("service.worker.lease_ack", elapsed)
    rec.flush()


def _layers(role: str) -> list[tuple[str, str, str, str, dict[str, Any]]]:
    """``(module, owner, attribute, span name, options)`` per patch.

    ``owner`` is a class in ``module`` or ``""`` for the module itself.
    In the service worker the executor's ``map`` is the worker's
    evaluation step, so it is named for that layer there.
    """
    steps = "service.worker.evaluate" if role == "worker" \
        else "fleet.executors.map"
    return [
        ("repro.scenarios.spec", "ScenarioSpec", "with_overrides",
         "scenarios.spec.with_overrides", {}),
        ("repro.core.compiled", "", "build", "scenarios.build.build", {}),
        ("repro.core.evaluation", "", "compile_spec",
         "scenarios.build.build", {}),
        ("repro.fleet.sweep", "SweepSpec", "expand",
         "fleet.sweep.expand", {}),
        ("repro.fleet.sweep", "RunSpec", "spec_key",
         "fleet.sweep.spec_key", {}),
        ("repro.fleet.executors", "", "run_key",
         "fleet.sweep.spec_key", {}),
        ("repro.fleet.sweep", "RunSpec", "build_key",
         "fleet.sweep.build_key", {}),
        ("repro.fleet.sweep", "RunRecord", "to_dict",
         "fleet.sweep.record_to_dict", {}),
        ("repro.fleet.store", "FleetStore", "write_record",
         "fleet.store.write_record", {"after": _store_bytes}),
        ("repro.fleet.executors", "BatchExecutor", "map", steps,
         {"steps": True}),
        ("repro.fleet.executors", "ProcessPoolBackend", "map", steps,
         {"steps": True}),
        ("repro.fleet.executors", "RemoteExecutor", "map", steps,
         {"steps": True}),
        ("repro.fleet.executors", "", "execute_run",
         "fleet.executors.execute_run", {"after": _execute_run}),
        ("repro.fleet.compiled", "CompiledScenarioCache", "get",
         "fleet.compiled.get",
         {"before": _compiled_stats, "after": _compiled_delta}),
        ("repro.fleet.cache", "ResultCache", "get", "fleet.cache.get",
         {"after": _cache_get}),
        ("repro.fleet.cache", "ResultCache", "put", "fleet.cache.put", {}),
        ("repro.core.compiled", "CompiledScenario", "__init__",
         "core.compiled.compile", {}),
        ("repro.core.compiled", "CompiledScenario", "evaluate",
         "core.compiled.evaluate", {}),
        ("repro.core.evaluation", "InfrastructureEvaluation", "run",
         "core.evaluation.run", {}),
        ("repro.core.gap", "GapAnalysis", "report", "core.gap.report", {}),
        ("repro.core.compiled", "", "sample_run",
         "probes.kernel.sample_run", {"after": _samples}),
        ("repro.probes.kernel", "", "sample_run",
         "probes.kernel.sample_run", {"after": _samples}),
        ("repro.probes.kernel", "CampaignKernel", "precompute",
         "probes.kernel.precompute", {}),
        ("repro.probes.stats", "CellStatistics", "__init__",
         "probes.stats.cell_statistics", {}),
        ("repro.service.client", "ServiceClient", "submit_runs",
         "service.client.submit_runs", {}),
        ("repro.service.client", "ServiceClient", "slots",
         "service.client.slots", {"after": _slots}),
        ("repro.service.client", "ServiceClient", "lease",
         "service.client.lease", {"after": _lease}),
        ("repro.service.client", "ServiceClient", "post_result",
         "service.client.post_result", {"after": _post_result}),
        ("repro.service.broker", "FleetBroker", "submit_runs",
         "service.broker.submit", {}),
        ("repro.service.broker", "FleetBroker", "lease",
         "service.broker.lease", {}),
        ("repro.service.broker", "FleetBroker", "submit_result",
         "service.broker.submit_result", {}),
        ("repro.service.journal", "FleetJournal", "append",
         "service.journal.append",
         {"before": _journal_size, "after": _journal_bytes}),
    ]


def install(rec: Recorder, role: str = "main"
            ) -> tuple[Callable[[], None], list[str]]:
    """Patch every layer with a wrapper feeding ``rec``.

    Returns the function that restores the originals, and the patch
    targets the program no longer has (their layers report nothing).
    """
    import importlib
    import sys

    restore: list[Callable[[], None]] = []
    missing: list[str] = []
    wrapped: dict[int, Callable[..., Any]] = {}
    for module_name, owner_name, attr, name, options in _layers(role):
        target = ".".join(filter(None, (module_name, owner_name, attr)))
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name \
                else sys.modules[module_name]
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        # One wrapper per function, so a function patched into two
        # modules (sample_run) is still one layer.
        wrapper = wrapped.get(id(original))
        if wrapper is None:
            if options.get("steps"):
                wrapper = _timed_steps(rec, name, original)
            else:
                wrapper = _timed(rec, name, original,
                                 before=options.get("before"),
                                 after=options.get("after"))
            wrapped[id(original)] = wrapper
        own = attr in vars(owner)
        setattr(owner, attr, wrapper)
        restore.append(
            functools.partial(setattr, owner, attr, original) if own
            else functools.partial(delattr, owner, attr))

    def uninstall() -> None:
        for undo in reversed(restore):
            undo()
    return uninstall, missing
