"""Pluggable execution backends: the seam distributed fleets plug into.

The :class:`Executor` protocol is deliberately tiny — ``map`` many
:class:`~repro.fleet.sweep.RunSpec` values for an ordered stream of
:class:`RunOutcome` values, ``close`` when done — so any backend that
can move a JSON-sized payload can implement it: the four registered
here (in-process serial and batch, a process pool, the ``repro
serve`` fleet service), or a result cache wrapping any of them
(:class:`~repro.fleet.cache.CachingExecutor`).

The unit of work is the build-key group: runs that share
:meth:`~repro.fleet.sweep.RunSpec.build_key` compile one world and
replay only its sampling phase (:func:`evaluate_group`).  ``batch``
evaluates the groups in-process; ``process`` ships them to pool
processes, each holding its own compiled cache, and cuts a group into
chunks when one group would otherwise leave processes idle.  Nothing
heavyweight crosses the process boundary: a pool process receives
plain ``RunSpec`` dicts and returns plain outcome dicts
(:func:`execute_run`), while compiled worlds stay where they were
built.  :class:`SerialExecutor` keeps the from-scratch path
(:func:`run_one`, one world per run) as the reference the others are
checked against.

Determinism contract: a record is a function of ``(spec, seed,
density)`` alone (the scenario compiler draws every stochastic value
from per-seed named streams), so every backend yields bit-identical
records in expansion order; :mod:`tests.test_fleet_executors` pins
this.  Execution metadata (wall time, cache provenance) rides on the
:class:`RunOutcome` envelope, never on the record itself.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..core.evaluation import InfrastructureEvaluation
from ..scenarios.spec import ScenarioSpec
from .compiled import CompiledCacheStats, CompiledScenarioCache
from .sweep import RunRecord, RunSpec, run_key

if TYPE_CHECKING:   # import cycle: repro.service imports the fleet layer
    from ..service.retry import RetryPolicy

__all__ = [
    "BACKENDS",
    "BatchExecutor",
    "Executor",
    "ProcessPoolBackend",
    "RemoteExecutor",
    "RunOutcome",
    "SerialExecutor",
    "build_key_groups",
    "evaluate_group",
    "execute_run",
    "make_executor",
    "run_one",
]


def run_one(spec_json: str, seed: int, density: float = 6.0, *,
            run_id: str = "",
            variant: Sequence[tuple[str, Any]] = ()) -> RunRecord:
    """Evaluate one scenario at one seed; return its summary record.

    The from-scratch reference: builds the whole world for this one
    run.  The record is stamped with the
    :func:`~repro.fleet.sweep.run_key` digest of its inputs
    (``spec_key``) — the content identity that resume and cross-fleet
    comparison verify against; the fallback ``run_id`` embeds its
    prefix so two variants that share a scenario name and seed
    (differing only in overrides) never collide.
    """
    spec = ScenarioSpec.from_json(spec_json)
    spec_key = run_key(spec, seed, density)
    if not run_id:
        run_id = f"{spec.name}-s{seed}-{spec_key[:8]}"
    result = InfrastructureEvaluation(
        seed=seed, mean_positions_per_cell=density, scenario=spec).run()
    return RunRecord(
        run_id=run_id,
        scenario=spec.name,
        seed=seed,
        density=density,
        variant=tuple(variant),
        summary=result.summary(),
        spec_key=spec_key,
    )


@dataclass(frozen=True)
class RunOutcome:
    """One finished run plus execution metadata.

    ``wall_s`` and ``cached`` describe *this* execution, so they live
    here on the envelope — the :class:`RunRecord` stays a pure function
    of ``(spec, seed, density)`` and compares bit-identical across
    backends, reruns, and cache hits.
    """

    record: RunRecord
    wall_s: float
    cached: bool = False


def build_key_groups(runs: Sequence[RunSpec], max_size: int = 0
                     ) -> list[tuple[str, list[int]]]:
    """``(build key, indices into runs)`` per group, in first-encounter
    order; with ``max_size``, a larger group is cut into consecutive
    chunks of at most that many runs.

    Seeds iterate innermost in sweep expansion, so groups interleave:
    a caller that yields in input order must buffer.
    """
    order: list[str] = []
    groups: dict[str, list[int]] = {}
    for index, run in enumerate(runs):
        key = run.build_key()
        members = groups.get(key)
        if members is None:
            members = groups[key] = []
            order.append(key)
        members.append(index)
    size = max_size or len(runs)
    return [(key, groups[key][start:start + size]) for key in order
            for start in range(0, len(groups[key]), size)]


def evaluate_group(key: str, runs: Sequence[RunSpec],
                   compiled: CompiledScenarioCache) -> Iterator[RunOutcome]:
    """Evaluate runs sharing build key ``key`` against one compiled world.

    The world comes from ``compiled`` (built on a miss); every run
    replays only the sampling phase, sharing bit-identical per-cell
    RTT blocks through one block cache that lives as long as the
    group.  Outcomes are yielded in the order of ``runs``.
    """
    block_cache: dict[Any, Any] = {}
    for run in runs:
        # Per-run lookup so the cache counters tell the true story (1
        # build + N-1 reuses for an N-run group); all but the first are
        # in-memory hits.
        world = compiled.get(run.scenario, run.seed, run.density, key=key)
        started = time.perf_counter()
        summary = world.evaluate(run.scenario, block_cache=block_cache,
                                 check_key=False)
        record = RunRecord(
            run_id=run.run_id,
            scenario=run.scenario.name,
            seed=run.seed,
            density=run.density,
            variant=run.variant,
            summary=summary,
            spec_key=run.spec_key(),
        )
        yield RunOutcome(record=record,
                         wall_s=time.perf_counter() - started)


def _in_input_order(batches: Iterable[tuple[Sequence[int],
                                            Iterable[RunOutcome]]]
                    ) -> Iterator[RunOutcome]:
    """Merge ``(indices, outcomes)`` batches back into input order,
    yielding each outcome as soon as every earlier one has been."""
    pending: dict[int, RunOutcome] = {}
    next_index = 0
    for indices, outcomes in batches:
        for index, outcome in zip(indices, outcomes):
            pending[index] = outcome
            while next_index in pending:
                yield pending.pop(next_index)
                next_index += 1


@functools.cache
def _process_compiled() -> CompiledScenarioCache:
    """The compiled cache of the current pool process (memory tier,
    default capacity), created on its first chunk.  Module-level
    because a pool process keeps nothing else between tasks."""
    return CompiledScenarioCache()


def execute_run(chunk: Mapping[str, Any]) -> dict[str, Any]:
    """Pool-process entry point: evaluate one chunk of a build-key group.

    ``chunk`` is ``{"build_key": key, "runs": [RunSpec dicts]}``; the
    result is ``{"outcomes": [outcome dicts], "builds": n, "reused":
    m}``, the last two being what this chunk did to the process's
    compiled cache.  (The name predates chunks; ``perfbench`` hooks it
    to count payload bytes and collect pool-process spans.)
    """
    compiled = _process_compiled()
    builds, reused = compiled.stats.builds, compiled.stats.hits
    runs = [RunSpec.from_dict(run) for run in chunk["runs"]]
    outcomes = [{"record": outcome.record.to_dict(),
                 "wall_s": outcome.wall_s}
                for outcome in evaluate_group(chunk["build_key"], runs,
                                              compiled)]
    return {"outcomes": outcomes,
            "builds": compiled.stats.builds - builds,
            "reused": compiled.stats.hits - reused}


@runtime_checkable
class Executor(Protocol):
    """What :func:`~repro.fleet.runner.run_sweep` needs from a backend.

    ``map`` must yield outcomes in the order the runs were given —
    callers rely on expansion order for progress, persistence, and
    bit-identical record lists across backends.
    """

    name: str

    def map(self, runs: Sequence[RunSpec]) -> Iterator[RunOutcome]:
        """Execute every run, yielding outcomes in input order."""
        ...

    def close(self, *, cancel: bool = False) -> None:
        """Release workers; ``cancel`` drops runs not yet started."""
        ...


class SerialExecutor:
    """In-process, one from-scratch run at a time — the reference the
    other backends' records are checked against."""

    name = "serial"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = 1  # serial by definition; ``jobs`` accepted for symmetry

    def map(self, runs: Sequence[RunSpec]) -> Iterator[RunOutcome]:
        for run in runs:
            started = time.perf_counter()
            record = run_one(run.scenario.to_json(indent=0), run.seed,
                             run.density, run_id=run.run_id,
                             variant=run.variant)
            yield RunOutcome(record=record,
                             wall_s=time.perf_counter() - started)

    def close(self, *, cancel: bool = False) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class BatchExecutor:
    """In-process execution through the compiled-scenario cache.

    The two-phase backend (and the ``jobs=1`` default): runs are
    grouped by :meth:`~repro.fleet.sweep.RunSpec.build_key` and each
    group is evaluated by :func:`evaluate_group`, compiling its world
    once (or pulling it from the cache).  A campaign-only sweep of any
    width performs exactly one build.

    Records are bit-identical to :class:`SerialExecutor` output (the
    compiled-scenario equivalence suite pins this), and ``map`` still
    yields them in input order: outcomes are computed group by group
    and buffered until their turn.

    The compiled cache may be shared — it is internally synchronized
    (see :class:`~repro.fleet.compiled.CompiledScenarioCache`), which
    is how the fleet service points many broker threads and the GC
    chore at one instance.
    """

    name = "batch"

    def __init__(self, jobs: int = 1, *,
                 compiled: Optional[CompiledScenarioCache] = None) -> None:
        self.jobs = 1  # in-process; ``jobs`` accepted for symmetry
        self.compiled = compiled if compiled is not None \
            else CompiledScenarioCache()

    @property
    def build_stats(self) -> CompiledCacheStats:
        """Builds performed and reused, over this executor's life."""
        return self.compiled.stats

    def map(self, runs: Sequence[RunSpec]) -> Iterator[RunOutcome]:
        runs = list(runs)
        yield from _in_input_order(
            (indices, evaluate_group(key, [runs[i] for i in indices],
                                     self.compiled))
            for key, indices in build_key_groups(runs))

    def close(self, *, cancel: bool = False) -> None:
        # Drop the live compiled worlds; the disk tier (if any) stays.
        self.compiled.clear()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ProcessPoolBackend:
    """Build-key groups sharded over worker processes — the ``jobs=N``
    behavior.

    ``map`` groups the runs by build key and ships each group to a
    pool process (:func:`execute_run`), which evaluates it against its
    own process-local compiled cache.  A group larger than
    ``ceil(len(runs) / jobs)`` runs is cut into chunks of at most that
    size, so even a single-world sweep keeps every process busy; each
    chunk compiles the world once in its process, unless that process
    already holds it.

    Payloads cross the boundary as plain dicts, so records are
    bit-identical to :class:`SerialExecutor` output.  The pool starts
    at first use and is torn down by ``close``.
    """

    name = "process"

    def __init__(self, jobs: int = 2) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.build_stats = CompiledCacheStats()
        self._pool: Optional[ProcessPoolExecutor] = None

    def _collect(self, future: "Future[dict[str, Any]]"
                 ) -> list[RunOutcome]:
        payload = future.result()
        self.build_stats.builds += payload["builds"]
        self.build_stats.memory_hits += payload["reused"]
        return [RunOutcome(record=RunRecord.from_dict(outcome["record"]),
                           wall_s=outcome["wall_s"])
                for outcome in payload["outcomes"]]

    def map(self, runs: Sequence[RunSpec]) -> Iterator[RunOutcome]:
        runs = list(runs)
        if not runs:
            return
        chunks = build_key_groups(runs, -(-len(runs) // self.jobs))
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        futures = [self._pool.submit(execute_run, {
                       "build_key": key,
                       "runs": [runs[i].to_dict() for i in indices]})
                   for key, indices in chunks]
        yield from _in_input_order(
            (indices, self._collect(future))
            for (_, indices), future in zip(chunks, futures))

    def close(self, *, cancel: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=cancel)
            self._pool = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RemoteExecutor:
    """Ship runs to a ``repro serve`` fleet service over HTTP.

    The distributed backend: ``map`` submits the expanded runs as one
    fleet (``POST /fleets`` with a run list), remote ``repro worker``
    processes lease and evaluate them, and outcomes stream back — in
    input order — by polling the fleet's record endpoint.  Worker
    loss is invisible here: the broker re-queues expired leases and
    deduplicates results by content identity, so this side only ever
    sees each run finish once.  Records are bit-identical to local
    backends (the worker runs the same compiled/batch path), and the
    server's shared cache means a run any client ever submitted is
    returned without recompute.

    Fault tolerance: every request runs under the shared service
    retry policy, so a server restart or transient connection loss
    mid-campaign is absorbed by backoff instead of aborting the sweep
    — the submission carries an idempotency key (retrying it can
    never double-submit) and the polling loop picks up exactly where
    the recovered server's journal left the fleet.

    ``jobs`` is advisory — real parallelism is however many workers
    are attached to the server.
    """

    name = "remote"

    def __init__(self, jobs: int = 1, *, server: str = "",
                 poll_s: float = 0.2, timeout_s: float = 60.0,
                 retry: Optional["RetryPolicy"] = None) -> None:
        if not server:
            raise ValueError(
                "remote backend needs server='http://host:port' "
                "(a running `python -m repro serve`)")
        # Deferred import: repro.service imports the fleet layer, so
        # a module-level import here would be a cycle.
        from ..service.client import ServiceClient
        from ..service.retry import RetryPolicy

        self.jobs = max(1, jobs)
        self.server = server
        self.poll_s = poll_s
        if retry is None:
            retry = RetryPolicy(max_attempts=8, base_delay_s=0.2,
                                max_delay_s=5.0, timeout_s=timeout_s)
        self._client = ServiceClient(server, timeout_s=timeout_s,
                                     retry=retry)

    def map(self, runs: Sequence[RunSpec]) -> Iterator[RunOutcome]:
        runs = list(runs)
        if not runs:
            return
        ack = self._client.submit_runs([run.to_dict() for run in runs])
        next_index = 0
        while next_index < len(runs):
            slots, _ = self._client.slots(ack.fleet_id,
                                          since=next_index)
            yielded = 0
            for slot in slots:
                # Outcomes must stream in input order, so only the
                # done-prefix is consumed; later finishers wait.
                if slot["state"] != "done" or slot["record"] is None:
                    break
                yield RunOutcome(
                    record=RunRecord.from_dict(slot["record"]),
                    wall_s=float(slot["wall_s"]),
                    cached=bool(slot["cached"]))
                yielded += 1
            next_index += yielded
            if next_index < len(runs) and yielded == 0:
                time.sleep(self.poll_s)

    def close(self, *, cancel: bool = False) -> None:
        # Leases self-expire server-side; nothing to release here.
        pass

    def __enter__(self) -> "RemoteExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Backend registry keyed by CLI name
#: (``--backend serial|batch|process|remote``).
BACKENDS: dict[str, Callable[..., "Executor"]] = {
    SerialExecutor.name: SerialExecutor,
    BatchExecutor.name: BatchExecutor,
    ProcessPoolBackend.name: ProcessPoolBackend,
    RemoteExecutor.name: RemoteExecutor,
}


def make_executor(backend: str, *, jobs: int = 1,
                  **options: Any) -> "Executor":
    """Instantiate a registered backend by name.

    ``options`` pass through to the backend constructor — the
    ``remote`` backend needs ``server="http://host:port"``; the
    in-process backends take none.
    """
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        ) from None
    try:
        return factory(jobs=jobs, **options)
    except TypeError as exc:
        raise ValueError(
            f"bad options for backend {backend!r}: {exc}") from None
