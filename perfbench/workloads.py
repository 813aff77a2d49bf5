"""The three workloads and the closed-loop harness that drives them.

Every workload is one client running a closed loop of fleets: it
submits a fleet through a public entry point, waits for its last
record, and submits the next.  Fleets are generated from the workload
seed alone; the program receives only the generated
:class:`~repro.fleet.SweepSpec` values.

* ``batch_sampling`` — ``run_sweep(sweep, executor="batch", out=DIR)``
  (``repro sweep --jobs 1 --out``).  One base, one scenario seed, two
  sampling-layer axes, so each fleet compiles once and the rest is
  per-run overhead.
* ``process_builds`` — ``run_sweep(sweep, jobs=2)`` (``repro sweep
  --jobs 2``).  Both cities x 4 scenario seeds x 4 sampling variants:
  8 build keys per fleet, twice the compiled cache's in-memory
  capacity, so building dominates.
* ``service_mixed`` — an in-process ``ReproService`` with one
  ``repro worker`` subprocess; fleets go through ``RemoteExecutor``
  (``repro sweep --backend remote``).  Each fleet repeats runs of the
  previous one, which the shared result cache serves.

The cost of a run depends on the scenario seed (it draws the drive
route, hence the sample count) and on which cell is anchored, so those
are fixed; the workload seed draws axis values and the repeated runs.
Every fleet of a workload, under every seed, therefore asks for the
same amount of work, and per-fleet figures are comparable.

Before the first fleet and after each one the loop times the
host-speed probe of :mod:`perfbench.host`, outside the fleets' own
timing; a fleet's probe time is the mean of the probes on either side
of it.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional, TypeVar

from .check import Sampler
from .host import probe_s

ROOT = Path(__file__).resolve().parent.parent

DENSITY = 2.0
#: the paper's seed; the scenario of the single-world workloads
SCENARIO_SEED = 42
#: the anchored cell's extra load (the first calibration anchor)
ANCHOR_PATH = "campaign.extra_load_anchors.0.1"
HANDOVER_PATH = "campaign.handover_interruption_s"
#: seconds a worker subprocess gets to exit on SIGTERM before SIGKILL
GRACE_S = 5.0

T = TypeVar("T")


class Stalled(Exception):
    """A step did not finish within its wall-clock allowance."""


def guarded(fn: Callable[[], T], timeout_s: float) -> T:
    """``fn()``, or :class:`Stalled` after ``timeout_s`` seconds.

    The call runs on a daemon thread, so a hung call cannot keep the
    process alive once the caller gives up on it.
    """
    box: dict[str, Any] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:       # re-raised in the caller
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise Stalled(f"no result within {timeout_s:g} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


class Distinct:
    """Seeded uniform draws, rounded and never repeated."""

    def __init__(self, rng: random.Random, lo: float, hi: float) -> None:
        self.rng, self.lo, self.hi = rng, lo, hi
        self.seen: set[float] = set()

    def take(self, count: int) -> list[float]:
        values: list[float] = []
        while len(values) < count:
            value = round(self.rng.uniform(self.lo, self.hi), 9)
            if value not in self.seen:
                self.seen.add(value)
                values.append(value)
        return values


@dataclass(frozen=True)
class FleetPlan:
    """One generated fleet: its sweep and how many of its runs repeat
    runs of the fleet before it."""

    index: int
    sweep: Any
    repeats: int = 0

    @property
    def size(self) -> int:
        return int(self.sweep.run_count)


@dataclass
class FleetRun:
    """What the program returned for one fleet."""

    records: tuple[Any, ...]
    cached: tuple[bool, ...]
    builds: Optional[int] = None


def worker_env() -> dict[str, str]:
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def stop_process(proc: subprocess.Popen) -> None:
    """Terminate, then kill after :data:`GRACE_S`; always reaps."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def stop_pool_children() -> None:
    """Reap pool processes a stalled ``run_sweep`` left behind."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(GRACE_S)
        if child.is_alive():
            child.kill()
            child.join()


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (Linux ``/proc``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Workload:
    """A seeded fleet generator plus the program entry point it uses."""

    name = ""
    #: whether fleet wall time is mostly waiting (polls, sleeps) rather
    #: than CPU work, so that host speed does not set it
    waits = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work_dir = work_dir
        self.fleets = 0

    def _plan(self, sweep: Any, repeats: int = 0) -> FleetPlan:
        plan = FleetPlan(self.fleets, sweep, repeats)
        self.fleets += 1
        return plan

    def setup(self) -> None:
        """Start what the fleets need (nothing, for in-process paths)."""

    def use_traced_worker(self, span_dir: Path) -> None:
        """Swap in a traced worker, for workloads that have one."""

    def teardown(self) -> None:
        stop_pool_children()

    def live_children_cpu_s(self) -> float:
        """CPU already spent by children still running (not yet in
        ``RUSAGE_CHILDREN``)."""
        return 0.0

    def cpu_s(self) -> float:
        """CPU seconds so far of this process and all its children,
        finished or running."""
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
                + self.live_children_cpu_s())

    def cache_hits(self) -> Optional[int]:
        """Result-cache hits so far, for workloads with a cache."""
        return None

    def warm_up_plan(self) -> FleetPlan:
        raise NotImplementedError

    def next_fleet(self) -> FleetPlan:
        raise NotImplementedError

    def run_fleet(self, plan: FleetPlan) -> FleetRun:
        raise NotImplementedError

    def check_fleet(self, plan: FleetPlan, run: FleetRun) -> list[str]:
        """Exact-count invariants of one fleet; problems as text."""
        return []


class BatchSampling(Workload):
    name = "batch_sampling"
    ANCHORS = 10        #: anchor values per fleet
    HANDOVERS = 10      #: handover-interruption values per fleet

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        from repro.scenarios import klagenfurt

        self.base = klagenfurt()
        # The anchored cell's gNBs carry load 0.55 and loads clip to
        # [0, 0.93]; this range never clips, so distinct anchors never
        # share sampled blocks and every seed asks for the same work.
        self.anchors = Distinct(self.rng, -0.3, 0.35)
        self.handovers = Distinct(self.rng, 0.02, 0.2)

    def _sweep(self, anchors: int, handovers: int) -> Any:
        from repro.fleet import SweepAxis, SweepSpec

        return SweepSpec(
            bases=(self.base,),
            axes=(SweepAxis(ANCHOR_PATH, tuple(self.anchors.take(anchors))),
                  SweepAxis(HANDOVER_PATH,
                            tuple(self.handovers.take(handovers)))),
            seeds=(SCENARIO_SEED,), density=DENSITY)

    def warm_up_plan(self) -> FleetPlan:
        return self._plan(self._sweep(1, 1))

    def next_fleet(self) -> FleetPlan:
        return self._plan(self._sweep(self.ANCHORS, self.HANDOVERS))

    def run_fleet(self, plan: FleetPlan) -> FleetRun:
        from repro.fleet import run_sweep

        result = run_sweep(plan.sweep, executor="batch",
                           out=str(self.work_dir / f"fleet-{plan.index}"))
        return FleetRun(result.records, result.cached,
                        result.exec_stats.get("builds_performed"))

    def check_fleet(self, plan: FleetPlan, run: FleetRun) -> list[str]:
        if run.builds != 1:
            return [f"fleet {plan.index}: {run.builds} builds, expected 1"]
        return []


class ProcessBuilds(Workload):
    name = "process_builds"
    #: scenario seeds of every fleet, x 2 cities
    SEEDS = tuple(range(SCENARIO_SEED, SCENARIO_SEED + 4))
    VARIANTS = 4        #: sampling variants per (city, seed)
    JOBS = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        from repro.scenarios import klagenfurt, skopje

        self.bases = (klagenfurt(), skopje())
        self.handovers = Distinct(self.rng, 0.02, 0.2)

    def _sweep(self, bases: tuple, seeds: tuple, variants: int) -> Any:
        from repro.fleet import SweepAxis, SweepSpec

        return SweepSpec(
            bases=bases,
            axes=(SweepAxis(HANDOVER_PATH,
                            tuple(self.handovers.take(variants))),),
            seeds=tuple(seeds), density=DENSITY)

    def warm_up_plan(self) -> FleetPlan:
        return self._plan(self._sweep(self.bases[:1], (SCENARIO_SEED,), 1))

    def next_fleet(self) -> FleetPlan:
        return self._plan(self._sweep(self.bases, self.SEEDS, self.VARIANTS))

    def run_fleet(self, plan: FleetPlan) -> FleetRun:
        from repro.fleet import run_sweep

        result = run_sweep(plan.sweep, jobs=self.JOBS)
        return FleetRun(result.records, result.cached)


class ServiceMixed(Workload):
    name = "service_mixed"
    waits = True        # the client's and the worker's poll intervals
    FLEET = 8           #: runs per fleet
    REPEAT = 2          #: of which repeat runs of the previous fleet

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        from repro.scenarios import klagenfurt

        self.base = klagenfurt()
        self.handovers = Distinct(self.rng, 0.02, 0.2)
        self.previous: list[float] = []
        self.service: Any = None
        self.worker: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        from repro.service import ReproService

        self.service = ReproService(root=self.work_dir / "service",
                                    port=0).start()
        self._start_worker([sys.executable, "-m", "repro", "worker",
                            "--server", self.service.url])

    def _start_worker(self, command: list[str]) -> None:
        log = (self.work_dir / "worker.log").open("ab")
        try:
            self.worker = subprocess.Popen(
                command, cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT)
        finally:
            log.close()

    def use_traced_worker(self, span_dir: Path) -> None:
        if self.worker is not None:
            stop_process(self.worker)
        self._start_worker([
            sys.executable, str(Path(__file__).with_name("traced_worker.py")),
            "--server", self.service.url, "--span-dir", str(span_dir)])

    def teardown(self) -> None:
        if self.worker is not None:
            stop_process(self.worker)
            self.worker = None
        if self.service is not None:
            self.service.stop()
            self.service = None

    def live_children_cpu_s(self) -> float:
        if self.worker is None or self.worker.poll() is not None:
            return 0.0
        return process_cpu_s(self.worker.pid)

    def _sweep(self, values: list[float]) -> Any:
        from repro.fleet import SweepAxis, SweepSpec

        return SweepSpec(bases=(self.base,),
                         axes=(SweepAxis(HANDOVER_PATH, tuple(values)),),
                         seeds=(SCENARIO_SEED,), density=DENSITY)

    def warm_up_plan(self) -> FleetPlan:
        return self._plan(self._sweep(self.handovers.take(1)))

    def next_fleet(self) -> FleetPlan:
        repeats = self.rng.sample(self.previous, self.REPEAT) \
            if self.previous else []
        values = self.handovers.take(self.FLEET - len(repeats)) + repeats
        self.rng.shuffle(values)
        self.previous = values
        return self._plan(self._sweep(values), len(repeats))

    def run_fleet(self, plan: FleetPlan) -> FleetRun:
        from repro.fleet import RemoteExecutor, run_sweep

        result = run_sweep(plan.sweep,
                           executor=RemoteExecutor(server=self.service.url))
        return FleetRun(result.records, result.cached)

    def check_fleet(self, plan: FleetPlan, run: FleetRun) -> list[str]:
        hits = sum(run.cached)
        if hits != plan.repeats:
            return [f"fleet {plan.index}: {hits} cache hits, expected "
                    f"{plan.repeats} repeated runs"]
        return []

    def cache_hits(self) -> Optional[int]:
        return int(self.service.cache.stats.hits)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BatchSampling, ProcessBuilds, ServiceMixed)}


# -- the closed loop ---------------------------------------------------------

@dataclass
class FleetDone:
    """A fleet that delivered: its plan, run ids, timing, problems,
    the CPU seconds it took and the host-speed probe time around it."""

    plan: FleetPlan
    run_ids: list[str]
    start: float
    end: float
    problems: list[str]
    cpu_s: float
    probe_s: float

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    """One measured stretch of the closed loop."""

    fleets: list[FleetDone] = field(default_factory=list)
    attempted: int = 0
    start: float = 0.0
    end: float = 0.0
    error: str = ""

    @property
    def delivered(self) -> int:
        return sum(len(fleet.run_ids) for fleet in self.fleets)

    @property
    def wall_s(self) -> float:
        """First submission to last delivered record."""
        if not self.fleets:
            return self.end - self.start
        return self.fleets[-1].end - self.fleets[0].start

    @property
    def problems(self) -> list[str]:
        found = [p for fleet in self.fleets for p in fleet.problems]
        return found + ([self.error] if self.error else [])


def run_phase(workload: Workload, sampler: Sampler, *, seconds: float,
              min_fleets: int, stall_s: float,
              tag: Callable[[str], None] = lambda _: None) -> Phase:
    """Run fleets back to back until ``seconds`` have passed and at
    least ``min_fleets`` have delivered.

    A loop that has not finished ``stall_s`` seconds after that is cut
    off: the fleet in flight counts as attempted and not delivered, and
    the phase records the stall instead of hanging.
    """
    phase = Phase()
    lock = threading.Lock()
    stop = threading.Event()

    def loop() -> None:
        try:
            before = probe_s()
            while not stop.is_set():
                if (perf_counter() - phase.start >= seconds
                        and len(phase.fleets) >= min_fleets):
                    return
                plan = workload.next_fleet()
                with lock:
                    if stop.is_set():
                        return
                    phase.attempted += plan.size
                tag(f"fleet-{plan.index}")
                cpu = workload.cpu_s()
                start = perf_counter()
                run = workload.run_fleet(plan)
                end = perf_counter()
                cpu = workload.cpu_s() - cpu
                after = probe_s()
                probe, before = (before + after) / 2.0, after
                problems = workload.check_fleet(plan, run)
                if len(run.records) != plan.size:
                    problems.append(
                        f"fleet {plan.index}: {len(run.records)} records "
                        f"for {plan.size} runs")
                with lock:
                    if stop.is_set():
                        return
                    sampler.offer(plan.index, run.records, run.cached)
                    phase.fleets.append(FleetDone(
                        plan, [r.run_id for r in run.records], start, end,
                        problems, cpu, probe))
        except Exception as exc:    # the phase reports it as a failure
            with lock:
                phase.error = f"fleet loop failed: {type(exc).__name__}: {exc}"

    thread = threading.Thread(target=loop, daemon=True,
                              name=f"{workload.name}-client")
    phase.start = perf_counter()
    thread.start()
    thread.join(seconds + stall_s)
    with lock:
        stop.set()
        if thread.is_alive():
            phase.error = (f"stalled: fleet loop still running "
                           f"{stall_s:g} s past the {seconds:g} s window")
        phase.end = perf_counter()
        phase.fleets = list(phase.fleets)
    return phase
