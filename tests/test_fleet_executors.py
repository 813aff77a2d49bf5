"""Tests for the pluggable executor API: the backend registry, the
local backends, map semantics, build-key sharding, and ownership
rules."""

import pytest

from repro.fleet import (
    BACKENDS,
    BatchExecutor,
    ProcessPoolBackend,
    RunOutcome,
    SerialExecutor,
    SweepAxis,
    SweepSpec,
    make_executor,
    run_one,
    run_sweep,
)
from repro.fleet.executors import build_key_groups
from repro.scenarios import klagenfurt, skopje

AXIS = "campaign.handover_interruption_s"
DENSITY = 2.0


def small_sweep(**kwargs) -> SweepSpec:
    defaults = dict(
        bases=(klagenfurt(),),
        axes=(SweepAxis(AXIS, (30e-3, 60e-3)),),
        seeds=(42,),
        density=DENSITY,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_names_the_four_backends():
    assert set(BACKENDS) == {"serial", "batch", "process", "remote"}
    assert isinstance(make_executor("serial"), SerialExecutor)
    assert isinstance(make_executor("batch"), BatchExecutor)
    assert isinstance(make_executor("process", jobs=2), ProcessPoolBackend)


def test_remote_backend_requires_a_server_url():
    with pytest.raises(ValueError, match="server"):
        make_executor("remote")


def test_make_executor_rejects_unknown_options():
    with pytest.raises(ValueError, match="bad options"):
        make_executor("serial", frobnicate=True)


def test_unknown_backend_is_clean_error():
    with pytest.raises(ValueError, match="unknown backend 'dask'"):
        make_executor("dask")


def test_backend_validates_jobs():
    with pytest.raises(ValueError, match="jobs must be"):
        ProcessPoolBackend(jobs=0)


# ---------------------------------------------------------------------------
# The protocol surface
# ---------------------------------------------------------------------------

def test_serial_map_yields_timed_outcomes():
    run = small_sweep().expand()[0]
    with SerialExecutor() as executor:
        outcome, = executor.map([run])
    assert isinstance(outcome, RunOutcome)
    assert outcome.record.run_id == run.run_id
    assert outcome.wall_s > 0.0
    assert not outcome.cached


def test_map_on_empty_run_list_yields_nothing():
    with ProcessPoolBackend(jobs=2) as executor:
        assert list(executor.map([])) == []


# ---------------------------------------------------------------------------
# Backend equivalence (the determinism contract across the seam)
# ---------------------------------------------------------------------------

def test_all_backends_produce_bit_identical_records():
    sweep = small_sweep(seeds=(42, 43))
    serial = run_sweep(sweep, executor="serial")
    batch = run_sweep(sweep, executor="batch")
    pooled = run_sweep(sweep, executor="process", jobs=2)
    assert [r.to_dict() for r in serial.records] == \
        [r.to_dict() for r in batch.records] == \
        [r.to_dict() for r in pooled.records]
    assert serial.backend == "serial"
    assert batch.backend == "batch"
    assert pooled.backend == "process"


def _record_bytes(result) -> list[str]:
    return [record.to_json() for record in result.records]


@pytest.mark.parametrize("bases, seeds, values", [
    # 2 cities x 2 seeds: seeds iterate innermost, so the four
    # build-key groups interleave in expansion order.
    ((klagenfurt(), skopje()), (42, 43), (30e-3, 60e-3)),
    # one world, five runs: wider than ceil(5 / 2), so it is cut
    # into two chunks that run in different processes.
    ((klagenfurt(),), (42,), (30e-3, 45e-3, 60e-3, 75e-3, 90e-3)),
], ids=["interleaved-cities", "chunked-world"])
def test_process_shards_build_key_groups_bit_identically(bases, seeds,
                                                         values):
    sweep = small_sweep(bases=bases, seeds=seeds,
                        axes=(SweepAxis(AXIS, values),))
    runs = sweep.expand()
    serial = run_sweep(sweep, executor="serial")
    pooled = run_sweep(sweep, executor="process", jobs=2)
    assert [r.run_id for r in pooled.records] == [r.run_id for r in runs]
    assert _record_bytes(pooled) == _record_bytes(serial)
    chunks = build_key_groups(runs, -(-len(runs) // 2))
    stats = pooled.exec_stats
    assert stats["builds_performed"] + stats["builds_reused"] == len(runs)
    if len({key for key, _ in chunks}) == len(chunks):
        # Every chunk is its own world: one build each, in whichever
        # process it lands.
        assert stats["builds_performed"] == len(chunks)
    else:
        # Chunks of one world build it once per process that gets one.
        assert 1 <= stats["builds_performed"] <= len(chunks)


def test_build_key_groups_chunk_wide_groups():
    interleaved = small_sweep(bases=(klagenfurt(), skopje()),
                              seeds=(42, 43)).expand()
    groups = build_key_groups(interleaved)
    assert [indices for _, indices in groups] == \
        [[0, 2], [1, 3], [4, 6], [5, 7]]
    assert build_key_groups(interleaved, 4) == groups
    one_world = small_sweep(
        axes=(SweepAxis(AXIS, (30e-3, 45e-3, 60e-3, 75e-3, 90e-3)),)
    ).expand()
    chunks = build_key_groups(one_world, 3)
    assert [indices for _, indices in chunks] == [[0, 1, 2], [3, 4]]
    assert chunks[0][0] == chunks[1][0] == one_world[0].build_key()


def test_jobs_alone_still_selects_the_backend():
    # The pre-executor API: jobs<=1 batched in-process, jobs>1
    # process pool.
    assert run_sweep(small_sweep()).backend == "batch"
    assert run_sweep(small_sweep(), jobs=2).backend == "process"


def test_caller_supplied_executor_is_left_open():
    executor = ProcessPoolBackend(jobs=2)
    first = run_sweep(small_sweep(), executor=executor)
    second = run_sweep(small_sweep(), executor=executor)  # still usable
    executor.close()
    assert [r.to_dict() for r in first.records] == \
        [r.to_dict() for r in second.records]


# ---------------------------------------------------------------------------
# run_one fallback id (collision fix)
# ---------------------------------------------------------------------------

def test_default_run_id_distinguishes_variants():
    base = klagenfurt()
    variant = base.with_overrides({AXIS: 31e-3})
    record_a = run_one(base.to_json(), 42, DENSITY)
    record_b = run_one(variant.to_json(), 42, DENSITY)
    # same scenario name and seed, different overrides: ids must differ
    assert record_a.scenario == record_b.scenario == "klagenfurt"
    assert record_a.run_id != record_b.run_id
    assert record_a.run_id.startswith("klagenfurt-s42-")


def test_default_run_id_is_stable_across_calls():
    spec_json = klagenfurt().to_json()
    assert run_one(spec_json, 42, DENSITY).run_id == \
        run_one(spec_json, 42, DENSITY).run_id


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_sweep_thread_backend(capsys):
    # The thread backend is gone; the CLI refuses it as a usage error.
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--scenario", "klagenfurt", "--seeds", "42",
              "--backend", "thread", "--jobs", "2", "--density", "2"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'thread'" in capsys.readouterr().err


def test_cli_sweep_process_backend(capsys):
    from repro.__main__ import main

    assert main(["sweep", "--scenario", "klagenfurt",
                 "--set", f"{AXIS}=0.03,0.06",
                 "--seeds", "42", "--backend", "process", "--jobs", "2",
                 "--density", "2"]) == 0
    stdout = capsys.readouterr().out
    assert "backend=process" in stdout
    assert "process backend, jobs=2" in stdout
    assert "builds performed" in stdout


def test_cli_progress_flag_gates_per_run_lines(capsys):
    from repro.__main__ import main

    args = ["sweep", "--scenario", "klagenfurt",
            "--set", f"{AXIS}=0.03,0.06", "--seeds", "42",
            "--density", "2"]
    assert main(args) == 0
    quiet = capsys.readouterr().out
    assert "[1/2]" not in quiet
    assert main(args + ["--progress"]) == 0
    chatty = capsys.readouterr().out
    assert "[1/2]" in chatty and "[2/2]" in chatty
    assert "ms mobile mean" in chatty
