"""Tests for cache lifecycle management (repro.fleet.gc): usage
stats over both tiers, orphan sweeping, age expiry, LRU-by-atime
eviction with deterministic ordering, and the ``cache`` CLI."""

import json
import os
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.fleet import cache_usage, run_gc
from repro.fleet.cache import OBJECTS_DIR
from repro.fleet.compiled import COMPILED_DIR
from repro.fleet.gc import CacheEntry

NOW = 1_000_000.0


def _entry(root, tier_dir, name, suffix, *, size, atime):
    """One fake cache entry file with a controlled size and atime."""
    path = root / tier_dir / name[:2] / f"{name}{suffix}"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"x" * size)
    os.utime(path, (atime, atime))
    return path


def _result(root, name, *, size, atime):
    return _entry(root, OBJECTS_DIR, name, ".json", size=size,
                  atime=atime)


def _compiled(root, name, *, size, atime):
    return _entry(root, COMPILED_DIR, name, ".pkl", size=size,
                  atime=atime)


@pytest.fixture
def cache_tree(tmp_path):
    """Two tiers, four entries, strictly ordered last-use times."""
    root = tmp_path / "cache"
    _result(root, "aa11", size=100, atime=NOW - 400)   # oldest
    _result(root, "bb22", size=200, atime=NOW - 300)
    _compiled(root, "cc33", size=400, atime=NOW - 200)
    _compiled(root, "dd44", size=800, atime=NOW - 100)  # newest
    return root


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

def test_cache_usage_counts_both_tiers(cache_tree):
    usage = cache_usage(cache_tree)
    assert usage.entries == 4
    assert usage.size == 1500
    assert usage.tier("results").entries == 2
    assert usage.tier("results").size == 300
    assert usage.tier("compiled").entries == 2
    assert usage.tier("compiled").size == 1200
    assert usage.staging == 0
    with pytest.raises(KeyError):
        usage.tier("nonsense")


def test_cache_usage_reports_staging_files(cache_tree):
    staging = cache_tree / OBJECTS_DIR / "aa" / ".aa11.json.123.tmp"
    staging.write_text("partial")
    assert cache_usage(cache_tree).staging == 1


def test_cache_usage_of_a_missing_directory_is_empty(tmp_path):
    usage = cache_usage(tmp_path / "nope")
    assert usage.entries == 0 and usage.size == 0


def test_usage_summary_and_dict_round_trip(cache_tree):
    usage = cache_usage(cache_tree)
    assert "2 results" in usage.summary()
    assert "1500 bytes" in usage.summary()
    payload = usage.to_dict()
    assert payload["entries"] == 4 and payload["size"] == 1500
    assert json.dumps(payload)   # JSON-serializable for /healthz


# ---------------------------------------------------------------------------
# GC: size budget (LRU by atime)
# ---------------------------------------------------------------------------

def test_gc_without_limits_removes_nothing(cache_tree):
    report = run_gc(cache_tree, now=NOW)
    assert report.removed_entries == 0
    assert report.kept_entries == 4 and report.kept_size == 1500


def test_gc_max_bytes_evicts_least_recently_used_first(cache_tree):
    # Budget of 1300 forces out exactly the two oldest entries
    # (100 + 200 frees enough; the newer 400/800 survive).
    report = run_gc(cache_tree, max_bytes=1300, now=NOW)
    evicted = [entry.path.name for entry in report.evicted]
    assert evicted == ["aa11.json", "bb22.json"]
    assert report.kept_entries == 2 and report.kept_size == 1200
    assert cache_usage(cache_tree).size == 1200


def test_gc_eviction_stops_at_the_budget(cache_tree):
    # 1450 only needs the single oldest entry gone.
    report = run_gc(cache_tree, max_bytes=1450, now=NOW)
    assert [e.path.name for e in report.evicted] == ["aa11.json"]
    assert report.kept_size == 1400


def test_gc_eviction_crosses_tiers(cache_tree):
    # A tight budget eats into the compiled tier too, oldest first.
    report = run_gc(cache_tree, max_bytes=800, now=NOW)
    assert [e.path.name for e in report.evicted] == [
        "aa11.json", "bb22.json", "cc33.pkl"]
    assert report.kept_size == 800
    # The surviving entry is the most recently used one.
    assert cache_usage(cache_tree).tier("compiled").entries == 1


def test_gc_atime_ties_break_by_path(tmp_path):
    root = tmp_path / "cache"
    _result(root, "zz99", size=10, atime=NOW - 100)
    _result(root, "aa00", size=10, atime=NOW - 100)
    report = run_gc(root, max_bytes=10, now=NOW)
    assert [e.path.name for e in report.evicted] == ["aa00.json"]


def test_gc_removes_empty_shard_directories(cache_tree):
    run_gc(cache_tree, max_bytes=0, now=NOW)
    assert not (cache_tree / OBJECTS_DIR / "aa").exists()
    assert not (cache_tree / COMPILED_DIR / "dd").exists()


# ---------------------------------------------------------------------------
# GC: age expiry + orphans
# ---------------------------------------------------------------------------

def test_gc_max_age_expires_old_entries(cache_tree):
    report = run_gc(cache_tree, max_age_s=250, now=NOW)
    expired = [entry.path.name for entry in report.expired]
    assert expired == ["aa11.json", "bb22.json"]
    assert report.evicted == ()
    assert report.kept_entries == 2


def test_gc_age_and_size_compose(cache_tree):
    # Age expiry first (the two oldest), then LRU for the budget.
    report = run_gc(cache_tree, max_age_s=250, max_bytes=900, now=NOW)
    assert [e.path.name for e in report.expired] == [
        "aa11.json", "bb22.json"]
    assert [e.path.name for e in report.evicted] == ["cc33.pkl"]
    assert report.kept_size == 800
    assert report.removed_entries == 3
    assert report.removed_size == 700


def test_gc_sweeps_aged_orphan_staging_files_in_both_tiers(cache_tree):
    # The orphan sweep compares mtimes against the real clock, so the
    # staging files get real (not synthetic) timestamps here.
    stale = time.time() - 7200
    old = cache_tree / OBJECTS_DIR / "aa" / ".aa11.json.99.tmp"
    old.write_text("dead writer")
    os.utime(old, (stale, stale))
    compiled_old = cache_tree / COMPILED_DIR / "cc" / ".cc33.pkl.7.tmp"
    compiled_old.write_text("dead writer")
    os.utime(compiled_old, (stale, stale))
    fresh = cache_tree / OBJECTS_DIR / "bb" / ".bb22.json.1.tmp"
    fresh.write_text("live writer")   # recent mtime: must survive

    report = run_gc(cache_tree)
    assert report.orphans_removed == 2
    assert not old.exists() and not compiled_old.exists()
    assert fresh.exists()
    assert report.kept_entries == 4   # real entries untouched


def test_gc_report_summary_mentions_every_phase(cache_tree):
    report = run_gc(cache_tree, max_bytes=1300, max_age_s=350, now=NOW)
    text = report.summary()
    assert "expired 1" in text
    assert "evicted 1" in text
    assert "kept 2" in text


def test_gc_report_dict_is_json_serializable(cache_tree):
    report = run_gc(cache_tree, max_bytes=0, now=NOW)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["removed_entries"] == 4
    assert payload["kept_entries"] == 0


def test_cache_entry_to_dict():
    entry = CacheEntry(tier="results",
                       path=Path("objects/aa/aa11.json"),
                       size=7, atime=3.0)
    assert entry.to_dict() == {"tier": "results",
                               "path": "objects/aa/aa11.json",
                               "size": 7, "atime": 3.0}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_cache_stats(cache_tree, capsys):
    assert main(["cache", "stats", "--cache", str(cache_tree)]) == 0
    out = capsys.readouterr().out
    assert "4 entries" in out and "1500 bytes" in out


def test_cli_cache_stats_json(cache_tree, capsys):
    assert main(["cache", "stats", "--cache", str(cache_tree),
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == 4


def test_cli_cache_gc_with_byte_suffix(cache_tree, capsys):
    # 1K = 1024 bytes: the three oldest entries go (1500 -> 800).
    assert main(["cache", "gc", "--cache", str(cache_tree),
                 "--max-bytes", "1K"]) == 0
    assert "evicted 3" in capsys.readouterr().out
    assert cache_usage(cache_tree).size == 800


def test_cli_cache_rejects_unknown_action(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "prune"])
    assert excinfo.value.code == 2
    assert "stats" in capsys.readouterr().err


def test_cli_cache_rejects_bad_byte_budget(cache_tree, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "gc", "--cache", str(cache_tree),
              "--max-bytes", "lots"])
    assert excinfo.value.code == 2
    assert "error" in capsys.readouterr().err
