"""Tests for the determinism-contract linter (``python -m repro lint``).

Each REP rule gets a passing and a failing fixture through the public
``check_source`` API; the engine, fingerprints, baseline round-trip,
CLI exit codes, and the committed tree's cleanliness are pinned on top.
"""

import io
import json
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    LintConfig,
    apply_baseline,
    check_paths,
    check_source,
    load_config,
    path_selected,
    rule_catalog,
    run_lint,
)
from repro.lint.config import tomllib

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(source: str, *, path: str = "mod.py",
         config: LintConfig | None = None):
    return check_source(textwrap.dedent(source), path=path, config=config)


def codes(findings) -> list[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# REP001 — ambient randomness
# ---------------------------------------------------------------------------

def test_rep001_flags_stdlib_random():
    findings = lint("""
        import random

        def draw():
            return random.random()
    """)
    assert codes(findings) == ["REP001"]
    assert "process-global" in findings[0].message


def test_rep001_flags_legacy_numpy_global_state():
    findings = lint("""
        import numpy as np

        def draw(n):
            return np.random.rand(n)
    """)
    assert codes(findings) == ["REP001"]
    assert "legacy" in findings[0].message


def test_rep001_flags_unseeded_factory_only():
    bad = lint("""
        import numpy as np

        def make():
            return np.random.default_rng()
    """)
    assert codes(bad) == ["REP001"]
    good = lint("""
        import numpy as np

        def make(seed):
            return np.random.default_rng(seed)
    """)
    assert good == []


def test_rep001_accepts_generator_construction():
    findings = lint("""
        import numpy as np

        def make(seed):
            return np.random.Generator(np.random.PCG64(seed))
    """)
    assert findings == []


def test_rep001_resolves_from_imports():
    findings = lint("""
        from numpy.random import default_rng

        def make():
            return default_rng()
    """)
    assert codes(findings) == ["REP001"]


# ---------------------------------------------------------------------------
# REP002 — wall-clock / entropy reads
# ---------------------------------------------------------------------------

def test_rep002_flags_wall_clock_and_entropy():
    findings = lint("""
        import os
        import time
        import uuid

        def stamp():
            return time.time(), uuid.uuid4(), os.urandom(8)
    """)
    assert codes(findings) == ["REP002"] * 3


def test_rep002_allows_perf_counter():
    findings = lint("""
        import time

        def measure():
            return time.perf_counter()
    """)
    assert findings == []


def test_rep002_respects_exempt_paths():
    config = replace(LintConfig(), rep002_exempt=("pkg/fleet/",))
    source = """
        import time

        def stamp():
            return time.time()
    """
    assert lint(source, path="pkg/fleet/executors.py",
                config=config) == []
    assert codes(lint(source, path="pkg/core/eval.py",
                      config=config)) == ["REP002"]


# ---------------------------------------------------------------------------
# REP003 — unordered iteration on the stream path
# ---------------------------------------------------------------------------

REP003_CONFIG = replace(LintConfig(), rep003_paths=("mod.py",))


def test_rep003_flags_dict_items_iteration():
    findings = lint("""
        def serialize(mapping):
            return [(k, v) for k, v in mapping.items()]
    """, config=REP003_CONFIG)
    assert codes(findings) == ["REP003"]


def test_rep003_flags_set_iteration():
    findings = lint("""
        def drain(cells):
            for cell in set(cells):
                yield cell
    """, config=REP003_CONFIG)
    assert codes(findings) == ["REP003"]


def test_rep003_accepts_sorted_wrapping():
    findings = lint("""
        def serialize(mapping):
            return [(k, v) for k, v in sorted(mapping.items())]
    """, config=REP003_CONFIG)
    assert findings == []


def test_rep003_dormant_off_the_stream_path():
    findings = lint("""
        def serialize(mapping):
            return [(k, v) for k, v in mapping.items()]
    """, path="elsewhere.py", config=REP003_CONFIG)
    assert findings == []


# ---------------------------------------------------------------------------
# REP004 — NumPy SIMD transcendentals in bit-identity modules
# ---------------------------------------------------------------------------

REP004_CONFIG = replace(LintConfig(), rep004_paths=("kernel.py",))


def test_rep004_flags_array_transcendentals():
    findings = lint("""
        import numpy as np

        def gains(theta):
            return np.sin(theta) + np.log10(theta)
    """, path="kernel.py", config=REP004_CONFIG)
    assert codes(findings) == ["REP004", "REP004"]


def test_rep004_flags_transcendental_power():
    findings = lint("""
        import numpy as np

        def haversine_core(dlat):
            return np.sin(dlat / 2.0) ** 2
    """, path="kernel.py", config=REP004_CONFIG)
    # the inner np.sin call and the ** 2 over it
    assert codes(findings) == ["REP004", "REP004"]


def test_rep004_allows_math_module_and_other_files():
    assert lint("""
        import math

        def gain(theta):
            return math.sin(theta)
    """, path="kernel.py", config=REP004_CONFIG) == []
    assert lint("""
        import numpy as np

        def gains(theta):
            return np.sin(theta)
    """, path="fast_path.py", config=REP004_CONFIG) == []


# ---------------------------------------------------------------------------
# REP005 — frozen-spec mutation
# ---------------------------------------------------------------------------

def test_rep005_flags_setattr_outside_post_init():
    findings = lint("""
        def tweak(spec, value):
            object.__setattr__(spec, "density", value)
    """)
    assert codes(findings) == ["REP005"]
    assert "tweak" in findings[0].message


def test_rep005_allows_post_init():
    findings = lint("""
        class Spec:
            def __post_init__(self):
                object.__setattr__(self, "values", tuple(self.values))
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# REP006 — Executor payloads
# ---------------------------------------------------------------------------

REP006_CONFIG = replace(
    LintConfig(),
    rep006_paths=("worker.py",),
    rep006_payload_functions=("run_one",),
    rep006_heavy_types=("Topology",),
)


def test_rep006_flags_lambda_submission():
    findings = lint("""
        def drive(pool, runs):
            return [pool.submit(lambda: run) for run in runs]
    """, config=REP006_CONFIG)
    assert codes(findings) == ["REP006"]


def test_rep006_flags_nested_function_submission():
    findings = lint("""
        def drive(pool, runs):
            def work(run):
                return run
            return pool.map(work, runs)
    """, config=REP006_CONFIG)
    assert codes(findings) == ["REP006"]
    assert "work" in findings[0].message


def test_rep006_flags_heavy_return_from_payload_function():
    source = """
        from net.topology import Topology

        def run_one(spec):
            return Topology(spec)
    """
    findings = lint(source, path="worker.py", config=REP006_CONFIG)
    assert codes(findings) == ["REP006"]
    # same function elsewhere is out of scope
    assert lint(source, path="elsewhere.py", config=REP006_CONFIG) == []


def test_rep006_flags_heavy_yield_from_payload_function():
    findings = lint("""
        from net.topology import Topology

        def run_one(specs):
            for spec in specs:
                yield Topology(spec)
    """, path="worker.py", config=REP006_CONFIG)
    assert codes(findings) == ["REP006"]
    assert "yields 'Topology'" in findings[0].message


def test_rep006_accepts_top_level_function_and_plain_data():
    findings = lint("""
        def run_one(spec):
            return {"summary": spec}

        def drive(pool, runs):
            return pool.map(run_one, runs)
    """, path="worker.py", config=REP006_CONFIG)
    assert findings == []


# ---------------------------------------------------------------------------
# engine — syntax errors, fingerprints, sorting
# ---------------------------------------------------------------------------

def test_syntax_error_is_a_finding_not_a_crash():
    findings = lint("def broken(:\n    pass\n")
    assert codes(findings) == ["REP000"]
    assert "does not parse" in findings[0].message


def test_fingerprints_survive_line_shifts():
    source = """
        import random

        def draw():
            return random.random()
    """
    before = lint(source)
    after = lint("# a new leading comment\n\n" + textwrap.dedent(source))
    assert len(before) == len(after) == 1
    assert before[0].fingerprint == after[0].fingerprint
    assert before[0].line != after[0].line


def test_duplicate_lines_get_distinct_fingerprints():
    findings = lint("""
        import random

        def draw():
            a = random.random()
            a = random.random()
            return a
    """)
    assert codes(findings) == ["REP001", "REP001"]
    assert findings[0].fingerprint != findings[1].fingerprint


def test_findings_sorted_and_rendered():
    findings = lint("""
        import random
        import time

        def b():
            return time.time()

        def a():
            return random.random()
    """)
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    rendered = findings[0].render()
    assert rendered.startswith("mod.py:")
    assert findings[0].rule in rendered


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_path_selected_semantics():
    assert path_selected("pkg/sub/mod.py", ("pkg/sub/",))
    assert path_selected("pkg/mod.py", ("pkg/mod.py",))
    assert not path_selected("pkg/mod.py", ("pkg/mod",))
    assert not path_selected("pkg/submarine.py", ("pkg/sub/",))


def test_unknown_config_key_raises():
    from repro.lint.config import config_from_mapping
    with pytest.raises(KeyError, match="unknown"):
        config_from_mapping({"rep007-paths": ["x/"]})


def test_config_accepts_toml_dashes():
    from repro.lint.config import config_from_mapping
    config = config_from_mapping({"rep004-paths": ["kernel.py"]})
    assert config.rep004_paths == ("kernel.py",)


@pytest.mark.skipif(tomllib is None, reason="needs tomllib (py3.11+)")
def test_repo_config_scopes_bit_identity_modules():
    config = load_config(REPO_ROOT)
    assert "src/repro/geo/coords.py" in config.rep004_paths
    assert "src/repro/probes/kernel.py" in config.rep004_paths
    assert config.paths == ("src/repro/",)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def test_baseline_round_trip_accepts_and_goes_stale(tmp_path):
    findings = lint("""
        import random

        def draw():
            return random.random()
    """)
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(baseline_path)
    loaded = Baseline.load(baseline_path)

    match = apply_baseline(findings, loaded)
    assert match.new == ()
    assert len(match.accepted) == 1
    assert match.stale == ()

    # the flagged code changed -> entry is stale, nothing accepted
    changed = lint("""
        import random

        def draw():
            return random.randint(0, 1)
    """)
    match = apply_baseline(changed, loaded, checked_paths=("mod.py",))
    assert codes(match.new) == ["REP001"]
    assert len(match.stale) == 1


def test_baseline_stale_only_for_checked_paths():
    findings = lint("""
        import random

        def draw():
            return random.random()
    """)
    baseline = Baseline.from_findings(findings)
    match = apply_baseline([], baseline, checked_paths=("other.py",))
    assert match.stale == ()
    match = apply_baseline([], baseline, checked_paths=("mod.py",))
    assert len(match.stale) == 1


def test_missing_baseline_is_empty(tmp_path):
    assert Baseline.load(tmp_path / "absent.json").entries == ()


def test_baseline_version_mismatch_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError, match="version"):
        Baseline.load(path)


# ---------------------------------------------------------------------------
# check_paths + CLI
# ---------------------------------------------------------------------------

def write_module(tmp_path: Path, name: str, source: str) -> Path:
    target = tmp_path / name
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


def test_check_paths_walks_and_sorts(tmp_path):
    write_module(tmp_path, "b.py", """
        import random
        x = random.random()
    """)
    write_module(tmp_path, "a.py", """
        import time
        y = time.time()
    """)
    findings = check_paths(root=tmp_path, config=replace(
        LintConfig(), paths=(".",)))
    assert [f.path for f in findings] == ["a.py", "b.py"]


def test_check_paths_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        check_paths(["nowhere/"], root=tmp_path)


def test_run_lint_exit_codes_and_json(tmp_path):
    write_module(tmp_path, "bad.py", """
        import random
        x = random.random()
    """)
    out, err = io.StringIO(), io.StringIO()
    code = run_lint(["bad.py"], root=str(tmp_path), out=out, err=err)
    assert code == 1
    assert "REP001" in out.getvalue()

    out = io.StringIO()
    code = run_lint(["bad.py"], root=str(tmp_path),
                    output_format="json", out=out, err=err)
    assert code == 1
    payload = json.loads(out.getvalue())
    assert payload["clean"] is False
    assert [v["rule"] for v in payload["violations"]] == ["REP001"]

    write_module(tmp_path, "good.py", "VALUE = 1\n")
    out = io.StringIO()
    code = run_lint(["good.py"], root=str(tmp_path), out=out, err=err)
    assert code == 0
    assert "determinism and concurrency contracts hold" in out.getvalue()

    code = run_lint(["good.py"], root=str(tmp_path),
                    output_format="yaml", out=out, err=err)
    assert code == 2


def test_run_lint_write_baseline_then_clean(tmp_path):
    write_module(tmp_path, "bad.py", """
        import random
        x = random.random()
    """)
    out, err = io.StringIO(), io.StringIO()
    assert run_lint(["bad.py"], root=str(tmp_path),
                    write_baseline=True, out=out, err=err) == 0
    assert (tmp_path / "lint-baseline.json").is_file()
    # accepted now; --no-baseline resurfaces it
    assert run_lint(["bad.py"], root=str(tmp_path),
                    out=out, err=err) == 0
    assert run_lint(["bad.py"], root=str(tmp_path),
                    no_baseline=True, out=out, err=err) == 1


def test_run_lint_list_rules():
    out = io.StringIO()
    assert run_lint(list_rules=True, out=out, err=io.StringIO()) == 0
    text = out.getvalue()
    for code, category, _title in rule_catalog():
        assert code in text
        assert f"[{category}]" in text
    assert len(rule_catalog()) == 12


# ---------------------------------------------------------------------------
# the committed tree holds its own contracts
# ---------------------------------------------------------------------------

@pytest.mark.skipif(tomllib is None, reason="needs tomllib (py3.11+)")
def test_committed_tree_lints_clean_against_baseline():
    config = load_config(REPO_ROOT)
    findings = check_paths(root=REPO_ROOT, config=config)
    baseline = Baseline.load(REPO_ROOT / config.baseline)
    checked = [f.path for f in findings]
    match = apply_baseline(findings, baseline, checked_paths=None)
    new = [f.render() for f in match.new]
    assert new == [], f"new determinism-lint findings: {new}"
    stale = [e.key() for e in match.stale]
    assert stale == [], f"stale baseline entries: {stale}"
