"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``python -m repro
<command> --help`` the flags of one.  Each flag is registered only on
the commands that read it, so a misplaced flag is a usage error
(exit 2) instead of being silently ignored.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, scenarios, units
from .apps import all_profiles
from .core import (
    CpfEnhancementStudy,
    FIVE_G_CAPABILITY,
    InfrastructureEvaluation,
    KlagenfurtScenario,
    LocalPeeringExperiment,
    RequirementsAnalysis,
    SIX_G_CAPABILITY,
    SixGUpgradeStudy,
    UpfPlacementStudy,
    render_comparison_table,
)

# What bad user input (unknown names, unreadable or malformed files,
# bad override values) raises from the library calls below.
_INPUT_ERRORS = (KeyError, OSError, TypeError, ValueError)


def _error(problem: object) -> int:
    """Report a clean CLI error on stderr; the usage-error exit status."""
    if isinstance(problem, KeyError):
        problem = problem.args[0]
    print(f"error: {problem}", file=sys.stderr)
    return 2


def _selected_spec(args: argparse.Namespace) -> scenarios.ScenarioSpec:
    """The spec ``--spec`` or ``--scenario`` selects (else klagenfurt)."""
    if args.spec:
        return scenarios.load_spec(args.spec)
    return scenarios.get(args.scenario or "klagenfurt")


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        scenario = _selected_spec(args)
    except _INPUT_ERRORS as exc:
        return _error(exc)
    result = InfrastructureEvaluation(seed=args.seed,
                                      scenario=scenario).run()
    print(result.figure2(), end="\n\n")
    print(result.figure3(), end="\n\n")
    print(result.table1(), end="\n\n")
    print(f"Fig. 4 detour: {result.figure4_km():.0f} km\n")
    print(result.gap.summary())
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    if args.scenario or args.spec or args.json:
        # Dump one spec as JSON; --json alone dumps the default city.
        try:
            spec = _selected_spec(args)
        except _INPUT_ERRORS as exc:
            return _error(exc)
        print(spec.to_json())
        return 0
    rows = []
    for name in scenarios.names():
        spec = scenarios.get(name)
        rows.append([name, f"{spec.grid.cols}x{spec.grid.rows}",
                     len(spec.radio.sites), len(spec.systems),
                     len(spec.nodes), spec.description])
    print(render_comparison_table(
        ["scenario", "grid", "sites", "ASes", "nodes", "description"],
        rows, title="Registered scenarios"))
    print("\nrun one:  python -m repro evaluate --scenario NAME")
    print("export:   python -m repro scenarios --scenario NAME --json")
    return 0


def _parse_value(text: str):
    """A ``--set`` value: JSON scalar if it parses, bare string if not."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_seeds(text: str) -> tuple[int, ...]:
    """``"42"``, ``"42,43,44"`` or the range ``"42:46"`` (end exclusive)."""
    text = text.strip()
    if ":" in text:
        start_s, _, stop_s = text.partition(":")
        start, stop = int(start_s), int(stop_s)
        if stop <= start:
            raise ValueError(f"empty seed range {text!r}")
        return tuple(range(start, stop))
    return tuple(int(part) for part in text.split(","))


def cmd_sweep(args: argparse.Namespace) -> int:
    from .fleet import (FleetStore, SweepAxis, SweepSpec, fleet_summary,
                        make_executor, print_progress, run_sweep)

    backend = None if args.backend == "auto" else args.backend
    if backend == "remote":
        # The one backend with connection state: build it here so the
        # URL travels with it (run_sweep only threads jobs through).
        if not args.server:
            return _error("--backend remote needs --server URL")
        backend = make_executor("remote", jobs=args.jobs,
                                server=args.server)
    progress_fn = print_progress if args.progress else None
    try:
        if args.resume:
            if not args.out:
                raise ValueError(
                    "--resume needs --out DIR (the fleet to finish)")
            print(f"resuming {args.out}/ (jobs={args.jobs})")
            result = FleetStore(args.out).resume(
                jobs=args.jobs, executor=backend, cache=args.cache,
                progress=progress_fn)
            print(f"re-ran {len(result) - result.cached_count} missing "
                  f"runs, reused {result.cached_count}")
        else:
            if args.spec:
                bases = [scenarios.load_spec(args.spec)]
            else:
                bases = [scenarios.get(name.strip())
                         for name in args.scenario.split(",")]
            axes = []
            for setting in args.set or []:
                path, sep, values = setting.partition("=")
                if not sep or not values:
                    raise ValueError(
                        f"--set wants path=v1,v2,..., got {setting!r}")
                axes.append(SweepAxis(
                    path=path.strip(),
                    values=tuple(_parse_value(v)
                                 for v in values.split(","))))
            sweep = SweepSpec(
                bases=tuple(bases), axes=tuple(axes),
                seeds=_parse_seeds(args.seeds),
                mode="zip" if args.zip else "cartesian",
                density=args.density)
            print(f"expanding {sweep.variant_count} variants x "
                  f"{len(sweep.seeds)} seeds = {sweep.run_count} runs "
                  f"(backend={args.backend}, jobs={args.jobs})")
            result = run_sweep(sweep, jobs=args.jobs, executor=backend,
                               cache=args.cache, out=args.out,
                               progress=progress_fn)
    except _INPUT_ERRORS as exc:
        return _error(exc)
    print()
    print(fleet_summary(result))
    stats = result.exec_stats
    parts = []
    if "builds_performed" in stats:
        parts.append(f"{stats['builds_performed']} builds performed, "
                     f"{stats['builds_reused']} reused")
    if "result_cache_hits" in stats:
        parts.append(f"{stats['result_cache_misses']} evals computed, "
                     f"{stats['result_cache_hits']} served from cache")
    if parts:
        print("build/eval: " + "; ".join(parts))
    if result.cached_count:
        print(f"cache/resume: {result.cached_count}/{len(result)} "
              f"records reused without recompute")
    if args.out:
        print(f"\nmanifest + per-run records + summary.csv in {args.out}/")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .fleet import compare_paths, comparison_summary, parse_fail_on

    if len(args.paths) < 2:
        return _error("compare needs at least two fleet or cache "
                      "directories")
    try:
        gates = [parse_fail_on(gate) for gate in args.fail_on or []]
        comparison = compare_paths(args.paths, baseline=args.baseline)
    except _INPUT_ERRORS as exc:
        return _error(exc)
    if args.json:
        print(comparison.to_json())
    else:
        print(comparison_summary(comparison))
    # Status lines go to stderr so --json/--csv consumers get a clean
    # machine-readable stdout.
    if args.csv:
        print(f"delta rows written to {comparison.to_csv(args.csv)}",
              file=sys.stderr)
    if gates:
        failures = comparison.failures(gates)
        if failures:
            print(f"FAIL: {len(failures)} gate violation(s)",
                  file=sys.stderr)
            for message in failures:
                print(f"  {message}", file=sys.stderr)
            return 1
        print("all gates passed", file=sys.stderr)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint import run_lint

    return run_lint(
        args.paths,
        output_format=args.format,
        write_baseline=args.write_baseline,
        no_baseline=args.no_baseline,
        list_rules=args.list_rules,
        select=tuple(args.select),
        ignore=tuple(args.ignore),
        explain=args.explain,
    )


def _parse_bytes(text: str) -> int:
    """A byte budget: plain int or K/M/G-suffixed (``"64M"``)."""
    text = text.strip()
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    suffix = text[-1:].upper()
    try:
        if suffix in scale:
            return int(float(text[:-1]) * scale[suffix])
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"byte budget wants N or N[K|M|G], got {text!r}") from None


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service import ReproService

    root = args.state or args.root
    try:
        service = ReproService(
            root,
            host=args.host, port=args.port,
            cache_dir=args.cache,
            lease_ttl_s=args.lease_ttl,
            journal_fsync=bool(args.state),
            max_fleets=args.max_fleets,
            max_pending=args.max_pending,
            lease_rate_per_s=args.lease_rate,
            gc_max_bytes=args.max_bytes,
            gc_max_age_s=args.max_age,
            gc_interval_s=args.gc_interval)
    except (OSError, ValueError) as exc:
        return _error(exc)
    print(f"fleet service on {service.url}  (root {root}/, "
          f"cache {service.cache_dir}/)")
    recovery = service.recovery
    if recovery["fleets"]:
        print(f"journal recovery: {recovery['fleets']} fleet(s), "
              f"{recovery['records']} record(s) restored, "
              f"{recovery['requeued']} run(s) re-queued")
    print(service.last_gc.summary())
    print("submit:  POST /fleets   workers: python -m repro worker "
          f"--server {service.url}")

    def _drain_and_exit(signum: int, frame: object) -> None:
        # Graceful degradation: stop granting leases, let checked-out
        # work ack, sync the journal, exit 0.  Runs on a helper thread
        # because service.stop() joins threads the signal interrupted.
        def _shutdown() -> None:
            print("SIGTERM: draining (no new leases; waiting for "
                  "in-flight results)...")
            service.drain()
            service.httpd.shutdown()
        threading.Thread(target=_shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain_and_exit)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from .service import ServiceUnavailable, run_worker

    try:
        completed = run_worker(
            args.server,
            worker_id=args.worker_id,
            poll_s=args.poll,
            max_idle_s=args.max_idle,
            max_runs=args.max_runs,
            max_retries=args.max_retries,
            cache_dir=args.cache,
            log=print)
    except KeyboardInterrupt:
        return 0
    except ServiceUnavailable as exc:
        return _error(exc)
    except ValueError as exc:
        # A malformed --server URL surfaces from urllib as a bare
        # ValueError; fail with a message, not a traceback.
        return _error(f"invalid server URL {args.server!r}: {exc}")
    print(f"worker done: {completed} runs evaluated")
    return 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    from .fleet import cache_usage

    try:
        usage = cache_usage(args.cache)
    except (OSError, ValueError) as exc:
        return _error(exc)
    print(json.dumps(usage.to_dict(), indent=2, sort_keys=True)
          if args.json else usage.summary())
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    from .fleet import run_gc

    try:
        report = run_gc(args.cache, max_bytes=args.max_bytes,
                        max_age_s=args.max_age)
    except (OSError, ValueError) as exc:
        return _error(exc)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True)
          if args.json else report.summary())
    return 0


def cmd_peering(args: argparse.Namespace) -> int:
    outcome = LocalPeeringExperiment(
        KlagenfurtScenario(seed=args.seed)).run()
    print(f"AS path {outcome.before_as_path} -> {outcome.after_as_path}")
    print(f"route   {outcome.before_path_km:.0f} km -> "
          f"{outcome.after_path_km:.1f} km")
    print(f"RTT     {units.to_ms(outcome.before_rtt_s):.1f} ms -> "
          f"{units.to_ms(outcome.after_rtt_s):.2f} ms "
          f"({outcome.rtt_reduction_factor:.0f}x)")
    return 0


def cmd_upf(args: argparse.Namespace) -> int:
    study = UpfPlacementStudy()
    rows = [[name, units.to_ms(rtt)] for name, rtt in
            study.compare().items()]
    print(render_comparison_table(
        ["deployment", "service RTT (ms)"], rows,
        title="UPF placement (URLLC profile)"))
    print(f"edge reduction vs 62 ms: "
          f"{100 * study.reduction_vs_measured(units.ms(62.0)):.0f}%")
    return 0


def cmd_cpf(args: argparse.Namespace) -> int:
    comparisons = CpfEnhancementStudy().compare_all()
    rows = [[c.procedure, units.to_ms(c.centralised_s),
             units.to_ms(c.ric_consolidated_s),
             100 * c.improvement_fraction] for c in comparisons]
    print(render_comparison_table(
        ["procedure", "centralised (ms)", "RIC-consolidated (ms)",
         "improvement (%)"], rows,
        title="Control-plane enhancement"))
    return 0


def cmd_requirements(args: argparse.Namespace) -> int:
    rows = []
    for capability in (FIVE_G_CAPABILITY, SIX_G_CAPABILITY):
        for verdict in RequirementsAnalysis(capability).judge_all(
                all_profiles()):
            rows.append([verdict.generation, verdict.application,
                         "ok" if verdict.satisfied else "FAIL",
                         verdict.latency_headroom])
    print(render_comparison_table(
        ["generation", "application", "verdict", "latency headroom"],
        rows, title="Requirements analysis (Section III)"))
    return 0


def cmd_upgrade(args: argparse.Namespace) -> int:
    reports = SixGUpgradeStudy(seed=args.seed,
                               mean_positions_per_cell=2.0).run()
    rows = []
    for name, report in reports.items():
        rows.append([name, units.to_ms(report.mobile_mean_s),
                     "yes" if SixGUpgradeStudy.meets_requirement(report)
                     else "no"])
    print(render_comparison_table(
        ["deployment arm", "campaign mean RTL (ms)", "meets 20 ms"],
        rows, title="6G upgrade study"))
    return 0


def _world_flags(default: str | None,
                 scenario_help: str) -> argparse.ArgumentParser:
    """``--scenario`` or ``--spec``: which world a command runs."""
    parent = argparse.ArgumentParser(add_help=False)
    world = parent.add_mutually_exclusive_group()
    world.add_argument("--scenario", default=default, metavar="NAME",
                       help=scenario_help)
    world.add_argument("--spec", default="", metavar="FILE",
                       help="path to a ScenarioSpec JSON file")
    return parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of '6G Infrastructures for Edge AI'")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")

    def command(group: argparse._SubParsersAction, name: str, func: object,
                summary: str, *parents: argparse.ArgumentParser
                ) -> argparse.ArgumentParser:
        sub = group.add_parser(name, help=summary, description=summary,
                               parents=list(parents))
        sub.set_defaults(func=func)
        return sub

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=42,
                      help="scenario seed (default 42)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-bytes", type=_parse_bytes, metavar="N[K|M|G]",
                        help="evict least-recently-used cache entries until "
                             "the combined tiers fit this budget")
    budget.add_argument("--max-age", type=float, metavar="SECONDS",
                        help="drop cache entries older than this")

    command(commands, "evaluate", cmd_evaluate,
            "run the Section IV campaign: Fig. 2/3, Table I, the Fig. 4 "
            "detour and the gap analysis", seed,
            _world_flags("klagenfurt", "registered scenario (default "
                         "klagenfurt); see the scenarios command"))

    sub = command(commands, "scenarios", cmd_scenarios,
                  "list the registered scenarios, or dump one spec as JSON",
                  _world_flags(None, "dump this registered scenario"))
    sub.add_argument("--json", action="store_true",
                     help="dump the selected spec (default klagenfurt)")

    sub = command(commands, "sweep", cmd_sweep,
                  "run a parameter sweep / multi-seed fleet",
                  _world_flags("klagenfurt", "comma-separated registered "
                               "scenarios (default klagenfurt)"))
    sub.add_argument("--set", action="append", metavar="PATH=V1,V2",
                     help="one axis of dotted-path override values "
                          "(repeatable)")
    sub.add_argument("--seeds", default="42",
                     help="seed list 'a,b,c' or range 'a:b' (end exclusive; "
                          "default 42)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes (default 1 = in-process batch; "
                          "N > 1 = process pool under --backend auto)")
    sub.add_argument("--backend", default="auto",
                     choices=["auto", "batch", "serial", "process", "remote"],
                     help="execution backend (auto = batch when --jobs 1, "
                          "else process; remote needs --server)")
    sub.add_argument("--cache", metavar="DIR",
                     help="content-addressed result cache directory")
    sub.add_argument("--server", default="", metavar="URL",
                     help="fleet service base URL for --backend remote")
    sub.add_argument("--resume", action="store_true",
                     help="finish the fleet in --out, re-running only "
                          "missing records")
    sub.add_argument("--progress", action="store_true",
                     help="print one done/total line per finished run")
    sub.add_argument("--out", metavar="DIR",
                     help="directory for manifest + per-run records + CSV")
    sub.add_argument("--density", type=float, default=6.0,
                     help="mean drive-test positions per cell (default 6)")
    sub.add_argument("--zip", action="store_true",
                     help="walk axes in lockstep instead of the cartesian "
                          "product")

    sub = command(commands, "serve", cmd_serve,
                  "run the fleet service: HTTP control plane and worker "
                  "lease plane over one shared cache, with periodic GC",
                  budget)
    state = sub.add_mutually_exclusive_group()
    state.add_argument("--root", default="fleet-service", metavar="DIR",
                       help="service state directory for fleet outputs "
                            "(default fleet-service)")
    state.add_argument("--state", default="", metavar="DIR",
                       help="durable-state mode: use DIR as the root and "
                            "fsync every journal append; a restarted "
                            "server replays the journal and resumes")
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8642,
                     help="TCP port, 0 = ephemeral (default 8642)")
    sub.add_argument("--cache", metavar="DIR",
                     help="shared cache directory (default ROOT/cache)")
    sub.add_argument("--lease-ttl", type=float, default=60.0,
                     metavar="SECONDS",
                     help="worker lease timeout before a run is re-queued "
                          "(default 60)")
    sub.add_argument("--max-fleets", type=int, metavar="N",
                     help="refuse new submissions (429) while N fleets are "
                          "in flight")
    sub.add_argument("--max-pending", type=int, metavar="N",
                     help="429 when queued runs would exceed N")
    sub.add_argument("--lease-rate", type=float, metavar="PER_S",
                     help="per-worker lease grants per second, at most")
    sub.add_argument("--gc-interval", type=float, default=300.0,
                     metavar="SECONDS",
                     help="seconds between periodic GC passes (default 300)")

    sub = command(commands, "worker", cmd_worker,
                  "lease runs from a fleet service, evaluate them and post "
                  "the records back")
    sub.add_argument("--server", required=True, metavar="URL",
                     help="fleet service base URL")
    sub.add_argument("--worker-id", default="",
                     help="identity reported to the service (default "
                          "worker-<pid>)")
    sub.add_argument("--poll", type=float, default=0.5,
                     help="idle poll interval in seconds (default 0.5)")
    sub.add_argument("--max-idle", type=float, metavar="SECONDS",
                     help="exit after this long without work (default: "
                          "never)")
    sub.add_argument("--max-runs", type=int, metavar="N",
                     help="exit after N completed runs (default: unlimited)")
    sub.add_argument("--max-retries", type=int, default=5, metavar="N",
                     help="connection attempts (exponential backoff) per "
                          "request before giving up (default 5)")
    sub.add_argument("--cache", metavar="DIR",
                     help="local compiled-scenario cache directory")

    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache", default="result-cache", metavar="DIR",
                       help="the cache directory (default result-cache)")
    cache.add_argument("--json", action="store_true",
                       help="print the report as JSON")
    summary = ("inspect or garbage-collect a shared cache directory, both "
               "result and compiled tiers")
    actions = commands.add_parser(
        "cache", help=summary, description=summary).add_subparsers(
            dest="action", required=True, metavar="ACTION")
    command(actions, "stats", cmd_cache_stats,
            "report per-tier entry counts and sizes", cache)
    command(actions, "gc", cmd_cache_gc,
            "sweep staging files, expire old entries, then evict "
            "least-recently-used ones down to a byte budget", cache, budget)

    sub = command(commands, "compare", cmd_compare,
                  "align fleet directories (or result caches) by run "
                  "content identity; print per-variant metric deltas")
    sub.add_argument("paths", nargs="+", metavar="DIR",
                     help="two or more fleets or caches (the first is the "
                          "baseline unless --baseline is given)")
    sub.add_argument("--baseline", metavar="DIR",
                     help="which of the given paths is the reference")
    sub.add_argument("--fail-on", action="append", metavar="METRIC:PCT",
                     help="exit 1 if METRIC moves more than PCT%% on any "
                          "common variant, or if the variant grids drifted "
                          "(repeatable; metrics: mobile_mean_ms, "
                          "mobile_wired_factor, exceedance_percent, "
                          "detour_km)")
    sub.add_argument("--csv", default="", metavar="FILE",
                     help="also write the delta rows as CSV")
    sub.add_argument("--json", action="store_true",
                     help="print the full comparison as JSON")

    sub = command(commands, "lint", cmd_lint,
                  "check the determinism (REP001..REP006) and thread-safety "
                  "(REP101..REP106) contracts; exit 1 on a new finding")
    sub.add_argument("paths", nargs="*", metavar="PATH",
                     help="files/directories to check (default: the "
                          "configured paths)")
    sub.add_argument("--format", default="text", choices=["text", "json"],
                     help="report format (default text)")
    sub.add_argument("--write-baseline", action="store_true",
                     help="accept the current findings as the baseline")
    sub.add_argument("--no-baseline", action="store_true",
                     help="report every finding, ignoring the baseline")
    sub.add_argument("--list-rules", action="store_true",
                     help="print the REP rule catalog and exit")
    sub.add_argument("--select", action="append", default=[], metavar="RULE",
                     help="only run these rule codes or categories "
                          "(determinism|concurrency); repeatable")
    sub.add_argument("--ignore", action="append", default=[], metavar="RULE",
                     help="skip these rule codes or categories; repeatable")
    sub.add_argument("--explain", metavar="REPxxx",
                     help="print one rule's contract and fix guidance")

    command(commands, "peering", cmd_peering,
            "run the Section V-A local-peering what-if", seed)
    command(commands, "upf", cmd_upf,
            "run the Section V-B UPF placement comparison")
    command(commands, "cpf", cmd_cpf,
            "run the Section V-C control-plane comparison")
    command(commands, "requirements", cmd_requirements,
            "print the Section III requirements matrix")
    command(commands, "upgrade", cmd_upgrade,
            "run the Section VI 6G upgrade arms", seed)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
