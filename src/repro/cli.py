"""Command-line interface: simulate, sweep, and regenerate paper figures.

Examples::

    python -m repro run swim --model TON --length 20000
    python -m repro sweep --models N,TON,TOW --apps 12 --jobs 4
    python -m repro figure fig4_1 headline --apps all
    python -m repro figure fig4_2 --no-cache
    python -m repro cache info
    python -m repro list

Grid evaluation fans out over ``--jobs`` worker processes (default: all
usable cores) and persists every finished run in the
result store under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), so
a repeated sweep or figure re-reads results instead of re-simulating;
``--no-cache`` bypasses the store for one invocation and ``repro cache
clear`` empties it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro.core.simulator import ParrotSimulator, RunOptions
from repro.errors import ExperimentError
from repro.experiments.engine import (
    ResultStore,
    Scale,
    default_jobs,
    parse_apps,
    resolve_run_options,
)
from repro.experiments.figures import FIGURE_GENERATORS, table3_1, table3_2
from repro.experiments.runner import ExperimentRunner
from repro.experiments.shard import (
    ShardPlan,
    merge_stores,
    missing_keys,
    plan_grid,
    run_shard,
)
from repro.models.configs import MODEL_NAMES, model_config
from repro.pipeline.columnar import ExecutionBackend
from repro.pipeline.specialize import CompiledPlanCache
from repro.workloads.suite import ALL_APPS, application, benchmark_suite
from repro.workloads.tracefile import ArtifactCache

_EXAMPLES = """\
examples:
  repro run swim --model TON --length 20000
  repro run swim --model TON --length 200000 --sampling
  repro run swim --model TON --backend compiled
  repro profile swim TON --length 20000 --backend compiled
  repro sweep --models N,TON --apps 15 --jobs 4
  repro sweep --models N,TON --length 200000 --sampling
  repro figure fig4_1 headline --apps all
  repro figure fig4_2 --no-cache
  repro figure claims --apps all
  repro shard plan --models all --apps 8 --shards 2 --output plan.json
  repro shard run plan.json --index 0 --store /tmp/shard0
  repro shard merge --into ~/.cache/repro /tmp/shard0 /tmp/shard1 --plan plan.json
  repro serve --port 8035
  repro cache info
  repro cache clear

environment:
  REPRO_CACHE_DIR       cache location (~/.cache/repro)
  REPRO_BENCH_TIMEOUT   grid stall timeout in seconds
"""

#: Process-wide runner registry: one memoised grid per Scale, so every
#: figure/sweep command of an invocation (and repeated in-process calls)
#: shares one set of simulations.
_RUNNERS: dict[Scale, ExperimentRunner] = {}


def reset_runners() -> None:
    """Drop the shared runner registry (test isolation hook)."""
    _RUNNERS.clear()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _apps_arg(text: str) -> str:
    if text.lower() in ("all", "full", "44"):
        return "all"
    _positive_int(text)  # validate; raises on non-positive counts
    return text


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--apps", default="15", type=_apps_arg,
        help="number of applications (balanced across suites) or 'all'",
    )
    parser.add_argument(
        "--length", type=_positive_int, default=20_000,
        help="instructions simulated per application",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes for grid evaluation "
             "(default: all usable cores)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the persistent result store",
    )
    _add_run_option_args(parser)


def _add_run_option_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sampling", nargs="?", const="on", default=None,
        metavar="SPEC",
        help="sampled simulation: 'on' (bare flag), 'off', or "
             "'DETAIL:GAP:WARMUP[:FUNC_WARM][:CONFIDENCE]' "
             "(default: off)",
    )
    _add_backend_arg(parser)


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default=None,
        choices=[b.value for b in ExecutionBackend],
        help="hot-trace executor: scalar is the reference; compiled "
             "replays each hot trace through generated code and is "
             "bit-identical; cold code runs on the scalar executor "
             "under both (default: scalar)",
    )


def _progress(done: int, total: int, label: str, source: str) -> None:
    end = "\n" if done == total else ""
    print(f"\r  [{done}/{total}] {label} ({source})   ", end=end,
          file=sys.stderr, flush=True)


def _runner(args: argparse.Namespace) -> ExperimentRunner:
    """The shared runner for this scale (created on first use)."""
    scale = Scale.from_args(args)
    runner = _RUNNERS.get(scale)
    if runner is None:
        progress = _progress if sys.stderr.isatty() else None
        runner = ExperimentRunner.from_scale(scale, progress=progress)
        _RUNNERS[scale] = runner
    return runner


def _print_engine_summary(runner: ExperimentRunner) -> None:
    engine = runner.engine
    line = f"# runs: {engine.simulations_run} simulated"
    if engine.store is not None:
        line += (f", {engine.cache_hits} from store"
                 f" ({engine.store.root})")
    print(line, file=sys.stderr)


def _options_from_args(args: argparse.Namespace) -> RunOptions:
    """Per-run options from CLI flags (the shared parsing seam)."""
    return resolve_run_options(
        getattr(args, "sampling", None),
        getattr(args, "backend", None),
    )


def cmd_run(args: argparse.Namespace) -> int:
    """Simulate one application on one model and print the result."""
    try:
        app = application(args.app)
    except KeyError:
        print(f"unknown application {args.app!r}; run `repro list` to see "
              f"the {len(ALL_APPS)} available applications", file=sys.stderr)
        return 2
    options = _options_from_args(args)
    simulator = ParrotSimulator(model_config(args.model))
    estimate = None
    if options.sampling is not None:
        sampled = simulator.simulate(
            app, dataclasses.replace(options, estimate=True),
            length=args.length,
        )
        result, estimate = sampled.result, sampled.estimate
    else:
        result = simulator.simulate(app, options, length=args.length)
    print(f"{app.name} ({app.suite}) on {args.model}: "
          f"{args.length} instructions")
    print(f"  IPC            {result.ipc:8.3f}")
    print(f"  cycles         {result.cycles:8.0f}")
    print(f"  energy         {result.total_energy:8.0f}")
    print(f"  power          {result.point.power:8.2f}")
    print(f"  CMPW           {result.point.cmpw:8.3f}")
    print(f"  coverage       {result.coverage:8.1%}")
    print(f"  uop reduction  {result.uop_reduction:8.1%}")
    print(f"  bmisp/1k       {result.cold_mispredicts_per_kinstr:8.1f}")
    if estimate is not None:
        print(f"  sampled: {len(estimate.intervals)} detail intervals, "
              f"{estimate.detail_fraction:.1%} of the stream measured")
        print(f"    IPC    {estimate.ipc.format()}")
        print(f"    EPI    {estimate.epi.format()}")
        print(f"    CMPW   {estimate.cmpw.format()}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one simulation: per-phase breakdown + cProfile dump."""
    from repro.profiling import profile_run

    try:
        report = profile_run(
            args.app, args.model, args.length,
            backend=_options_from_args(args).backend,
        )
    except KeyError:
        print(f"unknown application {args.app!r}; run `repro list` to see "
              f"the {len(ALL_APPS)} available applications", file=sys.stderr)
        return 2
    print(report.format(top=args.top))
    report.stats.dump_stats(args.output)
    print(f"\ncProfile dump written to {args.output} "
          f"(inspect with `python -m pstats {args.output}`)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep models x applications; print an IPC/energy/CMPW table."""
    models = args.models.split(",")
    unknown = [m for m in models if m not in MODEL_NAMES]
    if unknown:
        print(f"unknown model(s) {', '.join(unknown)}; known: "
              f"{', '.join(MODEL_NAMES)}", file=sys.stderr)
        return 2
    runner = _runner(args)
    apps = runner.applications()
    grid = runner.grid(models, apps)
    print(f"{'app':16}{'suite':12}" + "".join(
        f"{m + ' IPC':>10}{m + ' E':>12}" for m in models
    ))
    for index, app in enumerate(apps):
        row = f"{app.name:16}{app.suite:12}"
        for model in models:
            result = grid[model][index]
            row += f"{result.ipc:>10.2f}{result.total_energy:>12.0f}"
        print(row)
    _print_engine_summary(runner)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate one or more paper figures/tables on one shared runner."""
    tables = {"table3_1": table3_1, "table3_2": table3_2}
    unknown = [
        name for name in args.names
        if name not in FIGURE_GENERATORS and name not in tables
    ]
    if unknown:
        print(f"unknown figure(s) {', '.join(repr(n) for n in unknown)}; "
              f"known: {', '.join(FIGURE_GENERATORS)}, table3_1, table3_2",
              file=sys.stderr)
        return 2
    runner = None
    for index, name in enumerate(args.names):
        if index:
            print()
        if name in tables:
            print(tables[name]())
            continue
        if runner is None:
            runner = _runner(args)
        print(FIGURE_GENERATORS[name](runner).format())
    if runner is not None:
        _print_engine_summary(runner)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the result store, artifact and compiled-plan caches."""
    for cache in (ResultStore(), ArtifactCache(), CompiledPlanCache()):
        if args.action == "clear":
            print(f"{cache.name:<9} removed {cache.clear()} entries from "
                  f"{cache.root}")
            continue
        info = cache.info()
        print(f"{cache.name:<9} {info.path}")
        for label, value in (
            ("entries", info.entries),
            ("size", f"{info.total_bytes} bytes"),
            ("schema", f"v{info.schema_version}"),
            ("swept", f"{info.stale_tmp} stale tmp"),
            ("quarantined", f"{info.quarantined} corrupt"),
        ):
            print(f"  {label:<9} {value}")
    return 0


def _parse_model_list(text: str) -> list[str] | None:
    """``all`` -> None (full roster); otherwise a validated name list."""
    if text.strip().lower() in ("all", "full"):
        return None
    return [name.strip() for name in text.split(",") if name.strip()]


def cmd_shard_plan(args: argparse.Namespace) -> int:
    """Partition a grid into deterministic shards and write the plan."""
    options = _options_from_args(args)
    try:
        plan = plan_grid(
            _parse_model_list(args.models),
            parse_apps(args.apps),
            length=args.length,
            shards=args.shards,
            sampling=options.sampling,
            backend=options.backend,
        )
    except ExperimentError as exc:
        print(exc, file=sys.stderr)
        return 2
    plan.save(args.output)
    sampling = ("off" if plan.sampling is None
                else plan.sampling.fingerprint())
    print(f"planned {len(plan.cells)} cells over {len(plan.shards)} "
          f"shard(s) (length {plan.length}, sampling {sampling}, "
          f"backend {plan.backend.value})")
    for index, shard in enumerate(plan.shards):
        apps = len({app for _, app in shard})
        print(f"  shard {index + 1}/{len(plan.shards)}: {len(shard)} "
              f"cell(s), {apps} app(s)")
    print(f"wrote {args.output} (digest {plan.digest()[:12]})")
    return 0


def cmd_shard_run(args: argparse.Namespace) -> int:
    """Execute one shard of a plan against this host's own store."""
    try:
        plan = ShardPlan.load(args.plan)
    except ExperimentError as exc:
        print(exc, file=sys.stderr)
        return 2
    progress = _progress if sys.stderr.isatty() else None
    jobs = default_jobs() if args.jobs is None else args.jobs
    try:
        report = run_shard(
            plan, args.index,
            store_root=args.store,
            jobs=jobs,
            progress=progress,
        )
    except ExperimentError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"shard {report.index + 1}/{report.shards}: {report.cells} "
          f"cell(s) — {report.simulated} simulated, {report.from_store} "
          f"already in store ({report.store_root})")
    return 0


def cmd_shard_merge(args: argparse.Namespace) -> int:
    """Merge shard stores by run key; audit conflicts and completeness.

    Exit status 1 flags an unhealthy merge: conflicting records (content
    drift under one key) or — with ``--plan`` — grid cells still missing
    from the merged store.
    """
    reports = merge_stores(args.into, args.sources,
                           quarantine=not args.keep_corrupt)
    dest = ResultStore(args.into)
    unhealthy = False
    for report in reports:
        line = (f"{report.source}: {report.copied} copied, "
                f"{report.identical} identical")
        if report.conflicts:
            line += f", {len(report.conflicts)} CONFLICT(S)"
            unhealthy = True
        if report.quarantined:
            line += f", {report.quarantined} corrupt (quarantined)"
        print(line)
        for key in report.conflicts:
            print(f"  conflict: {key} (destination record kept)")
    print(f"merged into {dest.root}")
    if args.plan is not None:
        try:
            plan = ShardPlan.load(args.plan)
        except ExperimentError as exc:
            print(exc, file=sys.stderr)
            return 2
        missing = missing_keys(plan, dest)
        if missing:
            unhealthy = True
            print(f"{len(missing)} of {len(plan.cells)} plan cell(s) "
                  f"missing from the merged store:")
            for cell in missing:
                print(f"  missing: {cell}")
        else:
            print(f"plan complete: all {len(plan.cells)} cell(s) "
                  f"answerable from the merged store")
    return 1 if unhealthy else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio HTTP front end over the warm result store."""
    from repro.serve import main as serve_main

    return serve_main(args)


def cmd_list(_args: argparse.Namespace) -> int:
    """List models, applications and figures."""
    print("models:", ", ".join(MODEL_NAMES))
    print("figures:", ", ".join(FIGURE_GENERATORS), "+ table3_1, table3_2")
    print(f"applications ({len(ALL_APPS)}):")
    for app in benchmark_suite():
        print(f"  {app.name:16} {app.suite}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PARROT (ISCA 2004) reproduction: simulate, sweep, figures",
        epilog=_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one application on one model")
    run.add_argument("app", help=f"application name (one of the {len(ALL_APPS)})")
    run.add_argument("--model", default="TON", choices=MODEL_NAMES)
    run.add_argument("--length", type=_positive_int, default=20_000)
    _add_run_option_args(run)
    run.set_defaults(func=cmd_run)

    profile = sub.add_parser(
        "profile",
        help="profile one simulation (per-phase breakdown + cProfile dump)",
    )
    profile.add_argument("app", help="application name")
    profile.add_argument("model", nargs="?", default="TON",
                         choices=MODEL_NAMES)
    profile.add_argument("--length", type=_positive_int, default=20_000)
    profile.add_argument("--top", type=_positive_int, default=10,
                         help="functions shown in the self-time table")
    profile.add_argument("--output", default="repro-profile.pstats",
                         metavar="FILE", help="cProfile dump destination")
    _add_backend_arg(profile)
    profile.set_defaults(func=cmd_profile)

    sweep = sub.add_parser("sweep", help="sweep models over applications")
    sweep.add_argument("--models", default="N,TON")
    _add_scale_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    figure = sub.add_parser("figure", help="regenerate paper figures/tables")
    figure.add_argument(
        "names", nargs="+", metavar="name",
        help="e.g. fig4_1 ... fig4_11, headline, table3_2",
    )
    _add_scale_args(figure)
    figure.set_defaults(func=cmd_figure)

    shard = sub.add_parser(
        "shard",
        help="plan, execute and merge scale-out grid shards",
    )
    shard_sub = shard.add_subparsers(dest="shard_action", required=True)

    splan = shard_sub.add_parser(
        "plan", help="partition a grid into N deterministic shards",
    )
    splan.add_argument("--models", default="all",
                       help="comma-separated model names, or 'all'")
    splan.add_argument("--apps", default="15", type=_apps_arg,
                       help="number of applications (balanced) or 'all'")
    splan.add_argument("--length", type=_positive_int, default=20_000)
    splan.add_argument("--shards", type=_positive_int, required=True,
                       metavar="N", help="work units to partition into")
    splan.add_argument("--output", "-o", default="shard-plan.json",
                       metavar="FILE", help="plan destination")
    _add_run_option_args(splan)
    splan.set_defaults(func=cmd_shard_plan)

    srun = shard_sub.add_parser(
        "run", help="execute one shard against this host's own store",
    )
    srun.add_argument("plan", help="plan file written by `repro shard plan`")
    srun.add_argument("--index", type=int, required=True, metavar="I",
                      help="shard to execute (0-based)")
    srun.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                      help="worker processes (default: usable cores)")
    srun.add_argument("--store", default=None, metavar="DIR",
                      help="result-store root "
                           "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    srun.set_defaults(func=cmd_shard_run)

    smerge = shard_sub.add_parser(
        "merge",
        help="merge shard stores by run key (idempotent, skip-on-conflict)",
    )
    smerge.add_argument("sources", nargs="+", metavar="STORE",
                        help="shard store roots to merge from")
    smerge.add_argument("--into", default=None, metavar="DIR",
                        help="destination store "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    smerge.add_argument("--plan", default=None, metavar="FILE",
                        help="audit completeness against this plan after "
                             "merging")
    smerge.add_argument("--keep-corrupt", action="store_true",
                        help="count corrupt source records but do not "
                             "delete them")
    smerge.set_defaults(func=cmd_shard_merge)

    serve = sub.add_parser(
        "serve",
        help="HTTP front end: submit jobs, stream progress, serve warm "
             "results",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8035)
    serve.add_argument("--lru", type=int, default=256, metavar="N",
                       help="in-process LRU over deserialized results "
                            "(0 disables)")
    serve.add_argument("--jobs", type=_positive_int, default=None,
                       metavar="N",
                       help="worker processes for submitted sweep/figure "
                            "jobs (default: usable cores)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="result-store root "
                            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    serve.set_defaults(func=cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect or clear the result store, artifact and "
                      "compiled-plan caches")
    cache.add_argument("action", choices=("info", "clear"))
    cache.set_defaults(func=cmd_cache)

    lst = sub.add_parser("list", help="list models, applications, figures")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        os._exit(0)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
