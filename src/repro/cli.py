"""Command-line interface.

Five subcommands cover the common workflows without writing Python::

    python -m repro run flower --population 240 --hours 12
    python -m repro compare --population 240 --hours 12 --plot
    python -m repro sweep --populations 120,180,240 --protocols flower,squirrel
    python -m repro overhead squirrel --population 120 --hours 6
    python -m repro chaos flower --plans 3 --chaos-seed 1 --intensity 1.5

``--paper`` switches any command from the reduced default scale to the
paper's full Table 1 parameters (expect minutes of wall clock).

Option names are normalized across subcommands: ``--replication``,
``--workers``, ``--overload``, and ``--rebalance`` mean the same thing
everywhere (``--rebalance`` implies the ``--overload`` recipe and turns
on redirect hints + content rebalancing).

``chaos`` runs seeded randomized fault schedules with the online
invariant auditor (:mod:`repro.chaos`); it exits non-zero when any
invariant is violated and drops a reproducer bundle per violation into
``--results-dir``, replayable later with ``--replay BUNDLE.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import PROTOCOLS, run_experiment


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--population", type=int, default=240, help="mean population P")
    parser.add_argument("--hours", type=float, default=12.0, help="simulated hours")
    parser.add_argument("--seed", type=int, default=1, help="master RNG seed")
    parser.add_argument(
        "--paper",
        action="store_true",
        help="use the paper's full Table 1 parameters (slow)",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=0,
        metavar="K",
        help="directory replication degree (0 = off; warm failover, section 5.3)",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the result as JSON")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1 = the single-simulator path; "
        "> 1 runs the sharded engine, flower only, and N must divide the "
        "shard map -- one shard per locality).  The sharded engine carries "
        "replication, search, uniform loss, fault schedules and the "
        "directory-side overload controls; the open-loop workload "
        "(--overload, --rebalance), swarming and the bandwidth model "
        "(--seeder-death) need --workers 1",
    )
    parser.add_argument(
        "--overload",
        action="store_true",
        help=(
            "sustained open-loop overload: saturating traffic, bounded "
            "directory admission queues, and replica-aware shedding"
        ),
    )
    parser.add_argument(
        "--rebalance",
        action="store_true",
        help=(
            "reactive overload control on top of --overload (implied): "
            "queue-aware redirect hints + shedding-aware content "
            "rebalancing"
        ),
    )


def _apply_overload_recipe(
    config: ExperimentConfig, rebalance: bool
) -> ExperimentConfig:
    """The shared ``--overload`` operating point: open-loop traffic that
    can saturate directories, bounded admission queues, and replica-aware
    shedding.  ``--rebalance`` layers the reactive half on top: redirect
    hints + hot-key spilling."""
    config = config.replace(
        openloop_rate_qps=max(1.0, config.population / 20.0),
        directory_queue_limit=16,
        directory_service_ms=40.0,
        overload_shedding=True,
    )
    if rebalance:
        config = config.replace(redirect_hints=True, rebalance=True)
    return config


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    replication = getattr(args, "replication", 0)
    if args.paper:
        config = ExperimentConfig.paper(
            population=args.population,
            duration_hours=args.hours,
            directory_replication_k=replication,
        )
    else:
        config = ExperimentConfig.scaled(
            population=args.population,
            duration_hours=args.hours,
            directory_replication_k=replication,
        )
    rebalance = getattr(args, "rebalance", False)
    if getattr(args, "overload", False) or rebalance:
        config = _apply_overload_recipe(config, rebalance)
    return config


def _maybe_write_json(args: argparse.Namespace, payload: dict) -> None:
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")


def _print_result(result) -> None:
    from repro.metrics.report import render_table

    print(result.summary_line())
    print()
    print(
        render_table(
            ["outcome", "queries", "share"],
            [
                [outcome, count, f"{count / max(result.queries, 1):.1%}"]
                for outcome, count in sorted(result.outcome_counts.items())
            ],
        )
    )


def cmd_run(args: argparse.Namespace) -> int:
    """Handler of ``repro run``: one experiment, printed summary."""
    config = _config_from(args)
    result = run_experiment(
        args.protocol, config, seed=args.seed, workers=getattr(args, "workers", 1)
    )
    _print_result(result)
    if args.plot and result.hit_ratio_curve:
        from repro.analysis.ascii import line_chart

        print()
        print(
            line_chart(
                {args.protocol: result.hit_ratio_curve},
                title="cumulative hit ratio",
                x_label="hours",
            )
        )
    _maybe_write_json(args, result.to_dict())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Handler of ``repro compare``: Flower vs Squirrel + shape checks."""
    from repro.analysis.ascii import line_chart
    from repro.analysis.compare import ComparisonReport

    if getattr(args, "workers", 1) != 1:
        raise ConfigError(
            "compare runs squirrel, which the sharded engine does not "
            "support; rerun with --workers 1"
        )
    config = _config_from(args)
    flower = run_experiment("flower", config, seed=args.seed)
    squirrel = run_experiment("squirrel", config, seed=args.seed)
    report = ComparisonReport(flower, squirrel)
    print(report.render())
    if args.plot:
        print()
        print(
            line_chart(
                {
                    "flower": flower.hit_ratio_curve,
                    "squirrel": squirrel.hit_ratio_curve,
                },
                title="Figure 3 -- cumulative hit ratio",
                x_label="hours",
            )
        )
    _maybe_write_json(
        args, {"flower": flower.to_dict(), "squirrel": squirrel.to_dict()}
    )
    return 0 if report.all_passed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Handler of ``repro sweep``: Table-2-style population sweep."""
    from repro.metrics.report import render_table

    populations = [int(p) for p in args.populations.split(",")]
    protocols = args.protocols.split(",")
    rows = []
    payload = {}
    for population in populations:
        for protocol in protocols:
            namespace = argparse.Namespace(
                population=population,
                hours=args.hours,
                paper=args.paper,
                seed=args.seed,
                replication=args.replication,
                overload=getattr(args, "overload", False),
                rebalance=getattr(args, "rebalance", False),
            )
            config = _config_from(namespace)
            result = run_experiment(
                protocol, config, seed=args.seed, workers=getattr(args, "workers", 1)
            )
            rows.append(
                [
                    population,
                    protocol,
                    f"{result.hit_ratio:.2f}",
                    f"{result.mean_lookup_latency_ms:.0f} ms",
                    f"{result.mean_transfer_ms:.0f} ms",
                ]
            )
            payload[f"{protocol}_{population}"] = result.to_dict()
    print(
        render_table(
            ["P", "approach", "hit ratio", "lookup", "transfer"],
            rows,
            title="scalability sweep (Table 2 style)",
        )
    )
    _maybe_write_json(args, payload)
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    """Handler of ``repro overhead``: message-overhead breakdown."""
    from repro.metrics.overhead import OverheadReport

    config = _config_from(args)
    result = run_experiment(
        args.protocol, config, seed=args.seed, workers=getattr(args, "workers", 1)
    )
    report = OverheadReport(result.extra["message_counts"], result.queries)
    print(result.summary_line())
    print()
    print(report.render())
    _maybe_write_json(args, result.to_dict())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Handler of ``repro chaos``: audited chaos plans or bundle replay."""
    from repro.chaos import generate_plan, merged_config, replay_bundle, run_chaos

    if args.replay:
        report = replay_bundle(
            args.replay,
            results_dir=args.results_dir,
            halt_on_violation=args.halt,
        )
        print(report.summary_line())
        for violation in report.violations:
            print(f"  {violation.time:12.0f} ms  {violation.kind}  {violation.subject}")
        _maybe_write_json(args, report.to_dict())
        return 0 if report.ok else 1

    config = _config_from(args)
    if getattr(args, "search", False):
        # Search-under-churn lanes: keyword engine + synthetic probes so
        # the auditor's I7 (search availability / staleness) has traffic
        # to judge.  Off by default: search changes the trace stream.
        config = config.replace(search_keywords=24, search_probe_period_s=45.0)
    # The overload recipe itself is applied by _config_from (shared with
    # run/sweep/overhead); chaos additionally unlocks the
    # sustained_overload phase in the plan menu so the auditor's I8
    # (shed accounting) -- and, with --rebalance, the I10 hint-hop
    # discipline -- has pressure to judge.
    overload = getattr(args, "overload", False) or getattr(args, "rebalance", False)
    seeder_death = getattr(args, "seeder_death", False)
    if seeder_death:
        # Swarming lanes: chunked multi-source transfers over a
        # bandwidth-limited network, plus the seeder_death phase in the
        # plan menu so the auditor's I9 (transfer ledger) sees kills of
        # the peers actually carrying the swarm.  Off by default: the
        # chunk traffic changes every trace.
        config = config.replace(
            swarming=True,
            swarm_replicate=2,
            object_mean_kb=256.0,
            bandwidth_kbps=4000.0,
            bandwidth_slow_fraction=0.15,
        )
    workers = getattr(args, "workers", 1)
    if workers != 1:
        # Validate the shape up front so a bad worker count fails before
        # any plan runs, with the actionable divisibility message.
        from repro.experiments.sharded import validate_sharded

        validate_sharded(args.protocol, config, workers)
        print(
            f"note: --workers {workers} runs each plan's fault schedule on "
            f"the sharded engine; the online invariant auditor needs the "
            f"single-simulator world and is OFF in this mode."
        )
    exit_code = 0
    payload = {}
    for offset in range(args.plans):
        chaos_seed = args.chaos_seed + offset
        plan = generate_plan(
            chaos_seed,
            horizon_ms=config.duration_ms,
            num_localities=config.num_localities,
            num_websites=config.num_websites,
            intensity=args.intensity,
            population=config.population,
            overload=overload,
            seeder_death=seeder_death,
        )
        if workers != 1:
            result = run_experiment(
                args.protocol,
                merged_config(config, plan),
                seed=args.seed,
                workers=workers,
            )
            print(f"{plan.name}: {result.summary_line()}")
            drops = result.extra.get("drop_counts", {})
            dropped = sum(drops.values())
            print(f"  faults injected: {len(plan.faults)}; messages dropped: {dropped}")
            payload[plan.name] = result.to_dict()
            continue
        report = run_chaos(
            args.protocol,
            config,
            plan,
            seed=args.seed,
            results_dir=args.results_dir,
            halt_on_violation=args.halt,
        )
        print(report.summary_line())
        for violation in report.violations:
            print(f"  {violation.time:12.0f} ms  {violation.kind}  {violation.subject}")
        for path in report.bundle_paths:
            print(f"  reproducer: {path}")
        payload[plan.name] = report.to_dict()
        if not report.ok:
            exit_code = 1
    _maybe_write_json(args, payload)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flower-CDN / PetalUp-CDN reproduction (El Dick, VLDB 2009)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("protocol", choices=sorted(PROTOCOLS))
    run_parser.add_argument("--plot", action="store_true", help="ASCII hit-ratio chart")
    _add_common_arguments(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    compare_parser = subparsers.add_parser(
        "compare", help="Flower vs Squirrel with the paper's shape checks"
    )
    compare_parser.add_argument("--plot", action="store_true")
    _add_common_arguments(compare_parser)
    compare_parser.set_defaults(handler=cmd_compare)

    sweep_parser = subparsers.add_parser("sweep", help="population sweep (Table 2)")
    sweep_parser.add_argument("--populations", default="120,180,240")
    sweep_parser.add_argument("--protocols", default="flower,squirrel")
    _add_common_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=cmd_sweep)

    overhead_parser = subparsers.add_parser(
        "overhead", help="message-overhead breakdown of one run"
    )
    overhead_parser.add_argument("protocol", choices=sorted(PROTOCOLS))
    _add_common_arguments(overhead_parser)
    overhead_parser.set_defaults(handler=cmd_overhead)

    chaos_parser = subparsers.add_parser(
        "chaos", help="audited chaos plans / reproducer-bundle replay"
    )
    chaos_parser.add_argument("protocol", choices=sorted(PROTOCOLS))
    chaos_parser.add_argument(
        "--plans", type=int, default=3, help="number of consecutive chaos seeds to run"
    )
    chaos_parser.add_argument(
        "--chaos-seed", type=int, default=1, help="first chaos-plan seed"
    )
    chaos_parser.add_argument(
        "--intensity", type=float, default=1.0, help="fault intensity in [0.1, 10]"
    )
    chaos_parser.add_argument(
        "--results-dir",
        default="results/chaos",
        help="where violation reproducer bundles are written",
    )
    chaos_parser.add_argument(
        "--replay", metavar="BUNDLE", help="replay one dumped reproducer bundle"
    )
    chaos_parser.add_argument(
        "--halt", action="store_true", help="stop at the first violation"
    )
    chaos_parser.add_argument(
        "--seeder-death",
        action="store_true",
        help=(
            "add swarming transfer chaos: chunked multi-source transfers "
            "over a bandwidth-limited network and the seeder_death phase "
            "(kill the top uploaders mid-window) in the generated plans"
        ),
    )
    chaos_parser.add_argument(
        "--search",
        action="store_true",
        help="enable keyword search + probe workload (audits invariant I7)",
    )
    _add_common_arguments(chaos_parser)
    chaos_parser.set_defaults(handler=cmd_chaos)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as error:
        # Shape mistakes (e.g. a --workers value that does not divide the
        # shard map) are user errors, not crashes: one clear line, exit 2.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
