"""Command-line interface.

Subcommands::

    repro-monitor check FILE       parse + validate a subscription file
    repro-monitor fmt FILE         print the canonical form of a subscription
    repro-monitor demo             run a small end-to-end simulation
    repro-monitor stats            run a simulation, emit the metrics snapshot
    repro-monitor match            micro-benchmark the matching engines
    repro-monitor chaos            run a fault-injected simulation (CI smoke)
    repro-monitor resume           resume a crashed run from its journal
    repro-monitor dlq              inspect / requeue / purge a dead-letter file

``demo`` and ``stats`` accept ``--metrics-json PATH`` to dump the
observability snapshot (``system.metrics_snapshot()``) as JSON, and
``--fault-rate`` / ``--fault-seed`` / ``--dlq-json`` to crawl under a
seeded transient-fault injector (see docs/ROBUSTNESS.md).  ``chaos``
is the hardened variant: it fails (exit 1) if any document ends up
quarantined or any exception escapes the pipeline.

Crash recovery: ``demo`` / ``stats`` / ``chaos`` accept ``--journal
PATH`` (journal every delivered notification and checkpoint the runtime
every ``--checkpoint-every`` batches), ``chaos`` additionally accepts
``--kill POINT[:N]`` to crash deterministically at a named kill point
(exit 42), and ``resume --journal PATH`` restarts a crashed run from its
last checkpoint with exactly-once delivery — see docs/ROBUSTNESS.md,
"Crash recovery & exactly-once delivery".

Also runnable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .clock import SimulatedClock
from .errors import ReproError
from .language import parse_subscription, unparse, validate_subscription


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-monitor",
        description="Monitoring XML Data on the Web (SIGMOD 2001) tooling",
    )
    commands = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    check = commands.add_parser(
        "check", help="parse and validate a subscription file"
    )
    check.add_argument("file", help="path to a subscription source file")
    check.set_defaults(handler=_cmd_check)

    fmt = commands.add_parser(
        "fmt", help="print the canonical form of a subscription file"
    )
    fmt.add_argument("file")
    fmt.set_defaults(handler=_cmd_fmt)

    demo = commands.add_parser(
        "demo", help="run a small end-to-end monitoring simulation"
    )
    demo.add_argument("--sites", type=int, default=10)
    demo.add_argument("--days", type=int, default=7)
    demo.add_argument("--seed", type=int, default=7)
    _add_batch_arguments(demo)
    _add_fault_arguments(demo)
    demo.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="also dump system.metrics_snapshot() as JSON to PATH",
    )
    _add_recovery_arguments(demo)
    demo.set_defaults(handler=_cmd_demo)

    stats = commands.add_parser(
        "stats",
        help="run a simulation and emit the observability metrics snapshot",
    )
    stats.add_argument("--sites", type=int, default=10)
    stats.add_argument("--days", type=int, default=7)
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument(
        "--shards", type=int, default=1, help="MQP shard count (>1 shards)"
    )
    stats.add_argument(
        "--shard-mode",
        choices=["flow", "subscriptions"],
        default="flow",
    )
    _add_batch_arguments(stats)
    _add_fault_arguments(stats)
    stats.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write the snapshot to PATH instead of stdout",
    )
    _add_recovery_arguments(stats)
    stats.set_defaults(handler=_cmd_stats)

    chaos = commands.add_parser(
        "chaos",
        help="fault-injected simulation that fails on any lost document",
    )
    chaos.add_argument("--sites", type=int, default=20)
    chaos.add_argument("--days", type=int, default=14)
    chaos.add_argument("--seed", type=int, default=7)
    _add_batch_arguments(chaos)
    chaos.add_argument(
        "--fault-rate",
        type=float,
        default=0.2,
        help="total transient-fault probability per fetch (default: 0.2)",
    )
    chaos.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault injector's own RNG",
    )
    chaos.add_argument(
        "--dlq-json",
        metavar="PATH",
        default=None,
        help="dump any quarantined documents to PATH for post-mortem",
    )
    _add_recovery_arguments(chaos)
    chaos.add_argument(
        "--kill",
        metavar="POINT[:N]",
        default=None,
        help="crash deterministically at the Nth hit (default: 1st) of a"
        " named kill point — post-fetch, post-match, pre-deliver,"
        " post-deliver or mid-checkpoint; exits 42 (requires --journal)",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    resume = commands.add_parser(
        "resume",
        help="resume a crashed --journal run from its last checkpoint",
    )
    resume.add_argument(
        "--journal",
        metavar="PATH",
        required=True,
        help="journal path the crashed run was started with",
    )
    resume.set_defaults(handler=_cmd_resume)

    dlq = commands.add_parser(
        "dlq", help="inspect or replay a dead-letter queue JSON file"
    )
    dlq.add_argument(
        "action",
        choices=["list", "requeue", "purge"],
        help="list entries, replay them through a fresh pipeline,"
        " or discard them",
    )
    dlq.add_argument("file", help="dead-letter JSON written with --dlq-json")
    dlq.set_defaults(handler=_cmd_dlq)

    match = commands.add_parser(
        "match", help="micro-benchmark a matching engine"
    )
    match.add_argument(
        "--engine",
        choices=["aes", "counting", "naive"],
        default="aes",
    )
    match.add_argument("--card-a", type=int, default=100_000)
    match.add_argument("--card-c", type=int, default=100_000)
    match.add_argument("--s", type=int, default=20)
    match.add_argument("--c-min", type=int, default=2)
    match.add_argument("--c-max", type=int, default=4)
    match.add_argument("--docs", type=int, default=500)
    match.add_argument("--seed", type=int, default=0)
    match.set_defaults(handler=_cmd_match)

    return parser


def _add_batch_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="documents per pipeline batch (default: 32)",
    )


def _add_recovery_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="enable crash recovery: journal delivered notifications to"
        " PATH and checkpoint the runtime (subscriptions persist to"
        " PATH.subs); resume a crashed run with 'resume --journal PATH'",
    )
    subparser.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        metavar="N",
        help="checkpoint the runtime every N ingested batches"
        " (default: 64)",
    )


def _add_fault_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject seeded transient fetch faults at this total rate"
        " (default: 0, no injection)",
    )
    subparser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault injector's own RNG",
    )
    subparser.add_argument(
        "--dlq-json",
        metavar="PATH",
        default=None,
        help="dump the dead-letter queue to PATH after the run",
    )


# -- commands -------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_check(args: argparse.Namespace) -> int:
    subscription = parse_subscription(_read(args.file))
    validate_subscription(subscription)
    complex_events = sum(
        len(query.all_disjuncts()) for query in subscription.monitoring
    )
    print(f"subscription {subscription.name}: OK")
    print(f"  monitoring queries : {len(subscription.monitoring)}")
    print(f"  complex events     : {complex_events}")
    print(f"  continuous queries : {len(subscription.continuous)}")
    print(f"  refresh statements : {len(subscription.refreshes)}")
    print(f"  virtual references : {len(subscription.virtuals)}")
    print(f"  report section     : {'yes' if subscription.report else 'no'}")
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    subscription = parse_subscription(_read(args.file))
    sys.stdout.write(unparse(subscription))
    return 0


_SIM_START = 990_000_000.0

_SIM_SOURCE = """
subscription Demo
monitoring NewCam
select X
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when count >= 3
"""


def _build_world(
    sites: int, seed: int, batch_size: Optional[int] = None,
    shards: int = 1, shard_mode: str = "flow", fault_rate: float = 0.0,
    fault_seed: int = 0, database=None, populate: bool = True,
):
    """The shared demo/stats/chaos world: one system + one crawler.

    With ``populate=False`` the page table and subscription are left
    empty — the ``resume`` path restores both from the subscription WAL
    and the runtime checkpoint instead of re-creating them.
    """
    from .faults import DeadLetterQueue, FaultInjector, FaultPlan
    from .pipeline import SubscriptionSystem
    from .webworld import ChangeModel, SimulatedCrawler, SiteGenerator

    clock = SimulatedClock(_SIM_START)
    system = SubscriptionSystem(
        clock=clock, shards=shards, shard_mode=shard_mode,
        batch_size=batch_size, database=database,
    )
    injector = None
    dead_letters = None
    metrics = None
    if fault_rate > 0.0:
        metrics = system.metrics
        dead_letters = DeadLetterQueue(metrics=metrics)
        system.dead_letters = dead_letters
        injector = FaultInjector(
            FaultPlan.transient_only(fault_rate, seed=fault_seed),
            metrics=metrics,
        )
    crawler = SimulatedCrawler(
        clock=clock, change_model=ChangeModel(seed=seed + 1),
        seed=seed + 2, fault_injector=injector,
        dead_letters=dead_letters, metrics=metrics,
    )
    if populate:
        generator = SiteGenerator(seed=seed)
        for i in range(sites):
            crawler.add_xml_page(
                f"http://www.shop{i}.example/catalog/products.xml",
                generator.catalog(products=8),
                change_probability=0.7,
            )
        system.subscribe(_SIM_SOURCE, owner_email="demo@example.org")
    return system, crawler


def _drive_world(system, crawler, end_time: float, step: float) -> None:
    """Crawl-and-advance until the simulated clock reaches ``end_time``.

    A ``while clock < end`` loop (not ``for day in range(days)``) so a
    resumed run, whose clock starts at the restored checkpoint, covers
    exactly the remaining window.
    """
    while system.clock.now() < end_time:
        system.run_stream(crawler.due_fetches())
        system.advance_time(min(step, end_time - system.clock.now()))


def _run_simulation(
    sites: int, days: int, seed: int, shards: int = 1,
    shard_mode: str = "flow", batch_size: Optional[int] = None,
    fault_rate: float = 0.0, fault_seed: int = 0,
    journal: Optional[str] = None,
    checkpoint_every: int = 64,
):
    """The shared demo/stats/chaos scenario: crawl ``sites`` for ``days``.

    ``batch_size`` configures stream ingestion (``None`` keeps the
    system default).

    With ``fault_rate`` > 0 the crawl runs under a seeded transient-only
    :class:`~repro.faults.FaultInjector` with a shared dead-letter queue,
    and the stream is drained hourly (instead of daily) so backoff
    retries land before each page's next nominal fetch.

    With ``journal`` the run is crash-recoverable: subscriptions persist
    to ``journal + ".subs"``, every delivered notification is journaled,
    and the runtime checkpoints every ``checkpoint_every`` batches; the
    scenario configuration rides inside each checkpoint so ``resume
    --journal`` can rebuild the world without re-stating the flags.
    Returns ``(system, crawler)``; the dead-letter queue (or ``None``)
    hangs off ``system.dead_letters``.
    """
    from .minisql import Database

    step = 3600.0 if fault_rate > 0.0 else 86_400.0
    if fault_rate > 0.0:
        # half-day drain so in-flight retries land
        end_time = _SIM_START + (days * 24 + 12) * 3600.0
    else:
        end_time = _SIM_START + days * 86_400.0
    database = Database(path=journal + ".subs") if journal else None
    system, crawler = _build_world(
        sites, seed, batch_size=batch_size,
        shards=shards, shard_mode=shard_mode, fault_rate=fault_rate,
        fault_seed=fault_seed, database=database,
    )
    if journal:
        system.enable_recovery(
            journal,
            crawler=crawler,
            checkpoint_every=checkpoint_every,
            metadata={
                "cli": {
                    "sites": sites, "seed": seed, "shards": shards,
                    "shard_mode": shard_mode,
                    "batch_size": system.batch_size,
                    "fault_rate": fault_rate, "fault_seed": fault_seed,
                    "checkpoint_every": checkpoint_every,
                    "end_time": end_time, "step": step,
                }
            },
        )
    _drive_world(system, crawler, end_time, step)
    return system, crawler


def _write_metrics_json(system, path: Optional[str]) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(system.metrics_snapshot(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_dlq_json(system, path: Optional[str]) -> None:
    if path is None or system.dead_letters is None:
        return
    system.dead_letters.save(path)


def _print_fault_summary(system, crawler) -> None:
    print(f"  faults injected: {crawler.faults_seen}")
    print(f"  retries        : {crawler.retries_scheduled}")
    print(f"  quarantined    : {crawler.dead_lettered}")
    if system.dead_letters is not None:
        print(f"  dlq depth      : {len(system.dead_letters)}")


def _cmd_demo(args: argparse.Namespace) -> int:
    system, crawler = _run_simulation(
        args.sites, args.days, args.seed,
        batch_size=args.batch_size,
        fault_rate=args.fault_rate, fault_seed=args.fault_seed,
        journal=args.journal, checkpoint_every=args.checkpoint_every,
    )
    stats = system.processor.stats
    print(f"{args.sites} sites crawled over {args.days} simulated days")
    print(f"  documents fed  : {system.documents_fed}")
    print(f"  alerts         : {stats.alerts_processed}")
    print(f"  notifications  : {stats.notifications_sent}")
    print(f"  reports        : {system.reporter.stats.reports_generated}")
    print(f"  emails         : {system.email_sink.total_sent}")
    if args.fault_rate > 0:
        _print_fault_summary(system, crawler)
    _write_metrics_json(system, args.metrics_json)
    _write_dlq_json(system, args.dlq_json)
    if args.metrics_json:
        print(f"  metrics        : {args.metrics_json}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    system, _crawler = _run_simulation(
        args.sites, args.days, args.seed,
        shards=args.shards, shard_mode=args.shard_mode,
        batch_size=args.batch_size,
        fault_rate=args.fault_rate, fault_seed=args.fault_seed,
        journal=args.journal, checkpoint_every=args.checkpoint_every,
    )
    _write_dlq_json(system, args.dlq_json)
    if args.metrics_json:
        _write_metrics_json(system, args.metrics_json)
        print(f"metrics snapshot written to {args.metrics_json}")
    else:
        json.dump(
            system.metrics_snapshot(), sys.stdout, indent=2, sort_keys=True
        )
        sys.stdout.write("\n")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos smoke: any escaped exception or lost document fails.

    The CI job runs this with a 20% transient-fault rate; success means
    every injected failure was absorbed by retries (empty dead-letter
    queue, exit 0).
    """
    import traceback

    from .faults import CrashPoint, KILL_POINTS, install

    if args.fault_rate <= 0:
        print("error: chaos requires --fault-rate > 0", file=sys.stderr)
        return 2
    if args.kill is not None:
        if not args.journal:
            print("error: --kill requires --journal", file=sys.stderr)
            return 2
        point, _, hits = args.kill.partition(":")
        if point not in KILL_POINTS:
            print(
                f"error: unknown kill point {point!r}"
                f" (choose from {', '.join(KILL_POINTS)})",
                file=sys.stderr,
            )
            return 2
        install(point, at=int(hits) if hits else 1)
    try:
        system, crawler = _run_simulation(
            args.sites, args.days, args.seed,
            batch_size=args.batch_size,
            fault_rate=args.fault_rate, fault_seed=args.fault_seed,
            journal=args.journal, checkpoint_every=args.checkpoint_every,
        )
    except CrashPoint as crash:
        print(
            f"chaos: crashed at kill point {crash.point}"
            f" (hit {crash.hit}); resume with:"
            f" repro-monitor resume --journal {args.journal}"
        )
        return 42
    except Exception:
        traceback.print_exc()
        print("chaos: FAILED (exception escaped the pipeline)")
        return 1
    stats = system.processor.stats
    print(
        f"chaos: {args.sites} sites, {args.days} days,"
        f" fault rate {args.fault_rate:.0%}"
    )
    print(f"  documents fed  : {system.documents_fed}")
    print(f"  notifications  : {stats.notifications_sent}")
    _print_fault_summary(system, crawler)
    breakers = crawler.open_breaker_urls()
    if breakers:
        print(f"  open breakers  : {len(breakers)}")
    _write_dlq_json(system, args.dlq_json)
    depth = len(system.dead_letters) if system.dead_letters else 0
    if depth or system.documents_rejected:
        print(
            f"chaos: FAILED ({depth} quarantined,"
            f" {system.documents_rejected} rejected)"
        )
        return 1
    print("chaos: OK (all injected faults absorbed)")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    """Resume a crashed ``--journal`` run from its last checkpoint.

    Rebuilds the world from the scenario configuration stored inside the
    checkpoint, recovers the subscription database from its WAL and the
    runtime from the journal, then drives the remaining simulated window.
    Deliveries already journaled before the crash are recognised and
    deduplicated (``recovery.deduped``), so the journal ends exactly as a
    crash-free run's would.
    """
    from .minisql import Database
    from .minisql.wal import read_snapshot

    snapshot = read_snapshot(args.journal)
    if snapshot is None:
        print(
            f"error: no checkpoint found at {args.journal}.snapshot",
            file=sys.stderr,
        )
        return 1
    config = (snapshot.get("state") or {}).get("metadata", {}).get("cli")
    if config is None:
        print(
            "error: this journal was not written by the CLI (no scenario"
            " configuration in its checkpoint)",
            file=sys.stderr,
        )
        return 1
    database = Database.recover(args.journal + ".subs")
    system, crawler = _build_world(
        config["sites"], config["seed"],
        batch_size=config.get("batch_size"),
        shards=config["shards"], shard_mode=config["shard_mode"],
        fault_rate=config["fault_rate"], fault_seed=config["fault_seed"],
        database=database, populate=False,
    )
    manager = system.recover_runtime(
        args.journal,
        crawler=crawler,
        checkpoint_every=config["checkpoint_every"],
    )
    resumed_from = system.clock.now()
    print(
        f"resume: checkpoint at t={resumed_from:.0f}"
        f" ({manager.replayed} journaled deliveries to regenerate)"
    )
    _drive_world(system, crawler, config["end_time"], config["step"])
    stats = system.processor.stats
    print(f"  documents fed  : {system.documents_fed}")
    print(f"  notifications  : {stats.notifications_sent}")
    print(f"  deliveries     : {len(manager.seen)} journaled")
    print(f"  replayed       : {manager.replayed}")
    print(f"  deduplicated   : {manager.deduped}")
    if manager.discarded:
        print(f"  discarded      : {manager.discarded} (unsubscribed)")
    if manager.deduped != manager.replayed:
        print(
            f"resume: FAILED (replayed {manager.replayed} !="
            f" deduplicated {manager.deduped} — exactly-once violated)"
        )
        return 1
    print("resume: OK (exactly-once delivery held)")
    return 0


def _cmd_dlq(args: argparse.Namespace) -> int:
    """Operate on a dead-letter JSON file written via ``--dlq-json``."""
    from .faults import DeadLetterQueue
    from .pipeline import SubscriptionSystem

    queue = DeadLetterQueue.load(args.file)
    if args.action == "list":
        print(
            f"{len(queue)} entries"
            f" (capacity {queue.capacity}, {queue.dropped} dropped)"
        )
        for entry in queue:
            print(
                f"  {entry.url} [{entry.kind}] {entry.error_class}"
                f" after {entry.attempts} attempts"
                f" via {entry.source}: {entry.error}"
            )
        return 0
    if args.action == "purge":
        count = queue.purge()
        queue.save(args.file)
        print(f"purged {count} entries from {args.file}")
        return 0
    # requeue: replay every entry through a fresh pipeline; documents the
    # loader accepts leave the file, documents it still rejects stay.
    system = SubscriptionSystem(dead_letters=DeadLetterQueue())
    recovered = 0
    for entry in queue.drain():
        before = len(system.dead_letters)
        system.feed_batch([entry.to_fetch()], skip_malformed=True)
        if len(system.dead_letters) == before:
            recovered += 1
    for entry in system.dead_letters.entries():
        queue.push(entry)
    queue.save(args.file)
    print(
        f"requeued: {recovered} recovered,"
        f" {len(queue)} still quarantined in {args.file}"
    )
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    from .core import AESMatcher, CountingMatcher, NaiveMatcher
    from .webworld import SyntheticWorkload, WorkloadParams

    factory = {
        "aes": AESMatcher,
        "counting": CountingMatcher,
        "naive": NaiveMatcher,
    }[args.engine]
    workload = SyntheticWorkload(
        WorkloadParams(
            card_a=args.card_a,
            card_c=args.card_c,
            c_min=args.c_min,
            c_max=args.c_max,
            s=args.s,
            seed=args.seed,
        )
    )
    print(
        f"building {args.engine} matcher: Card(A)={args.card_a:,},"
        f" Card(C)={args.card_c:,}, c in [{args.c_min},{args.c_max}],"
        f" s={args.s}"
    )
    build_start = time.perf_counter()
    matcher = workload.build(factory)
    build_elapsed = time.perf_counter() - build_start
    documents = workload.document_event_sets(args.docs)
    match_start = time.perf_counter()
    matches = sum(len(matcher.match(d)) for d in documents)
    match_elapsed = time.perf_counter() - match_start
    per_doc = match_elapsed / args.docs * 1e6
    print(f"  build     : {build_elapsed:8.2f} s")
    print(f"  match     : {per_doc:8.1f} us/doc"
          f" ({args.docs / match_elapsed:,.0f} docs/s)")
    print(f"  matches   : {matches}")
    print(f"  structure : {matcher.structure_stats()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
