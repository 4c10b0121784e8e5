"""T-recover — cost of the crash-recovery layer (PR 5).

One question, crawl-driven end-to-end: what does enabling the runtime
journal cost when nothing crashes?  Every ingest batch (and every clock
advance) that delivered a notification pays one group-committed, fsynced
WAL write, and every ``checkpoint_every`` ingested batches
the full runtime (reporter buffers, repository versions, crawl cursor,
RNGs) is snapshotted and the log compacted — at the default
``checkpoint_every=64`` the acceptance bar is **< 8% throughput
overhead** versus the identical run with no journal attached
(``journaled / plain >= 0.92``, paired-median so container load drift
cancels).

Results land in ``BENCH_recovery.json`` (see ``_bench_utils``).
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

from _bench_utils import QUICK, dump_bench_json, print_series
from repro.clock import SimulatedClock
from repro.pipeline import SubscriptionSystem
from repro.webworld import ChangeModel, SimulatedCrawler, SiteGenerator

SITES = 8 if QUICK else 16
DAYS = 4 if QUICK else 8
CHECKPOINT_EVERY = 64
SEED = 7

SOURCE = """
subscription Bench
monitoring M
select <Hit url=URL/>
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when count >= 5
"""

_results: dict = {}


def build_world():
    clock = SimulatedClock(990_000_000.0)
    system = SubscriptionSystem(clock=clock)
    generator = SiteGenerator(seed=SEED)
    crawler = SimulatedCrawler(
        clock=clock,
        change_model=ChangeModel(seed=SEED + 1),
        seed=SEED + 2,
        metrics=system.metrics,
    )
    for i in range(SITES):
        # Heavy pages (as in T-proc): the journal's per-batch fsync is a
        # fixed cost, so it must be priced against realistic parse work,
        # not toy documents.
        crawler.add_xml_page(
            f"http://www.shop{i}.example/catalog.xml",
            generator.catalog(products=40),
            change_probability=0.7,
        )
    system.subscribe(SOURCE, owner_email="bench@example.org")
    return system, crawler


def run_world(system, crawler):
    for _ in range(DAYS * 24):
        system.run_stream(crawler.due_fetches())
        system.advance_time(3600)


def timed_run(journal_dir=None):
    """One full crawl; returns ``(system, manager, seconds)``."""
    system, crawler = build_world()
    manager = None
    if journal_dir is not None:
        manager = system.enable_recovery(
            os.path.join(journal_dir, "bench.journal"),
            crawler=crawler,
            checkpoint_every=CHECKPOINT_EVERY,
        )
    start = time.perf_counter()
    run_world(system, crawler)
    elapsed = time.perf_counter() - start
    if manager is not None:
        manager.close()
    return system, manager, elapsed


def paired_overhead(pairs: int = 9) -> float:
    """Journaled-vs-plain throughput ratio, median over back-to-back
    pairs (cancels container load drift)."""
    ratios = []
    for _ in range(pairs):
        with tempfile.TemporaryDirectory() as tmp:
            _, _, plain = timed_run()
            _, _, journaled = timed_run(tmp)
        ratios.append(plain / journaled)
    return statistics.median(ratios)


def test_recovery_journal_throughput(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        def run():
            system, manager, _ = timed_run(tmp)
            return system, manager

        system, manager = benchmark(run)
    assert system.documents_fed > 0
    # The journal genuinely worked: deliveries were journaled and a
    # restorable checkpoint exists (at checkpoint_every=64 the crawl is
    # too short for a mid-run checkpoint — that cadence is pinned in
    # tests/test_recovery.py; here only its *cost* matters).
    assert manager.seen
    assert manager.checkpoints >= 1
    assert manager.deduped == 0  # a fresh run never dedups
    _results["journaled"] = {
        "docs_per_second": system.documents_fed / benchmark.stats.stats.min,
        "documents_fed": system.documents_fed,
        "deliveries_journaled": len(manager.seen),
        "checkpoints": manager.checkpoints,
    }


def test_recovery_plain_throughput(benchmark):
    def run():
        system, _, _ = timed_run()
        return system

    system = benchmark(run)
    assert system.documents_fed > 0
    _results["plain"] = {
        "docs_per_second": system.documents_fed / benchmark.stats.stats.min,
        "documents_fed": system.documents_fed,
    }


def test_recovery_overhead_report(benchmark):
    benchmark(lambda: None)
    import pytest

    missing = [k for k in ("plain", "journaled") if k not in _results]
    if missing:
        pytest.skip(f"points not measured in this run: {missing}")
    # Same workload either way — the journal must not change ingestion.
    assert (
        _results["plain"]["documents_fed"]
        == _results["journaled"]["documents_fed"]
    )
    overhead = paired_overhead()
    rows = [
        f"{label:>10}  {entry['docs_per_second']:9,.0f} docs/s"
        f"  fed={entry['documents_fed']}"
        for label, entry in _results.items()
    ]
    rows.append(
        f"journaled throughput ratio (paired median): {overhead:.3f}x plain"
        f" at checkpoint_every={CHECKPOINT_EVERY}"
    )
    print_series(
        "T-recover: runtime-journal cost (end-to-end crawl)",
        f"{SITES} sites, {DAYS} days drained hourly, best round",
        rows,
    )
    path = dump_bench_json(
        {
            "params": {
                "sites": SITES,
                "days": DAYS,
                "checkpoint_every": CHECKPOINT_EVERY,
                "seed": SEED,
            },
            "series": _results,
            "journaled_throughput_ratio": overhead,
        },
        "recovery",
    )
    print(f"results dumped to {path}")
    # Acceptance: journaling + checkpoints cost < 8% at the default cadence.
    assert overhead >= 0.92
