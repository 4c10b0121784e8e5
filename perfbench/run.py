"""The repository benchmark: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload crawl-catalog --seed 1 --seconds 10 --trace 0

``--workload`` is ``crawl-catalog``, ``alert-match`` or ``churn-fanout``
(see ``scenarios.py`` for what each stresses and why).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it makes an untraced and a traced pass and reports the per-layer metrics
(self time per layer, work counts, ``trace.overhead_ratio``).  Every
metric is printed by name with its unit; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when an output or count check fails.

The program under test is the checkout's ``src/repro``; the benchmark
imports it from source and runs the shipped defaults: ``REPRO_EXECUTOR``
is cleared, ``REPRO_BENCH_SCALE`` is never read, and only the main thread
plus ``run_stream``'s feeder thread run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space for the churn-fanout journal, inside the checkout.
WORKDIR = os.path.join(ROOT, ".perfbench_run")
WORKLOADS = ("crawl-catalog", "alert-match", "churn-fanout")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("REPRO_EXECUTOR", None)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: no program to benchmark under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    from scenarios import run_workload

    print(
        f"host {platform.node()}, nproc {os.cpu_count()},"
        f" CPython {platform.python_version()}"
    )
    try:
        outcome = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            os.path.join(WORKDIR, str(os.getpid())),
        )
    except Exception:  # noqa: BLE001 — a crash is a failed run, no result
        traceback.print_exc()
        return 1
    finally:
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)
    for note in outcome.notes:
        print(note)
    metrics = {}
    for name, (value, unit) in outcome.metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
