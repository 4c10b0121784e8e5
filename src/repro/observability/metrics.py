"""Dependency-free metrics primitives for the whole pipeline.

The paper evaluates the Xyleme subscription system stage by stage
(documents/day through the crawler, alerts/second through the MQP,
notifications/day through the Reporter); this module provides the raw
material for the same per-stage accounting in the reproduction: counters,
gauges and fixed-bucket latency histograms, interned in one
:class:`MetricsRegistry`.

Design constraints (shared by every instrumented call site):

* **zero dependencies** — plain dicts and lists, stdlib only;
* **injectable** — every instrumented class takes ``metrics=None`` and
  falls back to the shared :data:`NULL_REGISTRY`, whose primitives are
  no-ops, so uninstrumented construction keeps the old behavior and cost;
* **deterministic under a simulated clock** — a registry built over a
  :class:`~repro.clock.SimulatedClock` times stages with that clock, so
  tests can assert *exact* histogram bucket placement; a registry built
  without a clock uses ``time.perf_counter`` for real latencies.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from ..clock import Clock

#: Fixed latency buckets (seconds).  The last implicit bucket is +Inf.
#: Chosen to straddle the paper's regime: sub-millisecond matching, tens of
#: milliseconds for store+diff, seconds for whole-tick timer sweeps.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

#: Label rendering for +Inf, matching the Prometheus convention.
INF_LABEL = "+Inf"


def format_bound(bound: float) -> str:
    """Stable text form of a bucket upper bound (``0.005`` not ``5e-03``)."""
    text = f"{bound:.6f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, shard loads)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram; ``count`` doubles as the stage call count."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        #: Non-cumulative counts; one extra slot for the +Inf bucket.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # First bound >= value is this value's bucket; past the last bound
        # bisect returns len(bounds), which is exactly the +Inf slot.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def bucket_for(self, value: float) -> str:
        """Label of the bucket ``value`` falls in (for test assertions)."""
        for bound in self.bounds:
            if value <= bound:
                return format_bound(bound)
        return INF_LABEL

    def snapshot(self) -> Dict[str, object]:
        buckets = {
            format_bound(bound): self.bucket_counts[i]
            for i, bound in enumerate(self.bounds)
        }
        buckets[INF_LABEL] = self.bucket_counts[-1]
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


def render_key(name: str, labels: Dict[str, str]) -> str:
    """``name{k=v,...}`` with labels sorted — the snapshot dict key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`render_key`."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels = dict(
        part.split("=", 1) for part in rest.rstrip("}").split(",") if part
    )
    return name, labels


class MetricsRegistry:
    """Interns metrics by (name, labels) and times stages.

    ``clock`` selects the time source for :meth:`now`: a
    :class:`~repro.clock.SimulatedClock` makes every measured latency exact
    (tests advance the clock themselves), ``None`` means wall time via
    ``time.perf_counter``.
    """

    #: Instrumented call sites may skip work entirely for no-op registries.
    enabled = True

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        if self.clock is not None:
            return self.clock.now()
        return time.perf_counter()

    # -- metric interning ---------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = render_key(name, labels)
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter()
        return found

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = render_key(name, labels)
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge()
        return found

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = render_key(name, labels)
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(buckets)
        return found

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view of every metric (JSON-serialisable)."""
        return {
            "counters": {
                key: counter.value
                for key, counter in sorted(self._counters.items())
            },
            "gauges": {
                key: gauge.value
                for key, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                key: histogram.snapshot()
                for key, histogram in sorted(self._histograms.items())
            },
        }

    def counter_total(self, name: str) -> float:
        """Sum of one counter across all label sets."""
        return sum(
            counter.value
            for key, counter in self._counters.items()
            if split_key(key)[0] == name
        )


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """No-op registry: instrumentation with this installed must leave every
    observable behavior of the instrumented code byte-identical."""

    enabled = False

    def __init__(self):
        super().__init__(clock=None)
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_histogram = _NullHistogram(())

    def now(self) -> float:
        return 0.0

    def counter(self, name: str, **labels: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._null_gauge

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._null_histogram

    def snapshot(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Shared default for every ``metrics=None`` call site.
NULL_REGISTRY = NullRegistry()
