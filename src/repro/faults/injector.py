"""Seeded, deterministic fault injection for the fetch stream.

Xyleme crawls "millions of pages per day" (Section 2.2); at that volume
timeouts, resets, 5xx responses and corrupt payloads are not exceptional,
they are the steady state.  The simulation's crawler can never fail, so
this module manufactures the failures: a :class:`FaultPlan` fixes
per-class injection rates and a seed, and a :class:`FaultInjector` rolls
one deterministic pseudo-random draw per fetch attempt, surfacing the
chosen failure as the matching :class:`~repro.errors.FetchError` subclass.

Determinism contract: the injector owns its *own* RNG stream, so wiring
one into a :class:`~repro.webworld.crawler.SimulatedCrawler` never
perturbs the crawler's content-evolution RNG — a faulty run and a
fault-free run evolve every page identically, which is what makes exact
convergence (same notification set once every retry lands) provable.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import (
    FetchConnectionReset,
    FetchError,
    FetchServerError,
    FetchTimeout,
    GarbageFetch,
    PipelineError,
    TruncatedFetch,
)
from ..observability.metrics import MetricsRegistry, NULL_REGISTRY
from ..observability.names import COUNTER_FAULTS_INJECTED
from ..rng import rng_state, set_rng_state

#: Canonical fault classes, in the (fixed) order the injector's single
#: uniform draw is mapped over — reordering would change seeded runs.
FAULT_KINDS: Tuple[str, ...] = (
    "timeout", "reset", "http_5xx", "truncated", "garbage",
)

#: Fault kinds whose errors are transient (retry may cure them).
TRANSIENT_KINDS: Tuple[str, ...] = (
    "timeout", "reset", "http_5xx", "truncated",
)


@dataclass(frozen=True)
class FaultPlan:
    """Per-class injection rates (probability per fetch attempt) + seed."""

    timeout_rate: float = 0.0
    reset_rate: float = 0.0
    http_5xx_rate: float = 0.0
    truncated_rate: float = 0.0
    garbage_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for kind, rate in self.rates().items():
            if rate < 0.0:
                raise PipelineError(
                    f"fault rate for {kind!r} must be >= 0, got {rate}"
                )
        total = self.total_rate()
        if total > 1.0 + 1e-9:
            raise PipelineError(
                f"fault rates must sum to <= 1.0, got {total}"
            )

    def rates(self) -> Dict[str, float]:
        """kind -> rate, in :data:`FAULT_KINDS` order."""
        return {
            "timeout": self.timeout_rate,
            "reset": self.reset_rate,
            "http_5xx": self.http_5xx_rate,
            "truncated": self.truncated_rate,
            "garbage": self.garbage_rate,
        }

    def total_rate(self) -> float:
        return sum(self.rates().values())

    @classmethod
    def transient_only(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Spread ``rate`` evenly across the four transient classes.

        The chaos-smoke regime: every injected failure is curable by a
        retry, so a healthy system must end the run with an empty
        dead-letter queue.
        """
        share = rate / len(TRANSIENT_KINDS)
        return cls(
            timeout_rate=share,
            reset_rate=share,
            http_5xx_rate=share,
            truncated_rate=share,
            seed=seed,
        )

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Spread ``rate`` evenly across all five classes (garbage too)."""
        share = rate / len(FAULT_KINDS)
        return cls(
            timeout_rate=share,
            reset_rate=share,
            http_5xx_rate=share,
            truncated_rate=share,
            garbage_rate=share,
            seed=seed,
        )


def _status_for(url: str) -> int:
    """Deterministic 5xx status per URL (no extra RNG draw)."""
    return 500 + zlib.crc32(url.encode("utf-8")) % 5


def _build_fault(kind: str, url: str, content: Optional[str]) -> FetchError:
    if kind == "timeout":
        return FetchTimeout(f"fetch of {url} timed out", url=url)
    if kind == "reset":
        return FetchConnectionReset(
            f"connection reset while fetching {url}", url=url
        )
    if kind == "http_5xx":
        status = _status_for(url)
        return FetchServerError(
            f"server answered {status} for {url}", url=url, status=status
        )
    if kind == "truncated":
        payload = content[: len(content) // 3] if content else ""
        return TruncatedFetch(
            f"payload of {url} truncated mid-body", url=url, payload=payload
        )
    if kind == "garbage":
        payload = "�" * 16 + (content[:16] if content else "")
        return GarbageFetch(
            f"payload of {url} is undecodable garbage",
            url=url,
            payload=payload,
        )
    raise PipelineError(f"unknown fault kind {kind!r}")


class FaultInjector:
    """Rolls one deterministic draw per fetch attempt against a plan.

    ``roll`` returns the injected :class:`FetchError` (counted under
    ``faults.injected{kind=...}`` and in :attr:`injected`) or ``None``
    when the attempt passes clean.  One uniform draw is consumed per
    call, mapped over cumulative per-class rates in
    :data:`FAULT_KINDS` order, so the full fault sequence is a pure
    function of the plan.
    """

    def __init__(
        self, plan: FaultPlan, metrics: Optional[MetricsRegistry] = None
    ):
        self.plan = plan
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.rng = random.Random(plan.seed)
        #: kind -> count of faults injected so far.
        self.injected: Dict[str, int] = {}
        self.rolls = 0
        self._cumulative: List[Tuple[float, str]] = []
        edge = 0.0
        for kind in FAULT_KINDS:
            rate = plan.rates()[kind]
            if rate > 0.0:
                edge += rate
                self._cumulative.append((edge, kind))

    def roll(
        self, url: str, content: Optional[str] = None
    ) -> Optional[FetchError]:
        """Decide the fate of one fetch attempt for ``url``."""
        self.rolls += 1
        draw = self.rng.random()
        for edge, kind in self._cumulative:
            if draw < edge:
                self.injected[kind] = self.injected.get(kind, 0) + 1
                self.metrics.counter(
                    COUNTER_FAULTS_INJECTED, kind=kind
                ).inc()
                return _build_fault(kind, url, content)
        return None

    def state_dict(self) -> Dict:
        """JSON-serializable state (crash-recovery checkpoints)."""
        return {
            "rng": rng_state(self.rng),
            "rolls": self.rolls,
            "injected": dict(self.injected),
        }

    def restore_state(self, state: Dict) -> None:
        set_rng_state(self.rng, state["rng"])
        self.rolls = int(state["rolls"])
        self.injected = dict(state["injected"])

    def wrap(
        self,
        stream: Iterable,
        on_fault: Optional[Callable] = None,
    ) -> Iterator:
        """Filter a plain fetch stream through the plan.

        Fetches that roll clean pass through; faulty ones are handed to
        ``on_fault(fetch, error)`` (default: collected in
        :attr:`dropped`) instead of being yielded.  This is the
        stream-level seam for sources without a crawler's scheduling —
        the :class:`~repro.webworld.crawler.SimulatedCrawler` instead
        calls :meth:`roll` directly so it can retry at backoff.
        """
        if on_fault is None:
            on_fault = self.dropped.append_pair
        for fetch in stream:
            fault = self.roll(fetch.url, fetch.content)
            if fault is None:
                yield fetch
            else:
                on_fault(fetch, fault)

    @property
    def dropped(self) -> "_DroppedLog":
        log = getattr(self, "_dropped", None)
        if log is None:
            log = self._dropped = _DroppedLog()
        return log


class _DroppedLog(list):
    """Default ``on_fault`` sink of :meth:`FaultInjector.wrap`."""

    def append_pair(self, fetch, error) -> None:
        self.append((fetch, error))
