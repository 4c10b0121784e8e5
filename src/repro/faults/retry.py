"""Retry/backoff policy and per-URL circuit breakers.

Two policies decide what happens after a failed fetch:

* :class:`RetryPolicy` — exponential backoff with *deterministic* jitter
  (a CRC of ``(url, attempt)``, not wall-clock randomness, so seeded
  simulations replay exactly) and a capped attempt budget.  The crawler
  reschedules a failed URL at the backoff interval instead of its
  nominal refresh interval.
* :class:`CircuitBreaker` — the classical closed → open → half-open
  machine, one per URL: after ``failure_threshold`` consecutive failures
  the circuit opens and the URL stops consuming fetch budget until
  ``reset_timeout`` elapses, when a single half-open probe is allowed
  through; a clean probe closes the circuit, a failed one re-opens it.

State transitions are observable: ``on_state_change(old, new)`` fires on
every edge, which the crawler wires to the
``breaker.state_changes{to=...}`` counter.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import PipelineError

#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and capped attempts.

    ``max_attempts`` counts every attempt including the first: the
    default of 6 allows 5 retries before a fetch is declared poison and
    quarantined.  ``backoff(attempt, url)`` is the delay before retry
    number ``attempt`` (1-based), jittered by ±``jitter`` of itself
    using a CRC of ``(url, attempt)`` so two runs with the same inputs
    schedule identical retries.
    """

    max_attempts: int = 6
    base_delay: float = 60.0
    multiplier: float = 2.0
    max_delay: float = 3600.0
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_attempts < 1:
            raise PipelineError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay <= 0 or self.max_delay <= 0:
            raise PipelineError("backoff delays must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise PipelineError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def backoff(self, attempt: int, url: str = "") -> float:
        """Delay in seconds before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise PipelineError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.max_delay,
            self.base_delay * self.multiplier ** (attempt - 1),
        )
        if self.jitter:
            token = f"{url}#{attempt}".encode("utf-8")
            fraction = zlib.crc32(token) / 2**32  # [0, 1)
            delay *= 1.0 + self.jitter * (2.0 * fraction - 1.0)
        return delay


#: A breaker's checkpointed fields: its configuration and its state.
_BREAKER_FIELDS = (
    "failure_threshold",
    "reset_timeout",
    "state",
    "consecutive_failures",
    "opened_at",
    "state_changes",
)


class CircuitBreaker:
    """Closed → open → half-open failure isolation for one URL.

    ``allow(now)`` gates fetch attempts: always ``True`` while closed;
    while open it returns ``False`` until ``reset_timeout`` has elapsed
    since opening, then transitions to half-open and releases exactly one
    probe.  ``record_success`` / ``record_failure`` feed outcomes back.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 6 * 3600.0,
        on_state_change: Optional[Callable[[str, str], None]] = None,
    ):
        if failure_threshold < 1:
            raise PipelineError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise PipelineError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.on_state_change = on_state_change
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.state_changes = 0

    def state_dict(self) -> Dict:
        """JSON-serializable state (crash-recovery checkpoints)."""
        return {name: getattr(self, name) for name in _BREAKER_FIELDS}

    def restore_state(self, state: Dict) -> None:
        """Set the fields directly, not through a transition, so a
        restore never fires ``on_state_change``."""
        for name in _BREAKER_FIELDS:
            setattr(self, name, state[name])

    def _transition(self, new_state: str) -> None:
        if new_state == self.state:
            return
        old_state, self.state = self.state, new_state
        self.state_changes += 1
        if self.on_state_change is not None:
            self.on_state_change(old_state, new_state)

    def allow(self, now: float) -> bool:
        """May a fetch attempt for this URL proceed at ``now``?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            opened = self.opened_at if self.opened_at is not None else now
            if now - opened >= self.reset_timeout:
                self._transition(HALF_OPEN)
                return True  # the half-open probe
            return False
        # Half-open: the probe is already in flight; hold everything else.
        return False

    def retry_at(self, now: float) -> float:
        """Earliest time a blocked attempt could be allowed through."""
        if self.state == CLOSED:
            return now
        if self.opened_at is None:
            return now + self.reset_timeout
        return max(now, self.opened_at + self.reset_timeout)

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        self.opened_at = None
        self._transition(CLOSED)

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # The probe failed: straight back to open, timer restarted.
            self.opened_at = now
            self._transition(OPEN)
        elif (
            self.state == CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.opened_at = now
            self._transition(OPEN)
