"""Atomic and complex events — the vocabulary of the MQP.

Section 4.1 of the paper: *A* is the set of all possible atomic events (one
per atomic condition in some monitoring query's ``where`` clause); a
*complex event* is a finite subset of *A*; the Monitoring Query Processor
must find, for the atomic-event set S(d) raised by each document d, every
complex event C_i ⊆ S(d).

The registry below interns atomic-event keys to dense integer codes (the
ordering the algorithm needs) and tracks complex-event membership so events
can be added and removed while the system runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Optional, Tuple

from ..errors import MonitoringError, UnknownEventError
from ..ids import InternedCodes, SequentialIdAllocator

#: Weak events (Section 5.1): document-level ``new`` / ``updated`` /
#: ``unchanged`` statuses that almost every fetched document raises.  A
#: ``where`` clause must contain at least one event *not* in this class.
WEAK_KINDS = frozenset({"doc_new", "doc_updated", "doc_unchanged"})


@dataclass(frozen=True)
class AtomicEventKey:
    """Canonical description of an atomic condition.

    ``kind`` names the condition family (``url_extends``, ``contains``,
    ``tag_contains`` ...); ``argument`` carries its parameters as a hashable
    value.  Two subscriptions with the same key share one atomic event.
    """

    kind: str
    argument: Hashable = None

    @property
    def weak(self) -> bool:
        return self.kind in WEAK_KINDS

    def __str__(self) -> str:
        return f"{self.kind}({self.argument!r})"


@dataclass(frozen=True)
class ComplexEvent:
    """A registered conjunction: code + its sorted atomic-code tuple."""

    code: int
    atomic_codes: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.atomic_codes)


class EventRegistry:
    """Interning and bookkeeping for atomic and complex events.

    * Atomic events are interned by :class:`AtomicEventKey`; their codes are
      dense integers whose order is the canonical event ordering.
    * Complex events get codes from a separate space; the registry tracks
      which atomic events each one uses so that removing the last complex
      event interested in an atomic event retires the atomic event too
      (the Alerters are told to stop detecting it).
    """

    def __init__(self):
        self._atomic = InternedCodes()
        self._atomic_refcount: Dict[int, int] = {}
        self._complex_allocator = SequentialIdAllocator(start=1)
        self._complex: Dict[int, ComplexEvent] = {}

    # -- atomic events -------------------------------------------------------

    def intern_atomic(self, key: AtomicEventKey) -> int:
        """Code for ``key`` (allocated on first sight, refcount unchanged)."""
        return self._atomic.intern(key)

    def atomic_code(self, key: AtomicEventKey) -> Optional[int]:
        return self._atomic.code_for(key)

    def atomic_key(self, code: int) -> AtomicEventKey:
        try:
            key = self._atomic.key_for(code)
        except KeyError:
            raise UnknownEventError(f"unknown atomic event code {code}") from None
        assert isinstance(key, AtomicEventKey)
        return key

    def atomic_count(self) -> int:
        return len(self._atomic)

    # -- complex events -------------------------------------------------------

    def register_complex(self, keys: Iterable[AtomicEventKey]) -> ComplexEvent:
        """Register a conjunction of atomic conditions; returns its event.

        Enforces the weak/strong rule: at least one key must be strong.
        """
        key_list = list(keys)
        if not key_list:
            raise MonitoringError("a complex event needs at least one condition")
        if all(key.weak for key in key_list):
            raise MonitoringError(
                "a complex event must contain at least one strong condition"
                " (Section 5.1: weak-only where clauses are disallowed)"
            )
        codes = sorted({self.intern_atomic(key) for key in key_list})
        for code in codes:
            self._atomic_refcount[code] = self._atomic_refcount.get(code, 0) + 1
        complex_code = self._complex_allocator.allocate()
        event = ComplexEvent(code=complex_code, atomic_codes=tuple(codes))
        self._complex[complex_code] = event
        return event

    def unregister_complex(self, complex_code: int) -> ComplexEvent:
        """Remove a conjunction; retires now-unreferenced atomic events.

        Returns the removed event so the caller (the MQP) can update its
        matcher structure.
        """
        event = self._complex.pop(complex_code, None)
        if event is None:
            raise UnknownEventError(f"unknown complex event code {complex_code}")
        for code in event.atomic_codes:
            remaining = self._atomic_refcount.get(code, 0) - 1
            if remaining <= 0:
                self._atomic_refcount.pop(code, None)
                key = self._atomic.key_for(code)
                self._atomic.release(key)
            else:
                self._atomic_refcount[code] = remaining
        self._complex_allocator.release(complex_code)
        return event

    def complex_event(self, complex_code: int) -> ComplexEvent:
        try:
            return self._complex[complex_code]
        except KeyError:
            raise UnknownEventError(
                f"unknown complex event code {complex_code}"
            ) from None

    def complex_count(self) -> int:
        return len(self._complex)

    def complex_events(self) -> Iterable[ComplexEvent]:
        return list(self._complex.values())

    # -- statistics (the paper's parameters) ----------------------------------

    def average_conjunction_size(self) -> float:
        """The paper's parameter c̄ (average atomic events per complex event)."""
        if not self._complex:
            return 0.0
        total = sum(event.size for event in self._complex.values())
        return total / len(self._complex)

    def average_fanout(self) -> float:
        """The paper's parameter k (complex events per atomic event).

        Estimated exactly from refcounts rather than the paper's
        c̄·Card(C)/Card(A) approximation.
        """
        if not self._atomic_refcount:
            return 0.0
        return sum(self._atomic_refcount.values()) / len(self._atomic_refcount)
