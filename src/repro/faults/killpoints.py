"""Deterministic kill-point harness for crash-recovery testing.

A crash-recovery story is only as good as the crashes it is tested
against.  This module lets a test (or the ``--kill`` CLI flag) plant a
*kill point*: the next time execution reaches the named point, a
:class:`CrashPoint` is raised, simulating the process dying exactly
there.  The points are placed at the pipeline's recovery-relevant
boundaries:

``post-fetch``
    a batch has been pulled off the bounded queue but not yet executed;
``post-match``
    match results exist in memory but nothing has been delivered;
``pre-deliver``
    immediately before a notification is journaled;
``post-deliver``
    after the journal append but before the in-memory buffers see it;
``mid-checkpoint``
    between writing the checkpoint snapshot and truncating the journal.

:class:`CrashPoint` deliberately subclasses :class:`BaseException`, not
``ReproError`` — the pipeline's per-document error handling catches
``ReproError``, and a simulated process death must sail straight through
it, exactly like ``SIGKILL`` would.

The switch is a process-global so the CLI, the system and the tests all
see the same one; ``install(point, at=n)`` arms it for the *n*-th hit of
``point``, and ``clear()`` disarms it (tests should clear in a finally).
"""

from __future__ import annotations

from typing import Optional

#: Every registered kill point, in pipeline order.
KILL_POINT_POST_FETCH = "post-fetch"
KILL_POINT_POST_MATCH = "post-match"
KILL_POINT_PRE_DELIVER = "pre-deliver"
KILL_POINT_POST_DELIVER = "post-deliver"
KILL_POINT_MID_CHECKPOINT = "mid-checkpoint"

KILL_POINTS = (
    KILL_POINT_POST_FETCH,
    KILL_POINT_POST_MATCH,
    KILL_POINT_PRE_DELIVER,
    KILL_POINT_POST_DELIVER,
    KILL_POINT_MID_CHECKPOINT,
)


class CrashPoint(BaseException):
    """A simulated process death at a named kill point.

    BaseException on purpose: no ``except Exception`` handler anywhere in
    the pipeline may absorb it — a real crash cannot be caught.
    """

    def __init__(self, point: str, hit: int):
        super().__init__(f"simulated crash at kill point {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class _KillSwitch:
    __slots__ = ("point", "at", "hits")

    def __init__(self, point: str, at: int):
        self.point = point
        self.at = at
        self.hits = 0


_armed: Optional[_KillSwitch] = None


def install(point: str, at: int = 1) -> None:
    """Arm the global switch: crash on the ``at``-th hit of ``point``."""
    global _armed
    if point not in KILL_POINTS:
        raise ValueError(
            f"unknown kill point {point!r}; expected one of {KILL_POINTS}"
        )
    if at < 1:
        raise ValueError(f"at must be >= 1, got {at}")
    _armed = _KillSwitch(point, at)


def clear() -> None:
    """Disarm the switch (call from a ``finally`` in tests)."""
    global _armed
    _armed = None


def armed_point() -> Optional[str]:
    """The currently armed point name, or None."""
    return _armed.point if _armed is not None else None


def maybe_kill(point: str) -> None:
    """Call at a kill point; raises :class:`CrashPoint` if armed for it."""
    switch = _armed
    if switch is None or switch.point != point:
        return
    switch.hits += 1
    if switch.hits >= switch.at:
        clear()
        raise CrashPoint(point, switch.hits)
