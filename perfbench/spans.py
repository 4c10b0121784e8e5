"""Self-time spans around calls into the program's layers.

The benchmark measures layers from its own files: it replaces a bound
method on a built component (``system.repository.store_xml``) or a
module-level function at the module that calls it
(``repro.repository.store.compute_delta``) with a wrapper that times the
call with ``time.perf_counter``.  Nothing inside the program is changed,
and the program's own ``*.latency_seconds`` histograms are never read:
under ``SimulatedClock`` they are all zero.

A span's *self time* is its duration minus the time of the spans it
called, so the self times of nested layers add up to the traced wall time
without double counting.  All wrapped calls must happen on one thread
(the thread that consumes the ingest queue); the feeder thread of
``run_stream`` calls none of them.
"""

from __future__ import annotations

import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple


@dataclass
class LayerTime:
    calls: int = 0
    self_time: float = 0.0


class SpanRecorder:
    """Installs timing wrappers and accumulates per-layer self time."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerTime] = {}
        #: Layers whose wrap target no longer exists (renamed or removed).
        self.missing: Set[str] = set()
        self._open: List[List[float]] = []
        self._installed: List[Tuple[types.ModuleType, str, Any]] = []

    def _close(self, stats: LayerTime, children: List[float], elapsed: float) -> None:
        self._open.pop()
        if self._open:
            self._open[-1][0] += elapsed
        stats.calls += 1
        stats.self_time += elapsed - children[0]

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> bool:
        """Time every call of ``owner.attr`` under ``layer``.

        Returns False, and records the layer as missing, when the target
        (or its owner, passed as None) does not exist.  ``on_result`` sees
        each return value outside the span, for counts taken where the
        work happens.
        """
        target = getattr(owner, attr, None)
        if not callable(target):
            self.missing.add(layer)
            return False
        stats = self.layers.setdefault(layer, LayerTime())
        open_spans = self._open
        close = self._close
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                close(stats, children, clock() - start)
            if on_result is not None:
                on_result(result)
            return result

        if isinstance(owner, types.ModuleType):
            self._installed.append((owner, attr, target))
        setattr(owner, attr, span)
        return True

    @contextmanager
    def region(self, layer: str) -> Iterator[None]:
        """A span around the benchmark's own code (e.g. set-up)."""
        stats = self.layers.setdefault(layer, LayerTime())
        children = [0.0]
        self._open.append(children)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stats, children, time.perf_counter() - start)

    def restore(self) -> None:
        """Put back the module-level functions; a wrapper on an instance
        goes away with its instance."""
        for module, attr, target in reversed(self._installed):
            setattr(module, attr, target)
        self._installed.clear()

    # -- reading ------------------------------------------------------------

    def self_us(self, layer: str) -> float:
        stats = self.layers.get(layer)
        return stats.self_time * 1e6 if stats is not None else 0.0

    def calls(self, layer: str) -> int:
        stats = self.layers.get(layer)
        return stats.calls if stats is not None else 0

    def attributed_seconds(self) -> float:
        return sum(stats.self_time for stats in self.layers.values())
