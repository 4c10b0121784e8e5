"""Host-speed probe: rescales measured times to a fixed host speed.

The hosts this benchmark runs on share their cores with other tenants,
and the speed of plain interpreter work there swings by 1.5x over tens
of seconds.  To keep runs comparable, the benchmark runs a fixed probe
(tree building and walking, optionally random reads of a large table;
no code of the program) before every measured interval and multiplies
the interval by ``reference / probe time``, where ``reference`` is the
probe's time on this repository's 2-core development host at its faster
state.  A reported second is therefore a second of that host.  The probe
never touches the program, so a faster program still reads faster; only
the host's speed of the moment is divided out.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

#: Probe time, tree part and table part, that defines a reported second.
TREE_SECONDS = 0.002
TABLE_SECONDS = 0.002

#: Probe runs the current speed is the median of: enough to ride out an
#: interrupt during one probe, few enough to follow the host within a
#: fraction of a second.
WINDOW = 5

#: A table larger than the per-core cache, read at random, for work that
#: waits on memory, as matching over a large AES table does.
TABLE_SIZE = 100_000
LOOKUPS = 8_000


class _Node:
    __slots__ = ("tag", "text", "children")

    def __init__(self, tag: str, text: str) -> None:
        self.tag = tag
        self.text = text
        self.children: list = []


def _probe_work(table: dict, keys: list) -> int:
    """Build and walk a small tree, then read ``table`` at ``keys``."""
    root = _Node("root", "")
    nodes = [root]
    for number in range(1500):
        node = _Node(f"e{number % 50}", "t" * (number % 17))
        nodes[number // 3].children.append(node)
        nodes.append(node)
    stack = [root]
    checksum = 0
    while stack:
        node = stack.pop()
        checksum ^= hash(node.tag) + len(node.text)
        stack.extend(node.children)
    for key in keys:
        checksum ^= table[key]
    return checksum


class SpeedProbe:
    """Measures the host's current speed relative to the reference.

    ``memory_bound`` adds the random table reads: they track a workload
    dominated by lookups in a large structure, and blur the tracking of
    one dominated by allocation and parsing.
    """

    def __init__(self, memory_bound: bool = False) -> None:
        self._recent: deque = deque(maxlen=WINDOW)
        #: Every factor handed out, for scaling a whole phase at once.
        self.factors: list = []
        self._reference = TREE_SECONDS
        self._table: dict = {}
        self._keys: list = []
        if memory_bound:
            self._reference += TABLE_SECONDS
            rng = random.Random(0)
            self._table = {number: number * 31 for number in range(TABLE_SIZE)}
            self._keys = [rng.randrange(TABLE_SIZE) for _ in range(LOOKUPS)]

    def factor(self) -> float:
        """Reference seconds per measured second, right now."""
        start = time.perf_counter()
        _probe_work(self._table, self._keys)
        self._recent.append(time.perf_counter() - start)
        factor = self._reference / statistics.median(self._recent)
        self.factors.append(factor)
        return factor
