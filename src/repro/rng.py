"""JSON encoding of :class:`random.Random` state.

Every seeded component that checkpoints an RNG (the crawler, its change
model and the fault injector) stores it in this form, so a restored run
draws exactly the numbers the interrupted one would have drawn.
"""

from __future__ import annotations

import random
from typing import List


def rng_state(rng: random.Random) -> List:
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def set_rng_state(rng: random.Random, state: List) -> None:
    version, internal, gauss_next = state
    rng.setstate((version, tuple(internal), gauss_next))
