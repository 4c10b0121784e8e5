"""Page evolution: how the synthetic web changes between fetches.

The crawler refetches pages; this model mutates a page's XML between
fetches so the diff/alerter path sees realistic element-level changes:
insertions (a new product), text updates (a price change), deletions and
attribute edits, with configurable rates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..diff.delta import copy_document
from ..errors import RecoveryError
from ..rng import rng_state, set_rng_state
from ..xmlstore.nodes import Document, ElementNode, TextNode
from .sitegen import SiteGenerator
from .vocabulary import random_sentence


@dataclass
class ChangeRates:
    """Expected number of edits of each kind per mutation round."""

    inserts: float = 1.0
    text_updates: float = 2.0
    deletes: float = 0.3
    attribute_updates: float = 0.2


class ChangeModel:
    """Applies random edits to copies of documents."""

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[ChangeRates] = None,
        element_factory: Optional[Callable[[], ElementNode]] = None,
    ):
        self.rng = random.Random(seed)
        self.rates = rates if rates is not None else ChangeRates()
        #: Builds subtrees for insertions; defaults to catalog products.
        # The default lives in instance attributes (not a closure) so
        # state_dict can checkpoint its generator RNG and serial.
        self._insert_generator: Optional[SiteGenerator] = None
        self._insert_serial = 10_000
        if element_factory is None:
            self._insert_generator = SiteGenerator(seed=seed + 1)
            element_factory = self._default_factory
        self.element_factory = element_factory

    def _default_factory(self) -> ElementNode:
        self._insert_serial += 1
        return self._insert_generator.product(self._insert_serial)

    def state_dict(self) -> Dict:
        """JSON-serializable state: the edit RNG and the default factory's
        product RNG and serial (crash-recovery checkpoints)."""
        if self.element_factory != self._default_factory:
            raise RecoveryError(
                "cannot checkpoint a crawler whose change model uses a custom"
                " element_factory (its state is not capturable); use the"
                " default factory or checkpoint without the crawler"
            )
        return {
            "rng": rng_state(self.rng),
            "insert_serial": self._insert_serial,
            "generator_rng": rng_state(self._insert_generator.rng),
        }

    def restore_state(self, state: Dict) -> None:
        if self._insert_generator is None:
            raise RecoveryError(
                "cannot restore crawler state into a change model with a"
                " custom element_factory"
            )
        set_rng_state(self.rng, state["rng"])
        self._insert_serial = int(state["insert_serial"])
        set_rng_state(self._insert_generator.rng, state["generator_rng"])

    def _count(self, expected: float) -> int:
        """Sample an edit count with the given expectation (Bernoulli/int mix)."""
        base = int(expected)
        if self.rng.random() < (expected - base):
            base += 1
        return base

    def mutate(self, document: Document) -> Document:
        """Return an edited deep copy of ``document`` (input untouched)."""
        result = copy_document(document)
        for node in result.preorder():
            node.xid = None  # the repository re-matches via diff
        for _ in range(self._count(self.rates.deletes)):
            self._delete_element(result)
        for _ in range(self._count(self.rates.inserts)):
            self._insert_element(result)
        for _ in range(self._count(self.rates.text_updates)):
            self._update_text(result)
        for _ in range(self._count(self.rates.attribute_updates)):
            self._update_attribute(result)
        return result

    # -- edits ----------------------------------------------------------------------

    def _elements(self, document: Document) -> List[ElementNode]:
        return [
            node
            for node in document.preorder()
            if isinstance(node, ElementNode)
        ]

    def _insert_element(self, document: Document) -> None:
        parents = [
            node
            for node in self._elements(document)
            if node.level <= 1
        ]
        parent = self.rng.choice(parents) if parents else document.root
        position = self.rng.randint(0, len(parent.children))
        parent.insert(position, self.element_factory())

    def _delete_element(self, document: Document) -> None:
        candidates = [
            node
            for node in self._elements(document)
            if node.parent is not None
        ]
        if not candidates:
            return
        self.rng.choice(candidates).detach()

    def _update_text(self, document: Document) -> None:
        texts = [
            node
            for node in document.preorder()
            if isinstance(node, TextNode)
        ]
        if not texts:
            return
        target = self.rng.choice(texts)
        target.data = random_sentence(self.rng, self.rng.randint(1, 6))

    def _update_attribute(self, document: Document) -> None:
        candidates = [
            node for node in self._elements(document) if node.attributes
        ]
        if not candidates:
            return
        target = self.rng.choice(candidates)
        name = self.rng.choice(sorted(target.attributes))
        target.attributes[name] = str(self.rng.randrange(1_000_000))
