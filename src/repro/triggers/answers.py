"""Versioning of query answers (Section 2.2).

"Changes may also be discovered by regularly asking the same query and
discovering changes in the answer.  In that sense, the versioning of query
answers (not detailed here) is an important aspect of a change control
system."

:class:`QueryAnswerStore` keeps a bounded version chain per continuous
query — newest answer in full plus inverted deltas, the same layout the
document repository uses — so users can ask "what did AmsterdamPaintings
answer three evaluations ago?" and diff any two retained answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..diff import (
    Delta,
    XidSpace,
    apply_delta,
    compute_delta,
    copy_document,
)
from ..errors import DiffError, TriggerError
from ..xmlstore.nodes import Document

#: A query answer is identified by (subscription id, query name).
AnswerKey = Tuple[int, str]


@dataclass
class _AnswerChain:
    current: Document
    version: int
    xid_space: XidSpace
    #: (older version number, delta newest->older), newest first.
    history: List[Tuple[int, Delta]] = field(default_factory=list)
    evaluated_at: float = 0.0


class QueryAnswerStore:
    """Bounded version chains for continuous-query answers."""

    def __init__(self, keep_versions: int = 8):
        self.keep_versions = max(1, keep_versions)
        self._chains: Dict[AnswerKey, _AnswerChain] = {}

    # -- recording -----------------------------------------------------------

    def record(
        self,
        subscription_id: int,
        query_name: str,
        answer: Document,
        evaluated_at: float = 0.0,
    ) -> Tuple[int, Optional[Delta]]:
        """Store one evaluation's answer.

        Returns ``(version, delta)`` where ``delta`` maps the previous
        answer onto this one (None for the first evaluation, empty Delta
        when the answer did not change — in which case no new version is
        created).
        """
        key = (subscription_id, query_name)
        chain = self._chains.get(key)
        answer = copy_document(answer)
        if chain is None:
            xid_space = XidSpace()
            for node in answer.preorder():
                node.xid = None
            xid_space.assign_fresh(answer.root)
            self._chains[key] = _AnswerChain(
                current=answer,
                version=1,
                xid_space=xid_space,
                evaluated_at=evaluated_at,
            )
            return 1, None
        for node in answer.preorder():
            node.xid = None
        try:
            delta = compute_delta(chain.current, answer, chain.xid_space)
        except DiffError:
            # The answer's root element changed (query rewritten): restart.
            xid_space = XidSpace()
            xid_space.assign_fresh(answer.root)
            chain.current = answer
            chain.version += 1
            chain.xid_space = xid_space
            chain.history.clear()
            chain.evaluated_at = evaluated_at
            return chain.version, None
        # ``answer`` took over the unchanged subtrees of the stored answer,
        # so it is kept even when nothing changed.
        chain.current = answer
        chain.evaluated_at = evaluated_at
        if not delta:
            return chain.version, delta
        chain.history.insert(0, (chain.version, delta.inverted()))
        del chain.history[self.keep_versions - 1 :]
        chain.version += 1
        return chain.version, delta

    # -- reading ----------------------------------------------------------------

    def latest(self, subscription_id: int, query_name: str) -> Document:
        chain = self._require((subscription_id, query_name))
        return copy_document(chain.current)

    def latest_version(self, subscription_id: int, query_name: str) -> int:
        return self._require((subscription_id, query_name)).version

    def version(
        self, subscription_id: int, query_name: str, version: int
    ) -> Document:
        chain = self._require((subscription_id, query_name))
        if version == chain.version:
            return copy_document(chain.current)
        current = chain.current
        for older_version, inverted in chain.history:
            current = apply_delta(current, inverted)
            if older_version == version:
                return current
        raise TriggerError(
            f"answer version {version} of {query_name!r} is not retained"
        )

    def retained_versions(
        self, subscription_id: int, query_name: str
    ) -> List[int]:
        chain = self._require((subscription_id, query_name))
        return [chain.version] + [older for older, _ in chain.history]

    def diff(
        self,
        subscription_id: int,
        query_name: str,
        from_version: int,
        to_version: int,
    ) -> Delta:
        """Delta between two retained answer versions."""
        older = self.version(subscription_id, query_name, from_version)
        newer = self.version(subscription_id, query_name, to_version)
        space = XidSpace()
        space.assign_fresh(older.root)
        return compute_delta(older, newer, space)

    def drop(self, subscription_id: int) -> None:
        for key in [k for k in self._chains if k[0] == subscription_id]:
            del self._chains[key]

    def _require(self, key: AnswerKey) -> _AnswerChain:
        chain = self._chains.get(key)
        if chain is None:
            raise TriggerError(
                f"no recorded answers for query {key[1]!r} of subscription"
                f" {key[0]}"
            )
        return chain
