"""The (Xyleme) Subscription Manager — Section 3.

Responsibilities reproduced from the paper:

* interface for inserting / deleting / modifying subscriptions (here a
  Python API; the original sat behind an Apache form);
* parsing and validating subscription text (the "Xyleme specific module");
* choosing event codes and controlling the Alerters, the MQP, the Trigger
  Engine and the Reporter (delegated to :class:`SubscriptionCompiler`);
* persistence and recovery through a SQL database (``repro.minisql``
  standing in for MySQL) — user emails included;
* routing MQP notifications to the Reporter / Trigger Engine, including
  *virtual subscriptions* (Section 5.4) that piggyback on another user's
  monitoring queries;
* cost control (Section 5.4) a priori via :class:`CostController` and a
  posteriori via :meth:`inhibit`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from ..core.processor import Notification
from ..errors import ReportingError, SubscriptionError
from ..language.ast import Subscription
from ..language.parser import parse_subscription
from ..language.unparse import unparse
from ..language.validate import validate_subscription
from ..minisql import (
    BOOLEAN,
    Column,
    Database,
    Eq,
    INTEGER,
    TEXT,
    schema,
)
from .compiler import CompiledSubscription, SubscriptionCompiler
from .cost import CostController

_SUBSCRIPTIONS_SCHEMA = schema(
    "subscriptions",
    Column("id", INTEGER, primary_key=True),
    Column("name", TEXT, nullable=False),
    Column("owner_email", TEXT),
    Column("recipients", TEXT, nullable=False),
    Column("source", TEXT, nullable=False),
    Column("privileged", BOOLEAN, nullable=False),
    Column("active", BOOLEAN, nullable=False),
)
_USERS_SCHEMA = schema(
    "users",
    Column("email", TEXT, primary_key=True),
    Column("privileged", BOOLEAN, nullable=False),
)
#: Next id to issue, saved on removal, so a removed id is never issued again.
_SEQUENCES_SCHEMA = schema(
    "sequences",
    Column("name", TEXT, primary_key=True),
    Column("next", INTEGER, nullable=False),
)
_SUBSCRIPTION_IDS = Eq("name", "subscriptions")


def _validated(source: Union[str, Subscription]) -> Tuple[Subscription, str]:
    """Parse (or, for a programmatically built AST, unparse) and validate a
    subscription; returns the AST and the source text to persist, so every
    subscription is recoverable from the database like any other."""
    if isinstance(source, str):
        subscription, source_text = parse_subscription(source), source
    else:
        subscription, source_text = source, unparse(source)
    validate_subscription(subscription)
    return subscription, source_text


class SubscriptionManager:
    def __init__(
        self,
        compiler: SubscriptionCompiler,
        cost_controller: Optional[CostController] = None,
        database: Optional[Database] = None,
    ):
        self.compiler = compiler
        self.cost_controller = (
            cost_controller if cost_controller is not None else CostController()
        )
        self.database = database if database is not None else Database()
        if not self.database.has_table("subscriptions"):
            self.database.create_table(_SUBSCRIPTIONS_SCHEMA)
        if not self.database.has_table("users"):
            self.database.create_table(_USERS_SCHEMA)
        if not self.database.has_table("sequences"):
            self.database.create_table(_SEQUENCES_SCHEMA)
        self._sequences = self.database.table("sequences")
        self._next_id = 1 + max(
            (row["id"] for row in self.database.table("subscriptions").rows()),
            default=0,
        )
        mark = self._sequences.get("subscriptions")
        if mark is not None:
            self._next_id = max(self._next_id, mark["next"])
        self._subscriptions: Dict[int, CompiledSubscription] = {}
        self._id_by_name: Dict[str, int] = {}
        #: complex code -> owning compiled subscription (binding lookup).
        self._code_owner: Dict[int, int] = {}
        #: (subscription name, query name or None) -> virtual subscriber ids.
        self._virtual_subscribers: Dict[
            Tuple[str, Optional[str]], Set[int]
        ] = {}
        #: stored id -> why :meth:`recover` could not re-register it.
        self.unrecovered: Dict[int, str] = {}

    # -- user management ---------------------------------------------------------

    def register_user(self, email: str, privileged: bool = False) -> None:
        users = self.database.table("users")
        if users.get(email) is None:
            users.insert({"email": email, "privileged": privileged})
        else:
            users.update(Eq("email", email), {"privileged": privileged})

    def is_privileged(self, email: Optional[str]) -> bool:
        if email is None:
            return False
        row = self.database.table("users").get(email)
        return bool(row and row["privileged"])

    # -- subscription lifecycle -----------------------------------------------------

    def add_subscription(
        self,
        source: Union[str, Subscription],
        owner_email: Optional[str] = None,
        recipients: Tuple[str, ...] = (),
        privileged: Optional[bool] = None,
    ) -> int:
        """Parse, validate, cost-check, persist and register a subscription.

        Returns the new subscription id.
        """
        subscription, source_text = _validated(source)
        if subscription.name in self._id_by_name:
            raise SubscriptionError(
                f"a subscription named {subscription.name!r} already exists"
            )
        if privileged is None:
            privileged = self.is_privileged(owner_email)
        self.cost_controller.check_subscription(
            subscription, privileged=privileged
        )
        if not recipients and owner_email is not None:
            recipients = (owner_email,)

        subscription_id = self._next_id
        self._next_id += 1
        compiled = self.compiler.compile(
            subscription_id,
            subscription,
            source_text,
            owner_email=owner_email,
            recipients=recipients,
            privileged=privileged,
        )
        self._install(compiled)
        self._insert_row(compiled)
        return subscription_id

    def _insert_row(self, compiled: CompiledSubscription) -> None:
        """Persist a compiled subscription as its ``subscriptions`` row."""
        self.database.table("subscriptions").insert(
            {
                "id": compiled.subscription_id,
                "name": compiled.name,
                "owner_email": compiled.owner_email,
                "recipients": ",".join(compiled.recipients),
                "source": compiled.source_text,
                "privileged": bool(compiled.privileged),
                "active": compiled.active,
            }
        )

    def _install(self, compiled: CompiledSubscription) -> None:
        self._subscriptions[compiled.subscription_id] = compiled
        self._id_by_name[compiled.name] = compiled.subscription_id
        for code in compiled.complex_codes:
            self._code_owner[code] = compiled.subscription_id
        for reference in compiled.virtual_refs:
            self._virtual_subscribers.setdefault(reference, set()).add(
                compiled.subscription_id
            )

    def remove_subscription(self, subscription_id: int) -> None:
        compiled = self._subscriptions.pop(subscription_id, None)
        if compiled is None:
            raise SubscriptionError(
                f"no subscription with id {subscription_id}"
            )
        self._id_by_name.pop(compiled.name, None)
        for code in compiled.complex_codes:
            self._code_owner.pop(code, None)
        for reference in compiled.virtual_refs:
            subscribers = self._virtual_subscribers.get(reference)
            if subscribers is not None:
                subscribers.discard(subscription_id)
                if not subscribers:
                    del self._virtual_subscribers[reference]
        self.compiler.release(compiled)
        self._save_next_id()
        self.database.table("subscriptions").delete(Eq("id", subscription_id))

    def _save_next_id(self) -> None:
        """Persist the next id before a delete: once a row is gone, the
        rows alone no longer say which ids were issued."""
        mark = self._sequences.get("subscriptions")
        if mark is None:
            self._sequences.insert(
                {"name": "subscriptions", "next": self._next_id}
            )
        elif mark["next"] != self._next_id:
            self._sequences.update(_SUBSCRIPTION_IDS, {"next": self._next_id})

    def update_subscription(
        self,
        subscription_id: int,
        source: Union[str, Subscription],
    ) -> None:
        """Replace a subscription's definition in place (same id).

        "Subscriptions keep being added, removed and updated while the
        system is running" (Section 4.1).  The report buffer restarts
        empty: pending notifications of the old definition are dropped
        (they may no longer match the new report query).
        """
        old = self._require(subscription_id)
        subscription, source_text = _validated(source)
        # A malformed template must fail before the teardown below.
        templates = self.compiler.templates(subscription)
        other_id = self._id_by_name.get(subscription.name)
        if other_id is not None and other_id != subscription_id:
            raise SubscriptionError(
                f"a subscription named {subscription.name!r} already exists"
            )
        self.cost_controller.check_subscription(
            subscription, privileged=old.privileged
        )
        # Tear down the old registrations, then compile the replacement
        # under the same id.
        was_active = old.active
        self.remove_subscription(subscription_id)
        compiled = self.compiler.compile(
            subscription_id,
            subscription,
            source_text,
            owner_email=old.owner_email,
            recipients=old.recipients,
            privileged=old.privileged,
            templates=templates,
        )
        compiled.active = was_active
        self._install(compiled)
        self._insert_row(compiled)

    def inhibit(self, subscription_id: int) -> None:
        """A-posteriori cost control: stop routing without deleting."""
        compiled = self._require(subscription_id)
        compiled.active = False
        self.database.table("subscriptions").update(
            Eq("id", subscription_id), {"active": False}
        )

    def resume(self, subscription_id: int) -> None:
        compiled = self._require(subscription_id)
        compiled.active = True
        self.database.table("subscriptions").update(
            Eq("id", subscription_id), {"active": True}
        )

    def _require(self, subscription_id: int) -> CompiledSubscription:
        compiled = self._subscriptions.get(subscription_id)
        if compiled is None:
            raise SubscriptionError(
                f"no subscription with id {subscription_id}"
            )
        return compiled

    # -- queries ------------------------------------------------------------------------

    def subscription_id(self, name: str) -> Optional[int]:
        return self._id_by_name.get(name)

    def subscription(self, subscription_id: int) -> CompiledSubscription:
        return self._require(subscription_id)

    def count(self) -> int:
        return len(self._subscriptions)

    def was_removed(self, subscription_id: int) -> bool:
        """True for an id this store issued that names no subscription
        any more (ids are never reused, so it never will again)."""
        return (
            0 < subscription_id < self._next_id
            and subscription_id not in self._subscriptions
        )

    def refresh_hints(self) -> Dict[str, float]:
        """url -> smallest requested refresh period across subscriptions."""
        hints: Dict[str, float] = {}
        for compiled in self._subscriptions.values():
            for url, period in compiled.refresh_hints.items():
                current = hints.get(url)
                if current is None or period < current:
                    hints[url] = period
        return hints

    # -- notification routing ----------------------------------------------------------

    def handle_notifications(self, batch: List[Notification]) -> None:
        """MQP sink: render and route one per-document notification batch."""
        reporter = self.compiler.reporter
        trigger_engine = self.compiler.trigger_engine
        # A batch covers one document; a query whose where clause has
        # several disjuncts may match through more than one complex event —
        # deliver it once.
        seen_bindings: Set[int] = set()
        for notification in batch:
            owner_id = self._code_owner.get(notification.complex_code)
            if owner_id is None:
                continue
            compiled = self._subscriptions.get(owner_id)
            if compiled is None or not compiled.active:
                continue
            binding = compiled.bindings.get(notification.complex_code)
            if binding is None:
                continue
            if id(binding) in seen_bindings:
                continue
            seen_bindings.add(id(binding))
            if reporter is not None:
                # Texts are immutable: every buffer shares one rendering.
                texts = binding.render(notification)
                for target_id in (owner_id, *self._virtual_targets(
                    binding.subscription_name, binding.query_name
                )):
                    target = self._subscriptions.get(target_id)
                    if target is None or not target.active:
                        continue
                    try:
                        reporter.deliver(target_id, binding.query_name, texts)
                    except ReportingError:
                        # A subscription without a report buffer (pure
                        # trigger wiring) drops its notifications.
                        pass
            if trigger_engine is not None:
                trigger_engine.notification_received(
                    binding.subscription_name, binding.query_name
                )

    def _virtual_targets(
        self, subscription_name: str, query_name: str
    ) -> Set[int]:
        targets: Set[int] = set()
        targets |= self._virtual_subscribers.get(
            (subscription_name, query_name), set()
        )
        targets |= self._virtual_subscribers.get(
            (subscription_name, None), set()
        )
        return targets

    # -- recovery -------------------------------------------------------------------------

    def recover(self) -> int:
        """Re-register every active persisted subscription (crash recovery).

        Call on a fresh manager whose database was recovered from its WAL;
        returns the number of subscriptions restored.  A row that no longer
        compiles is skipped and listed in :attr:`unrecovered`.
        """
        restored = 0
        rows = self.database.table("subscriptions").select(order_by="id")
        for row in rows:
            if row["id"] in self._subscriptions:
                continue
            subscription = parse_subscription(row["source"])
            recipients = tuple(
                r for r in (row["recipients"] or "").split(",") if r
            )
            try:
                compiled = self.compiler.compile(
                    row["id"],
                    subscription,
                    row["source"],
                    owner_email=row["owner_email"],
                    recipients=recipients,
                    privileged=bool(row["privileged"]),
                )
            except SubscriptionError as exc:
                # Stored before subscribe compiled templates: skip the row.
                self.unrecovered[row["id"]] = str(exc)
                continue
            compiled.active = bool(row["active"])
            self._install(compiled)
            restored += 1
        return restored
