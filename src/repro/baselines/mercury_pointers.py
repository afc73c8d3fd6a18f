"""Mercury's record/pointer optimisation (Section IV, disabled there).

The paper notes: "In Mercury, for higher efficiency of resource query, a
node within one of the hubs can hold the data record while the other hubs
can hold a pointer to the node.  This strategy can also be applied to other
methods.  To make the different methods be comparable, we don't consider
this strategy in the comparative study."

This module implements the strategy so its trade-off can be measured (see
``benchmarks/test_ablation_pointers.py``): a provider's full record — its
values for *all* attributes — is stored once, in the **home hub** (the
record's first attribute); every other hub stores only a lightweight
pointer.  Queries landing on a pointer chase one extra overlay lookup to
the home record, exchanging lookup hops for an m-fold reduction in stored
record copies.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.baselines.mercury import MercuryService
from repro.core.resource import Query, QueryResult, ResourceInfo
from repro.overlay.node import WalkResult
from repro.utils.validation import require

__all__ = ["PointerMercuryService", "RecordEnvelope", "RecordPointer"]


@dataclass(frozen=True)
class RecordEnvelope:
    """A provider's full record, stored once in its home hub."""

    provider: str
    infos: tuple[ResourceInfo, ...]

    def value_of(self, attribute: str) -> float | None:
        for info in self.infos:
            if info.attribute == attribute:
                return info.value
        return None


@dataclass(frozen=True)
class RecordPointer:
    """A pointer stored in non-home hubs: where the full record lives."""

    provider: str
    #: The indexing value in *this* hub (so range filtering works locally).
    local_value: float
    home_attribute: str
    home_key: int


class PointerMercuryService(MercuryService):
    """Mercury with the record/pointer strategy enabled.

    Providers register whole records via :meth:`register_record`; the
    single-info :meth:`register` degenerates to a one-attribute record so
    the uniform interface keeps working.
    """

    name: ClassVar[str] = "Mercury+ptr"

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_record(
        self, infos: Sequence[ResourceInfo], *, routed: bool = True
    ) -> int:
        """Store the full record in the home hub, pointers elsewhere."""
        require(len(infos) >= 1, "a record needs at least one attribute")
        provider = infos[0].provider
        require(
            all(i.provider == provider for i in infos),
            "all infos of a record must share one provider",
        )
        home = infos[0]
        home_key = self.value_hash(home.attribute)(home.value)
        envelope = RecordEnvelope(provider=provider, infos=tuple(infos))

        hops = 0
        if routed:
            result = self.ring.routed_store(
                self.random_node(), self._hub(home.attribute), home_key, envelope
            )
            hops += result.hops
        else:
            self.ring.store(self._hub(home.attribute), home_key, envelope)

        for info in infos[1:]:
            key = self.value_hash(info.attribute)(info.value)
            pointer = RecordPointer(
                provider=provider,
                local_value=info.value,
                home_attribute=home.attribute,
                home_key=home_key,
            )
            if routed:
                result = self.ring.routed_store(
                    self.random_node(), self._hub(info.attribute), key, pointer
                )
                hops += result.hops
            else:
                self.ring.store(self._hub(info.attribute), key, pointer)
        if routed:
            self.metrics.record("register.hops", hops)
        return hops

    def _register_impl(self, info: ResourceInfo, *, routed: bool = True) -> int:
        """Single-attribute registration = a one-attribute record."""
        return self.register_record([info], routed=routed)

    def register_all(self, infos) -> None:
        """One unrouted record per info: what is stored is an envelope,
        not the info under its placements, so there is no bulk stream to
        hand the overlay."""
        for info in infos:
            self.register(info, routed=False)

    def deregister_record(self, infos: Sequence[ResourceInfo]) -> int:
        """Withdraw a record: the home envelope plus every pointer."""
        require(len(infos) >= 1, "a record needs at least one attribute")
        home = infos[0]
        home_key = self.value_hash(home.attribute)(home.value)
        envelope = RecordEnvelope(provider=home.provider, infos=tuple(infos))
        removed = self.ring.discard(self._hub(home.attribute), home_key, envelope)
        for info in infos[1:]:
            key = self.value_hash(info.attribute)(info.value)
            pointer = RecordPointer(
                provider=info.provider,
                local_value=info.value,
                home_attribute=home.attribute,
                home_key=home_key,
            )
            removed += self.ring.discard(self._hub(info.attribute), key, pointer)
        return removed

    def deregister(self, info: ResourceInfo) -> int:
        """Withdraw a one-attribute record."""
        return self.deregister_record([info])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query_impl(self, q: Query, start: Any | None = None) -> QueryResult:
        """Mercury query with pointer chasing — the one override of the
        plan engine.

        Hub items may be full records (match locally) or pointers (filter
        on the pointer's local value, then chase one lookup to the home
        record).  A plan cannot say that: the chased lookups are a
        data-dependent number of extra routes whose hops count — the cost
        side of the optimisation — but whose targets are not visited
        nodes, and a failed chase flags the result incomplete without
        ending the sub-query.
        """
        start = self._resolve_start(start)
        constraint = q.constraint
        namespace = self._hub(q.attribute)
        stats = self.load_stats
        key, arc = self._value_target(q)
        lookup = self.ring.lookup(start, key)
        if not lookup.complete:
            return self._result(
                (), lookup.hops, 0, False, lookup.retries, lookup.timed_out
            )
        walk = (
            WalkResult([lookup.owner])
            if arc is None
            else self.ring.walk_arc(lookup.owner, *arc)
        )
        if stats is not None:
            stats.record_serves((node.uid for node in walk), q.attribute)
            stats.record_route_path(lookup.path)

        matches: list[ResourceInfo] = []
        hops = lookup.hops + (len(walk) - 1)
        retries = lookup.retries + walk.retries
        complete = not walk.truncated
        for node in walk:
            items = (
                node.items_at(namespace, key) if arc is None
                else node.items_in(namespace)
            )
            for item in items:
                if isinstance(item, RecordEnvelope):
                    value = item.value_of(q.attribute)
                    if value is not None and constraint.matches(value):
                        matches.append(ResourceInfo(q.attribute, value, item.provider))
                elif isinstance(item, RecordPointer):
                    if not constraint.matches(item.local_value):
                        continue
                    chased = self.ring.lookup(start, item.home_key)
                    hops += chased.hops
                    retries += chased.retries
                    if not chased.complete:
                        # The pointed-at record is unreachable: this match
                        # is silently missing unless flagged.
                        complete = False
                        continue
                    if stats is not None:
                        stats.record_serves((chased.owner.uid,), q.attribute)
                        stats.record_route_path(chased.path)
                    for envelope in chased.owner.items_at(
                        self._hub(item.home_attribute), item.home_key
                    ):
                        if (
                            isinstance(envelope, RecordEnvelope)
                            and envelope.provider == item.provider
                        ):
                            matches.append(
                                ResourceInfo(q.attribute, item.local_value, item.provider)
                            )
                            break

        self.ring.network.count_hop(len(walk) - 1)
        return self._result(
            tuple(matches), hops, len(walk), complete, retries, walk.timed_out
        )

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def stored_record_copies(self) -> int:
        """Full record envelopes stored system-wide (1 per provider here,
        versus m value-indexed copies in plain Mercury)."""
        return sum(
            1
            for node in self.ring.nodes()
            for _, _, item in node.stored_entries()
            if isinstance(item, RecordEnvelope)
        )

    def stored_pointers(self) -> int:
        """Lightweight pointers stored system-wide."""
        return sum(
            1
            for node in self.ring.nodes()
            for _, _, item in node.stored_entries()
            if isinstance(item, RecordPointer)
        )
