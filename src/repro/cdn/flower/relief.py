"""Load relief of one served directory slot: split, shed, spill.

"The load at a directory peer is evaluated in terms of the number of
content peers in its view and is compared against a predefined limit"
(section 4).  :class:`LoadRelief` is what a
:class:`~repro.cdn.flower.service.DirectoryService` does about it:

- the **PetalUp split** -- ask a content peer to become instance
  ``d(ws, loc, i+1)`` (replica-aware under ``overload_shedding``: the new
  instance starts with half the members);
- **member shedding** -- a sustained-overloaded instance hands its excess
  members to the already-running successor instance in one transfer;
- **content rebalancing** -- under admission-queue pressure, spill the
  hottest keys to the coldest members.

The last two are overload extensions and run from the periodic sweep only
when their parameter is on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cdn.base import SCAN_RETRY_DELAY_MS
from repro.cdn.flower.replication import full_sync_payload
from repro.metrics.loadbalance import top_gini_contributors
from repro.net.message import Message
from repro.types import Address, ObjectKey


class LoadRelief:
    """Split / shed / spill decisions of the slot *service* serves."""

    def __init__(self, service) -> None:
        self.service = service
        self.peer = service.peer
        self.role = service.role
        self.sim = service.sim
        self.system = service.system
        # A member transfer to the successor instance is in flight.
        self._shedding_members = False

    def sweep(self) -> None:
        """The overload half of the periodic sweep."""
        params = self.system.params
        if params.overload_shedding and self.role.overloaded(
            params.directory_load_limit
        ):
            self._shed_members_to_successor()
        if params.rebalance:
            self._maybe_rebalance()

    def next_instance_address(self) -> Optional[Address]:
        """Address of d(ws, loc, instance+1), if it exists.

        Successive identifiers make the next instance our ring successor,
        so no lookup is needed -- the point of the key management service.
        """
        d = self.role
        if d.instance + 1 >= self.system.params.max_instances:
            return None
        chord = d.chord
        if chord is not None and chord.successor is not None:
            if chord.successor.id == self._next_position():
                return chord.successor.address
        return None

    def _next_position(self) -> int:
        d = self.role
        return self.system.key_service.position_id(
            d.website, d.locality, d.instance + 1
        )

    def _shed_members_to_successor(self) -> None:
        """Replica-aware overload relief (PetalUp extension).

        A sustained-overloaded instance does not wait for new clients to
        trickle down the section-4 instance scan: it hands its excess
        members (those above ``directory_load_limit``, highest addresses
        first -- deterministic) straight to the already-running successor
        instance in one transfer, then re-points each shed member at it.
        Members only hear about the move after the successor confirmed
        adoption, so there is no window where nobody indexes them.  With
        no successor yet, fall back to triggering the split itself.
        """
        if self._shedding_members:
            return
        successor = self.next_instance_address()
        if successor is None:
            self.maybe_promote_next()
            return
        d = self.role
        peer = self.peer
        count = d.load - self.system.params.directory_load_limit
        if count <= 0:
            return
        shed = sorted(c.address for c in d.members.contacts())[-count:]
        entries = [
            (address, sorted(d.member_keys.get(address, ()))) for address in shed
        ]
        next_position = self._next_position()
        self._shedding_members = True

        def on_reply(payload: Dict[str, Any]) -> None:
            self._shedding_members = False
            if not payload.get("ok") or peer.directory is not d:
                return
            for address in shed:
                d.remove_member(address)
                peer.send(
                    address,
                    "flower.member_shed",
                    position=next_position,
                    address=successor,
                )
            d.members_shed += len(shed)
            self.system.members_shed += len(shed)
            self.sim.emit(
                "flower.members_shed",
                directory=peer.address,
                successor=successor,
                count=len(shed),
            )

        def on_timeout() -> None:
            self._shedding_members = False

        peer.rpc(
            successor,
            "flower.member_transfer",
            {"position": next_position, "entries": entries},
            on_reply,
            on_timeout,
        )

    def maybe_promote_next(self) -> None:
        """PetalUp split: ask one of our content peers to become d_{i+1}.

        Under ``overload_shedding`` the split is *replica-aware*: instead
        of standing up an empty instance that new clients discover one
        section-4 scan at a time, the promotion payload carries a member
        **partition** (every second member, in address order) in the warm
        snapshot format of section 5.3.  The new instance adopts it before
        joining the ring and, once active, tells each partition member to
        re-point at it -- so both instances start half-loaded and no
        member ever scans.
        """
        d = self.role
        peer = self.peer
        params = self.system.params
        if d.promoting or d.instance + 1 >= params.max_instances:
            return
        candidates = d.member_sample(peer.rng, 1)
        if not candidates:
            return
        target = candidates[0]
        d.promoting = True
        partition: List[Address] = []
        if params.overload_shedding:
            partition = sorted(
                c.address for c in d.members.contacts() if c.address != target
            )[1::2]

        def allow_next_attempt() -> None:
            d.promoting = False

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("accepted"):
                # "The replacing content peer is then removed from the
                # directory-index of d_i" (section 4).
                d.remove_member(target)
                for member in partition:
                    # Optimistic: the new instance notifies the members
                    # once active; until then their keepalives simply
                    # re-add them here (self-healing either way).
                    d.remove_member(member)
                d.members_shed += len(partition)
                self.system.members_shed += len(partition)
            # Allow another attempt later either way; if the promotion
            # succeeded our successor pointer will show it.
            self.sim.schedule(SCAN_RETRY_DELAY_MS, allow_next_attempt)

        def on_timeout() -> None:
            d.promoting = False
            d.remove_member(target)

        payload: Dict[str, Any] = {
            "website": d.website,
            "locality": d.locality,
            "instance": d.instance + 1,
            "position": self._next_position(),
        }
        if self.service.replicator is not None:
            # Seed the new instance with a warm copy of our own index so a
            # split starts with full knowledge of the petal (section 5.3).
            payload["replica"] = full_sync_payload(d, peer.address)
        if partition:
            ages = {c.address: c.age for c in d.members.contacts()}
            payload["partition"] = {
                "members": [(member, ages.get(member, 0)) for member in partition],
                "member_keys": {
                    member: sorted(d.member_keys.get(member, ()))
                    for member in partition
                    if d.member_keys.get(member)
                },
            }
        peer.rpc(target, "flower.promote", payload, on_reply, on_timeout)

    # -------------------------------------- shedding-aware content rebalance
    def _maybe_rebalance(self) -> None:
        """Spill the hottest keys to under-loaded members (one sweep round).

        Reactive companion to the admission queue: shedding tells us the
        petal is over capacity, the per-key fetch counters tell us *which*
        content concentrates that load (the top Gini contributors), so we
        ask cold members to adopt copies of exactly those keys.  More
        holders per hot key spreads subsequent directory picks and summary
        hits, lowering the content-fetch Gini without moving members.
        Churn is bounded by a per-round key cap, a byte budget, and a
        cooldown of quiet sweep rounds after any spill.
        """
        d = self.role
        params = self.system.params
        if d.rebalance_cooldown > 0:
            d.rebalance_cooldown -= 1
            return
        shed_since = d.queries_shed - d.rebalance_shed_mark
        d.rebalance_shed_mark = d.queries_shed
        pressured = shed_since > 0
        if not pressured and params.directory_queue_limit > 0:
            pressured = (
                d.queue_depth(self.sim.now, params.directory_service_ms) > 0
            )
        if not pressured:
            # Quiet round: restart the window so counts track *current*
            # heat, not the whole run.
            d.fetch_counts.clear()
            return
        hot = top_gini_contributors(d.fetch_counts, params.rebalance_max_keys)
        sizes = self.system.sizes
        budget_kb = params.rebalance_budget_kb
        spilled = 0
        round_load: Dict[Address, int] = {}
        for key in hot:
            holders = d.providers_of(key)
            if not holders:
                continue
            cost_kb = (
                sizes.size_bytes(key) / 1024.0
                if sizes is not None
                else params.object_mean_kb
            )
            if cost_kb > budget_kb:
                continue
            target = self._rebalance_target(key, round_load)
            if target is None:
                continue
            budget_kb -= cost_kb
            spilled += 1
            round_load[target] = round_load.get(target, 0) + 1
            d.keys_rebalanced += 1
            self.system.rebalance_kb += cost_kb
            # The index lags pushes, so any single holder may have evicted
            # the key since it registered; hand the adopter a few candidate
            # sources to try in turn instead of betting on one.
            sources = sorted(holders)[:3]
            self.peer.send(target, "flower.rebalance", key=key, sources=sources)
            self.sim.emit(
                "flower.key_rebalanced",
                directory=self.peer.address,
                key=key,
                target=target,
                source=sources[0],
                count=d.fetch_counts.get(key, 0),
            )
        d.fetch_counts.clear()
        if spilled:
            d.rebalance_cooldown = params.rebalance_cooldown_rounds

    def _rebalance_target(
        self, key: ObjectKey, round_load: Dict[Address, int]
    ) -> Optional[Address]:
        """The coldest member not yet holding *key* (fewest indexed keys,
        ties broken by address -- deterministic).  *round_load* counts keys
        already assigned this pass so one pass fans out across several cold
        members instead of dog-piling the single coldest one."""
        d = self.role
        holders = set(d.providers_of(key))
        candidates = [
            address
            for address in d.members.addresses()
            if address != self.peer.address and address not in holders
        ]
        if not candidates:
            return None
        candidates.sort(
            key=lambda a: (len(d.member_keys.get(a, ())) + round_load.get(a, 0), a)
        )
        return candidates[0]

    def handle_member_transfer(self, message: Message) -> Dict[str, Any]:
        """Adopt members an overloaded predecessor instance shed to us."""
        payload = message.payload
        if self.role.position_id != payload["position"]:
            return {"ok": False}
        for address, keys in payload["entries"]:
            if address != self.peer.address:
                self.role.add_member(address, [tuple(key) for key in keys])
        return {"ok": True}
