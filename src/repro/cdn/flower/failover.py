"""The replication plane of one served directory slot (section 5.3).

:class:`DirectoryReplicator` is what a
:class:`~repro.cdn.flower.service.DirectoryService` carries while
``directory_replication_k > 0`` -- and only then, so a replication-off run never
constructs one and stays bit-identical to the non-replicated build.  It
is everything a slot does with the replicas of
:mod:`repro.cdn.flower.replication`:

- **ship them**: one sync tick per keepalive period (the paper couples
  directory maintenance to that cadence) sends each target a delta
  against the version it last acknowledged; every
  ``ANTI_ENTROPY_ROUNDS``-th tick ships full snapshots instead;
- **take over warm**: a cold replacement seeds itself from its own
  replica store first (the member heir winning the race pays zero round
  trips), then from the ring successors of the reclaimed position;
- **serve provisionally** when D-ring is unreachable (the minority side of
  a partition), re-announcing and retrying the ring join in the
  background;
- **resolve split brain**: claimants of one slot find each other through
  announces, replica fetches and sync replies; exactly one demotes, after
  the winner confirmed it merged the loser's state.

Determinism note: the tick process draws its initial delay and jitter
from the owning peer's private stream -- replication-enabled runs have
their own deterministic schedule.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cdn.base import SCAN_RETRY_DELAY_MS
from repro.cdn.flower.petal import DirInfo
from repro.cdn.flower.replication import (
    ANTI_ENTROPY_ROUNDS,
    delta_sync_payload,
    full_sync_payload,
    merge_sync_payload,
)
from repro.dht.node import ChordNode, NodeRef
from repro.sim.process import PeriodicProcess
from repro.types import Address


class DirectoryReplicator:
    """Replica shipping, warm takeover and conflict resolution of the
    slot *service* serves (see module docstring)."""

    def __init__(self, service) -> None:
        peer = service.peer
        self.service = service
        self.peer = peer
        self.role = service.role
        self.k = peer.system.params.directory_replication_k
        #: target address -> last version it acknowledged.
        self.acked: Dict[Address, int] = {}
        self.rounds = 0
        self.stats = {"syncs": 0, "fulls": 0, "deltas": 0, "rejected": 0}
        self._process: Optional[PeriodicProcess] = None
        # A slot_reconcile toward a conflict winner is in flight.
        self._reconciling = False
        self._last_announce_ms = float("-inf")

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the periodic sync tick (idempotent: a provisional role
        that later wins the ring keeps its running driver)."""
        if self._process is not None:
            return
        peer = self.peer
        period = peer.system.gossip_period_ms
        self._process = PeriodicProcess(
            peer.sim,
            period,
            self._sync_tick,
            initial_delay=peer.rng.uniform(0.25 * period, 0.75 * period),
            jitter=0.05,
            rng=peer.rng,
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.cancel()
            self._process = None

    def _serving(self) -> bool:
        """Callbacks of in-flight RPCs act only while we still serve."""
        return self.peer.alive and self.peer.service is self.service

    # --------------------------------------------------------------- targets
    def member_heir(self) -> Optional[Address]:
        """The deterministic in-petal replica target: the member with the
        smallest address.  It survives partitions that cut the petal's
        locality off from the rest of the D-ring."""
        addresses = self.role.members.addresses()
        return min(addresses) if addresses else None

    def _ring_targets(self, seen: Set[Address]) -> List[Address]:
        """Up to ``k`` distinct ring successors not in *seen*."""
        out: List[Address] = []
        chord = self.role.chord
        successors: Tuple = tuple(chord.successors) if chord is not None else ()
        for ref in successors:
            if len(out) >= self.k:
                break
            if ref.address in seen:
                continue
            seen.add(ref.address)
            out.append(ref.address)
        return out

    def targets(self) -> List[Address]:
        """Member heir + up to ``k`` distinct ring successors."""
        out: List[Address] = []
        seen: Set[Address] = {self.peer.address}
        heir = self.member_heir()
        if heir is not None:
            out.append(heir)
            seen.add(heir)
        return out + self._ring_targets(seen)

    # ------------------------------------------------------------------ sync
    def _sync_tick(self) -> None:
        if not self._serving():
            return
        self.rounds += 1
        force_full = self.rounds % ANTI_ENTROPY_ROUNDS == 0
        for target in self.targets():
            self.sync_target(target, force_full=force_full)

    def sync_target(self, target: Address, force_full: bool = False) -> None:
        """Send one sync (delta when possible) to *target*."""
        role = self.role
        peer = self.peer
        base = self.acked.get(target)
        if base is not None and not force_full and base == role.version:
            return  # nothing new since the last acknowledgement
        if base is None or force_full:
            payload = full_sync_payload(role, peer.address)
            self.stats["fulls"] += 1
        else:
            payload = delta_sync_payload(role, peer.address, base)
            self.stats["deltas"] += 1
        self.stats["syncs"] += 1
        params = peer.system.params
        if params.redirect_hints and params.directory_queue_limit > 0:
            # Queue-aware redirect hints: the periodic sync doubles as the
            # per-petal load-vector gossip -- replica holders, the member
            # heir and (via the ring successors) sibling instances all
            # learn this instance's current admission-queue depth.  Only
            # shipped when hints are on, so hint-free runs stay
            # byte-identical on this channel.
            payload["load_vector"] = role.load_vector(
                peer.sim.now, params.directory_service_ms
            )

        def on_reply(reply: Dict[str, Any], target=target) -> None:
            if peer.directory is not role:
                return
            status = reply.get("status")
            if status == "ok":
                self.acked[target] = reply["version"]
            elif status == "need_full":
                # Target lost (or never had) our base: next tick goes full.
                self.acked.pop(target, None)
            elif status == "conflict":
                # The target *is itself* a live directory of our slot --
                # split brain discovered through replication traffic.
                self.acked.pop(target, None)
                self.resolve_conflict(
                    reply["holder"], bool(reply.get("registered"))
                )
            else:  # "stale": the target holds a *newer* replica than our
                # state -- we are a version-behind origin (split-brain
                # loser racing its own demotion).  Stop acknowledging;
                # the slot-reconcile path owns the resolution.
                self.stats["rejected"] += 1
                self.acked.pop(target, None)
                peer.sim.emit(
                    "flower.replica_rejected",
                    origin=peer.address,
                    target=target,
                    position=role.position_id,
                    have=reply.get("have"),
                    version=role.version,
                )

        def on_timeout(target=target) -> None:
            self.acked.pop(target, None)

        peer.rpc(target, "flower.replica_sync", payload, on_reply, on_timeout)

    # ----------------------------------------------------------- warm takeover
    def warm_takeover(self) -> None:
        """Seed a cold replacement role from replicas: our own store first
        (the member heir winning the race pays zero round trips), then the
        ring successors of the freshly (re)claimed position."""
        self._merge_own_replica()
        for target in self._ring_targets({self.peer.address}):
            self._ask_for_replica(
                target,
                "flower.replica_fetch",
                {"position": self.role.position_id},
                "holder",
            )

    def _merge_own_replica(self) -> None:
        """Fold (and drop) the replica of this slot we hold ourselves."""
        peer = self.peer
        record = peer.replica_store.get(self.role.position_id)
        if record is not None:
            peer.replica_store.drop(self.role.position_id)
            self._merge(
                record.members,
                record.member_keys,
                record.version,
                origin=record.origin,
                staleness_ms=peer.sim.now - record.updated_at,
                source="local",
            )

    def _ask_for_replica(
        self, target: Address, kind: str, payload: Dict[str, Any], claimant_key: str
    ) -> None:
        """Send *kind* to *target*; its reply either names a conflicting
        claimant of our slot (under *claimant_key*) or may carry the
        replica it stores, which we merge."""

        def on_reply(reply: Dict[str, Any]) -> None:
            if not self._serving():
                return
            claimant = reply.get(claimant_key)
            if claimant is not None and claimant != self.peer.address:
                self.resolve_conflict(claimant, bool(reply.get("registered")))
                return
            summary = reply.get("replica")
            if summary is None:
                return
            snapshot = summary["snapshot"]
            if snapshot["version"] <= self.role.version:
                return  # we already hold state at least this fresh
            self._merge(
                {address: age for address, age in snapshot["members"]},
                {
                    address: [tuple(k) for k in keys]
                    for address, keys in snapshot["member_keys"].items()
                },
                snapshot["version"],
                origin=summary["origin"],
                staleness_ms=summary["staleness_ms"],
                source=target,
            )

        self.peer.rpc(target, kind, payload, on_reply, on_timeout=lambda: None)

    def _merge(
        self,
        members: Dict[Address, int],
        member_keys: Dict[Address, List],
        version: int,
        origin: Address,
        staleness_ms: float,
        source: Any,
    ) -> None:
        """Fold replica state into the role (per-entry age dominance)."""
        role = self.role
        adopted = role.merge_remote(members, member_keys, version)
        self.peer.sim.emit(
            "flower.replica_adopted",
            peer=self.peer.address,
            position=role.position_id,
            website=role.website,
            locality=role.locality,
            instance=role.instance,
            version=version,
            origin=origin,
            adopted=adopted,
            members=role.load,
            staleness_ms=staleness_ms,
            source=source,
        )

    # --------------------------------------------- provisional (partitioned)
    def serve_provisionally(self) -> None:
        """Our half of :meth:`DirectoryService.serve_provisionally`, once
        the role serves: seed it from our replica, announce it, and keep
        retrying the ring join in the background."""
        peer, role = self.peer, self.role
        self._merge_own_replica()
        peer.sim.emit(
            "flower.directory_provisional",
            peer=peer.address,
            position=role.position_id,
            website=role.website,
            locality=role.locality,
            instance=role.instance,
        )
        self.start()
        self.announce()
        self._schedule_retry()

    def _schedule_retry(self) -> None:
        self.peer.sim.schedule(4.0 * SCAN_RETRY_DELAY_MS, self._retry_join)

    def _retry_join(self) -> None:
        """Re-announce and retry D-ring integration of a provisional role."""
        peer, role = self.peer, self.role
        if not self._serving() or not role.provisional:
            return
        if self._reconciling:
            self._schedule_retry()
            return
        self.announce()
        node = ChordNode(peer, peer.system.ring, role.position_id)
        bootstrap = peer.system.ring.random_bootstrap(peer.rng)

        def on_joined() -> None:
            if not self._serving():
                node.shutdown()
                return
            role.chord = node
            role.provisional = False
            self.service.start()

        def on_failed(reason: str, holder: Optional[NodeRef]) -> None:
            node.shutdown()
            if not self._serving():
                return
            role.chord = None
            if holder is not None:
                # A registered holder exists: the ring is the arbiter
                # (section 5.2.2) -- merge our state into it and demote.
                self._reconcile_and_demote(holder.address)
            else:
                self._schedule_retry()

        if bootstrap is None:
            node.create()
            on_joined()
            return
        role.chord = node  # answer ring traffic while the join is in flight
        node.join(bootstrap, on_joined, on_failed)

    # -------------------------------------------------- announce / conflicts
    def announce(self, targets: Optional[List[Address]] = None) -> None:
        """Tell petal members (and view contacts) that we serve the slot.

        Short-circuits the hour-scale keepalive strike-out for members still
        pointing at the dead directory, and doubles as the discovery channel
        through which conflicting claimants (split brain) find each other
        and replica holders surface their copies.  Broadcast form is
        rate-limited to one fan-out per scan-retry delay.
        """
        peer, role = self.peer, self.role
        if targets is None:
            now = peer.sim.now
            if now - self._last_announce_ms < SCAN_RETRY_DELAY_MS:
                return
            self._last_announce_ms = now
            fanout = set(role.members.addresses()) | set(peer.view.addresses())
            fanout.discard(peer.address)
            targets = sorted(fanout)
        payload = {"position": role.position_id, "registered": role.registered}
        for target in targets:
            self._ask_for_replica(
                target, "flower.dir_announce", dict(payload), "conflict"
            )

    def resolve_conflict(self, other: Address, other_registered: bool) -> None:
        """Two live claimants of one slot (split brain): decide who demotes.

        Deterministic rule: a ring-registered holder beats a provisional
        claimant (the ring is the arbiter, section 5.2.2); between two
        provisionals the smaller address wins.  Exactly one side demotes;
        the non-demoting side (re-)announces so the loser hears of it.
        """
        if not self._serving() or other == self.peer.address:
            return
        mine_registered = self.role.registered
        if mine_registered and other_registered:
            return  # cannot happen: ChordRing.try_register arbitrates
        if other_registered or (not mine_registered and other < self.peer.address):
            self._reconcile_and_demote(other)
        else:
            self.announce(targets=[other])

    def _reconcile_and_demote(self, winner: Address) -> None:
        """Send the winner our full state; demote once it confirms the merge.

        Never demote toward a peer that turns out dead or no longer a
        directory -- better a transient duplicate than adopting a corpse.
        """
        if not self._serving() or self._reconciling:
            return
        self._reconciling = True
        role = self.role

        def settle(reply: Dict[str, Any]) -> None:
            self._reconciling = False
            if not self._serving():
                return
            if reply.get("status") == "merged":
                self._demote(winner)
            elif role.provisional:
                self._schedule_retry()

        self.peer.rpc(
            winner,
            "flower.slot_reconcile",
            full_sync_payload(role, self.peer.address),
            settle,
            on_timeout=lambda: settle({}),
        )

    def _demote(self, winner: Address) -> None:
        """Stop serving the slot; redirect our members (and ourselves) at
        the merge winner so they re-push and its index converges (I4)."""
        peer, role = self.peer, self.role
        for member in role.members.addresses():
            if member != winner:
                peer.send(
                    member,
                    "flower.dir_redirect",
                    position=role.position_id,
                    winner=winner,
                )
        self.service.stop()
        peer.sim.emit(
            "flower.directory_demoted",
            peer=peer.address,
            position=role.position_id,
            winner=winner,
        )
        if role.website == peer.website and role.locality == peer.locality:
            peer._follow_directory(DirInfo(role.position_id, winner))

    # -------------------------------------------------------------- handlers
    def absorb_sync(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The origin of a ``flower.replica_sync`` still believes it owns
        the slot we serve: absorb its entries (per-entry dominance) and
        surface the conflict so it starts the reconciliation."""
        merge_sync_payload(self.role, payload)
        return {
            "status": "conflict",
            "holder": self.peer.address,
            "registered": self.role.registered,
        }

    def handle_slot_reconcile(self, message) -> Dict[str, Any]:
        """A demoting claimant hands us its state: merge per-entry."""
        role = self.role
        adopted = merge_sync_payload(role, message.payload)
        self.peer.sim.emit(
            "flower.slot_merged",
            peer=self.peer.address,
            position=role.position_id,
            origin=message.src,
            adopted=adopted,
            version=role.version,
        )
        return {"status": "merged", "version": role.version, "adopted": adopted}
