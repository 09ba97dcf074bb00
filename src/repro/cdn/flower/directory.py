"""The directory role of a Flower-CDN peer.

A directory peer d(ws, loc) "knows about all content peers c(ws, loc) and
indexes their stored content in a directory-index" (section 3.2).  This
module owns that state:

- the **member view**: which content peers this instance manages, with ages
  refreshed by keepalive / push / query traffic and expired by the periodic
  sweep of section 5.1 ("discover and remove expired pointers");
- the **directory-index**: object key -> set of member addresses believed
  to hold a copy, rebuilt incrementally from push messages;
- **load accounting** for PetalUp-CDN: "the load at a directory peer is
  evaluated in terms of the number of content peers in its view and is
  compared against a predefined limit" (section 4).

The network behaviour (answering queries, reacting to pushes, splitting,
failing over) lives on :class:`~repro.cdn.flower.service.DirectoryService`,
which a :class:`~repro.cdn.flower.peer.FlowerPeer` holds next to one of
these roles while it serves as a directory.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dht.node import ChordNode
from repro.gossip.view import Contact, PartialView
from repro.types import Address, ChordId, LocalityId, ObjectKey, WebsiteId


class DirectoryRole:
    """Directory-index + member view of one directory instance.

    Args:
        owner_address: the hosting peer's network address.
        website / locality / instance: the petal slot this instance serves.
        position_id: the D-ring identifier of this slot.
    """

    def __init__(
        self,
        owner_address: Address,
        website: WebsiteId,
        locality: LocalityId,
        instance: int,
        position_id: ChordId,
    ) -> None:
        self.owner_address = owner_address
        self.website = website
        self.locality = locality
        self.instance = instance
        self.position_id = position_id
        self.chord: Optional[ChordNode] = None  # attached by the peer
        self.members = PartialView(owner=owner_address)
        self.member_keys: Dict[Address, Set[ObjectKey]] = {}
        self.index: Dict[ObjectKey, Set[Address]] = {}
        self.queries_handled = 0
        self.promoting = False  # a PetalUp split is in flight
        #: Bounded admission queue (overload extension).  A *virtual*
        #: queue: ``busy_until`` is the simulated time the last admitted
        #: request finishes service, so backlog and depth derive from it
        #: without per-request state.  Pure bookkeeping -- only read when
        #: ``directory_queue_limit > 0``; it never draws randomness or
        #: emits events on its own.
        self.busy_until = 0.0
        self.queries_shed = 0
        #: Foreign (collaboration-scan) requests shed at the lower
        #: two-class bound -- a subset of ``queries_shed``.
        self.foreign_shed = 0
        self.peak_queue_depth = 0
        #: Members handed off to the warm successor instance under
        #: sustained overload (replica-aware shedding, PetalUp extension).
        self.members_shed = 0
        #: Queue-aware redirect hints (overload extension).  Depths of
        #: sibling instances of this petal, gossiped to us over the
        #: replica-sync channel: ``address -> (depth, as_of_ms)``.  Pure
        #: state, only populated when ``redirect_hints`` is on.
        self.peer_loads: Dict[Address, Tuple[int, float]] = {}
        #: Shedding-aware content rebalancing (overload extension).
        #: Windowed per-key fetch counts over provider lookups; reset at
        #: every spill pass.  Pure state, only populated under
        #: ``rebalance``.
        self.fetch_counts: Dict[ObjectKey, int] = {}
        #: Sweep rounds left before the next spill pass may run.
        self.rebalance_cooldown = 0
        #: ``queries_shed`` watermark of the last spill decision -- spills
        #: only trigger while overload pressure is actually visible.
        self.rebalance_shed_mark = 0
        #: Keys this instance spilled to under-loaded members (total).
        self.keys_rebalanced = 0
        #: Monotonic state version + change journal (replication, section
        #: 5.3).  Pure state: maintaining these draws no randomness and
        #: emits no events, so replication-off runs stay bit-identical.
        self.version = 0
        self.changed: Dict[Address, int] = {}
        self.removed: Dict[Address, int] = {}
        #: True while the owner serves the slot without having won the
        #: ring position (partition-side takeover awaiting reconciliation).
        self.provisional = False

    # ------------------------------------------------------------------ load
    @property
    def load(self) -> int:
        """Number of content peers in the member view (PetalUp's metric)."""
        return len(self.members)

    def overloaded(self, limit: Optional[int]) -> bool:
        return limit is not None and self.load >= limit

    @property
    def registered(self) -> bool:
        """Holds the slot's D-ring position rather than a provisional
        (partition-side) claim on it."""
        return self.chord is not None and not self.provisional

    # ------------------------------------------------------------- admission
    def queue_depth(self, now: float, service_ms: float) -> int:
        """Requests currently waiting or in service in the virtual queue."""
        backlog_ms = self.busy_until - now
        if backlog_ms <= 0.0:
            return 0
        return int(math.ceil(backlog_ms / service_ms))

    @staticmethod
    def foreign_limit(limit: int) -> int:
        """Admission bound for foreign (section 3.2 collaboration) scans.

        Two-class queue, shed-foreign-first: petal members may fill the
        whole queue, foreign sibling scans only up to this lower bound,
        so under pressure the last quarter of the queue (at least one
        slot) is reserved for the petal's own members.  Always >= 1: an
        idle directory never starves foreign scans.
        """
        return max(1, limit - max(1, limit // 4))

    def admit(self, now: float, service_ms: float, limit: int, foreign: bool = False):
        """Try to admit one request into the bounded queue.

        Returns ``(admitted, queue_wait_ms, depth)``: on admission the
        virtual backlog is extended by one service time and the caller
        owes its client a ``queue_wait_ms`` delay before the reply takes
        effect; on rejection (depth at the limit) nothing changes and the
        request must be shed with an explicit outcome.

        ``foreign`` requests (another directory's miss scanning us) are
        the lower class: they shed at :meth:`foreign_limit` so queue
        pressure from collaboration scans can never crowd out this
        petal's own members.
        """
        depth = self.queue_depth(now, service_ms)
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        bound = self.foreign_limit(limit) if foreign else limit
        if depth >= bound:
            self.queries_shed += 1
            if foreign:
                self.foreign_shed += 1
            return False, 0.0, depth
        wait_ms = max(0.0, self.busy_until - now)
        self.busy_until = max(now, self.busy_until) + service_ms
        return True, wait_ms, depth

    # -------------------------------------------------------- redirect hints
    def note_peer_load(self, address: Address, depth: int, as_of: float) -> None:
        """Record a sibling instance's gossiped queue depth (freshest wins)."""
        current = self.peer_loads.get(address)
        if current is None or as_of >= current[1]:
            self.peer_loads[address] = (depth, as_of)

    def load_vector(self, now: float, service_ms: float) -> List[tuple]:
        """Own depth plus known sibling depths as ``(address, depth,
        age_ms)`` rows, deterministic order -- the wire form of the
        queue-aware redirect hint."""
        rows = [(self.owner_address, self.queue_depth(now, service_ms), 0.0)]
        for address in sorted(self.peer_loads):
            if address == self.owner_address:
                continue
            depth, as_of = self.peer_loads[address]
            rows.append((address, depth, now - as_of))
        return rows

    # ------------------------------------------------------ content rebalance
    def note_fetch(self, key: ObjectKey) -> None:
        """Count one provider lookup toward the hot-key window."""
        self.fetch_counts[key] = self.fetch_counts.get(key, 0) + 1

    # ------------------------------------------------------------ versioning
    def _mark_changed(self, address: Address) -> None:
        self.version += 1
        self.changed[address] = self.version
        self.removed.pop(address, None)

    def _mark_removed(self, address: Address) -> None:
        self.version += 1
        self.changed.pop(address, None)
        self.removed[address] = self.version

    def changed_since(self, base_version: int) -> List[Address]:
        """Members whose view/index entry changed after *base_version*."""
        return sorted(
            address
            for address, version in self.changed.items()
            if version > base_version
        )

    def removed_since(self, base_version: int) -> List[Address]:
        """Members evicted (tombstoned) after *base_version*."""
        return sorted(
            address
            for address, version in self.removed.items()
            if version > base_version
        )

    # -------------------------------------------------------------- members
    def add_member(self, address: Address, keys: Iterable[ObjectKey] = ()) -> None:
        """Register a content peer (fresh age) and index its keys."""
        if address == self.owner_address:
            return
        self.members.add(Contact(address, age=0))
        self.members.refresh(address)
        self._mark_changed(address)
        self.update_member_keys(address, keys)

    def has_member(self, address: Address) -> bool:
        return address in self.members

    def touch_member(self, address: Address) -> None:
        """Reset a member's age (keepalive / push / query contact)."""
        self.members.refresh(address)

    def remove_member(self, address: Address) -> None:
        """Evict a member and every index pointer to it."""
        if address in self.members or address in self.member_keys:
            self._mark_removed(address)
        self.members.remove(address)
        old = self.member_keys.pop(address, None)
        if old:
            for key in old:
                holders = self.index.get(key)
                if holders is not None:
                    holders.discard(address)
                    if not holders:
                        del self.index[key]

    def update_member_keys(self, address: Address, keys: Iterable[ObjectKey]) -> None:
        """Apply a push: replace the member's key set in the index."""
        new = {tuple(key) for key in keys}
        old = self.member_keys.get(address, set())
        if new != old:
            self._mark_changed(address)
        for key in old - new:
            holders = self.index.get(key)
            if holders is not None:
                holders.discard(address)
                if not holders:
                    del self.index[key]
        for key in new - old:
            holders = self.index.get(key)
            if holders is None:
                self.index[key] = {address}
            else:
                holders.add(address)
        if new:
            self.member_keys[address] = new
        elif address in self.member_keys:
            del self.member_keys[address]

    def expire_members(self, max_age: int) -> List[Address]:
        """Sweep: evict members whose age exceeds *max_age*; return them.

        Ages advance by one per sweep; contact of any kind resets them.
        """
        self.members.increase_ages()
        expired = [c.address for c in self.members.contacts() if c.age > max_age]
        for address in expired:
            self.remove_member(address)
        return expired

    # ----------------------------------------------------------------- index
    def providers_of(self, key: ObjectKey) -> Set[Address]:
        return self.index.get(key, set())

    def pick_provider(
        self,
        key: ObjectKey,
        rng: random.Random,
        exclude: Optional[Set[Address]] = None,
    ) -> Optional[Address]:
        """A uniformly random indexed holder of *key* (load balancing)."""
        candidates = [
            address
            for address in self.index.get(key, ())
            if exclude is None or address not in exclude
        ]
        if not candidates:
            return None
        return rng.choice(candidates)

    def member_sample(self, rng: random.Random, count: int) -> List[Address]:
        """Random member addresses handed to joining clients as their
        initial petal view."""
        return [c.address for c in self.members.sample(rng, count)]

    def adopt_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Install an inherited index + view (a promotion's partition)."""
        for address, age in snapshot.get("members", []):
            if address != self.owner_address:
                self.members.add(Contact(address, age))
                self._mark_changed(address)
        for address, keys in snapshot.get("member_keys", {}).items():
            if address != self.owner_address:
                self.update_member_keys(address, [tuple(k) for k in keys])

    def merge_remote(
        self,
        members: Dict[Address, int],
        member_keys: Dict[Address, Iterable[ObjectKey]],
        remote_version: int,
    ) -> int:
        """Merge another claimant's state (split-brain heal, section 5.3).

        Per-entry dominance: a member unknown to us is adopted outright; a
        member both sides know is adopted from the remote side only when
        its remote age is *smaller* (fresher contact) or ages tie and the
        remote carries the higher state version.  Returns the number of
        entries adopted.  Afterwards our version jumps past both sides so
        replicas downstream observe a strictly newer state.
        """
        adopted = 0
        for address, age in members.items():
            if address == self.owner_address:
                continue
            mine = self.members.get(address)
            if mine is not None and not (
                age < mine.age or (age == mine.age and remote_version > self.version)
            ):
                continue
            self.members.add(Contact(address, age))
            self._mark_changed(address)
            keys = member_keys.get(address, ())
            if keys:
                self.update_member_keys(address, [tuple(k) for k in keys])
            adopted += 1
        if remote_version >= self.version:
            # Jump strictly past the remote claimant: replicas downstream
            # must be able to tell the merged state from either input.
            self.version = remote_version + 1
        return adopted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirectoryRole(ws={self.website}, loc={self.locality}, "
            f"i={self.instance}, members={self.load}, "
            f"index={len(self.index)} keys)"
        )
