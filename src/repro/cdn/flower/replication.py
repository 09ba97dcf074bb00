"""Directory replication and warm takeover (robustness extension).

The paper's replacement protocol (section 5.2) restarts a crashed
directory slot from an **empty** member view and index: the replacement
only re-learns its petal through keepalives and pushes, leaving a cold
window during which ``d(ws, loc)`` misses on content its petal actually
holds.  This module closes that window with the standard cure from the
replica-management literature: each directory peer asynchronously
replicates a **versioned snapshot** of its (member-view, directory-index)
state so the replacement race is won by -- or seeded from -- a warm
replica instead of an empty view.

Replication targets (``ReplicationParams.k`` + 1 of them):

- the directory's ``k`` **D-ring successors** -- thanks to the key
  management service these are the next directory instances/websites on
  the ring, i.e. exactly the peers a post-heal replacement can reach; and
- one **member heir** inside the petal (the member with the smallest
  address -- deterministic), so a replica survives *inside* a partition
  that cuts the petal's locality off from the rest of the ring.

Wire protocol (all kinds gated behind ``directory_replication_k > 0``; a run with
replication off sends none of these and stays bit-identical to the
non-replicated build):

``flower.replica_sync``
    Periodic (piggybacked on the keepalive/stabilization cadence) state
    transfer from a directory to one target.  Normally a **delta** against
    the version the target last acknowledged; every
    :data:`ANTI_ENTROPY_ROUNDS`-th round it is a **full snapshot**
    (anti-entropy: heals any divergence deltas cannot express).  The
    receiver stores it in its :class:`ReplicaStore` and acknowledges the
    new version; version-behind syncs are rejected (``"stale"``), deltas
    against an unknown base request a full snapshot (``"need_full"``).
``flower.replica_fetch``
    A freshly activated (empty) replacement directory pulls the
    highest-version replica of its position from its new ring successors;
    its own :class:`ReplicaStore` is consulted first (the member heir
    winning the race takes over with zero network round trips).

This module is the wire and storage side (payloads, :class:`ReplicaStore`,
held by every peer); the serving directory's side -- who syncs whom, warm
takeover, split-brain resolution -- is
:class:`~repro.cdn.flower.failover.DirectoryReplicator`.

Versioning: :class:`~repro.cdn.flower.directory.DirectoryRole` carries a
monotonically increasing ``version`` plus a change journal (member ->
version of last change, tombstones for removals).  The journal is pure
state -- maintaining it draws no randomness and emits no events, which is
what keeps replication-off runs on the determinism goldens.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.types import Address, ChordId, ObjectKey

#: Every Nth replica-sync round ships a full snapshot instead of a delta.
ANTI_ENTROPY_ROUNDS = 4


def full_sync_payload(role, origin: Address) -> Dict[str, Any]:
    """A complete, versioned copy of *role*'s replicated state."""
    ages = {c.address: c.age for c in role.members.contacts()}
    entries = [
        (address, age, sorted(role.member_keys.get(address, ())))
        for address, age in ages.items()
    ]
    return {
        "position": role.position_id,
        "website": role.website,
        "locality": role.locality,
        "instance": role.instance,
        "origin": origin,
        "version": role.version,
        "full": True,
        "entries": entries,
        "removed": [],
    }


def delta_sync_payload(role, origin: Address, base_version: int) -> Dict[str, Any]:
    """Changes of *role* since *base_version* (exclusive)."""
    ages = {c.address: c.age for c in role.members.contacts()}
    entries = [
        (address, ages.get(address, 0), sorted(role.member_keys.get(address, ())))
        for address in role.changed_since(base_version)
    ]
    return {
        "position": role.position_id,
        "website": role.website,
        "locality": role.locality,
        "instance": role.instance,
        "origin": origin,
        "version": role.version,
        "full": False,
        "base_version": base_version,
        "entries": entries,
        "removed": role.removed_since(base_version),
    }


def merge_sync_payload(role, payload: Dict[str, Any]) -> int:
    """Merge another claimant's sync *payload* into *role* (per-entry
    dominance, :meth:`DirectoryRole.merge_remote`); returns the number of
    entries adopted."""
    entries = payload.get("entries", ())
    return role.merge_remote(
        {address: age for address, age, _keys in entries},
        {address: keys for address, _age, keys in entries},
        payload["version"],
    )


class ReplicaRecord:
    """One stored replica: the versioned state of a remote directory slot."""

    __slots__ = (
        "position",
        "website",
        "locality",
        "instance",
        "origin",
        "version",
        "updated_at",
        "members",
        "member_keys",
    )

    def __init__(self, payload: Dict[str, Any], now: float) -> None:
        self.position: ChordId = payload["position"]
        self.website: int = payload["website"]
        self.locality: int = payload["locality"]
        self.instance: int = payload["instance"]
        self.origin: Address = payload["origin"]
        self.version: int = payload["version"]
        self.updated_at: float = now
        self.members: Dict[Address, int] = {}
        self.member_keys: Dict[Address, List[ObjectKey]] = {}
        self._apply_entries(payload)

    def _apply_entries(self, payload: Dict[str, Any]) -> None:
        for address, age, keys in payload.get("entries", ()):
            self.members[address] = age
            self.member_keys[address] = [tuple(k) for k in keys]
        for address in payload.get("removed", ()):
            self.members.pop(address, None)
            self.member_keys.pop(address, None)

    def apply(self, payload: Dict[str, Any], now: float) -> None:
        """Install a full snapshot or apply a delta on top of this record."""
        if payload.get("full"):
            self.members.clear()
            self.member_keys.clear()
        self.origin = payload["origin"]
        self.version = payload["version"]
        self.updated_at = now
        self._apply_entries(payload)

    def to_snapshot(self) -> Dict[str, Any]:
        """The :meth:`DirectoryRole.adopt_snapshot`-compatible form."""
        return {
            "version": self.version,
            "members": [(address, age) for address, age in self.members.items()],
            "member_keys": {
                address: list(keys) for address, keys in self.member_keys.items()
            },
        }

    def search_matches(self, space, keyword: str, max_results: int) -> List[Tuple]:
        """Answer a scoped keyword search from this replica's member index.

        Matching keys come from the replicated member keys via *space*;
        providers follow the live engine's rule (smallest holding
        address), in key order, at most *max_results* of them.
        """
        providers: Dict[ObjectKey, Address] = {}
        for address, held in self.member_keys.items():
            for key in held:
                if space.matches(key, keyword) and (
                    key not in providers or address < providers[key]
                ):
                    providers[key] = address
        return sorted(providers.items())[:max_results]

    def summary(self, now: float) -> Dict[str, Any]:
        """Wire form returned to a ``flower.replica_fetch``."""
        return {
            "version": self.version,
            "origin": self.origin,
            "updated_at": self.updated_at,
            "staleness_ms": now - self.updated_at,
            "snapshot": self.to_snapshot(),
        }


class ReplicaStore:
    """Per-peer storage of replicas received via ``flower.replica_sync``."""

    def __init__(self) -> None:
        self._records: Dict[ChordId, ReplicaRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[ReplicaRecord]:
        return list(self._records.values())

    def get(self, position: ChordId) -> Optional[ReplicaRecord]:
        return self._records.get(position)

    def drop(self, position: ChordId) -> None:
        self._records.pop(position, None)

    def clear(self) -> None:
        self._records.clear()

    def accept(self, payload: Dict[str, Any], now: float) -> Dict[str, Any]:
        """Apply one sync message; return the acknowledgement payload.

        Acceptance rules (the versioning contract of section 5.3):

        - a **full** snapshot replaces the record unless it is *version
          behind* what we already hold -- a stale origin (e.g. a demoted
          split-brain loser) is told so and must not be acknowledged;
        - a **delta** applies only on top of exactly ``base_version``;
          anything else (no record, a gap, a version regression) requests
          a full snapshot instead of guessing.
        """
        position = payload["position"]
        record = self._records.get(position)
        if payload.get("full"):
            if record is not None and payload["version"] < record.version:
                return {"status": "stale", "have": record.version}
            if record is None:
                self._records[position] = ReplicaRecord(payload, now)
                record = self._records[position]
                record.version = payload["version"]
            else:
                record.apply(payload, now)
            return {"status": "ok", "version": record.version}
        if record is None or record.version != payload.get("base_version"):
            return {
                "status": "need_full",
                "have": record.version if record is not None else -1,
            }
        if payload["version"] < record.version:
            return {"status": "stale", "have": record.version}
        record.apply(payload, now)
        return {"status": "ok", "version": record.version}
