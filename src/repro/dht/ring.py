"""Ring-wide Chord configuration, bootstrap service, and warm start.

:class:`ChordRing` is the per-overlay singleton that nodes share.  It plays
three roles:

1. **Parameters** -- identifier space and protocol knobs (:class:`RingParams`).
2. **Bootstrap service** -- a registry of currently joined members, standing
   in for the out-of-band mechanism every deployed DHT relies on (well-known
   hosts, a website handing out member addresses, ...).  Only *bootstrap
   discovery* uses it; routing always goes through the Chord protocol.
3. **Warm start** -- building a fully stabilized ring instantly.  The paper's
   experiments begin from a formed D-ring of 600 directory peers
   (section 6.1); simulating 600 sequential joins would only add noise.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.errors import DHTError
from repro.dht.idspace import IdSpace
from repro.sim.clock import seconds
from repro.types import Address, ChordId


@dataclass(frozen=True)
class RingParams:
    """Protocol knobs shared by every node of one Chord overlay.

    Attributes:
        bits: identifier-space width m (ring size 2**m).
        successor_list_size: r successors kept for failure resilience;
            the ring survives any r-1 simultaneous adjacent failures.
        maintenance_period_ms: period of the combined stabilization tick
            (stabilize + notify + one finger repair + predecessor check).
        rpc_timeout_ms: failure-detection timeout for Chord RPCs; must
            exceed the worst round trip.
        recursive_timeout_ms: end-to-end retry timeout of one routing
            attempt.  Lookups are recursive -- the query is forwarded hop
            by hop, one one-way link latency per hop, as PeerSim-style
            Chord simulations route -- and every hop is acknowledged, a
            silent one rerouted around (``forward_route``); only a route
            that runs out of handoffs, or whose result message is lost,
            makes the origin retry after this long.
        recursive_retries: recursive routing attempts before giving up.
    """

    # Only the DHT tests set the three marked fields, to provoke failure
    # paths: short successor lists, fast or few routing retries.
    bits: int = 32
    successor_list_size: int = 8  # test seam
    maintenance_period_ms: float = seconds(30)
    rpc_timeout_ms: float = 1200.0
    recursive_timeout_ms: float = 4000.0  # test seam
    recursive_retries: int = 2  # test seam

    def __post_init__(self) -> None:
        if self.successor_list_size < 1:
            raise DHTError("successor_list_size must be >= 1")


class ChordRing:
    """Shared state of one Chord overlay (see module docstring)."""

    def __init__(self, params: Optional[RingParams] = None) -> None:
        self.params = params or RingParams()
        self.space = IdSpace(self.params.bits)
        self._members: Dict[ChordId, "ChordNode"] = {}
        # Sorted-membership cache: rebuilt lazily after any register /
        # deregister, so repeated ``members()`` / ``active_members()`` /
        # ``successor_of()`` calls between membership changes are O(n) copies
        # (or O(log n) bisects) instead of O(n log n) re-sorts.
        self._sorted_ids: Optional[List[ChordId]] = None
        self._sorted_nodes: Optional[List["ChordNode"]] = None

    # ------------------------------------------------------------ membership
    def _invalidate_sorted(self) -> None:
        self._sorted_ids = None
        self._sorted_nodes = None

    def _ensure_sorted(self) -> None:
        if self._sorted_ids is None:
            self._sorted_ids = sorted(self._members)
            members = self._members
            self._sorted_nodes = [members[i] for i in self._sorted_ids]

    def register(self, node: "ChordNode") -> None:
        """Record *node* as a joined, routable member (bootstrap registry)."""
        current = self._members.get(node.node_id)
        if current is not None and current is not node and current.is_active:
            raise DHTError(
                f"id {node.node_id} already registered by an active node"
            )
        if current is not node:
            self._members[node.node_id] = node
            self._invalidate_sorted()

    def try_register(self, node: "ChordNode") -> bool:
        """Register if the identifier is free (or its holder is dead).

        Join races where two candidates for the same identifier slip past
        each other's notify checks (their lookups saw different ring states)
        are settled here: "the one that first integrates into D-ring,
        succeeds" (section 5.2.2).
        """
        current = self._members.get(node.node_id)
        if current is not None and current is not node and current.is_active:
            return False
        if current is not node:
            self._members[node.node_id] = node
            self._invalidate_sorted()
        return True

    def holder_of(self, node_id: ChordId) -> Optional["ChordNode"]:
        """The registered member at *node_id*, if any."""
        return self._members.get(node_id)

    def deregister(self, node: "ChordNode") -> None:
        """Remove *node* from the bootstrap registry (on failure or leave)."""
        if self._members.get(node.node_id) is node:
            del self._members[node.node_id]
            self._invalidate_sorted()

    def members(self) -> List["ChordNode"]:
        """Currently registered members, sorted by identifier.

        Served from the sorted-membership cache; the returned list is a
        fresh copy, safe for callers to mutate.
        """
        self._ensure_sorted()
        return list(self._sorted_nodes)

    def active_members(self) -> List["ChordNode"]:
        """Registered members whose host is currently alive."""
        self._ensure_sorted()
        return [n for n in self._sorted_nodes if n.is_active]

    def successor_of(self, key: ChordId) -> Optional["ChordNode"]:
        """Registered member owning *key* (first id >= key, cyclically).

        O(log n) bisect over the sorted-membership cache; oracle checks
        use this instead of scanning ``members()``.
        """
        self._ensure_sorted()
        ids = self._sorted_ids
        if not ids:
            return None
        return self._sorted_nodes[bisect_left(ids, key) % len(ids)]

    def random_bootstrap(self, rng: random.Random) -> Optional[Address]:
        """Address of a random live member, or None if the ring is empty."""
        active = self.active_members()
        if not active:
            return None
        return rng.choice(active).host.address

    def __len__(self) -> int:
        return len(self._members)

    # ------------------------------------------------------------ warm start
    def warm_tables(self, ordered_refs: List["NodeRef"], index: int):
        """Converged ``(successors, predecessor, fingers)`` of one member.

        *ordered_refs* is the full ring membership as plain refs, sorted by
        identifier; *index* selects the member whose tables to compute.
        Exactly the state stabilization would converge to -- the same
        arithmetic :meth:`warm_start` applies to co-resident nodes, exposed
        over refs so sharded runs can compute tables for a globally known
        membership whose nodes live in other shards' simulators.
        """
        n = len(ordered_refs)
        if n == 0:
            raise DHTError("cannot compute warm tables of an empty ring")
        ids = [ref.id for ref in ordered_refs]
        r = self.params.successor_list_size
        successors = [ordered_refs[(index + k) % n] for k in range(1, min(r, n) + 1)]
        if not successors:
            successors = [ordered_refs[index]]
        fingers = [
            ordered_refs[
                bisect_left(ids, self.space.finger_start(ids[index], i)) % n
            ]
            for i in range(self.params.bits)
        ]
        return successors, ordered_refs[(index - 1) % n], fingers

    def warm_start(self, nodes: Iterable["ChordNode"]) -> None:
        """Wire *nodes* into a fully stabilized ring instantly.

        Successor lists, predecessors and complete finger tables are computed
        directly from the sorted identifier list, exactly as stabilization
        would converge to.  Every node is registered as a member.
        """
        ordered = sorted(nodes, key=lambda n: n.node_id)
        if not ordered:
            return
        ids = [n.node_id for n in ordered]
        if len(set(ids)) != len(ids):
            raise DHTError("duplicate identifiers in warm start")
        refs = [n.ref for n in ordered]
        for index, node in enumerate(ordered):
            successors, predecessor, fingers = self.warm_tables(refs, index)
            node.adopt_warm_state(
                successors=successors,
                predecessor=predecessor,
                fingers=fingers,
            )
            self.register(node)


# Imported at the bottom to break the node <-> ring reference cycle for type
# checkers; at runtime only the name is needed in annotations (strings).
from repro.dht.node import ChordNode  # noqa: E402  (cycle-breaking import)
