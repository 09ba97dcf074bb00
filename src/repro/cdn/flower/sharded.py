"""Flower-CDN on a sharded world: per-shard D-ring slice, global warm start.

One :class:`ShardedFlowerSystem` lives in each shard's simulator.  The petal
layer needs nothing special -- petals are (website, locality) scoped, every
locality lives wholly inside one shard, so queries, gossip, keepalives and
server fetches never cross a shard boundary.  The D-ring is the part that
spans shards: every directory position (website, locality) is hosted in
``shard_of(locality)``, so ring maintenance, routing and directory-to-
directory traffic travel over the cross-shard bus as ordinary messages
(Chord state is exchanged as :class:`~repro.dht.node.NodeRef` values, which
are plain picklable tuples).

Warm start without shared state: the initial D-ring membership is fully
deterministic -- ``DRingKeyService.all_positions`` fixes the (website,
locality) -> identifier mapping, and the structured address layout fixes
each seed directory's address (:meth:`ShardMap.seed_peer_address`).  Every
shard therefore computes the *global* sorted membership table locally and
derives converged successor/predecessor/finger tables for its own nodes
(:meth:`ChordRing.warm_tables`); no cross-shard communication happens at
setup.

Deviations from the single-process build (documented in docs/PROTOCOLS.md
section 10), each one override below: the D-ring's RPC timeout widens by
the bus slack; origin servers are replicated per shard; of the one seed
loop (``FlowerSystem.setup_initial_population``) three steps differ --
which slots are seeded here, exact instead of landmark-probed placement,
warm tables from the global membership in enumeration order.  The
bootstrap registry (``ring.random_bootstrap`` and join-race settlement) is
shard-local with no override at all -- correct because a position's join
candidates are always petal members of its own locality, hence of its own
shard.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Tuple

from repro.cdn.flower.peer import FlowerPeer
from repro.cdn.flower.system import FlowerSystem
from repro.dht.node import ChordNode, NodeRef
from repro.errors import CDNError


class ShardedFlowerSystem(FlowerSystem):
    """Flower-CDN restricted to one shard of a partitioned world.

    Constructed like a :class:`FlowerSystem` on a
    :class:`~repro.net.shardnet.ShardedNetwork`, which carries the shard
    context (``network.shard_map`` / ``network.shard_id`` /
    ``network.slack_ms``).
    """

    def _ring_params(self):
        # A cross-shard round trip can wait at two window barriers: the
        # D-ring's failure detector widens by the network's bus slack.
        params = super()._ring_params()
        return dataclasses.replace(
            params, rpc_timeout_ms=params.rpc_timeout_ms + self.network.slack_ms
        )

    def _make_servers(self):
        # Every shard hosts its own replica of the (stateless, always-up)
        # origin-server set in its infrastructure address block, so server
        # fetches stay shard-local.  ``requests_served`` merges by summing.
        with self.network.infra_registration():
            return super()._make_servers()

    # ------------------------------------------------------------- seeding
    def _seed_slots(self) -> Iterable[Tuple[int, int, int]]:
        """This shard's slice of the deterministic global enumeration;
        identities number it 0..n_local-1 (each shard has its own
        identity space)."""
        local = self.network.shard_map.localities_of(self.network.shard_id)
        return (
            slot for slot in self.key_service.all_positions(0) if slot[1] in local
        )

    def _place_peer_in_locality(
        self, identity: int, website: int, locality: int
    ) -> FlowerPeer:
        """Exact placement: the hint *is* the locality, and the address
        must be the one every other shard computes for this seed."""
        peer = FlowerPeer(self, identity, website, cluster_hint=locality)
        expected = self.network.shard_map.seed_peer_address(website, locality)
        if peer.address != expected:  # pragma: no cover - layout invariant
            raise CDNError(
                f"seed address drift: got {peer.address}, expected {expected}"
            )
        return peer

    def _warm_start_seeds(self, chord_nodes: List[ChordNode]) -> None:
        """Warm tables against the full *global* membership, so fingers and
        successor lists point across shards from the first event.

        Nodes start in the order given -- enumeration order -- where
        :meth:`ChordRing.warm_start` starts them in identifier order.
        D-ring identifiers are hashed per website, so the two orders
        differ, and every start draws its first tick from the shared
        ``chord.maintenance`` stream: going through ``warm_start`` here
        moves every pinned sharded fingerprint (the first diverging event
        is the second ``chord.join``).
        """
        # The full initial membership, computable in any shard.
        seed_address = self.network.shard_map.seed_peer_address
        global_refs: List[NodeRef] = sorted(
            NodeRef(position, seed_address(website, locality))
            for website, locality, position in self.key_service.all_positions(0)
        )
        index_of = {ref.id: i for i, ref in enumerate(global_refs)}
        for node in chord_nodes:
            successors, predecessor, fingers = self.ring.warm_tables(
                global_refs, index_of[node.node_id]
            )
            node.adopt_warm_state(
                successors=successors, predecessor=predecessor, fingers=fingers
            )
            self.ring.register(node)
