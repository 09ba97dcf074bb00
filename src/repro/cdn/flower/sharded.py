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
section 10): the bootstrap registry (``ring.random_bootstrap`` and join-race
settlement) is shard-local -- correct because a position's join candidates
are always petal members of its own locality, hence of its own shard -- and
seed placement is exact rather than landmark-probed.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cdn.base import ProtocolParams
from repro.cdn.flower.directory import DirectoryRole
from repro.cdn.flower.peer import FlowerPeer
from repro.cdn.flower.service import DirectoryService
from repro.cdn.flower.system import FlowerSystem
from repro.dht.node import ChordNode, NodeRef
from repro.errors import CDNError
from repro.metrics.collector import MetricsCollector
from repro.net.shardnet import ShardedBinner, ShardedNetwork, ShardMap
from repro.sim.engine import Simulator
from repro.workload.catalog import Catalog


class ShardedFlowerSystem(FlowerSystem):
    """Flower-CDN restricted to one shard of a partitioned world."""

    def __init__(
        self,
        sim: Simulator,
        network: ShardedNetwork,
        binner: ShardedBinner,
        catalog: Catalog,
        params: ProtocolParams,
        shard_map: ShardMap,
        shard_id: int,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        # Set before super().__init__: the base constructor calls
        # _make_servers(), which needs the shard context.
        self.shard_map = shard_map
        self.shard_id = shard_id
        super().__init__(sim, network, binner, catalog, params, metrics)

    def _make_servers(self):
        # Every shard hosts its own replica of the (stateless, always-up)
        # origin-server set in its infrastructure address block, so server
        # fetches stay shard-local.  ``requests_served`` merges by summing.
        with self.network.infra_registration():
            return super()._make_servers()

    # ------------------------------------------------------------- seeding
    @property
    def num_seed_identities(self) -> int:
        """One initial directory peer per (website, local locality)."""
        return self.catalog.num_websites * self.shard_map.localities_per_shard

    def setup_initial_population(self) -> None:
        """Create this shard's slice of the initial D-ring, globally warm.

        Iterates the deterministic global enumeration, creating peers only
        for local localities; identities are numbered 0..n_local-1 in
        enumeration order (each shard has its own identity space).  Warm
        tables are computed against the full global membership, so fingers
        and successor lists point across shards from the first event.
        """
        if self.seed_identities:
            raise CDNError("initial population already created")
        local = set(self.shard_map.localities_of(self.shard_id))
        # The full initial membership, computable in any shard.
        global_refs: List[NodeRef] = sorted(
            NodeRef(position, self.shard_map.seed_peer_address(website, locality))
            for website, locality, position in self.key_service.all_positions(0)
        )
        index_of = {ref.id: i for i, ref in enumerate(global_refs)}
        roles: List[DirectoryRole] = []
        peers: List[FlowerPeer] = []
        identity = 0
        for website, locality, position in self.key_service.all_positions(0):
            if locality not in local:
                continue
            self.assign_website(identity, website)
            peer = FlowerPeer(self, identity, website, cluster_hint=locality)
            expected = self.shard_map.seed_peer_address(website, locality)
            if peer.address != expected:  # pragma: no cover - layout invariant
                raise CDNError(
                    f"seed address drift: got {peer.address}, expected {expected}"
                )
            self.peers[identity] = peer
            self.seed_identities.append(identity)
            role = DirectoryRole(peer.address, website, locality, 0, position)
            role.chord = ChordNode(peer, self.ring, position)
            successors, predecessor, fingers = self.ring.warm_tables(
                global_refs, index_of[position]
            )
            role.chord.adopt_warm_state(
                successors=successors, predecessor=predecessor, fingers=fingers
            )
            self.ring.register(role.chord)
            roles.append(role)
            peers.append(peer)
            identity += 1
        for peer, role in zip(peers, roles):
            peer.begin_session()
            DirectoryService(peer, role).start()
