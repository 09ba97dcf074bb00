"""Squirrel system orchestration.

One global Chord ring holding *every* online peer.  The initial population
mirrors the paper's setup for comparability: the same number of peers that
form Flower-CDN's initial D-ring (k x |W|) start online in a warm-started
(already stabilized) ring.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.cdn.base import BasePeer, CdnSystem
from repro.cdn.squirrel.peer import SquirrelPeer
from repro.dht.node import ChordNode
from repro.errors import CDNError


class SquirrelSystem(CdnSystem):
    """The Squirrel baseline (directory variant over one global ring)."""

    name = "squirrel"

    def _make_peer(self, identity: int) -> BasePeer:
        return SquirrelPeer(self, identity, self.website_of(identity))

    @property
    def num_seed_identities(self) -> int:
        """Same initial population size as Flower-CDN's D-ring seed."""
        return self.catalog.num_websites * self.binner.num_localities

    def setup_initial_population(self) -> None:
        """Create the initial peers and warm-start the global ring."""
        if self.seed_identities:
            raise CDNError("initial population already created")
        chord_nodes: List[ChordNode] = []
        peers: List[SquirrelPeer] = []
        for identity in range(self.num_seed_identities):
            peer = self.peer_for(identity)
            self.seed_identities.append(identity)
            peers.append(peer)
        # Build the ring directly instead of through peer join protocols.
        for peer in peers:
            peer.chord = ChordNode(peer, self.ring, peer.node_id)
            chord_nodes.append(peer.chord)
        self.ring.warm_start(chord_nodes)
        for peer in peers:
            # Already ring-wired: start querying without the session hook.
            if self.catalog.is_active(peer.website):
                peer._start_query_process()

    # ------------------------------------------------------------- reports
    def extra_totals(self, openloop: bool) -> Dict[str, Any]:
        return {"ring_size": self.ring_size()}

    def ring_size(self) -> int:
        """Live members of the global Chord ring."""
        return len(self.ring.active_members())
