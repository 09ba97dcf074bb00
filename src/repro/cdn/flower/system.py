"""Flower-CDN system orchestration.

Owns the D-ring (one Chord overlay whose members are directory peers), the
key-management service, and the peer population.  The experiment runner
drives it through the churn callbacks of :class:`~repro.cdn.base.CdnSystem`.

Initial population (paper section 6.1): "We start with a population of
k x |W| = 600 directory peers which have limited uptimes and form the
initial D-ring (i.e., one directory peer per couple (website, locality))."
:meth:`FlowerSystem.setup_initial_population` creates exactly that: one
peer per (website, locality), placed in the matching locality, given the
directory role, and wired into a warm-started (already stabilized) D-ring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.cdn.base import BasePeer, CdnSystem
from repro.cdn.flower.directory import DirectoryRole
from repro.cdn.flower.dring import DRingKeyService
from repro.cdn.flower.peer import FlowerPeer
from repro.cdn.flower.service import DirectoryService
from repro.dht.node import ChordNode
from repro.errors import CDNError
from repro.metrics.collector import MetricsCollector
from repro.net.landmarks import LandmarkBinner
from repro.net.transport import Network
from repro.sim.engine import Simulator
from repro.workload.catalog import Catalog

if TYPE_CHECKING:
    from repro.cdn.flower.stats import SystemStats
    from repro.experiments.config import ExperimentConfig

#: Attempts to place a seeded directory peer inside its target locality
#: before accepting a (slightly suboptimal) out-of-locality placement.
_MAX_PLACEMENT_TRIES = 8


class FlowerSystem(CdnSystem):
    """Flower-CDN (and, with the right params, PetalUp-CDN)."""

    name = "flower"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        binner: LandmarkBinner,
        catalog: Catalog,
        params: ExperimentConfig,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        super().__init__(sim, network, binner, catalog, params, metrics)
        self.key_service = DRingKeyService(
            self.ring.space,
            catalog.num_websites,
            binner.num_localities,
            params.max_instances,
        )
        #: Optional keyword-search extension (paper section 7 future work);
        #: set a :class:`~repro.cdn.flower.search.KeywordSearchEngine` to
        #: enable ``FlowerPeer.search``.
        self.search_engine = None
        #: Total directory-index members evicted by keepalive-age sweeps
        #: (``DirectoryRole.expire_members``).  Lets reports -- and the
        #: chaos auditor -- distinguish silent expiry from crash-driven
        #: removal when accounting recovery behaviour.
        self.expired_members = 0
        #: Overload extension totals (survive role teardown, unlike the
        #: per-role counters): members handed to a successor instance by
        #: replica-aware sheds.  Queries shed, hint hops, rebalance spills
        #: and adoptions are the counts of their trace kinds.
        self.members_shed = 0
        #: Queue-aware redirect hints (reactive overload extension): how
        #: many hint-guided pre-route hops landed a directory hit, and how
        #: many hit a stale target (crashed or demoted since it gossiped
        #: its load).
        self.hint_hits = 0
        self.hint_stale = 0
        #: Shedding-aware content rebalancing: the byte budget spill
        #: orders consumed (in KB).
        self.rebalance_kb = 0.0
        #: Live directory registry: ``(website, locality) -> {address:
        #: peer}``, maintained at every directory-role transition so
        #: per-petal questions (instance counts, petal sizes, overload
        #: reports) are O(instances) instead of a population scan.
        self._directory_registry: dict = {}

    # ------------------------------------------------------------- registry
    def register_directory(self, peer: FlowerPeer, role: DirectoryRole) -> None:
        """A peer started serving *role* (ring-integrated or provisional)."""
        slot = self._directory_registry.setdefault((role.website, role.locality), {})
        slot[peer.address] = peer

    def unregister_directory(self, peer: FlowerPeer, role: DirectoryRole) -> None:
        """A peer stopped serving *role*: it crashed or was demoted (the
        reproduction is crash-only, as section 6.1)."""
        slot = self._directory_registry.get((role.website, role.locality))
        if slot is not None:
            slot.pop(peer.address, None)
            if not slot:
                del self._directory_registry[(role.website, role.locality)]

    def directory_instances(self, website: int, locality: int) -> dict:
        """Live ``{address: peer}`` of one petal's directory instances."""
        return self._directory_registry.get((website, locality), {})

    # ---------------------------------------------------------------- peers
    def _make_peer(self, identity: int) -> BasePeer:
        return FlowerPeer(self, identity, self.website_of(identity))

    # ------------------------------------------------------------- seeding
    def setup_initial_population(self) -> None:
        """Create the initial directory peers and warm-start D-ring.

        The three steps a sharded world does differently are methods:
        which slots are seeded here (:meth:`_seed_slots`), how a seed peer
        is placed (:meth:`_place_peer_in_locality`) and how the seeded
        Chord nodes are wired (:meth:`_warm_start_seeds`).
        """
        if self.seed_identities:
            raise CDNError("initial population already created")
        chord_nodes: List[ChordNode] = []
        roles: List[DirectoryRole] = []
        peers: List[FlowerPeer] = []
        for identity, (website, locality, position) in enumerate(self._seed_slots()):
            self.assign_website(identity, website)
            peer = self._place_peer_in_locality(identity, website, locality)
            self.peers[identity] = peer
            self.seed_identities.append(identity)
            role = DirectoryRole(peer.address, website, locality, 0, position)
            role.chord = ChordNode(peer, self.ring, position)
            chord_nodes.append(role.chord)
            roles.append(role)
            peers.append(peer)
        self._warm_start_seeds(chord_nodes)
        for peer, role in zip(peers, roles):
            peer.begin_session()
            DirectoryService(peer, role).start()

    def _seed_slots(self) -> Iterable[Tuple[int, int, int]]:
        """The ``(website, locality, position)`` slots seeded in this world."""
        return self.key_service.all_positions(0)

    def _warm_start_seeds(self, chord_nodes: List[ChordNode]) -> None:
        """Wire the seeded nodes into a converged D-ring."""
        self.ring.warm_start(chord_nodes)

    def _place_peer_in_locality(
        self, identity: int, website: int, locality: int
    ) -> FlowerPeer:
        """Create a peer whose landmark-binned locality is *locality*.

        The topology honours the cluster hint but binning is probabilistic
        at cluster borders, so retry a few times; accept a mismatch after
        that (the directory then simply serves a petal it sits slightly
        outside of, which a real deployment also cannot preclude).
        """
        for attempt in range(_MAX_PLACEMENT_TRIES):
            peer = FlowerPeer(self, identity, website, cluster_hint=locality)
            if peer.locality == locality:
                return peer
            peer.fail()  # discard the badly placed candidate host
        self.sim.emit("flower.seed_placement_mismatch", locality=locality)
        peer = FlowerPeer(self, identity, website, cluster_hint=locality)
        peer.locality = locality  # serve the intended petal regardless
        return peer

    # ------------------------------------------------------------- reports
    def directory_count(self) -> int:
        """Currently active directory peers (D-ring population)."""
        return len(self.ring.active_members())

    def petal_size(self, website: int, locality: int) -> int:
        """Members across all directory instances of one petal."""
        total = 0
        for peer in self.directory_instances(website, locality).values():
            d = peer.directory
            if (
                peer.alive
                and d is not None
                and d.website == website
                and d.locality == locality
            ):
                total += d.load
        return total

    def extra_totals(self, openloop: bool) -> Dict[str, Any]:
        extra: Dict[str, Any] = {
            "directories": self.directory_count(),
            "expired_members": self.expired_members,
        }
        params = self.params
        if openloop or params.directory_queue_limit > 0 or params.overload_shedding:
            extra["overload"] = self.stats().overload.to_dict()
        return extra

    def stats(self) -> SystemStats:
        """One versioned snapshot of every extension's counters.

        The single stats entry point: typed sub-blocks for the overload,
        replication, and swarm planes (see
        :mod:`repro.cdn.flower.stats`).  Serialize with
        ``stats().to_dict()``.  Read after a run, so its module loads here.
        """
        from repro.cdn.flower.stats import collect_system_stats

        return collect_system_stats(self)
