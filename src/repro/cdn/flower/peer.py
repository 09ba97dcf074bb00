"""One Flower-CDN participant: lifecycle and message dispatch.

A :class:`FlowerPeer` always carries the *content role* once it has joined a
petal -- a partial view of its petal, content summaries learnt by gossip,
and ``dir-info`` about the directory peer through which it joined -- and may
additionally carry the *directory role* while serving a (website, locality,
instance) slot on D-ring.  The class itself owns the state, the session
lifecycle, the dispatch table and the transitions between the two roles;
the behaviour lives beside it:

- the content role is mixed in from :mod:`~repro.cdn.flower.queries` (query
  paths of sections 3.2 and 4), :mod:`~repro.cdn.flower.hints` (queue-aware
  redirect hints), :mod:`~repro.cdn.flower.petal` (gossip, keepalive, push,
  dir-info, suspect-directory degradation and the failure detection of
  section 5), :mod:`~repro.cdn.flower.search_client` (keyword search) and
  :mod:`~repro.cdn.flower.swarm_holder` (chunk serving);
- the directory role is a
  :class:`~repro.cdn.flower.service.DirectoryService` -- ``peer.service``,
  next to its :class:`~repro.cdn.flower.directory.DirectoryRole` state in
  ``peer.directory`` -- that exists only while the peer joins or serves a
  slot.  "Do we serve?" is ``self.directory is None`` everywhere.

Role transitions (section 5.2): the first content peer that detects its
directory's failure tries to join D-ring at the vacant position itself;
losers of the race adopt the winner (the ``"taken"`` / ``"race"`` join
outcomes) and re-push their content; a replacement directory answers early
queries from the content summaries it gossip-collected while still a plain
content peer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.cdn.base import BasePeer
from repro.cdn.flower.directory import DirectoryRole
from repro.cdn.flower.hints import RedirectHints
from repro.cdn.flower.petal import PetalMember
from repro.cdn.flower.queries import QueryPaths
from repro.cdn.flower.replication import ReplicaStore
from repro.cdn.flower.search_client import SearchClient
from repro.cdn.flower.service import DirectoryService
from repro.cdn.flower.swarm_holder import SwarmHolder
from repro.dht.node import deliver_route_result, route_step
from repro.gossip.cyclon import CyclonProtocol
from repro.gossip.summaries import ExactSummary
from repro.gossip.view import PartialView
from repro.net.message import Message
from repro.sim.process import PeriodicProcess
from repro.types import Address, ChordId, ObjectKey


class FlowerPeer(
    QueryPaths, RedirectHints, PetalMember, SearchClient, SwarmHolder, BasePeer
):
    """A Flower-CDN / PetalUp-CDN participant (see module docstring)."""

    def __init__(self, system, identity, website, cluster_hint=None):
        super().__init__(system, identity, website, cluster_hint)
        # --- content role ---
        self.view = PartialView(owner=self.address)
        self.peer_summaries: Dict[Address, Any] = {}
        self.summary = ExactSummary()
        self.gossip = CyclonProtocol(
            self,
            self.view,
            self.rng,
            local_data=self._gossip_data,
            on_peer_data=self._on_gossip_data,
            on_contact_dead=self._on_contact_dead,
        )
        self._gossip_process: Optional[PeriodicProcess] = None
        self._keepalive_process: Optional[PeriodicProcess] = None
        #: Successful ``flower.fetch`` replies served from our cache --
        #: the per-peer content-load signal behind the Gini reports.
        self.fetches_served = 0
        # --- directory role ---
        #: The slot we serve (state) and the service serving it
        #: (behaviour); both None unless we are a directory right now.
        self.directory: Optional[DirectoryRole] = None
        self.service: Optional[DirectoryService] = None
        # --- swarming (chunked transfers; inert unless params.swarming) ---
        #: Partial chunk replicas placed on us by full-object holders
        #: (bounded, FIFO-evicted): key -> held chunk indices.
        self.chunk_holdings: Dict[ObjectKey, Set[int]] = {}
        #: Other holders we can name in ``swarm.manifest`` replies: the
        #: peers we placed chunks on, or the placer that seeded us.
        self._swarm_hints: Dict[ObjectKey, List[Address]] = {}
        self._placed: Set[ObjectKey] = set()
        #: Chunk payload bytes served to swarming downloaders -- the load
        #: signal the seeder_death chaos phase targets.
        self.bytes_uploaded = 0
        # --- warm failover (section 5.3; inert at directory_replication_k 0) ---
        self.replica_store = ReplicaStore()
        self._forget_membership()
        # --- dispatch ---
        # Chord and gossip traffic goes to components: pre-registered
        # wrappers let ``NetworkNode.on_message`` and ``Network._deliver``
        # dispatch it straight from the handler cache, like every
        # ``handle_<kind>`` method.  Each wrapper re-reads the live role
        # (``self.directory``) at call time.
        cache = self._handler_cache
        cache["chord.route"] = self._dispatch_chord_route
        cache["chord.route_result"] = self._dispatch_chord_route_result
        cache["gossip.shuffle"] = self.gossip.handle_shuffle
        dispatch_chord_component = self._dispatch_chord_component
        for kind in (
            "chord.get_state",
            "chord.notify",
            "chord.ping",
        ):
            cache[kind] = dispatch_chord_component

    def _forget_membership(self) -> None:
        """The state a session starts from: no petal, no directory, nothing
        learnt from one.  (The browser cache survives a crash; this does
        not.)"""
        self._forget_directory()  # dir_info, strikes, re-probe, queued pushes
        # A directory-role join / a bare registration scan is in flight.
        self._recovering = False
        self._registering = False
        # --- scoped search failover (section 5.4; needs a search engine) ---
        # The failover plan of our directory slot, piggybacked on keepalive
        # / push / registration replies; consulted when a search cannot be
        # answered by the directory itself.
        self._search_replicas: List[Address] = []
        self._search_members: List[Address] = []
        self._search_position: Optional[ChordId] = None
        # --- queue-aware redirect hints (inert unless params.redirect_hints)
        # --- instance address -> (queue depth, as-of time).
        self._petal_loads: Dict[Address, tuple] = {}

    # ------------------------------------------------------------ dispatch
    def _dispatch_chord_route(self, message: Message) -> Optional[Dict[str, Any]]:
        directory = self.directory
        return route_step(
            directory.chord if directory is not None else None, self, message
        )

    def _dispatch_chord_route_result(self, message: Message) -> Optional[Dict[str, Any]]:
        return deliver_route_result(self, message)

    def _dispatch_chord_component(self, message: Message) -> Optional[Dict[str, Any]]:
        directory = self.directory
        chord = directory.chord if directory is not None else None
        if chord is None:
            return {}  # stale D-ring traffic for a role we no longer hold
        handler = chord._handler_cache.get(message.kind)
        if handler is None:
            return chord.on_message(message)  # resolve + cache once
        return handler(message)

    # Directory-side kinds: the service's while we serve a slot, refused
    # otherwise.
    def handle_flower_query(self, message: Message) -> Dict[str, Any]:
        if self.service is None:
            return {"status": "not_directory"}
        return self.service.handle_query(message)

    def handle_flower_push(self, message: Message) -> Dict[str, Any]:
        if self.service is None:
            return {"status": "not_directory"}
        return self.service.handle_push(message)

    def handle_flower_keepalive(self, message: Message) -> Dict[str, Any]:
        if self.service is None:
            return {"status": "not_directory"}
        return self.service.handle_keepalive(message)

    def handle_flower_search(self, message: Message) -> Dict[str, Any]:
        if self.service is None:
            return {"status": "not_directory"}
        return self.service.handle_search(message)

    def handle_flower_member_transfer(self, message: Message) -> Dict[str, Any]:
        if self.service is None:
            return {"ok": False}
        return self.service.relief.handle_member_transfer(message)

    def handle_flower_dead_provider(self, message: Message) -> None:
        """A client observed one of our indexed providers dead: evict it."""
        if self.directory is not None:
            self.directory.remove_member(message.payload["dead"])

    # ------------------------------------------------------------ lifecycle
    def _on_session_begin(self) -> None:
        # The browser cache survived the crash; the membership state did not.
        self._rebuild_summary()
        if not self.system.catalog.is_active(self.website):
            # Peers of non-active websites are "simply added to [their]
            # petal upon arrival" (section 6.1) -- they join through a
            # register scan rather than a first query.
            self.sim.schedule(
                self.rng.uniform(0.0, self.system.query_interval_ms),
                self._register_with_petal,
            )

    def _on_crash(self) -> None:
        for process_attr in ("_gossip_process", "_keepalive_process"):
            process = getattr(self, process_attr)
            if process is not None:
                process.cancel()
                setattr(self, process_attr, None)
        if self.service is not None:
            self.service.stop()
        self.replica_store.clear()
        self.view.clear()
        self.peer_summaries.clear()
        self._forget_membership()

    @property
    def is_directory(self) -> bool:
        return self.directory is not None

    @property
    def in_petal(self) -> bool:
        """Content peer of some petal (registered with a directory)?"""
        return self.dir_info is not None or self.is_directory

    # --------------------------------------- acquiring the directory role
    def _begin_directory_role(
        self,
        website: int,
        locality: int,
        instance: int,
        position: ChordId,
        snapshot: Optional[Dict[str, Any]] = None,
        shed_notices: Sequence[Address] = (),
    ) -> None:
        """Try to join D-ring at *position* (we detected the slot vacant,
        were promoted, or inherited it); only the first joiner wins."""
        role = DirectoryRole(self.address, website, locality, instance, position)
        DirectoryService(self, role, shed_notices).join_ring(snapshot)

    def handle_flower_promote(self, message: Message) -> Dict[str, Any]:
        """A directory asks us to become the next instance (PetalUp).

        A ``partition`` in the payload (replica-aware split, overload
        extension) is adopted as our starting snapshot, and its members
        are notified to re-point at us once the role is actually active
        -- notifying earlier would race their pushes against our ring
        join.
        """
        if self.directory is not None or self._recovering:
            return {"accepted": False}
        payload = message.payload
        params = self.system.params
        replica = payload.get("replica")
        if replica is not None and params.directory_replication_k > 0:
            self.replica_store.accept(replica, self.sim.now)
        partition = payload.get("partition") if params.overload_shedding else None
        self._begin_directory_role(
            payload["website"],
            payload["locality"],
            payload["instance"],
            payload["position"],
            snapshot=partition,
            shed_notices=[
                address for address, _age in (partition or {}).get("members", [])
            ],
        )
        return {"accepted": True}

    # ------------------------------ holding replicas (section 5.3 handlers)
    def handle_flower_replica_sync(self, message: Message) -> Dict[str, Any]:
        """Store (or merge) a directory's replicated state (section 5.3)."""
        payload = message.payload
        vector = payload.get("load_vector")
        if vector is not None:
            self._harvest_load_vector(payload, vector)
        service = self.service
        if service is not None and service.role.position_id == payload["position"]:
            return service.replicator.absorb_sync(payload)
        return self.replica_store.accept(payload, self.sim.now)

    def handle_flower_replica_fetch(self, message: Message) -> Dict[str, Any]:
        """Hand our stored replica of a position to its new claimant."""
        position = message.payload["position"]
        d = self.directory
        if d is not None and d.position_id == position:
            return {"replica": None, "holder": self.address, "registered": d.registered}
        record = self.replica_store.get(position)
        return {
            "replica": record.summary(self.sim.now) if record is not None else None
        }

    def handle_flower_slot_reconcile(self, message: Message) -> Dict[str, Any]:
        """A demoting claimant hands us its state -- if we still serve
        that slot."""
        service = self.service
        if service is None or service.role.position_id != message.payload["position"]:
            return {"status": "not_directory"}
        return service.replicator.handle_slot_reconcile(message)
