"""The directory side of a Flower-CDN peer.

A participant is always a content peer and *sometimes* the directory of
a ``d(ws, loc, i)`` slot (sections 3, 4 and 5.2).  The state of that
second role is a :class:`~repro.cdn.flower.directory.DirectoryRole`; its
network behaviour is the :class:`DirectoryService` of this module, which
exists from the moment a peer tries to join D-ring at a slot's position
until it stops serving it, and owns what is meaningless otherwise: the
expiry sweep, the load relief of :mod:`repro.cdn.flower.relief` (PetalUp
split, member shedding, hot-key spilling) and the replication plane
(:class:`~repro.cdn.flower.failover.DirectoryReplicator`, constructed only
while ``directory_replication_k > 0``).
While it serves, ``peer.directory`` is its role and ``peer.service`` is
the service; :meth:`DirectoryService.stop` is the one place both end.

What a directory does here:

- answers ``flower.query`` -- behind the bounded admission queue when
  ``directory_queue_limit > 0`` -- registering new clients, redirecting
  to the next PetalUp instance, collaborating with sibling directories;
- keeps its member view fresh from keepalives and pushes and expires
  silent members in a periodic sweep;
- answers petal keyword searches from its directory-index.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.cdn.flower.directory import DirectoryRole
from repro.cdn.flower.failover import DirectoryReplicator
from repro.cdn.flower.petal import DirInfo
from repro.cdn.flower.relief import LoadRelief
from repro.cdn.flower.search_client import FAILOVER_EXTRA_CANDIDATES
from repro.dht.node import ChordNode, NodeRef
from repro.net.message import Message
from repro.sim.process import PeriodicProcess
from repro.types import Address, ObjectKey

#: Keepalive rounds after which a silent content peer is expired from the
#: directory index.
MEMBER_EXPIRY_ROUNDS = 2

#: Backup holders a provider answer names while swarming is off (with it
#: on, ``swarm_sources``); a querier whose provider fails fetches from the
#: closest of them (section 3.2's "close-by content peer").
BACKUP_CANDIDATES = 4


class DirectoryService:
    """Serves *role*'s slot on behalf of *peer* (see module docstring).

    Args:
        peer: the hosting :class:`~repro.cdn.flower.peer.FlowerPeer`.
        role: the slot's state; the service attaches ``role.chord``.
        shed_notices: members a replica-aware split handed to this new
            instance, to be re-pointed at it once it is actually active
            (overload extension; empty otherwise).
    """

    def __init__(
        self, peer, role: DirectoryRole, shed_notices: Sequence[Address] = ()
    ) -> None:
        self.peer = peer
        self.role = role
        self.sim = peer.sim
        self.system = peer.system
        self.shed_notices = shed_notices
        self._sweep_process: Optional[PeriodicProcess] = None
        #: The planes of a served slot: load relief and, while
        #: ``directory_replication_k > 0``, replication.  They point back at us, so
        #: they exist from :meth:`begin_serving` to :meth:`stop` only -- a
        #: service that never gets to serve (a lost join race, a crash
        #: mid-join) reaches nothing that reaches it, and is freed by
        #: refcount with its role when the join's last callback goes.
        self.relief: Optional[LoadRelief] = None
        self.replicator: Optional[DirectoryReplicator] = None

    # =====================================================================
    # Lifecycle: join the ring, start serving, stop serving
    # =====================================================================
    def join_ring(self, snapshot: Optional[Dict[str, Any]] = None) -> None:
        """Try to join D-ring at the slot's position; only the first
        joiner wins (section 5.2.2)."""
        if snapshot is not None:
            self.role.adopt_snapshot(snapshot)
        self._attempt_join(first=True)

    def _attempt_join(self, first: bool) -> None:
        """One join attempt; a failed lookup on the *first* is tried once
        more before the slot is served provisionally."""
        peer, role = self.peer, self.role
        peer._recovering = True
        role.chord = ChordNode(peer, self.system.ring, role.position_id)
        bootstrap = self.system.ring.random_bootstrap(peer.rng)

        def on_failed(reason: str, holder: Optional[NodeRef]) -> None:
            peer._recovering = False
            role.chord.shutdown()
            role.chord = None
            if holder is not None and peer.alive:
                # Someone else integrated first: adopt them (section 5.2.2)
                # and hand them our content by pushing.
                peer._follow_directory(
                    DirInfo(role.position_id, holder.address), forgive=False
                )
            elif (
                reason == "lookup"
                and peer.alive
                and self.system.params.directory_replication_k > 0
                and peer.directory is None
            ):
                if first:
                    # One dead hop on the route fails a lookup as surely as
                    # a partition does: ask again from a fresh bootstrap
                    # before claiming the slot without the ring, or we would
                    # serve beside the live holder the failed route hid.
                    self._attempt_join(first=False)
                else:
                    # D-ring is unreachable twice over -- most likely we sit
                    # on the minority side of a partition.  Serve the petal
                    # *provisionally* (seeded from any replica we hold) and
                    # keep retrying the integration; the reconciliation
                    # protocol resolves any split-brain claim once the
                    # partition heals (section 5.3).  A provisional claim
                    # sends no shed notices.
                    self.shed_notices = ()
                    self.serve_provisionally()
            self.sim.emit(
                "flower.directory_join_failed", peer=peer.address, reason=reason
            )

        if bootstrap is None:
            role.chord.create()
            self.start()
        else:
            role.chord.join(bootstrap, self.start, on_failed)

    def start(self) -> None:
        """The role holds its ring position: serve the slot."""
        peer, role = self.peer, self.role
        peer._recovering = False
        if not peer.alive:
            role.chord.shutdown()
            return
        self.begin_serving()
        self.sim.emit(
            "flower.directory_active",
            peer=peer.address,
            position=role.position_id,
            website=role.website,
            locality=role.locality,
            instance=role.instance,
        )
        if self.replicator is not None:
            self.replicator.start()
            if role.load == 0:
                # Cold crash-replacement: win back the index from replicas
                # instead of waiting out keepalives/pushes (section 5.3).
                self.replicator.warm_takeover()
        # Replica-aware split: the partition members learn their new
        # directory from us, not from a failed keepalive.
        for member in self.shed_notices:
            peer.send(
                member,
                "flower.member_shed",
                position=role.position_id,
                address=peer.address,
            )
        self.shed_notices = ()

    def begin_serving(self) -> None:
        """Become ``peer.directory`` (ring-registered or provisional).

        Directory peers leave the content-peer gossip/keepalive loops;
        their view and summaries live on to answer early queries ("p can
        try to answer first received queries from its content summaries"
        -- section 5.2.2).
        """
        peer, role = self.peer, self.role
        peer.directory = role
        peer.service = self
        self.system.register_directory(peer, role)
        peer.dir_info = None
        if self._sweep_process is None:
            # (A provisional role that wins the ring comes through here a
            # second time and keeps its planes and its sweep.)
            self.relief = LoadRelief(self)
            if self.system.params.directory_replication_k > 0:
                self.replicator = DirectoryReplicator(self)
            period = self.system.gossip_period_ms
            self._sweep_process = PeriodicProcess(
                self.sim,
                period,
                self._sweep_tick,
                initial_delay=period,
                jitter=0.05,
                rng=peer.rng,
            )

    def serve_provisionally(self) -> None:
        """Serve the slot without ring membership (partition-side takeover,
        section 5.3; needs ``directory_replication_k > 0``).

        The petal keeps a -- warm, if we held a replica -- directory during
        the cut; integration into D-ring is retried in the background until
        it succeeds or a conflicting claimant wins the reconciliation.
        """
        peer, role = self.peer, self.role
        role.provisional = True
        role.chord = None
        peer._forget_directory()
        self.begin_serving()
        self.replicator.serve_provisionally()

    def stop(self) -> None:
        """Stop serving the slot: on a crash or a demotion (the
        reproduction is crash-only, as section 6.1)."""
        peer, role = self.peer, self.role
        if self._sweep_process is not None:
            self._sweep_process.cancel()
            self._sweep_process = None
        if self.replicator is not None:
            self.replicator.stop()
        if role.chord is not None:
            role.chord.shutdown()
            role.chord = None
        self.system.unregister_directory(peer, role)
        peer.directory = None
        peer.service = None
        # Our planes point back at us; let go of them so the role's index
        # is freed now, by refcount, not by the cyclic collector.
        self.relief = self.replicator = None

    # =====================================================================
    # Query serving (sections 3.2 and 4)
    # =====================================================================
    def handle_query(self, message: Message) -> Dict[str, Any]:
        """Directory-side query processing.

        With ``directory_queue_limit > 0`` every request first passes the
        bounded admission queue: a request finding the virtual backlog at
        the limit is **shed** with an explicit status (plus a redirect to
        the next instance when one exists) instead of piling up, and an
        admitted request's reply carries the queue wait it owes its
        client.  The queue is two-class: foreign collaboration scans
        (section 3.2) shed at the lower ``foreign_limit`` bound, so under
        pressure this petal's own members always outrank another petal's
        misses.  With the limit at 0 none of this code runs and replies
        are byte-identical to the ungated build.
        """
        d = self.role
        payload = message.payload
        key = tuple(payload["key"]) if payload.get("key") is not None else None
        d.queries_handled += 1
        params = self.system.params
        queue_wait_ms = 0.0
        if params.directory_queue_limit > 0:
            admitted, queue_wait_ms, depth = d.admit(
                self.sim.now,
                params.directory_service_ms,
                params.directory_queue_limit,
                foreign=bool(payload.get("foreign")),
            )
            if not admitted:
                return self._shed_query(message.src, key, depth)
        reply = self._process_query(message.src, payload, key, params)
        if queue_wait_ms > 0.0:
            reply["queue_wait_ms"] = queue_wait_ms
        return self._with_load_hint(reply)

    def _shed_query(
        self, client: Address, key: Optional[ObjectKey], depth: int
    ) -> Dict[str, Any]:
        """Reject one request at the admission limit (explicit, accounted).

        The reply names the next instance when the key service knows one,
        so the client can fail over without a ring scan.  Under
        ``overload_shedding`` a shed also nudges the PetalUp split: a
        queue at its bound is the rate-based overload signal the paper's
        member-count test cannot see.
        """
        redirect = self.relief.next_instance_address()
        self.sim.emit(
            "flower.query_shed",
            directory=self.peer.address,
            client=client,
            key=key,
            position=self.role.position_id,
            depth=depth,
            redirect=redirect,
        )
        if self.system.params.overload_shedding:
            self.relief.maybe_promote_next()
        reply: Dict[str, Any] = {"status": "shed"}
        if redirect is not None:
            reply["redirect"] = redirect
        return self._with_load_hint(reply)

    def _process_query(
        self,
        client: Address,
        payload: Dict[str, Any],
        key: Optional[ObjectKey],
        params,
    ) -> Dict[str, Any]:
        d = self.role
        if payload.get("foreign"):
            # A sibling directory's miss (collaboration): answer from our
            # index/store only; no registration.  On a miss, point the
            # client at the next same-website neighbour so it can continue
            # the walk.
            reply: Dict[str, Any] = {}
            if not self._answer_from_index(reply, key, client):
                reply = {"status": "miss", "sibling_address": self.sibling_address()}
            return reply

        if payload.get("new_client"):
            if d.overloaded(params.directory_load_limit):
                next_address = self.relief.next_instance_address()
                if next_address is not None:
                    return {"status": "scan", "next_address": next_address}
                # We are the final instance: trigger the PetalUp split and
                # process this client ourselves (section 4).
                self.relief.maybe_promote_next()
            d.add_member(client, [tuple(k) for k in payload.get("keys", [])])
            reply = self.registration_payload(client)
        else:
            if payload.get("member"):
                self._member_contact(client)
            reply = {}

        if payload.get("register_only") or key is None:
            reply["status"] = "registered"
        elif not self._answer_from_index(reply, key, client):
            reply["status"] = "miss"
            if params.directory_collaboration:
                sibling = self.sibling_address()
                if sibling is not None:
                    reply["sibling_address"] = sibling
        return reply

    def _answer_from_index(
        self, reply: Dict[str, Any], key: ObjectKey, client: Address
    ) -> bool:
        """Name a provider of *key* for *client* in *reply*; False on a
        miss (the reply is then untouched)."""
        provider = self._pick_provider(key, client)
        if provider is None:
            return False
        if self.system.params.rebalance:
            self.role.note_fetch(key)
        reply["status"] = "provider"
        reply["provider"] = provider
        hints = self.provider_hints(key, {client, provider})
        if hints is not None:
            reply["providers"] = hints
        return True

    def _pick_provider(self, key: ObjectKey, client: Address) -> Optional[Address]:
        peer = self.peer
        provider = self.role.pick_provider(key, peer.rng, exclude={client})
        if provider is not None:
            return provider
        if key in peer.store and peer.address != client:
            return peer.address
        # Fall back to content summaries gossip-collected while we were a
        # plain content peer (fresh replacement directories rely on this).
        for address, summary in peer.peer_summaries.items():
            if address != client and summary.contains(key):
                return address
        return None

    def provider_hints(
        self, key: ObjectKey, exclude: Set[Address]
    ) -> Optional[List[Address]]:
        """Other indexed holders of *key*, or None: a plain fetch's backup
        candidates when the named provider is dead, a swarming
        downloader's extra sources."""
        others = self.role.providers_of(key) - exclude
        if not others:
            return None
        return sorted(others)[
            : self.system.params.swarm_sources
            if self.system.params.swarming
            else BACKUP_CANDIDATES
        ]

    def registration_payload(self, joiner: Address) -> Dict[str, Any]:
        """What a registering client needs to join the petal: dir-info
        and a view sample (section 3.2)."""
        peer = self.peer
        size = peer.gossip.shuffle_size
        sample = self.role.member_sample(peer.rng, size)
        if len(sample) < size:
            # Fresh instances hand out their legacy content view instead
            # ("provides them with a subset of its old view" -- section 4).
            legacy = peer.view.sample(
                peer.rng, size - len(sample), exclude=set(sample) | {joiner}
            )
            sample.extend(contact.address for contact in legacy)
        return self._member_reply(
            {
                "dir_position": self.role.position_id,
                "dir_address": peer.address,
                "view_sample": [a for a in sample if a != joiner],
            }
        )

    def sibling_address(self) -> Optional[Address]:
        """The next same-website directory on D-ring (collaboration walk).

        Successive identifiers put every directory of one website on a
        contiguous arc, so "the next sibling" is simply our ring successor
        while it still decodes to the same website.
        """
        chord = self.role.chord
        if chord is None or chord.successor is None:
            return None
        succ = chord.successor
        if succ.address != self.peer.address and self.system.key_service.same_website(
            succ.id, self.role.position_id
        ):
            return succ.address
        return None

    # =====================================================================
    # Member traffic (section 5.1)
    # =====================================================================
    def _member_contact(
        self, address: Address, keys: Optional[List[ObjectKey]] = None
    ) -> None:
        """Refresh (or re-admit) a member; a push also replaces its keys."""
        d = self.role
        if not d.has_member(address):
            d.add_member(address, keys or ())
        else:
            d.touch_member(address)
            if keys is not None:
                d.update_member_keys(address, keys)

    def handle_push(self, message: Message) -> Dict[str, Any]:
        """Apply a member's content push to the directory-index."""
        self._member_contact(
            message.src, [tuple(k) for k in message.payload.get("keys", [])]
        )
        return self._member_reply({"status": "ok"})

    def handle_keepalive(self, message: Message) -> Dict[str, Any]:
        """Refresh (or re-admit) a member on keepalive."""
        self._member_contact(message.src)
        return self._member_reply({"status": "ok"})

    # ------------------------------------------------------ reply decoration
    def _member_reply(self, reply: Dict[str, Any]) -> Dict[str, Any]:
        """What every reply to one of our members piggybacks: the search
        failover plan and the petal's load vector."""
        return self._with_load_hint(self._with_search_replicas(reply))

    def _with_search_replicas(self, reply: Dict[str, Any]) -> Dict[str, Any]:
        """Add the failover plan (section 5.4): the slot position plus the
        replica holders currently synced.  Nothing while no search engine
        runs, so plain builds ship nothing."""
        if self.system.search_engine is None:
            return reply
        replicator = self.replicator
        targets: List[Address] = []
        if replicator is not None:
            # Only holders that acknowledged a sync: an intended target
            # that never acked has nothing to serve, and pointing peers
            # at it would turn the failover into guaranteed misses.
            targets = [a for a in replicator.targets() if a in replicator.acked]
        reply["search_replicas"] = {
            "position": self.role.position_id,
            "replicas": targets,
            # A small member sample rides along as a last-resort chain:
            # the smallest addresses include the member heir, so even a
            # peer with a stale replica hint and an empty gossip view can
            # still reach the one petal-mate guaranteed to be a replica
            # target.
            "members": sorted(self.role.members.addresses())[
                :FAILOVER_EXTRA_CANDIDATES
            ],
        }
        return reply

    def _with_load_hint(self, reply: Dict[str, Any]) -> Dict[str, Any]:
        """Add the per-petal load vector: own queue depth plus
        sibling-instance depths learnt over the replica-sync gossip, each
        row ``(address, depth, age_ms)``.  Nothing unless redirect hints
        (and the admission queue they read) are on, so plain builds ship
        byte-identical replies."""
        params = self.system.params
        if params.redirect_hints and params.directory_queue_limit >= 1:
            reply["load_hint"] = self.role.load_vector(
                self.sim.now, params.directory_service_ms
            )
        return reply

    # =====================================================================
    # Periodic sweep: expiry, then load relief
    # =====================================================================
    def _sweep_tick(self) -> None:
        peer, role = self.peer, self.role
        if not peer.alive:
            return
        expired = role.expire_members(MEMBER_EXPIRY_ROUNDS)
        if expired:
            self.system.expired_members += len(expired)
            sim = self.sim
            # Per-member eviction events: the auditor (and recovery
            # reports) can tell a silent keepalive expiry apart from a
            # crash-driven removal or a failure false positive.
            for member in expired:
                sim.emit(
                    "flower.member_expired",
                    directory=peer.address,
                    member=member,
                    position=role.position_id,
                )
            sim.emit(
                "flower.members_expired",
                directory=peer.address,
                count=len(expired),
            )
        self.relief.sweep()

    # =====================================================================
    # Keyword search (paper section 7 future work; optional)
    # =====================================================================
    def search_index(self, keyword: str) -> List[tuple]:
        """Matches for *keyword* in the live directory-index (the caller
        checked that a search engine runs)."""
        peer = self.peer
        matches = self.system.search_engine.search_index(
            self.role.index, peer.store.keys(), peer.address, keyword
        )
        return [(tuple(key), address) for key, address in matches]

    def handle_search(self, message: Message) -> Dict[str, Any]:
        """Answer a petal keyword search from the directory-index."""
        if self.system.search_engine is None:
            return {"status": "not_directory"}
        return self._with_search_replicas(
            {"status": "ok", "matches": self.search_index(message.payload["keyword"])}
        )
