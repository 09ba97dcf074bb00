"""One Flower-CDN participant: content-peer behaviour, the directory role,
query protocols, and the maintenance protocols of section 5.

A :class:`FlowerPeer` always carries the *content role* once it has joined a
petal -- a partial view of its petal, content summaries learnt by gossip,
and ``dir-info`` about the directory peer through which it joined -- and may
additionally carry the *directory role*
(:class:`~repro.cdn.flower.directory.DirectoryRole`) while serving a
(website, locality, instance) slot on D-ring.

Query paths (sections 3.2 and 4):

- a **new client** routes its query over D-ring to d(ws, loc) [instance 0],
  scanning successive instances while they report overload (PetalUp); the
  processing directory registers the client, answers from its
  directory-index, and hands over a view sample so the client joins the
  petal as a content peer;
- a **content peer** "does not use D-ring anymore": it answers from its own
  store, then from gossip-learnt content summaries (fetching from the
  closest summarised holder), then by asking its directory peer, and only
  then falls back to the origin web server.

Maintenance (section 5):

- keepalive and push messages keep the directory-index fresh and detect
  directory failure;
- dir-info (position id, address, age) is reconciled during gossip --
  entries for the *same* directory position keep the smaller age;
- the first content peer that detects its directory's failure tries to join
  D-ring at the vacant position itself; losers of the race adopt the winner
  (the ``"taken"`` / ``"race"`` join outcomes) and re-push their content;
- a replacement directory answers early queries from the content summaries
  it gossip-collected while still a plain content peer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.cdn.base import BasePeer
from repro.cdn.flower.directory import DirectoryRole
from repro.cdn.swarm import SwarmTransfer
from repro.cdn.flower.replication import (
    DirectoryReplicator,
    ReplicaRecord,
    ReplicaStore,
    delta_sync_payload,
    full_sync_payload,
)
from repro.cdn.flower.search import staleness_bound_ms
from repro.errors import CDNError
from repro.dht.node import ChordNode, LookupResult, NodeRef, deliver_route_result, route_step
from repro.gossip.cyclon import CyclonProtocol
from repro.gossip.summaries import make_summary
from repro.gossip.view import Contact, PartialView
from repro.metrics.loadbalance import top_gini_contributors
from repro.net.message import Message
from repro.sim.process import PeriodicProcess
from repro.types import Address, ChordId, ObjectKey

#: How many summary-advertised providers a content peer tries before
#: falling back to its directory.
_MAX_SUMMARY_ATTEMPTS = 2

#: How many times a new client restarts its D-ring scan before giving up
#: on the P2P system for this query.
_MAX_SCAN_TRIES = 2

#: How many gossip-view petal-mates extend the search-failover chain
#: beyond the hinted replica holders (section 5.4): they catch promoted
#: heirs / provisional claimants a stale hint cannot name.
_SEARCH_VIEW_CANDIDATES = 4

#: Bound on the per-peer partial chunk-replica map (swarming extension):
#: at most this many distinct keys, FIFO-evicted.
SWARM_HOLDINGS_LIMIT = 32


@dataclass
class DirInfo:
    """What a content peer knows about its directory peer (section 5.1).

    Attributes:
        position_id: the D-ring identifier of the directory slot.
        address: last known network address of its holder.
        age: periods since we last heard from it; reset on any contact,
            reconciled during gossip (smaller age wins).
    """

    position_id: ChordId
    address: Address
    age: int = 0

    def pack(self) -> tuple:
        return (self.position_id, self.address, self.age)

    @staticmethod
    def unpack(raw: Optional[tuple]) -> Optional["DirInfo"]:
        if raw is None:
            return None
        return DirInfo(raw[0], raw[1], raw[2])


class FlowerPeer(BasePeer):
    """A Flower-CDN / PetalUp-CDN participant (see module docstring)."""

    def __init__(self, system, identity, website, cluster_hint=None):
        super().__init__(system, identity, website, cluster_hint)
        # --- content role ---
        self.view = PartialView(owner=self.address)
        self.peer_summaries: Dict[Address, Any] = {}
        self.summary = make_summary(system.params.summary_kind)
        self.dir_info: Optional[DirInfo] = None
        self.gossip = CyclonProtocol(
            self,
            self.view,
            self.rng,
            shuffle_size=system.params.gossip_shuffle_size,
            local_data=self._gossip_data,
            on_peer_data=self._on_gossip_data,
            on_contact_dead=self._on_contact_dead,
        )
        self._gossip_process: Optional[PeriodicProcess] = None
        self._keepalive_process: Optional[PeriodicProcess] = None
        # --- suspect-directory degradation (failure model, section 5.1) ---
        # Consecutive directory RPCs whose whole retry budget was exhausted.
        # While > 0 the directory is *suspect*: queries degrade to
        # gossip-learnt summaries, pushes queue (drop-oldest) and a fast
        # re-probe decides between recovery and declared failure.
        self._dir_strikes = 0
        self._reprobe_pending = False
        self._pending_pushes: Deque[List[ObjectKey]] = deque(
            maxlen=system.params.push_queue_limit
        )
        # --- directory role ---
        self.directory: Optional[DirectoryRole] = None
        self._sweep_process: Optional[PeriodicProcess] = None
        self._recovering = False
        self._registering = False
        # Members a replica-aware split handed to us, to be re-pointed at
        # this peer once the new directory role is actually active:
        # ``(position, [addresses])`` (overload extension, inert otherwise).
        self._shed_notices: Optional[tuple] = None
        # A member transfer to the successor instance is in flight.
        self._shedding_members = False
        #: Successful ``flower.fetch`` replies served from our cache --
        #: the per-peer content-load signal behind the Gini reports.
        self.fetches_served = 0
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
        # --- warm failover (section 5.3; inert while replication_k == 0) ---
        self.replica_store = ReplicaStore()
        self._replicator: Optional[DirectoryReplicator] = None
        self._reconciling = False
        self._last_announce_ms = float("-inf")
        # --- scoped search failover (section 5.4; needs a search engine) ---
        # Replica holders of our directory slot, piggybacked on keepalive /
        # push / registration replies; consulted when a search cannot be
        # answered by the directory itself.
        self._search_replicas: List[Address] = []
        self._search_members: List[Address] = []
        self._search_position: Optional[int] = None
        # --- queue-aware redirect hints (overload extension; inert unless
        # params.redirect_hints) --- instance address -> (queue depth,
        # as-of time), harvested from directory replies and replica-sync
        # load vectors; consulted to pre-route a query to the least-loaded
        # live instance before the admission queue sheds it.
        self._petal_loads: Dict[Address, tuple] = {}
        # --- delivery fast path ---
        # Pre-register dispatch wrappers so ``Network._deliver`` hits the
        # handler cache directly and skips the ``on_message`` frame for the
        # kinds that dominate a run.  Each wrapper re-reads the live role
        # (``self.directory``) at call time, so invoking it is behaviourally
        # identical to routing through :meth:`on_message`.
        cache = self._handler_cache
        cache["chord.route"] = self._dispatch_chord_route
        cache["chord.route_result"] = self._dispatch_chord_route_result
        cache["gossip.shuffle"] = self._dispatch_gossip_shuffle
        for kind in (
            "chord.get_state",
            "chord.notify",
            "chord.ping",
            "chord.probe",
            "chord.successor_hint",
            "chord.predecessor_hint",
        ):
            cache[kind] = self._dispatch_chord_component

    # ------------------------------------------------------------ dispatch
    def on_message(self, message: Message) -> Optional[Dict[str, Any]]:
        """Route chord/gossip traffic to components, the rest to handlers.

        The checks are ordered by observed message frequency (``chord.route``
        dominates a Flower run), and the chord component's handler cache is
        consulted directly rather than through ``ChordNode.on_message`` --
        this method runs once for every delivered message in the system.
        """
        kind = message.kind
        if kind == "chord.route":
            chord = self.directory.chord if self.directory is not None else None
            return route_step(chord, self, message)
        if kind == "chord.route_result":
            return deliver_route_result(self, message)
        if kind.startswith("chord."):
            directory = self.directory
            chord = directory.chord if directory is not None else None
            if chord is None:
                # Stale D-ring traffic for a role we no longer hold.
                if kind == "chord.probe":
                    return {"status": "not_ready"}
                return {}
            handler = chord._handler_cache.get(kind)
            if handler is None:
                return chord.on_message(message)  # resolve + cache once
            return handler(message)
        if kind == "gossip.shuffle":
            return self.gossip.handle_shuffle(message)
        handler = self._handler_cache.get(kind)
        if handler is None:
            return super().on_message(message)  # resolve + cache once
        return handler(message)

    # Cache-resident wrappers (see ``__init__``): one Python frame instead of
    # the full ``on_message`` prefix-matching cascade per delivery.
    def _dispatch_chord_route(self, message: Message) -> Optional[Dict[str, Any]]:
        directory = self.directory
        return route_step(
            directory.chord if directory is not None else None, self, message
        )

    def _dispatch_chord_route_result(self, message: Message) -> Optional[Dict[str, Any]]:
        return deliver_route_result(self, message)

    def _dispatch_gossip_shuffle(self, message: Message) -> Optional[Dict[str, Any]]:
        return self.gossip.handle_shuffle(message)

    def _dispatch_chord_component(self, message: Message) -> Optional[Dict[str, Any]]:
        directory = self.directory
        chord = directory.chord if directory is not None else None
        if chord is None:
            if message.kind == "chord.probe":
                return {"status": "not_ready"}
            return {}
        handler = chord._handler_cache.get(message.kind)
        if handler is None:
            return chord.on_message(message)  # resolve + cache once
        return handler(message)

    # ------------------------------------------------------------ lifecycle
    def _on_session_begin(self) -> None:
        # The browser cache survived the crash; the membership state did not.
        self.summary = make_summary(self.system.params.summary_kind)
        for key in self.store.keys():
            self.summary.add(key)
        if not self.system.catalog.is_active(self.website):
            # Peers of non-active websites are "simply added to [their]
            # petal upon arrival" (section 6.1) -- they join through a
            # register scan rather than a first query.
            self.sim.schedule(
                self.rng.uniform(0.0, self.system.params.query_interval_ms),
                self._register_with_petal,
            )

    def _on_crash(self) -> None:
        for process_attr in ("_gossip_process", "_keepalive_process", "_sweep_process"):
            process = getattr(self, process_attr)
            if process is not None:
                process.cancel()
                setattr(self, process_attr, None)
        if self.directory is not None:
            self.system.unregister_directory(self, self.directory)
            if self.directory.chord is not None:
                self.directory.chord.shutdown()
            self.directory = None
        if self._replicator is not None:
            self._replicator.stop()
            self._replicator = None
        self.replica_store.clear()
        self._reconciling = False
        self._last_announce_ms = float("-inf")
        self.dir_info = None
        self.view.clear()
        self.peer_summaries.clear()
        self._recovering = False
        self._registering = False
        self._shed_notices = None
        self._shedding_members = False
        self._dir_strikes = 0
        self._reprobe_pending = False
        self._pending_pushes.clear()
        self._search_replicas = []
        self._search_members = []
        self._search_position = None
        self._petal_loads = {}

    @property
    def is_directory(self) -> bool:
        return self.directory is not None

    @property
    def in_petal(self) -> bool:
        """Content peer of some petal (registered with a directory)?"""
        return self.dir_info is not None or self.is_directory

    # =====================================================================
    # Query resolution
    # =====================================================================
    def _resolve_query(self, key: ObjectKey, started_at: float) -> None:
        """Resolve one query via the Flower-CDN paths (module docstring)."""
        if key in self.store:
            self._finish_query(key, "hit_local", self.address, started_at)
            return
        if self.directory is not None and self._serves_own_petal():
            self._query_own_directory(key, started_at)
        elif self.dir_info is not None:
            self._query_as_content_peer(key, started_at)
        else:
            self._scan_dring(key=key, started_at=started_at, instance=0, tries=0)

    def _serves_own_petal(self) -> bool:
        d = self.directory
        return (
            d is not None
            and d.website == self.website
            and d.locality == self.locality
        )

    # ------------------------------------------------- directory's own query
    def _query_own_directory(self, key: ObjectKey, started_at: float) -> None:
        """A directory peer resolves its own query from its index."""
        d = self.directory
        d.queries_handled += 1
        provider = d.pick_provider(key, self.rng, exclude={self.address})
        if provider is not None:
            if self.system.params.rebalance:
                d.note_fetch(key)
            self._fetch_provider(
                key,
                provider,
                "hit_directory",
                started_at,
                sources=self._provider_hints(d, key, {self.address, provider}),
            )
            return
        candidates = self._summary_candidates(key)
        if candidates:
            self._try_summary_fetch(key, candidates, started_at)
            return
        self._fetch_from_server(key, "miss_server", started_at)

    # ------------------------------------------------- content-peer queries
    def _query_as_content_peer(self, key: ObjectKey, started_at: float) -> None:
        candidates = self._summary_candidates(key)
        if candidates:
            self._try_summary_fetch(key, candidates, started_at)
        else:
            self._ask_directory(key, started_at)

    def _summary_candidates(self, key: ObjectKey) -> List[Address]:
        """Petal members whose gossiped summary advertises *key*, closest
        (lowest measured latency) first."""
        candidates = [
            address
            for address, summary in self.peer_summaries.items()
            if address != self.address
            and address in self.view
            and summary.contains(key)
        ]
        candidates.sort(key=lambda a: self.network.latency(self.address, a))
        return candidates

    def _try_summary_fetch(
        self,
        key: ObjectKey,
        candidates: List[Address],
        started_at: float,
        attempt: int = 0,
    ) -> None:
        if not candidates or attempt >= _MAX_SUMMARY_ATTEMPTS:
            self._ask_directory(key, started_at)
            return
        provider = candidates[0]

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("ok"):
                self._finish_query(key, "hit_summary", provider, started_at)
            else:
                # Bloom false positive (or a summary raced a pruned cache).
                self.peer_summaries.pop(provider, None)
                self._try_summary_fetch(key, candidates[1:], started_at, attempt + 1)

        def on_timeout() -> None:
            self._drop_contact(provider)
            self._try_summary_fetch(key, candidates[1:], started_at, attempt + 1)

        self.rpc(provider, "flower.fetch", {"key": key}, on_reply, on_timeout)

    def _ask_directory(self, key: ObjectKey, started_at: float) -> None:
        info = self.dir_info
        if info is None:
            self._scan_dring(key=key, started_at=started_at, instance=0, tries=0)
            return
        if self._dir_suspect:
            # Degraded mode: summaries were already tried; do not stall the
            # query on a directory we currently cannot reach.  The re-probe
            # chain decides whether it recovered or truly failed.
            self._fetch_from_server(key, "miss_failed", started_at)
            return
        if self.system.params.redirect_hints:
            route = self._hint_preroute(info)
            if route is not None:
                target, depth_from, depth_to = route
                self._query_hinted_instance(
                    key, started_at, target, info, depth_from, depth_to
                )
                return
        self._ask_home_directory(key, started_at, info)

    def _ask_home_directory(
        self, key: ObjectKey, started_at: float, info: Optional[DirInfo] = None
    ) -> None:
        """Ask our own directory instance (the pre-hints query path).

        Also the fallback after a stale hint-guided hop: *info* is then
        re-read (the home directory may have changed or failed during the
        hop), so a query never dead-ends on a cached pointer.
        """
        if info is None:
            info = self.dir_info
            if info is None:
                self._scan_dring(key=key, started_at=started_at, instance=0, tries=0)
                return
            if self._dir_suspect:
                self._fetch_from_server(key, "miss_failed", started_at)
                return

        def apply(payload: Dict[str, Any]) -> None:
            status = payload.get("status")
            if status == "shed":
                redirect = payload.get("redirect")
                if redirect is not None and redirect != self.address:
                    self._query_redirect_instance(key, started_at, redirect)
                else:
                    self._fail_query(key, "shed_overload", started_at)
                return
            if status == "provider":
                self._fetch_provider(
                    key,
                    payload["provider"],
                    "hit_directory",
                    started_at,
                    sources=payload.get("providers"),
                )
            elif payload.get("sibling_address") is not None:
                self._ask_sibling(
                    key, payload["sibling_address"], started_at, {info.address}
                )
            else:
                self._fetch_from_server(key, "miss_server", started_at)

        def on_reply(payload: Dict[str, Any]) -> None:
            status = payload.get("status")
            if status == "not_directory":
                self._on_directory_failure(info)
                self._fetch_from_server(key, "miss_failed", started_at)
                return
            info.age = 0
            self._harvest_load_hint(payload)
            self._note_directory_alive(info)
            self._after_queue_wait(payload, key, started_at, lambda: apply(payload))

        def on_give_up() -> None:
            self._on_directory_strike(info)
            self._fetch_from_server(key, "miss_failed", started_at)

        self._directory_rpc(
            info, "flower.query", {"key": key, "member": True}, on_reply, on_give_up
        )

    def _after_queue_wait(
        self,
        payload: Dict[str, Any],
        key: Optional[ObjectKey],
        started_at: Optional[float],
        continuation: Callable[[], None],
    ) -> None:
        """Run *continuation* after the reply's admission-queue wait.

        Transport replies are synchronous, so a directory models its
        bounded queue by stamping ``queue_wait_ms`` on the reply: the
        answer is in hand but only takes effect once the request's turn
        in the queue would have come.  Replies without the stamp (the
        default: ``directory_queue_limit == 0``) continue immediately on
        the exact pre-queueing code path.  The deferred continuation is
        dropped if this peer crashed or the query's ledger entry was
        superseded during the wait.
        """
        wait = payload.get("queue_wait_ms")
        if not wait:
            continuation()
            return

        def resume() -> None:
            if not self.alive:
                return
            if key is not None and self._open_queries.get(key) != started_at:
                return
            continuation()

        self.sim.schedule(wait, resume)

    def _query_redirect_instance(
        self, key: ObjectKey, started_at: float, address: Address
    ) -> None:
        """One failover attempt after a shed: ask the next PetalUp instance.

        The shedding directory named its successor instance (warm, under
        ``overload_shedding`` seeded with half its members), so the member
        retries there directly -- no D-ring scan.  A second shed, a
        timeout, or a not-a-directory answer ends the query with the
        terminal ``shed_overload`` outcome; there is no queue to wait in
        twice.
        """

        def apply(payload: Dict[str, Any]) -> None:
            status = payload.get("status")
            if status == "provider" and payload.get("provider") is not None:
                self._fetch_provider(
                    key,
                    payload["provider"],
                    "hit_directory",
                    started_at,
                    sources=payload.get("providers"),
                )
            elif status in ("shed", "not_directory"):
                self._fail_query(key, "shed_overload", started_at)
            else:
                self._fetch_from_server(key, "miss_server", started_at)

        def on_reply(payload: Dict[str, Any]) -> None:
            # The successor's reply carries its own load vector: the next
            # query can pre-route here without being shed at home first.
            self._harvest_load_hint(payload)
            self._after_queue_wait(payload, key, started_at, lambda: apply(payload))

        self.rpc(
            address,
            "flower.query",
            {"key": key, "member": True},
            on_reply,
            on_timeout=lambda: self._fail_query(key, "shed_overload", started_at),
        )

    # ------------------------------------------- queue-aware redirect hints
    def _fresh_depth(self, load: tuple, now: float, ttl_ms: float) -> Optional[int]:
        """A harvested depth while still actionable, else None.

        Queue depths are taken at face value within ``hint_ttl_ms`` of
        their measurement: the overload that filled a queue persists on
        the hint-refresh timescale (replies, keepalives, replica syncs),
        so extrapolating drain would systematically under-estimate.  Past
        the TTL the hint says nothing and is ignored.
        """
        depth, as_of = load
        if now - as_of > ttl_ms:
            return None
        return depth

    def _hint_preroute(self, info: DirInfo) -> Optional[tuple]:
        """Pick a better-looking instance than home, or None.

        Pre-routes only when fresh hints say the home instance's
        admission queue is at its limit (we would be shed) *and* some
        other known instance looks strictly less loaded.  Returns
        ``(target, home_depth, target_depth)``.
        """
        params = self.system.params
        limit = params.directory_queue_limit
        if limit < 1 or not self._petal_loads:
            return None
        now = self.sim.now
        ttl = params.hint_ttl_ms
        home = self._petal_loads.get(info.address)
        if home is None:
            return None
        home_depth = self._fresh_depth(home, now, ttl)
        if home_depth is None or home_depth < limit:
            return None
        best: Optional[Address] = None
        best_depth = home_depth
        for address in sorted(self._petal_loads):
            if address == info.address or address == self.address:
                continue
            depth = self._fresh_depth(self._petal_loads[address], now, ttl)
            if depth is not None and depth < best_depth:
                best = address
                best_depth = depth
        if best is None:
            return None
        return best, home_depth, best_depth

    def _query_hinted_instance(
        self,
        key: ObjectKey,
        started_at: float,
        target: Address,
        home: DirInfo,
        depth_from: int,
        depth_to: int,
    ) -> None:
        """One hint-guided pre-route hop (overload extension).

        Exactly one: every outcome below is terminal or hands off to an
        already-bounded path (the post-shed redirect, the home-directory
        fallback, the origin server), so a stale hint can cost at most
        one extra RPC -- never a routing loop -- and the ledger entry
        closes exactly once on every branch.
        """
        self.system.hint_hops += 1
        if self.sim.tracing("flower.hint_hop"):
            self.sim.emit(
                "flower.hint_hop",
                peer=self.address,
                key=key,
                frm=home.address,
                to=target,
                depth_from=depth_from,
                depth_to=depth_to,
            )

        def apply(payload: Dict[str, Any]) -> None:
            status = payload.get("status")
            if status == "provider" and payload.get("provider") is not None:
                self.system.hint_hits += 1
                self._fetch_provider(
                    key,
                    payload["provider"],
                    "hit_directory",
                    started_at,
                    sources=payload.get("providers"),
                )
            elif status == "shed":
                redirect = payload.get("redirect")
                if redirect is not None and redirect not in (self.address, target):
                    self._query_redirect_instance(key, started_at, redirect)
                else:
                    self._fail_query(key, "shed_overload", started_at)
            elif status == "not_directory":
                # Stale hint: the instance crashed or demoted since it
                # gossiped its load.  Forget it and fall back to today's
                # home-directory path (re-read, in case home moved too).
                self._petal_loads.pop(target, None)
                self.system.hint_stale += 1
                self._ask_home_directory(key, started_at)
            else:
                self._fetch_from_server(key, "miss_server", started_at)

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("status") != "not_directory":
                self._harvest_load_hint(payload)
            self._after_queue_wait(payload, key, started_at, lambda: apply(payload))

        def on_timeout() -> None:
            # Dead hinted instance: accounted as a miss, hint dropped.
            self._petal_loads.pop(target, None)
            self.system.hint_stale += 1
            self._fetch_from_server(key, "miss_failed", started_at)

        self.rpc(target, "flower.query", {"key": key, "member": True}, on_reply, on_timeout)

    def _harvest_load_hint(self, payload: Dict[str, Any]) -> None:
        """Remember the load vector piggybacked on a directory reply."""
        hint = payload.get("load_hint")
        if hint is None:
            return
        now = self.sim.now
        for address, depth, age_ms in hint:
            self._note_petal_load(address, depth, now - age_ms)

    def _note_petal_load(self, address: Address, depth: int, as_of: float) -> None:
        if address == self.address:
            return
        current = self._petal_loads.get(address)
        if current is None or as_of >= current[1]:
            self._petal_loads[address] = (depth, as_of)

    def _ask_sibling(
        self,
        key: ObjectKey,
        sibling: Address,
        started_at: float,
        visited: Set[Address],
    ) -> None:
        """Directory collaboration (section 3.2): walk the same website's
        directory peers -- ring neighbours thanks to the key management
        service -- before giving up on the P2P system.  The walk follows
        successor direction along the website's contiguous identifier arc
        and stops at its end, at a repeat, or after k-1 extra directories.
        """
        visited = visited | {sibling}

        def apply(payload: Dict[str, Any]) -> None:
            provider = payload.get("provider")
            if payload.get("status") == "provider" and provider is not None:
                self._fetch_provider(
                    key,
                    provider,
                    "hit_transfer",
                    started_at,
                    sources=payload.get("providers"),
                )
                return
            next_sibling = payload.get("sibling_address")
            if (
                next_sibling is not None
                and next_sibling not in visited
                and next_sibling != self.address
                and len(visited) <= self.system.binner.num_localities
            ):
                self._ask_sibling(key, next_sibling, started_at, visited)
            else:
                self._fetch_from_server(key, "miss_server", started_at)

        def on_reply(payload: Dict[str, Any]) -> None:
            self._after_queue_wait(payload, key, started_at, lambda: apply(payload))

        self.rpc(
            sibling,
            "flower.query",
            {"key": key, "foreign": True},
            on_reply,
            on_timeout=lambda: self._fetch_from_server(key, "miss_server", started_at),
        )

    def _fetch_provider(
        self,
        key: ObjectKey,
        provider: Address,
        outcome: str,
        started_at: float,
        hops: int = 0,
        sibling: Optional[Address] = None,
        sources: Optional[List[Address]] = None,
    ) -> None:
        if provider == self.address:
            self._finish_query(key, "hit_local", self.address, started_at, hops)
            return
        system = self.system
        if (
            system.params.swarming
            and system.sizes is not None
            and system.sizes.chunk_count(key) > 1
        ):
            # Large object: chunked multi-source transfer with per-chunk
            # failover instead of one atomic fetch (repro.cdn.swarm).
            SwarmTransfer(
                self, key, provider, started_at, hops, extra_sources=sources
            ).start()
            return

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("ok"):
                self._finish_query(key, outcome, provider, started_at, hops)
            else:
                self._fetch_from_server(key, "miss_failed", started_at, hops)

        def on_timeout() -> None:
            self._drop_contact(provider)
            # Tell our directory so it stops redirecting others to a corpse
            # before the next expiry sweep notices.
            if self.dir_info is not None:
                self.send(self.dir_info.address, "flower.dead_provider", dead=provider)
            self._fetch_from_server(key, "miss_failed", started_at, hops)

        self.rpc(provider, "flower.fetch", {"key": key}, on_reply, on_timeout)

    def handle_flower_dead_provider(self, message: Message) -> None:
        """A client observed one of our indexed providers dead: evict it."""
        d = self.directory
        if d is not None:
            d.remove_member(message.payload["dead"])
        return None

    # --------------------------------------------------- new-client D-ring
    def _scan_dring(
        self,
        key: Optional[ObjectKey],
        started_at: Optional[float],
        instance: int,
        tries: int,
    ) -> None:
        """Route over D-ring to d(ws, loc, instance); register on arrival.

        With ``key`` set this is a new client's query (section 3.2); with
        ``key=None`` it is a bare petal registration (non-active websites,
        or a re-join after losing the directory).
        """
        service = self.system.key_service
        position = service.position_id(self.website, self.locality, instance)
        bootstrap = self.system.ring.random_bootstrap(self.rng)
        if bootstrap is None:
            # D-ring is empty: we are the first participant of the system.
            self._claim_directory_position(key, started_at, instance=0)
            return
        lookup_node = ChordNode(self, self.system.ring, position)

        def on_lookup(result: LookupResult) -> None:
            if not self.alive:
                return
            if not result.ok:
                self._scan_failed(key, started_at)
            elif result.found.id == position:
                self._contact_directory(
                    key, started_at, result.found, instance, tries, result.hops
                )
            elif instance == 0:
                # Vacant position: no directory for our petal exists.  A new
                # client "can try to join D-ring as a directory peer"
                # (section 5.2.2, case 2).
                self._claim_directory_position(key, started_at, instance=0)
            else:
                # Every existing instance was overloaded and the next slot
                # is still vacant; instance-1 (the final one) must process
                # (it also triggers the PetalUp split -- section 4).
                self._scan_failed(key, started_at)

        # A transient Chord node object drives the lookup; it never joins
        # the ring (lookups from non-members start at a bootstrap member).
        lookup_node.lookup(position, on_lookup, start=bootstrap)

    def _contact_directory(
        self,
        key: Optional[ObjectKey],
        started_at: Optional[float],
        found: NodeRef,
        instance: int,
        tries: int,
        hops: int,
    ) -> None:
        payload: Dict[str, Any] = {"new_client": True}
        if key is not None:
            payload["key"] = key
        else:
            payload["register_only"] = True
            payload["keys"] = sorted(self.store.keys())

        def apply(reply: Dict[str, Any]) -> None:
            status = reply.get("status")
            if status == "scan" and reply.get("next_address") is not None:
                next_instance = instance + 1
                if next_instance < self.system.params.max_instances:
                    self._contact_directory(
                        key,
                        started_at,
                        NodeRef(found.id + 1, reply["next_address"]),
                        next_instance,
                        tries,
                        hops,
                    )
                else:
                    self._scan_failed(key, started_at)
                return
            if status == "shed":
                # Rejected at the admission queue before registration.
                # Follow the redirect down the instance chain if one
                # exists; otherwise the query ends shed (a registration
                # attempt simply retries later).
                redirect = reply.get("redirect")
                next_instance = instance + 1
                if (
                    redirect is not None
                    and next_instance < self.system.params.max_instances
                ):
                    self._contact_directory(
                        key,
                        started_at,
                        NodeRef(found.id + 1, redirect),
                        next_instance,
                        tries,
                        hops,
                    )
                elif key is not None and started_at is not None:
                    self._fail_query(key, "shed_overload", started_at)
                else:
                    self._retry_scan(key, started_at, tries)
                return
            if status == "not_directory":
                self._retry_scan(key, started_at, tries)
                return
            self._adopt_registration(reply)
            if key is None or started_at is None:
                return
            if status == "provider":
                self._fetch_provider(
                    key,
                    reply["provider"],
                    "hit_directory",
                    started_at,
                    hops,
                    sources=reply.get("providers"),
                )
            elif reply.get("sibling_address") is not None:
                self._ask_sibling(
                    key, reply["sibling_address"], started_at, {found.address}
                )
            else:
                self._fetch_from_server(key, "miss_server", started_at, hops)

        def on_reply(reply: Dict[str, Any]) -> None:
            self._after_queue_wait(reply, key, started_at, lambda: apply(reply))

        params = self.system.params
        self.retrying_rpc(
            found.address,
            "flower.query",
            payload,
            on_reply=on_reply,
            on_give_up=lambda: self._retry_scan(key, started_at, tries),
            retries=params.rpc_retries,
            backoff_ms=params.rpc_backoff_ms,
        )

    def _retry_scan(
        self,
        key: Optional[ObjectKey],
        started_at: Optional[float],
        tries: int,
    ) -> None:
        if tries + 1 < _MAX_SCAN_TRIES:
            self.sim.schedule(
                self.system.params.scan_retry_delay_ms,
                self._scan_dring,
                key,
                started_at,
                0,
                tries + 1,
            )
        else:
            self._scan_failed(key, started_at)

    def _scan_failed(self, key: Optional[ObjectKey], started_at: Optional[float]) -> None:
        self._registering = False
        if key is not None and started_at is not None:
            self._fetch_from_server(key, "miss_failed", started_at)
        elif self.alive and not self.in_petal:
            # A bare registration attempt failed: try again later (query-less
            # peers have no other trigger to re-enter the petal).
            self.sim.schedule(
                4 * self.system.params.scan_retry_delay_ms,
                self._register_with_petal,
            )

    def _adopt_registration(self, reply: Dict[str, Any]) -> None:
        """Join the petal: record dir-info, seed the view, start gossip."""
        self._registering = False
        position = reply.get("dir_position")
        address = reply.get("dir_address")
        if position is None or address is None:
            return
        if self.directory is not None:
            return  # we became a directory in the meantime
        self.dir_info = DirInfo(position, address, age=0)
        self._dir_strikes = 0
        self._pending_pushes.clear()
        self._harvest_search_replicas(reply)
        self._harvest_load_hint(reply)
        for contact_address in reply.get("view_sample", []):
            if contact_address != self.address:
                self.view.add(Contact(contact_address, age=0))
        self._start_content_processes()
        self.sim.emit(
            "flower.joined_petal", peer=self.address, position=position
        )
        # This directory has never seen our cache: push everything we hold
        # so the directory-index reflects it (section 5.1).
        self.store.reset_push_state()
        if len(self.store):
            self._push_to_directory()

    def _register_with_petal(self) -> None:
        """Bare registration (no query): non-active arrivals and re-joins."""
        if not self.alive or self.in_petal or self._registering or self._recovering:
            return
        self._registering = True
        self._scan_dring(key=None, started_at=None, instance=0, tries=0)

    # =====================================================================
    # Content-role periodic behaviour
    # =====================================================================
    def _start_content_processes(self) -> None:
        params = self.system.params
        if self._gossip_process is None or not self._gossip_process.active:
            self._gossip_process = PeriodicProcess(
                self.sim,
                params.gossip_period_ms,
                self._gossip_tick,
                initial_delay=self.rng.uniform(0.0, params.gossip_period_ms),
                jitter=0.05,
                rng=self.rng,
            )
        if self._keepalive_process is None or not self._keepalive_process.active:
            self._keepalive_process = PeriodicProcess(
                self.sim,
                params.keepalive_period_ms,
                self._keepalive_tick,
                initial_delay=self.rng.uniform(0.0, params.keepalive_period_ms),
                jitter=0.05,
                rng=self.rng,
            )

    def _gossip_tick(self) -> None:
        if self.alive and self.directory is None:
            self.gossip.gossip_round()

    def _gossip_data(self) -> Dict[str, Any]:
        return {
            "summary": self.summary.snapshot(),
            "dir": self.dir_info.pack() if self.dir_info else None,
        }

    def _on_gossip_data(self, src: Address, data: Dict[str, Any]) -> None:
        summary = data.get("summary")
        if summary is not None:
            self.peer_summaries[src] = summary
        self._reconcile_dir_info(DirInfo.unpack(data.get("dir")))

    def _reconcile_dir_info(self, incoming: Optional[DirInfo]) -> None:
        """Keep the fresher information about the same directory position
        (section 5.1); adopt any directory of our petal if we have none."""
        if incoming is None or self.directory is not None:
            return
        mine = self.dir_info
        if mine is None:
            decoded = self.system.key_service.decode(incoming.position_id)
            if decoded is not None and decoded[0] == self.website and decoded[1] == self.locality:
                self.dir_info = DirInfo(
                    incoming.position_id, incoming.address, incoming.age
                )
                self._start_content_processes()
                self.store.reset_push_state()
                if len(self.store):
                    self._push_to_directory()
            return
        if mine.position_id == incoming.position_id and incoming.age < mine.age:
            replaced = mine.address != incoming.address
            mine.address = incoming.address
            mine.age = incoming.age
            if replaced:
                # The slot changed hands: the replacement directory must
                # learn our content to rebuild its index (section 5.2.2).
                self._dir_strikes = 0
                self._pending_pushes.clear()
                self.store.reset_push_state()
                if len(self.store):
                    self._push_to_directory()

    def _on_contact_dead(self, address: Address) -> None:
        self.peer_summaries.pop(address, None)

    def _drop_contact(self, address: Address) -> None:
        self.view.remove(address)
        self.peer_summaries.pop(address, None)

    def _keepalive_tick(self) -> None:
        if not self.alive or self.directory is not None:
            return
        info = self.dir_info
        if info is None:
            self._register_with_petal()
            return
        if self._dir_suspect:
            return  # the re-probe chain owns contact attempts while suspect
        info.age += 1

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("status") == "ok":
                info.age = 0
                self._harvest_search_replicas(payload)
                self._harvest_load_hint(payload)
                self._note_directory_alive(info)
            else:
                self._on_directory_failure(info)

        self._directory_rpc(
            info,
            "flower.keepalive",
            {},
            on_reply,
            lambda: self._on_directory_strike(info),
        )

    def _push_to_directory(self) -> None:
        info = self.dir_info
        if info is None or not self.alive:
            return
        keys = sorted(self.store.keys())
        if self._dir_suspect:
            self._queue_push(keys)
            return

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("status") == "ok":
                self.store.mark_pushed()
                info.age = 0
                # This push carried the full key list, superseding anything
                # queued while the directory was suspect.
                self._pending_pushes.clear()
                self._harvest_search_replicas(payload)
                self._harvest_load_hint(payload)
                self._note_directory_alive(info)
            else:
                self._on_directory_failure(info)

        def on_give_up() -> None:
            self._queue_push(keys)
            self._on_directory_strike(info)

        self._directory_rpc(info, "flower.push", {"keys": keys}, on_reply, on_give_up)

    # ----------------------------------------- suspect-directory degradation
    @property
    def _dir_suspect(self) -> bool:
        """Directory currently unreachable but not yet declared failed."""
        return self._dir_strikes > 0

    def _directory_rpc(
        self,
        info: DirInfo,
        kind: str,
        payload: Dict[str, Any],
        on_reply: Callable[[Dict[str, Any]], None],
        on_give_up: Callable[[], None],
    ) -> None:
        """All directory-facing RPCs share the retry budget/backoff knobs."""
        params = self.system.params
        self.retrying_rpc(
            info.address,
            kind,
            payload,
            on_reply=on_reply,
            on_give_up=on_give_up,
            retries=params.rpc_retries,
            backoff_ms=params.rpc_backoff_ms,
        )

    def _on_directory_strike(self, info: DirInfo) -> None:
        """One directory RPC exhausted its whole retry budget.

        Below ``dir_failure_threshold`` strikes the directory is only
        *suspect* -- we keep serving queries from gossip-learnt summaries,
        queue pushes, and schedule a fast re-probe.  At the threshold we
        declare failure and race for the slot (section 5.2.1).
        """
        if not self.alive or self.dir_info is not info:
            return
        self._dir_strikes += 1
        params = self.system.params
        self.sim.emit(
            "flower.directory_suspect",
            peer=self.address,
            position=info.position_id,
            strikes=self._dir_strikes,
        )
        if self._dir_strikes >= params.dir_failure_threshold:
            self._dir_strikes = 0
            self._pending_pushes.clear()
            self._on_directory_failure(info)
            return
        if not self._reprobe_pending:
            self._reprobe_pending = True
            self.sim.schedule(
                params.scan_retry_delay_ms, self._reprobe_directory, info
            )

    def _reprobe_directory(self, info: DirInfo) -> None:
        self._reprobe_pending = False
        if not self.alive or self.dir_info is not info or not self._dir_suspect:
            return

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("status") == "ok":
                info.age = 0
                self._harvest_search_replicas(payload)
                self._harvest_load_hint(payload)
                self._note_directory_alive(info)
            else:
                self._on_directory_failure(info)

        self._directory_rpc(
            info, "flower.keepalive", {}, on_reply, lambda: self._on_directory_strike(info)
        )

    def _note_directory_alive(self, info: DirInfo) -> None:
        """Any successful directory contact clears suspicion and flushes
        the queued pushes (coalesced: pushes carry the full key list, so
        one fresh push supersedes everything queued during the outage)."""
        if self._dir_strikes:
            self._dir_strikes = 0
            self.sim.emit(
                "flower.directory_recovered",
                peer=self.address,
                position=info.position_id,
            )
        if self._pending_pushes:
            self._pending_pushes.clear()
            self.sim.emit("flower.push_flushed", peer=self.address)
            self._push_to_directory()

    def _queue_push(self, keys: List[ObjectKey]) -> None:
        self._pending_pushes.append(keys)
        self.sim.emit(
            "flower.push_queued",
            peer=self.address,
            queued=len(self._pending_pushes),
        )

    def _on_evicted(self, keys) -> None:
        # An exact summary simply unlearns the evicted keys.  A Bloom
        # filter cannot, so it is rebuilt from the store.  Either way the
        # next push carries the full key list and the directory's
        # set-diff unlearns the evictions.
        discard = getattr(self.summary, "discard", None)
        if discard is not None:
            discard(keys)
            return
        self.summary = make_summary(self.system.params.summary_kind)
        for key in self.store.keys():
            self.summary.add(key)

    def _after_query(self, key: ObjectKey, outcome: str) -> None:
        self.summary.add(key)
        self._maybe_place_chunks(key)
        if self.directory is not None:
            return  # a directory consults its own store directly
        if self.dir_info is not None and self.store.should_push(
            self.system.params.push_threshold
        ):
            self._push_to_directory()

    # =====================================================================
    # Directory failure recovery and role acquisition (section 5.2)
    # =====================================================================
    def _on_directory_failure(self, info: DirInfo) -> None:
        """We observed our directory peer dead: race to replace it."""
        if self.dir_info is not info and self.dir_info is not None:
            return  # already re-pointed (gossip beat us to it)
        self.dir_info = None
        self._dir_strikes = 0
        self._reprobe_pending = False
        self._pending_pushes.clear()
        self.sim.emit(
            "flower.directory_failure_detected",
            peer=self.address,
            position=info.position_id,
        )
        if self._recovering or self.directory is not None:
            return
        decoded = self.system.key_service.decode(info.position_id)
        if decoded is None:
            return
        website, locality, instance = decoded
        self._begin_directory_role(website, locality, instance, info.position_id)

    def _claim_directory_position(
        self,
        key: Optional[ObjectKey],
        started_at: Optional[float],
        instance: int,
    ) -> None:
        """A new client found its petal's position vacant (section 5.2.2)."""
        self._registering = False
        if self._recovering or self.directory is not None:
            if key is not None and started_at is not None:
                self._fetch_from_server(key, "miss_server", started_at)
            return
        position = self.system.key_service.position_id(
            self.website, self.locality, instance
        )
        self._begin_directory_role(
            self.website, self.locality, instance, position
        )
        if key is not None and started_at is not None:
            # Nobody indexed our petal yet; this query can only be a miss.
            self._fetch_from_server(key, "miss_server", started_at)

    def _begin_directory_role(
        self,
        website: int,
        locality: int,
        instance: int,
        position: ChordId,
        snapshot: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Try to join D-ring at *position*; only the first joiner wins."""
        self._recovering = True
        role = DirectoryRole(self.address, website, locality, instance, position)
        self._attach_search(role)
        role.chord = ChordNode(self, self.system.ring, position)
        if snapshot is not None:
            role.adopt_snapshot(snapshot)
        bootstrap = self.system.ring.random_bootstrap(self.rng)

        def on_joined() -> None:
            self._directory_role_active(role)

        def on_failed(reason: str, holder: Optional[NodeRef]) -> None:
            self._recovering = False
            self._shed_notices = None
            role.chord.shutdown()
            role.chord = None
            if holder is not None and self.alive:
                # Someone else integrated first: adopt them (section 5.2.2)
                # and hand them our content by pushing.
                self.dir_info = DirInfo(position, holder.address, age=0)
                self._start_content_processes()
                self.store.reset_push_state()
                if len(self.store):
                    self._push_to_directory()
            elif (
                reason == "lookup"
                and self.alive
                and self._replication_on
                and self.directory is None
            ):
                # D-ring is unreachable -- most likely we sit on the minority
                # side of a partition.  Serve the petal *provisionally*
                # (seeded from any replica we hold) and keep retrying the
                # integration; the reconciliation protocol resolves any
                # split-brain claim once the partition heals (section 5.3).
                self._activate_provisional(role)
            self.sim.emit(
                "flower.directory_join_failed",
                peer=self.address,
                reason=reason,
            )

        if bootstrap is None:
            role.chord.create()
            self._directory_role_active(role)
        else:
            role.chord.join(bootstrap, on_joined, on_failed)

    def _directory_role_active(self, role: DirectoryRole) -> None:
        self._recovering = False
        if not self.alive:
            role.chord.shutdown()
            return
        self._attach_search(role)
        self.directory = role
        self.system.register_directory(self, role)
        self.dir_info = None
        # Directory peers leave the content-peer gossip/keepalive loops;
        # their view and summaries live on to answer early queries
        # ("p can try to answer first received queries from its content
        # summaries" -- section 5.2.2).
        params = self.system.params
        if self._sweep_process is None or not self._sweep_process.active:
            self._sweep_process = PeriodicProcess(
                self.sim,
                params.keepalive_period_ms,
                self._sweep_tick,
                initial_delay=params.keepalive_period_ms,
                jitter=0.05,
                rng=self.rng,
            )
        self.sim.emit(
            "flower.directory_active",
            peer=self.address,
            position=role.position_id,
            website=role.website,
            locality=role.locality,
            instance=role.instance,
        )
        if self._replication_on:
            self._attach_replicator(role)
            if role.load == 0:
                # Cold crash-replacement: win back the index from replicas
                # instead of waiting out keepalives/pushes (section 5.3).
                self._warm_takeover(role)
        notices = self._shed_notices
        if notices is not None:
            self._shed_notices = None
            position, members = notices
            if position == role.position_id:
                # Replica-aware split: the partition members learn their
                # new directory from us, not from a failed keepalive.
                for member in members:
                    self.send(
                        member,
                        "flower.member_shed",
                        position=role.position_id,
                        address=self.address,
                    )

    def _sweep_tick(self) -> None:
        if self.directory is None or not self.alive:
            return
        role = self.directory
        expired = role.expire_members(self.system.params.member_expiry_rounds)
        if expired:
            self.system.expired_members += len(expired)
            sim = self.sim
            if sim.tracing("flower.member_expired"):
                # Per-member eviction events: the auditor (and recovery
                # reports) can tell a silent keepalive expiry apart from a
                # crash-driven removal or a failure false positive.
                for member in expired:
                    sim.emit(
                        "flower.member_expired",
                        directory=self.address,
                        member=member,
                        position=role.position_id,
                    )
            sim.emit(
                "flower.members_expired",
                directory=self.address,
                count=len(expired),
            )
        params = self.system.params
        if params.overload_shedding and role.overloaded(params.directory_load_limit):
            self._shed_members_to_successor(role)
        if params.rebalance:
            self._maybe_rebalance(role)

    def _shed_members_to_successor(self, d: DirectoryRole) -> None:
        """Replica-aware overload relief (PetalUp extension).

        A sustained-overloaded instance does not wait for new clients to
        trickle down the section-4 instance scan: it hands its excess
        members (those above ``directory_load_limit``, highest addresses
        first -- deterministic) straight to the already-running successor
        instance in one transfer, then re-points each shed member at it.
        Members only hear about the move after the successor confirmed
        adoption, so there is no window where nobody indexes them.  With
        no successor yet, fall back to triggering the split itself.
        """
        if self._shedding_members:
            return
        successor = self._next_instance_address(d)
        if successor is None:
            self._maybe_promote_next(d)
            return
        count = d.load - self.system.params.directory_load_limit
        if count <= 0:
            return
        shed = sorted(c.address for c in d.members.contacts())[-count:]
        entries = [
            (address, sorted(d.member_keys.get(address, ()))) for address in shed
        ]
        next_position = self.system.key_service.position_id(
            d.website, d.locality, d.instance + 1
        )
        self._shedding_members = True

        def on_reply(payload: Dict[str, Any]) -> None:
            self._shedding_members = False
            if not payload.get("ok") or self.directory is not d:
                return
            for address in shed:
                d.remove_member(address)
                self.send(
                    address,
                    "flower.member_shed",
                    position=next_position,
                    address=successor,
                )
            d.members_shed += len(shed)
            self.system.members_shed += len(shed)
            if self.sim.tracing("flower.members_shed"):
                self.sim.emit(
                    "flower.members_shed",
                    directory=self.address,
                    successor=successor,
                    count=len(shed),
                )

        def on_timeout() -> None:
            self._shedding_members = False

        self.rpc(
            successor,
            "flower.member_transfer",
            {"position": next_position, "entries": entries},
            on_reply,
            on_timeout,
        )

    # -------------------------------------- shedding-aware content rebalance
    def _maybe_rebalance(self, d: DirectoryRole) -> None:
        """Spill the hottest keys to under-loaded members (one sweep round).

        Reactive companion to the admission queue: shedding tells us the
        petal is over capacity, the per-key fetch counters tell us *which*
        content concentrates that load (the top Gini contributors), so we
        ask cold members to adopt copies of exactly those keys.  More
        holders per hot key spreads subsequent directory picks and summary
        hits, lowering the content-fetch Gini without moving members.
        Churn is bounded by a per-round key cap, a byte budget, and a
        cooldown of quiet sweep rounds after any spill.
        """
        params = self.system.params
        if d.rebalance_cooldown > 0:
            d.rebalance_cooldown -= 1
            return
        shed_since = d.queries_shed - d.rebalance_shed_mark
        d.rebalance_shed_mark = d.queries_shed
        pressured = shed_since > 0
        if not pressured and params.directory_queue_limit > 0:
            pressured = (
                d.queue_depth(self.sim.now, params.directory_service_ms) > 0
            )
        if not pressured:
            # Quiet round: restart the window so counts track *current*
            # heat, not the whole run.
            d.fetch_counts.clear()
            return
        hot = top_gini_contributors(d.fetch_counts, params.rebalance_max_keys)
        sizes = self.system.sizes
        budget_kb = params.rebalance_budget_kb
        spilled = 0
        round_load: Dict[Address, int] = {}
        for key in hot:
            holders = d.providers_of(key)
            if not holders:
                continue
            cost_kb = (
                sizes.size_bytes(key) / 1024.0
                if sizes is not None
                else params.rebalance_nominal_kb
            )
            if cost_kb > budget_kb:
                continue
            target = self._rebalance_target(d, key, round_load)
            if target is None:
                continue
            budget_kb -= cost_kb
            spilled += 1
            round_load[target] = round_load.get(target, 0) + 1
            d.keys_rebalanced += 1
            self.system.rebalance_spills += 1
            self.system.rebalance_kb += cost_kb
            # The index lags pushes, so any single holder may have evicted
            # the key since it registered; hand the adopter a few candidate
            # sources to try in turn instead of betting on one.
            sources = sorted(holders)[:3]
            self.send(target, "flower.rebalance", key=key, sources=sources)
            if self.sim.tracing("flower.key_rebalanced"):
                self.sim.emit(
                    "flower.key_rebalanced",
                    directory=self.address,
                    key=key,
                    target=target,
                    source=sources[0],
                    count=d.fetch_counts.get(key, 0),
                )
        d.fetch_counts.clear()
        if spilled:
            d.rebalance_cooldown = params.rebalance_cooldown_rounds

    def _rebalance_target(
        self, d: DirectoryRole, key: ObjectKey, round_load: Dict[Address, int]
    ) -> Optional[Address]:
        """The coldest member not yet holding *key* (fewest indexed keys,
        ties broken by address -- deterministic).  *round_load* counts keys
        already assigned this pass so one pass fans out across several cold
        members instead of dog-piling the single coldest one."""
        holders = set(d.providers_of(key))
        candidates = [
            address
            for address in d.members.addresses()
            if address != self.address and address not in holders
        ]
        if not candidates:
            return None
        candidates.sort(
            key=lambda a: (len(d.member_keys.get(a, ())) + round_load.get(a, 0), a)
        )
        return candidates[0]

    def handle_flower_rebalance(self, message: Message) -> None:
        """Adopt a hot key our directory asked us to replicate.

        One-way and best-effort: fetch the object from one of the named
        holders over the ordinary ``flower.fetch`` path, cache it, and
        let the next push/summary propagate the new copy.  The directory
        index lags pushes, so each candidate source may have evicted the
        key by now -- try them in turn and drop the request if none still
        holds it (the directory retries on a later pressured sweep if the
        key stays hot).
        """
        if not self.system.params.rebalance or not self.alive:
            return
        payload = message.payload
        key = tuple(payload["key"])
        sources = [s for s in payload["sources"] if s != self.address]
        if key in self.store or self.directory is not None:
            return
        self._rebalance_fetch(key, sources)

    def _rebalance_fetch(self, key: ObjectKey, sources: List[Address]) -> None:
        if not sources or not self.alive or key in self.store:
            return
        source, rest = sources[0], sources[1:]

        def adopt(reply: Dict[str, Any]) -> None:
            if not reply.get("ok"):
                self._rebalance_fetch(key, rest)
                return
            if not self.alive or key in self.store:
                return
            _was_new, evicted = self.store.add_with_evictions(key)
            if evicted:
                if self.stream is not None:
                    self.stream.forget(
                        {index for ws, index in evicted if ws == self.website}
                    )
                self._on_evicted(evicted)
            self.system.rebalance_adoptions += 1
            self.summary.add(key)
            self._maybe_place_chunks(key)
            if self.sim.tracing("flower.key_adopted"):
                self.sim.emit(
                    "flower.key_adopted",
                    peer=self.address,
                    key=key,
                    source=source,
                )
            if self.dir_info is not None:
                self._push_to_directory()

        self.rpc(
            source,
            "flower.fetch",
            {"key": key},
            adopt,
            on_timeout=lambda: self._rebalance_fetch(key, rest),
        )

    def handle_flower_member_transfer(self, message: Message) -> Dict[str, Any]:
        """Adopt members an overloaded predecessor instance shed to us."""
        d = self.directory
        payload = message.payload
        if d is None or not self.alive or d.position_id != payload["position"]:
            return {"ok": False}
        for address, keys in payload["entries"]:
            if address != self.address:
                d.add_member(address, [tuple(key) for key in keys])
        return {"ok": True}

    def leave_directory_gracefully(self) -> None:
        """Voluntary departure of a directory peer (section 5.2.2): transfer
        a copy of the view and directory-index to a content peer, which
        joins D-ring in our place, then leave the ring.

        With replication enabled (section 5.3) the preferred heir is the
        member that already receives our replica syncs, and the handoff
        carries only a **delta** against the version it last acknowledged
        instead of the whole snapshot.
        """
        role = self.directory
        if role is None:
            return
        # Make sure the handoff carries the posting lists even when the
        # engine was installed after this role went live (satellite of
        # section 5.4: the heir must not rebuild the inverted index).
        self._attach_search(role)
        heir: Optional[Address] = None
        acked_base: Optional[int] = None
        replicator = self._replicator
        if replicator is not None and replicator.role is role:
            candidate = replicator.member_heir()
            if candidate is not None:
                heir = candidate
                acked_base = replicator.acked.get(candidate)
            replicator.stop()
            self._replicator = None
        if heir is None:
            sample = role.member_sample(self.rng, 1)
            heir = sample[0] if sample else None
        if role.chord is not None:
            role.chord.leave_gracefully()
        self.system.unregister_directory(self, role)
        self.directory = None
        if self._sweep_process is not None:
            self._sweep_process.cancel()
            self._sweep_process = None
        if heir is not None:
            if self._replication_on:
                if acked_base is not None:
                    sync = delta_sync_payload(role, self.address, acked_base)
                else:
                    sync = full_sync_payload(role, self.address)
                self.send(
                    heir,
                    "flower.handoff",
                    sync=sync,
                    website=role.website,
                    locality=role.locality,
                    instance=role.instance,
                    position=role.position_id,
                )
            else:
                self.send(
                    heir,
                    "flower.handoff",
                    snapshot=role.snapshot(),
                    website=role.website,
                    locality=role.locality,
                    instance=role.instance,
                    position=role.position_id,
                )
        self.sim.emit("flower.directory_left", peer=self.address)

    # =====================================================================
    # Warm failover and replication (section 5.3; robustness extension)
    # =====================================================================
    @property
    def _replication_on(self) -> bool:
        return self.system.params.replication_k > 0

    def _attach_search(self, role: Optional[DirectoryRole]) -> None:
        """Attach the system's keyword space to *role* (idempotent no-op
        when no search engine is configured).  Called lazily from every
        path that reads or ships posting lists, because tests and
        late-configured runs install ``system.search_engine`` after seed
        directories already exist."""
        engine = self.system.search_engine
        if engine is not None and role is not None:
            role.attach_search(engine.space)

    def _attach_replicator(self, role: DirectoryRole) -> None:
        """(Re)start the periodic replica-sync driver for *role*."""
        replicator = self._replicator
        if replicator is not None:
            if replicator.role is role and replicator.active:
                return
            replicator.stop()
        self._replicator = DirectoryReplicator(self, role)

    def _warm_takeover(self, role: DirectoryRole) -> None:
        """Seed a cold replacement role from replicas: our own store first
        (the member heir winning the race pays zero round trips), then the
        ring successors of the freshly (re)claimed position."""
        record = self.replica_store.get(role.position_id)
        if record is not None:
            self.replica_store.drop(role.position_id)
            self._merge_replica(
                role,
                record.members,
                record.member_keys,
                record.version,
                origin=record.origin,
                staleness_ms=self.sim.now - record.updated_at,
                source="local",
            )
        chord = role.chord
        if chord is None:
            return
        targets: List[Address] = []
        seen = {self.address}
        for ref in chord.successors:
            if len(targets) >= self.system.params.replication_k:
                break
            if ref.address in seen:
                continue
            seen.add(ref.address)
            targets.append(ref.address)
        for target in targets:
            self._fetch_replica(role, target)

    def _fetch_replica(self, role: DirectoryRole, target: Address) -> None:
        """Pull the replica of *role*'s position stored at *target*."""

        def on_reply(reply: Dict[str, Any], target=target) -> None:
            if self.directory is not role or not self.alive:
                return
            holder = reply.get("holder")
            if holder is not None and holder != self.address:
                self._resolve_slot_conflict(
                    role, holder, bool(reply.get("registered"))
                )
                return
            replica = reply.get("replica")
            if replica is not None:
                self._merge_replica_summary(role, replica, source=target)

        self.rpc(
            target,
            "flower.replica_fetch",
            {"position": role.position_id},
            on_reply,
            on_timeout=lambda: None,
        )

    def _merge_replica_summary(
        self, role: DirectoryRole, summary: Dict[str, Any], source: Address
    ) -> None:
        snapshot = summary["snapshot"]
        if snapshot["version"] <= role.version:
            return  # we already hold state at least this fresh
        members = {address: age for address, age in snapshot["members"]}
        member_keys = {
            address: [tuple(k) for k in keys]
            for address, keys in snapshot["member_keys"].items()
        }
        self._merge_replica(
            role,
            members,
            member_keys,
            snapshot["version"],
            origin=summary["origin"],
            staleness_ms=summary["staleness_ms"],
            source=source,
        )

    def _merge_replica(
        self,
        role: DirectoryRole,
        members: Dict[Address, int],
        member_keys: Dict[Address, List[ObjectKey]],
        version: int,
        origin: Address,
        staleness_ms: float,
        source: Any,
    ) -> None:
        """Fold replica state into *role* (per-entry age dominance)."""
        adopted = role.merge_remote(members, member_keys, version)
        self.sim.emit(
            "flower.replica_adopted",
            peer=self.address,
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
    def _activate_provisional(self, role: DirectoryRole) -> None:
        """Serve the slot without ring membership (partition-side takeover).

        The petal keeps a -- warm, if we held a replica -- directory during
        the cut; integration into D-ring is retried in the background until
        it succeeds or a conflicting claimant wins the reconciliation.
        """
        role.provisional = True
        role.chord = None
        self.directory = role
        self.system.register_directory(self, role)
        self._attach_search(role)
        self.dir_info = None
        self._dir_strikes = 0
        self._reprobe_pending = False
        self._pending_pushes.clear()
        params = self.system.params
        if self._sweep_process is None or not self._sweep_process.active:
            self._sweep_process = PeriodicProcess(
                self.sim,
                params.keepalive_period_ms,
                self._sweep_tick,
                initial_delay=params.keepalive_period_ms,
                jitter=0.05,
                rng=self.rng,
            )
        record = self.replica_store.get(role.position_id)
        if record is not None:
            self.replica_store.drop(role.position_id)
            self._merge_replica(
                role,
                record.members,
                record.member_keys,
                record.version,
                origin=record.origin,
                staleness_ms=self.sim.now - record.updated_at,
                source="local",
            )
        self.sim.emit(
            "flower.directory_provisional",
            peer=self.address,
            position=role.position_id,
            website=role.website,
            locality=role.locality,
            instance=role.instance,
        )
        self._attach_replicator(role)
        self._announce_directory(role)
        self._schedule_provisional_retry(role)

    def _schedule_provisional_retry(self, role: DirectoryRole) -> None:
        self.sim.schedule(
            4.0 * self.system.params.scan_retry_delay_ms,
            self._provisional_retry,
            role,
        )

    def _provisional_retry(self, role: DirectoryRole) -> None:
        """Re-announce and retry D-ring integration of a provisional role."""
        if not self.alive or self.directory is not role or not role.provisional:
            return
        if self._reconciling:
            self._schedule_provisional_retry(role)
            return
        self._announce_directory(role)
        node = ChordNode(self, self.system.ring, role.position_id)
        bootstrap = self.system.ring.random_bootstrap(self.rng)
        if bootstrap is None:
            node.create()
            self._promote_provisional(role, node)
            return
        role.chord = node  # answer ring traffic while the join is in flight

        def on_joined() -> None:
            self._promote_provisional(role, node)

        def on_failed(reason: str, holder: Optional[NodeRef]) -> None:
            node.shutdown()
            if self.directory is not role or not self.alive:
                return
            role.chord = None
            if holder is not None:
                # A registered holder exists: the ring is the arbiter
                # (section 5.2.2) -- merge our state into it and demote.
                self._reconcile_and_demote(role, holder.address)
            else:
                self._schedule_provisional_retry(role)

        node.join(bootstrap, on_joined, on_failed)

    def _promote_provisional(self, role: DirectoryRole, node: ChordNode) -> None:
        if not self.alive or self.directory is not role:
            node.shutdown()
            return
        role.chord = node
        role.provisional = False
        self._directory_role_active(role)

    # -------------------------------------------------- announce / conflicts
    def _announce_directory(
        self, role: DirectoryRole, targets: Optional[List[Address]] = None
    ) -> None:
        """Tell petal members (and view contacts) that we serve the slot.

        Short-circuits the hour-scale keepalive strike-out for members still
        pointing at the dead directory, and doubles as the discovery channel
        through which conflicting claimants (split brain) find each other
        and replica holders surface their copies.  Broadcast form is
        rate-limited to one fan-out per scan-retry delay.
        """
        if targets is None:
            now = self.sim.now
            if now - self._last_announce_ms < self.system.params.scan_retry_delay_ms:
                return
            self._last_announce_ms = now
            fanout = set(role.members.addresses()) | set(self.view.addresses())
            fanout.discard(self.address)
            targets = sorted(fanout)
        payload = {
            "position": role.position_id,
            "registered": role.chord is not None and not role.provisional,
        }
        for target in targets:
            self._send_announce(role, target, payload)

    def _send_announce(
        self, role: DirectoryRole, target: Address, payload: Dict[str, Any]
    ) -> None:
        def on_reply(reply: Dict[str, Any], target=target) -> None:
            if self.directory is not role or not self.alive:
                return
            conflict = reply.get("conflict")
            if conflict is not None and conflict != self.address:
                self._resolve_slot_conflict(
                    role, conflict, bool(reply.get("registered"))
                )
                return
            replica = reply.get("replica")
            if replica is not None:
                self._merge_replica_summary(role, replica, source=target)

        self.rpc(
            target,
            "flower.dir_announce",
            dict(payload),
            on_reply,
            on_timeout=lambda: None,
        )

    def _resolve_slot_conflict(
        self, role: DirectoryRole, other: Address, other_registered: bool
    ) -> None:
        """Two live claimants of one slot (split brain): decide who demotes.

        Deterministic rule: a ring-registered holder beats a provisional
        claimant (the ring is the arbiter, section 5.2.2); between two
        provisionals the smaller address wins.  Exactly one side demotes;
        the non-demoting side (re-)announces so the loser hears of it.
        """
        if self.directory is not role or not self.alive or other == self.address:
            return
        mine_registered = role.chord is not None and not role.provisional
        if mine_registered and not other_registered:
            self._announce_directory(role, targets=[other])
        elif other_registered and not mine_registered:
            self._reconcile_and_demote(role, other)
        elif not mine_registered and not other_registered:
            if other < self.address:
                self._reconcile_and_demote(role, other)
            else:
                self._announce_directory(role, targets=[other])
        # Both registered cannot happen: ChordRing.try_register arbitrates.

    def _reconcile_and_demote(self, role: DirectoryRole, winner: Address) -> None:
        """Send the winner our full state; demote once it confirms the merge.

        Never demote toward a peer that turns out dead or no longer a
        directory -- better a transient duplicate than adopting a corpse.
        """
        if self.directory is not role or self._reconciling or not self.alive:
            return
        self._reconciling = True
        payload = full_sync_payload(role, self.address)

        def on_reply(reply: Dict[str, Any]) -> None:
            self._reconciling = False
            if self.directory is not role or not self.alive:
                return
            if reply.get("status") == "merged":
                self._demote_role(role, winner)
            elif role.provisional:
                self._schedule_provisional_retry(role)

        def on_timeout() -> None:
            self._reconciling = False
            if self.directory is role and self.alive and role.provisional:
                self._schedule_provisional_retry(role)

        self.rpc(winner, "flower.slot_reconcile", payload, on_reply, on_timeout)

    def _demote_role(self, role: DirectoryRole, winner: Address) -> None:
        """Stop serving the slot; redirect our members (and ourselves) at
        the merge winner so they re-push and its index converges (I4)."""
        if self.directory is not role:
            return
        for member in role.members.addresses():
            if member != winner:
                self.send(
                    member,
                    "flower.dir_redirect",
                    position=role.position_id,
                    winner=winner,
                )
        if self._replicator is not None and self._replicator.role is role:
            self._replicator.stop()
            self._replicator = None
        if role.chord is not None:
            role.chord.shutdown()
            role.chord = None
        self.system.unregister_directory(self, role)
        self.directory = None
        if self._sweep_process is not None:
            self._sweep_process.cancel()
            self._sweep_process = None
        self.sim.emit(
            "flower.directory_demoted",
            peer=self.address,
            position=role.position_id,
            winner=winner,
        )
        if role.website == self.website and role.locality == self.locality:
            self.dir_info = DirInfo(role.position_id, winner, age=0)
            self._dir_strikes = 0
            self._reprobe_pending = False
            self._pending_pushes.clear()
            self._start_content_processes()
            self.store.reset_push_state()
            if len(self.store):
                self._push_to_directory()

    # ------------------------------------------------ replication handlers
    def handle_flower_replica_sync(self, message: Message) -> Dict[str, Any]:
        """Store (or merge) a directory's replicated state (section 5.3)."""
        if not self._replication_on or not self.alive:
            return {"status": "off"}
        payload = message.payload
        vector = payload.get("load_vector")
        if vector is not None and self.system.params.redirect_hints:
            self._harvest_load_vector(payload, vector)
        d = self.directory
        if d is not None and d.position_id == payload["position"]:
            # The origin still believes it owns a slot we now serve: absorb
            # its entries (per-entry dominance) and surface the conflict so
            # it starts the reconciliation.
            members = {a: age for a, age, _keys in payload.get("entries", ())}
            member_keys = {a: keys for a, _age, keys in payload.get("entries", ())}
            d.merge_remote(members, member_keys, payload["version"])
            return {
                "status": "conflict",
                "holder": self.address,
                "registered": d.chord is not None and not d.provisional,
            }
        return self.replica_store.accept(payload, self.sim.now)

    def handle_flower_replica_fetch(self, message: Message) -> Dict[str, Any]:
        """Hand our stored replica of a position to its new claimant."""
        if not self._replication_on or not self.alive:
            return {"replica": None}
        position = message.payload["position"]
        d = self.directory
        if d is not None and d.position_id == position:
            return {
                "replica": None,
                "holder": self.address,
                "registered": d.chord is not None and not d.provisional,
            }
        record = self.replica_store.get(position)
        return {
            "replica": record.summary(self.sim.now) if record is not None else None
        }

    def handle_flower_dir_announce(self, message: Message) -> Dict[str, Any]:
        """A (possibly provisional) claimant announced it serves a slot."""
        if not self._replication_on or not self.alive:
            return {}
        payload = message.payload
        position = payload["position"]
        reply: Dict[str, Any] = {}
        record = self.replica_store.get(position)
        if record is not None:
            reply["replica"] = record.summary(self.sim.now)
        d = self.directory
        if d is not None:
            if d.position_id == position:
                reply["conflict"] = self.address
                reply["registered"] = d.chord is not None and not d.provisional
                self._resolve_slot_conflict(
                    d, message.src, bool(payload.get("registered"))
                )
            return reply
        if self.system.key_service.petal_of(position) != (
            self.website,
            self.locality,
        ):
            return reply
        info = self.dir_info
        if info is not None and info.position_id != position:
            return reply
        # Adopt the announcer when we have no directory, when it merely
        # re-announces itself, when it is ring-registered (authoritative),
        # or when our current directory is suspect -- but never steal a
        # member from a healthy registered directory for a provisional one.
        if (
            info is None
            or info.address == message.src
            or bool(payload.get("registered"))
            or self._dir_suspect
        ):
            changed = info is None or info.address != message.src
            self.dir_info = DirInfo(position, message.src, age=0)
            self._dir_strikes = 0
            self._reprobe_pending = False
            self._pending_pushes.clear()
            self._start_content_processes()
            if changed:
                self.store.reset_push_state()
                if len(self.store):
                    self._push_to_directory()
        return reply

    def handle_flower_slot_reconcile(self, message: Message) -> Dict[str, Any]:
        """A demoting claimant hands us its state: merge per-entry."""
        if not self._replication_on or not self.alive:
            return {"status": "not_directory"}
        payload = message.payload
        d = self.directory
        if d is None or d.position_id != payload["position"]:
            return {"status": "not_directory"}
        members = {a: age for a, age, _keys in payload.get("entries", ())}
        member_keys = {a: keys for a, _age, keys in payload.get("entries", ())}
        adopted = d.merge_remote(members, member_keys, payload["version"])
        self.sim.emit(
            "flower.slot_merged",
            peer=self.address,
            position=d.position_id,
            origin=message.src,
            adopted=adopted,
            version=d.version,
        )
        return {"status": "merged", "version": d.version, "adopted": adopted}

    def handle_flower_dir_redirect(self, message: Message) -> None:
        """Our directory demoted: re-point at the merge winner and re-push."""
        if not self._replication_on or not self.alive or self.directory is not None:
            return None
        payload = message.payload
        winner = payload["winner"]
        if winner == self.address:
            return None
        info = self.dir_info
        if info is not None and info.position_id != payload["position"]:
            return None
        if info is None or info.address != winner:
            self.dir_info = DirInfo(payload["position"], winner, age=0)
            self._dir_strikes = 0
            self._reprobe_pending = False
            self._pending_pushes.clear()
            self._start_content_processes()
            self.store.reset_push_state()
            if len(self.store):
                self._push_to_directory()
        return None

    def handle_flower_member_shed(self, message: Message) -> None:
        """Our overloaded directory shed us to another instance: re-point
        dir-info at it and re-push so its index reflects our cache."""
        if not self.alive or self.directory is not None or self._recovering:
            return None
        payload = message.payload
        new_address = payload["address"]
        if new_address == self.address:
            return None
        info = self.dir_info
        if (
            info is not None
            and info.address == new_address
            and info.position_id == payload["position"]
        ):
            return None  # already pointed there
        self.dir_info = DirInfo(payload["position"], new_address, age=0)
        self._dir_strikes = 0
        self._reprobe_pending = False
        self._pending_pushes.clear()
        self._start_content_processes()
        self.store.reset_push_state()
        if len(self.store):
            self._push_to_directory()
        return None

    # =====================================================================
    # Message handlers (directory side)
    # =====================================================================
    def handle_flower_query(self, message: Message) -> Dict[str, Any]:
        """Directory-side query processing (sections 3.2 and 4).

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
        d = self.directory
        if d is None:
            return {"status": "not_directory"}
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
                return self._shed_query(d, message.src, key, depth)
        reply = self._process_query(d, message, payload, key, params)
        if queue_wait_ms > 0.0:
            reply["queue_wait_ms"] = queue_wait_ms
        hint = self._load_hint(d)
        if hint is not None:
            reply["load_hint"] = hint
        return reply

    def _shed_query(
        self,
        d: DirectoryRole,
        client: Address,
        key: Optional[ObjectKey],
        depth: int,
    ) -> Dict[str, Any]:
        """Reject one request at the admission limit (explicit, accounted).

        The reply names the next instance when the key service knows one,
        so the client can fail over without a ring scan.  Under
        ``overload_shedding`` a shed also nudges the PetalUp split: a
        queue at its bound is the rate-based overload signal the paper's
        member-count test cannot see.
        """
        self.system.shed_queries += 1
        redirect = self._next_instance_address(d)
        if self.sim.tracing("flower.query_shed"):
            self.sim.emit(
                "flower.query_shed",
                directory=self.address,
                client=client,
                key=key,
                position=d.position_id,
                depth=depth,
                redirect=redirect,
            )
        if self.system.params.overload_shedding:
            self._maybe_promote_next(d)
        reply: Dict[str, Any] = {"status": "shed"}
        if redirect is not None:
            reply["redirect"] = redirect
        hint = self._load_hint(d)
        if hint is not None:
            reply["load_hint"] = hint
        return reply

    def _process_query(
        self,
        d: DirectoryRole,
        message: Message,
        payload: Dict[str, Any],
        key: Optional[ObjectKey],
        params,
    ) -> Dict[str, Any]:
        if payload.get("foreign"):
            # A sibling directory's miss (collaboration): answer from our
            # index/store only; no registration.  On a miss, point the
            # client at the next same-website neighbour so it can continue
            # the walk.
            provider = self._directory_provider(d, key, exclude={message.src})
            if provider is not None:
                if params.rebalance:
                    d.note_fetch(key)
                reply = {"status": "provider", "provider": provider}
                hints = self._provider_hints(d, key, {message.src, provider})
                if hints is not None:
                    reply["providers"] = hints
                return reply
            return {"status": "miss", "sibling_address": self._sibling_address(d)}

        if payload.get("new_client"):
            if d.overloaded(params.directory_load_limit):
                next_address = self._next_instance_address(d)
                if next_address is not None:
                    return {"status": "scan", "next_address": next_address}
                # We are the final instance: trigger the PetalUp split and
                # process this client ourselves (section 4).
                self._maybe_promote_next(d)
            keys = payload.get("keys", [])
            d.add_member(message.src, [tuple(k) for k in keys])
            reply = self._registration_payload(d, message.src)
        elif payload.get("member"):
            if d.has_member(message.src):
                d.touch_member(message.src)
            else:
                d.add_member(message.src)
            reply = {}
        else:
            reply = {}

        if payload.get("register_only") or key is None:
            reply["status"] = "registered"
            return reply

        provider = self._directory_provider(d, key, exclude={message.src})
        if provider is not None:
            if params.rebalance:
                d.note_fetch(key)
            reply["status"] = "provider"
            reply["provider"] = provider
            hints = self._provider_hints(d, key, {message.src, provider})
            if hints is not None:
                reply["providers"] = hints
        else:
            reply["status"] = "miss"
            if params.directory_collaboration:
                sibling = self._sibling_address(d)
                if sibling is not None:
                    reply["sibling_address"] = sibling
        return reply

    def _directory_provider(
        self,
        d: DirectoryRole,
        key: ObjectKey,
        exclude: Set[Address],
    ) -> Optional[Address]:
        provider = d.pick_provider(key, self.rng, exclude=exclude)
        if provider is not None:
            return provider
        if key in self.store and self.address not in exclude:
            return self.address
        # Fall back to content summaries gossip-collected while we were a
        # plain content peer (fresh replacement directories rely on this).
        for address, summary in self.peer_summaries.items():
            if address not in exclude and summary.contains(key):
                return address
        return None

    def _registration_payload(self, d: DirectoryRole, joiner: Address) -> Dict[str, Any]:
        sample = d.member_sample(self.rng, self.system.params.gossip_shuffle_size)
        if len(sample) < self.system.params.gossip_shuffle_size:
            # Fresh instances hand out their legacy content view instead
            # ("provides them with a subset of its old view" -- section 4).
            legacy = self.view.sample(
                self.rng,
                self.system.params.gossip_shuffle_size - len(sample),
                exclude=set(sample) | {joiner},
            )
            sample.extend(contact.address for contact in legacy)
        reply = {
            "dir_position": d.position_id,
            "dir_address": self.address,
            "view_sample": [a for a in sample if a != joiner],
        }
        hint = self._search_replica_hint(d)
        if hint is not None:
            reply["search_replicas"] = hint
        load = self._load_hint(d)
        if load is not None:
            reply["load_hint"] = load
        return reply

    def _next_instance_address(self, d: DirectoryRole) -> Optional[Address]:
        """Address of d(ws, loc, instance+1), if it exists.

        Successive identifiers make the next instance our ring successor,
        so no lookup is needed -- the point of the key management service.
        """
        if d.instance + 1 >= self.system.params.max_instances:
            return None
        next_position = self.system.key_service.position_id(
            d.website, d.locality, d.instance + 1
        )
        chord = d.chord
        if chord is not None and chord.successor is not None:
            if chord.successor.id == next_position:
                return chord.successor.address
        return None

    def _sibling_address(self, d: DirectoryRole) -> Optional[Address]:
        """The next same-website directory on D-ring (collaboration walk).

        Successive identifiers put every directory of one website on a
        contiguous arc, so "the next sibling" is simply our ring successor
        while it still decodes to the same website.
        """
        chord = d.chord
        if chord is None or chord.successor is None:
            return None
        succ = chord.successor
        if succ.address != self.address and self.system.key_service.same_website(
            succ.id, d.position_id
        ):
            return succ.address
        return None

    def _maybe_promote_next(self, d: DirectoryRole) -> None:
        """PetalUp split: ask one of our content peers to become d_{i+1}.

        Under ``overload_shedding`` the split is *replica-aware*: instead
        of standing up an empty instance that new clients discover one
        section-4 scan at a time, the promotion payload carries a member
        **partition** (every second member, in address order) in the warm
        snapshot format of section 5.3.  The new instance adopts it before
        joining the ring and, once active, tells each partition member to
        re-point at it -- so both instances start half-loaded and no
        member ever scans.
        """
        if d.promoting or d.instance + 1 >= self.system.params.max_instances:
            return
        candidates = d.member_sample(self.rng, 1)
        if not candidates:
            return
        target = candidates[0]
        d.promoting = True
        next_position = self.system.key_service.position_id(
            d.website, d.locality, d.instance + 1
        )
        partition: List[Address] = []
        if self.system.params.overload_shedding:
            partition = sorted(
                c.address for c in d.members.contacts() if c.address != target
            )[1::2]

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("accepted"):
                # "The replacing content peer is then removed from the
                # directory-index of d_i" (section 4).
                d.remove_member(target)
                for member in partition:
                    # Optimistic: the new instance notifies the members
                    # once active; until then their keepalives simply
                    # re-add them here (self-healing either way).
                    d.remove_member(member)
                d.members_shed += len(partition)
                self.system.members_shed += len(partition)
            # Allow another attempt later either way; if the promotion
            # succeeded our successor pointer will show it.
            self.sim.schedule(
                self.system.params.scan_retry_delay_ms, self._reset_promoting, d
            )

        def on_timeout() -> None:
            d.promoting = False
            d.remove_member(target)

        payload: Dict[str, Any] = {
            "website": d.website,
            "locality": d.locality,
            "instance": d.instance + 1,
            "position": next_position,
        }
        if self._replication_on:
            # Seed the new instance with a warm copy of our own index so a
            # split starts with full knowledge of the petal (section 5.3).
            payload["replica"] = full_sync_payload(d, self.address)
        if partition:
            ages = {c.address: c.age for c in d.members.contacts()}
            payload["partition"] = {
                "version": 0,
                "members": [(member, ages.get(member, 0)) for member in partition],
                "member_keys": {
                    member: sorted(d.member_keys.get(member, ()))
                    for member in partition
                    if d.member_keys.get(member)
                },
            }
        self.rpc(target, "flower.promote", payload, on_reply, on_timeout)

    def _reset_promoting(self, d: DirectoryRole) -> None:
        d.promoting = False

    def handle_flower_promote(self, message: Message) -> Dict[str, Any]:
        """A directory asks us to become the next instance (PetalUp).

        A ``partition`` in the payload (replica-aware split, overload
        extension) is adopted as our starting snapshot, and its members
        are notified to re-point at us once the role is actually active
        -- notifying earlier would race their pushes against our ring
        join.
        """
        if self.directory is not None or self._recovering or not self.alive:
            return {"accepted": False}
        payload = message.payload
        replica = payload.get("replica")
        if replica is not None and self._replication_on:
            self.replica_store.accept(replica, self.sim.now)
        partition = payload.get("partition")
        if partition is not None and self.system.params.overload_shedding:
            self._shed_notices = (
                payload["position"],
                [address for address, _age in partition.get("members", [])],
            )
        self._begin_directory_role(
            payload["website"],
            payload["locality"],
            payload["instance"],
            payload["position"],
            snapshot=partition if self.system.params.overload_shedding else None,
        )
        return {"accepted": True}

    def handle_flower_handoff(self, message: Message) -> None:
        """Receive a leaving directory's state and take its place."""
        if self.directory is not None or self._recovering or not self.alive:
            return None
        payload = message.payload
        snapshot = payload.get("snapshot")
        sync = payload.get("sync")
        if sync is not None and self._replication_on:
            # Delta handoff (section 5.3): apply the leaving directory's
            # delta on top of whatever replica we already hold, then adopt
            # the reconstructed state as our own starting snapshot.
            record = self.replica_store.get(sync["position"])
            if record is None:
                record = ReplicaRecord(sync, self.sim.now)
            else:
                record.apply(sync, self.sim.now)
            snapshot = record.to_snapshot()
            self.replica_store.drop(sync["position"])
        self._begin_directory_role(
            payload["website"],
            payload["locality"],
            payload["instance"],
            payload["position"],
            snapshot=snapshot,
        )
        return None

    def handle_flower_fetch(self, message: Message) -> Dict[str, Any]:
        """Serve an object from our cache to a petal member."""
        key = tuple(message.payload["key"])
        ok = key in self.store
        if ok:
            self.fetches_served += 1
        return {"ok": ok}

    # =====================================================================
    # Chunked swarming transfers (repro.cdn.swarm; inert unless swarming)
    # =====================================================================
    def _provider_hints(
        self, d: DirectoryRole, key: ObjectKey, exclude: Set[Address]
    ) -> Optional[List[Address]]:
        """Extra full-object holders for a swarming downloader, or None.

        Only computed (and only shipped on the wire) when swarming is on,
        so paper-faithful replies stay byte-identical.
        """
        params = self.system.params
        if not params.swarming:
            return None
        others = d.providers_of(key) - exclude
        if not others:
            return None
        return sorted(others)[: params.swarm_sources]

    def handle_swarm_manifest(self, message: Message) -> Dict[str, Any]:
        """Name the chunks we hold plus other holders we know of."""
        sizes = self.system.sizes
        if sizes is None:
            return {"ok": False}
        key = tuple(message.payload["key"])
        if key in self.store:
            have = list(range(sizes.chunk_count(key)))
        else:
            held = self.chunk_holdings.get(key)
            have = sorted(held) if held else []
        if not have:
            return {"ok": False}
        reply: Dict[str, Any] = {"ok": True, "have": have}
        hints = self._swarm_hints.get(key)
        if hints:
            reply["also"] = [a for a in hints if a != message.src]
        return reply

    def handle_swarm_chunk(self, message: Message) -> Dict[str, Any]:
        """Agree to upload one chunk (payload timing is the caller's flow)."""
        sizes = self.system.sizes
        if sizes is None:
            return {"ok": False}
        key = tuple(message.payload["key"])
        chunk = message.payload["chunk"]
        if not 0 <= chunk < sizes.chunk_count(key):
            return {"ok": False}
        held = key in self.store or chunk in self.chunk_holdings.get(key, ())
        if not held:
            return {"ok": False}
        self.bytes_uploaded += sizes.chunk_size(key, chunk)
        return {"ok": True}

    def handle_swarm_place(self, message: Message) -> None:
        """Accept a chunk-replica placement from a full-object holder."""
        sizes = self.system.sizes
        if sizes is None:
            return
        key = tuple(message.payload["key"])
        if key in self.store:
            return  # already a full holder; partial state would be noise
        held = self.chunk_holdings.get(key)
        if held is None:
            if len(self.chunk_holdings) >= SWARM_HOLDINGS_LIMIT:
                evicted = next(iter(self.chunk_holdings))
                del self.chunk_holdings[evicted]
                self._swarm_hints.pop(evicted, None)
            held = self.chunk_holdings[key] = set()
        count = sizes.chunk_count(key)
        held.update(i for i in message.payload["chunks"] if 0 <= i < count)
        # The placer has the whole object: remember it as a holder hint.
        hints = self._swarm_hints.setdefault(key, [])
        if message.src not in hints and len(hints) < self.system.params.swarm_sources:
            hints.append(message.src)
        return

    def _maybe_place_chunks(self, key: ObjectKey) -> None:
        """After caching a chunked object, place k chunk replicas.

        Round-robin slices to the first k live view contacts (sorted, so
        the spread is deterministic); the recipients become the ``also``
        hints of our future manifest replies.
        """
        params = self.system.params
        sizes = self.system.sizes
        if not params.swarming or params.swarm_replicate < 1 or sizes is None:
            return
        if key in self._placed or key not in self.store:
            return
        count = sizes.chunk_count(key)
        if count < 2:
            return
        contacts = sorted(a for a in self.view.addresses() if a != self.address)
        if not contacts:
            return
        k = min(params.swarm_replicate, len(contacts))
        targets = contacts[:k]
        self._placed.add(key)
        hints = self._swarm_hints.setdefault(key, [])
        for j, target in enumerate(targets):
            chunks = [i for i in range(count) if i % k == j]
            self.send(target, "swarm.place", key=key, chunks=chunks)
            if target not in hints and len(hints) < params.swarm_sources:
                hints.append(target)

    def handle_flower_push(self, message: Message) -> Dict[str, Any]:
        """Apply a member's content push to the directory-index."""
        d = self.directory
        if d is None:
            return {"status": "not_directory"}
        keys = [tuple(k) for k in message.payload.get("keys", [])]
        if d.has_member(message.src):
            d.touch_member(message.src)
            d.update_member_keys(message.src, keys)
        else:
            d.add_member(message.src, keys)
        reply: Dict[str, Any] = {"status": "ok"}
        hint = self._search_replica_hint(d)
        if hint is not None:
            reply["search_replicas"] = hint
        load = self._load_hint(d)
        if load is not None:
            reply["load_hint"] = load
        return reply

    def handle_flower_keepalive(self, message: Message) -> Dict[str, Any]:
        """Refresh (or re-admit) a member on keepalive (section 5.1)."""
        d = self.directory
        if d is None:
            return {"status": "not_directory"}
        if d.has_member(message.src):
            d.touch_member(message.src)
        else:
            d.add_member(message.src)
        reply: Dict[str, Any] = {"status": "ok"}
        hint = self._search_replica_hint(d)
        if hint is not None:
            reply["search_replicas"] = hint
        load = self._load_hint(d)
        if load is not None:
            reply["load_hint"] = load
        return reply

    # =====================================================================
    # Keyword search extension (paper section 7 future work; optional)
    # =====================================================================
    @property
    def search_probe_target(self) -> bool:
        """Eligible for a search probe: in a petal now, or orphaned from
        one (its directory declared failed) -- orphans must keep counting
        toward an outage instead of silently leaving the denominator."""
        return self.alive and (
            self.directory is not None
            or self.dir_info is not None
            or self._search_position is not None
        )

    def _search_replica_hint(self, d: DirectoryRole) -> Optional[Dict[str, Any]]:
        """Failover plan piggybacked on directory replies (section 5.4):
        the slot position plus the replica holders currently synced.  None
        while no search engine runs, so plain builds ship nothing."""
        if self.system.search_engine is None:
            return None
        replicator = self._replicator
        targets: List[Address] = []
        if replicator is not None and replicator.role is d:
            # Only holders that acknowledged a sync: an intended target
            # that never acked has nothing to serve, and pointing peers
            # at it would turn the failover into guaranteed misses.
            acked = replicator.acked
            targets = [a for a in replicator.targets() if a in acked]
        # A small member sample rides along as a last-resort chain: the
        # smallest addresses include the member heir, so even a peer with
        # a stale replica hint and an empty gossip view can still reach
        # the one petal-mate guaranteed to be a replica target.
        members = sorted(d.members.addresses())[:_SEARCH_VIEW_CANDIDATES]
        return {
            "position": d.position_id,
            "replicas": targets,
            "members": members,
        }

    def _harvest_search_replicas(self, payload: Dict[str, Any]) -> None:
        """Remember the failover plan carried by a directory reply."""
        hint = payload.get("search_replicas")
        if hint is not None:
            self._search_position = hint["position"]
            self._search_replicas = [
                address for address in hint["replicas"] if address != self.address
            ]
            self._search_members = [
                address
                for address in hint.get("members", ())
                if address != self.address
            ]

    def _load_hint(self, d: DirectoryRole) -> Optional[List[tuple]]:
        """Per-petal load vector piggybacked on directory replies.

        Own queue depth plus sibling-instance depths learnt over the
        replica-sync gossip, each row ``(address, depth, age_ms)``.  None
        unless redirect hints (and the admission queue they read) are on,
        so plain builds ship byte-identical replies."""
        params = self.system.params
        if not params.redirect_hints or params.directory_queue_limit < 1:
            return None
        return d.load_vector(self.sim.now, params.directory_service_ms)

    def _harvest_load_vector(
        self, payload: Dict[str, Any], vector: List[tuple]
    ) -> None:
        """Absorb the load vector gossiped over a replica sync.

        A sibling instance of the same petal folds the rows into its own
        directory-side picture (so its replies re-export them); an
        ordinary member of that petal treats them like reply-piggybacked
        hints."""
        now = self.sim.now
        d = self.directory
        petal = (payload.get("website"), payload.get("locality"))
        if (
            d is not None
            and (d.website, d.locality) == petal
            and d.position_id != payload.get("position")
        ):
            for address, depth, age_ms in vector:
                if address != self.address:
                    d.note_peer_load(address, depth, now - age_ms)
        elif d is None and (self.website, self.locality) == petal:
            for address, depth, age_ms in vector:
                self._note_petal_load(address, depth, now - age_ms)

    def handle_flower_search(self, message: Message) -> Dict[str, Any]:
        """Answer a petal keyword search from the directory-index."""
        engine = self.system.search_engine
        d = self.directory
        if engine is None or d is None:
            return {"status": "not_directory"}
        self._attach_search(d)
        matches = engine.search_index(
            d.index, self.store.keys(), self.address, message.payload["keyword"]
        )
        reply: Dict[str, Any] = {
            "status": "ok",
            "matches": [(tuple(k), a) for k, a in matches],
        }
        hint = self._search_replica_hint(d)
        if hint is not None:
            reply["search_replicas"] = hint
        return reply

    def handle_flower_search_replica(self, message: Message) -> Dict[str, Any]:
        """Scoped failover search (section 5.4): answer for a directory
        slot we replicate -- or serve authoritatively when we turned out
        to be the slot's (possibly provisional) directory ourselves."""
        engine = self.system.search_engine
        if engine is None or not self.alive:
            return {"status": "off"}
        payload = message.payload
        position = payload["position"]
        keyword = payload["keyword"]
        d = self.directory
        if d is not None and d.position_id == position:
            self._attach_search(d)
            matches = engine.search_index(
                d.index, self.store.keys(), self.address, keyword
            )
            return {
                "status": "ok",
                "source": "takeover",
                "staleness_ms": 0.0,
                "matches": [(tuple(k), a) for k, a in matches],
            }
        record = self.replica_store.get(position)
        if record is None:
            return {"status": "no_replica"}
        matches = record.search_matches(engine.space, keyword, engine.max_results)
        return {
            "status": "ok",
            "source": "replica",
            "staleness_ms": self.sim.now - record.updated_at,
            "matches": [(k, a) for k, a in matches],
        }

    def search(self, keyword: str, on_results) -> None:
        """Find petal members holding objects about *keyword*.

        Requires ``system.search_engine`` to be set (see
        :mod:`repro.cdn.flower.search`).  A directory peer answers from its
        own index; a content peer asks its directory; an unregistered peer
        gets no results.  When the directory is suspect, times out or
        denies, the query fails over to the slot's replica holders (the
        member heir and the k ring successors learned from earlier
        replies), accepting replica answers only within the declared
        staleness bound.  Every completion is accounted through one
        ``flower.search_done`` event stamped with its source.
        """
        engine = self.system.search_engine
        if engine is None:
            raise CDNError("keyword search requires system.search_engine")
        d = self.directory
        if d is not None:
            self._attach_search(d)
            matches = engine.search_index(
                d.index, self.store.keys(), self.address, keyword
            )
            self._finish_search(keyword, matches, "local", 0.0, on_results)
            return
        info = self.dir_info
        if info is None:
            if self._search_position is None:
                self._finish_search(keyword, [], "unregistered", 0.0, on_results)
            else:
                # Orphaned mid-failure: the directory was declared dead and
                # no replacement adopted yet -- go straight to replicas.
                self._search_failover(
                    keyword, self._search_failover_plan(), on_results
                )
            return
        if self._dir_suspect:
            self._search_failover(keyword, self._search_failover_plan(), on_results)
            return

        def on_reply(payload: Dict[str, Any]) -> None:
            if not self.alive:
                return
            if payload.get("status") != "ok":
                self._search_failover(
                    keyword, self._search_failover_plan(), on_results
                )
                return
            info.age = 0
            self._harvest_search_replicas(payload)
            self._note_directory_alive(info)
            self._finish_search(
                keyword,
                [(tuple(key), address) for key, address in payload["matches"]],
                "directory",
                0.0,
                on_results,
            )

        def on_give_up() -> None:
            if not self.alive:
                return
            self._on_directory_strike(info)
            self._search_failover(keyword, self._search_failover_plan(), on_results)

        self._directory_rpc(
            info, "flower.search", {"keyword": keyword}, on_reply, on_give_up
        )

    def _search_failover_plan(self) -> List[Address]:
        """Candidate chain for a failed-over search: the hinted replica
        holders (member heir first, then ring successors), extended with
        our freshest petal-mates from the gossip view.  The view catches
        the cases a stale hint cannot: the heir may have died since the
        hint was harvested, but a petal-mate that since promoted (warm
        takeover or provisional claim) answers the slot directly."""
        plan = list(self._search_replicas)
        seen = set(plan)
        seen.add(self.address)
        for address in self._search_members:
            if address not in seen:
                seen.add(address)
                plan.append(address)
        contacts = sorted(
            self.view.contacts(), key=lambda c: (c.age, c.address)
        )
        extras = 0
        for contact in contacts:
            if extras >= _SEARCH_VIEW_CANDIDATES:
                break
            if contact.address in seen:
                continue
            seen.add(contact.address)
            plan.append(contact.address)
            extras += 1
        return plan

    def _search_failover(
        self, keyword: str, candidates: List[Address], on_results
    ) -> None:
        """Walk the known replica holders of our slot (member heir first,
        then ring successors) until one answers within the staleness
        bound; our own replica store is consulted first (the heir itself
        pays zero round trips)."""
        engine = self.system.search_engine
        position = self._search_position
        if engine is None or position is None:
            self._finish_search(keyword, [], "none", 0.0, on_results)
            return
        bound = staleness_bound_ms(self.system.params)
        record = self.replica_store.get(position)
        if record is not None:
            staleness = self.sim.now - record.updated_at
            if staleness <= bound:
                matches = record.search_matches(
                    engine.space, keyword, engine.max_results
                )
                self._finish_search(
                    keyword, matches, "replica", staleness, on_results
                )
                return
        while candidates and candidates[0] == self.address:
            candidates = candidates[1:]
        if not candidates:
            self._finish_search(keyword, [], "none", 0.0, on_results)
            return
        target, rest = candidates[0], candidates[1:]
        params = self.system.params

        def on_reply(payload: Dict[str, Any]) -> None:
            if not self.alive:
                return
            if payload.get("status") == "ok":
                staleness = float(payload.get("staleness_ms", 0.0))
                if staleness <= bound:
                    self._finish_search(
                        keyword,
                        [(tuple(key), address) for key, address in payload["matches"]],
                        payload.get("source", "replica"),
                        staleness,
                        on_results,
                    )
                    return
            self._search_failover(keyword, rest, on_results)

        self.retrying_rpc(
            target,
            "flower.search_replica",
            {"position": position, "keyword": keyword},
            on_reply=on_reply,
            on_give_up=lambda: self._search_failover(keyword, rest, on_results),
            retries=params.rpc_retries,
            backoff_ms=params.rpc_backoff_ms,
        )

    def _finish_search(
        self,
        keyword: str,
        matches: List,
        source: str,
        staleness_ms: float,
        on_results,
    ) -> None:
        """Deliver results and account the completion (one event per
        search, stamped with how -- and how stale -- it was answered)."""
        sim = self.sim
        if sim.tracing("flower.search_done"):
            sim.emit(
                "flower.search_done",
                peer=self.address,
                website=self.website,
                locality=self.locality,
                keyword=keyword,
                matches=len(matches),
                source=source,
                staleness_ms=staleness_ms,
            )
        on_results(matches)
