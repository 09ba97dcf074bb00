"""Protocol-independent CDN machinery.

Two things live here:

- :class:`BasePeer` -- the life of one participant: arrival / crash /
  re-join, the periodic query process, and the query *accounting* shared by
  every protocol (when a query completes, compute lookup latency and
  transfer distance the same way for Flower and Squirrel, so the comparison
  is apples-to-apples);
- :class:`CdnSystem` -- the per-protocol orchestrator the experiment runner
  drives through ``on_arrival`` / ``on_departure`` callbacks from the churn
  model.  Its ``params`` is the run's
  :class:`~repro.experiments.config.ExperimentConfig`, the one spelling of
  every knob; the system derives the few values the protocols read in
  milliseconds (query interval, gossip period, the D-ring's Chord
  parameters) once, at construction.

Measurement conventions (metrics of section 6):

- **lookup latency** = time from issuing the query until the fetch request
  *reaches* the node that will provide the object (provider or origin
  server), i.e. completion time minus the final one-way reply latency;
- **transfer distance** = one-way latency between the querier and that
  provider.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.cdn.server import OriginServer
from repro.cdn.storage import ContentStore
from repro.dht.ring import ChordRing, RingParams
from repro.errors import CDNError
from repro.metrics.collector import MetricsCollector
from repro.net.landmarks import LandmarkBinner
from repro.net.transport import Network, NetworkNode
from repro.sim.clock import minutes, seconds
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.types import Address, ObjectKey, WebsiteId
from repro.workload.catalog import Catalog
from repro.workload.queries import QueryStream
from repro.workload.zipf import ZipfSampler

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig

#: How long a client that found every directory instance busy waits before
#: re-scanning D-ring; the same pause paces directory re-probes, D-ring
#: join retries and takeover announcements.
SCAN_RETRY_DELAY_MS = seconds(30)


class BasePeer(NetworkNode):
    """One participant: identity, interest, cache, query process.

    Subclasses implement :meth:`_resolve_query` (protocol-specific) and the
    session hooks :meth:`_on_session_begin` / :meth:`_on_crash`.

    Query lifecycle ledger: every query registered by :meth:`resolve_query`
    is tracked in ``_open_queries`` until :meth:`_finish_query` finalizes it
    exactly once.  A crash finalizes all still-open queries with the
    terminal ``failed_crash`` outcome, and stale completion callbacks from a
    previous session (crash + re-join inside an RPC window) are suppressed
    -- the invariant auditor (:mod:`repro.chaos`) checks that no query is
    ever lost or double-resolved.
    """

    def __init__(
        self,
        system: "CdnSystem",
        identity: int,
        website: WebsiteId,
        cluster_hint: Optional[int] = None,
    ) -> None:
        super().__init__(system.network, cluster_hint)
        self.system = system
        self.identity = identity
        #: this peer's private random stream.  Resolved once: the registry
        #: returns a stable generator per name, and the former property
        #: rebuilt the name string and re-queried the registry on every
        #: draw of the query/gossip hot paths.
        self.rng: random.Random = self.sim.rng(f"peer-{identity}")
        self.website = website
        self.locality = system.binner.locality_of(self.address)
        self.store = ContentStore(capacity=system.params.peer_cache_capacity)
        self.stream: Optional[QueryStream] = None
        self.queries_issued = 0
        self._query_process: Optional[PeriodicProcess] = None
        #: key -> issue time of queries not yet finalized (the ledger).
        self._open_queries: Dict[ObjectKey, float] = {}
        #: key -> active chunked transfer (empty unless ``swarming``).
        self._swarms: Dict[ObjectKey, object] = {}

    # ------------------------------------------------------------- lifecycle
    def begin_session(self) -> None:
        """Come online: start querying if the peer's website is active."""
        self.revive()
        if self.system.catalog.is_active(self.website):
            self._start_query_process()
        self._on_session_begin()

    def crash(self) -> None:
        """Fail abruptly (the paper's only departure mode)."""
        self._stop_query_process()
        if self._swarms:
            # Close our own in-flight chunked downloads (terminal "failed"
            # under I9); the ledger entries fall to the crash sweep below.
            for transfer in list(self._swarms.values()):
                transfer.abort()
        bandwidth = self.network.bandwidth
        if bandwidth is not None:
            # Seeder death: every chunk we were uploading aborts NOW, so
            # downloaders fail over per-chunk instead of waiting forever.
            bandwidth.abort_uploads_of(self.address)
        self._abort_open_queries()
        self._on_crash()
        self.fail()

    def _abort_open_queries(self) -> None:
        """Finalize every in-flight query with a terminal ``failed_crash``.

        Without this sweep a crash would leak open ledger entries: the
        in-flight RPC replies and timeouts of a dead peer are suppressed by
        the transport, so no completion path would ever run.  The paper
        never counts these as queries served, so they are recorded under
        the failed (neither-hit-nor-miss) outcome family.
        """
        if not self._open_queries:
            return
        sim = self.sim
        metrics = self.system.metrics
        for key, started_at in self._open_queries.items():
            metrics.record(
                sim.now, key, self.locality, "failed_crash", sim.now - started_at, 0.0
            )
            sim.emit(
                "cdn.query_done",
                outcome="failed_crash",
                peer=self.address,
                key=key,
            )
        self._open_queries.clear()

    def _on_session_begin(self) -> None:
        """Protocol hook: join overlays, register with the petal, ..."""

    def _on_crash(self) -> None:
        """Protocol hook: cancel protocol processes, shut down Chord, ..."""

    # ----------------------------------------------------------------- query
    def _start_query_process(self) -> None:
        if self.stream is None:
            self.stream = QueryStream(
                self.website,
                self.system.zipf,
                self.rng,
                already_held=self.store.held_indexes(self.website),
            )
        else:
            # Re-joining session: never re-query what the cache already has.
            self.stream.mark_held(self.store.held_indexes(self.website))
        if self.stream.exhausted:
            return
        interval = self.system.query_interval_ms
        self._query_process = PeriodicProcess(
            self.sim,
            interval,
            self._issue_query,
            initial_delay=self.rng.uniform(0.0, interval),
            jitter=0.1,
            rng=self.rng,
        )

    def _stop_query_process(self) -> None:
        if self._query_process is not None:
            self._query_process.cancel()
            self._query_process = None

    def _issue_query(self) -> None:
        if not self.alive:
            return
        key = self.stream.next_object() if self.stream else None
        if key is None:
            self._stop_query_process()
            return
        self.queries_issued += 1
        self.sim.emit("cdn.query", peer=self.address, key=key)
        self.resolve_query(key, started_at=self.sim.now)

    def resolve_query(self, key: ObjectKey, started_at: float) -> None:
        """Resolve *key*: open a ledger entry, then run the protocol.

        Template method: the ledger bookkeeping is shared, the actual
        resolution strategy lives in the protocol's :meth:`_resolve_query`.
        Every opened entry is closed exactly once -- by
        :meth:`_finish_query` on completion or by :meth:`_abort_open_queries`
        on crash.
        """
        self._open_queries[key] = started_at
        self._resolve_query(key, started_at)

    def _resolve_query(self, key: ObjectKey, started_at: float) -> None:
        """Protocol-specific resolution; must end in :meth:`_finish_query`."""
        raise NotImplementedError

    # ------------------------------------------------------------ accounting
    def _finish_query(
        self,
        key: ObjectKey,
        outcome: str,
        provider: Address,
        started_at: float,
        hops: int = 0,
    ) -> None:
        """Record the query's metrics and store the delivered object.

        Called from the reply handler of the successful fetch, so ``now``
        is completion time; the provider's reply travelled one link, hence
        ``lookup latency = now - started - one_way(querier, provider)``.

        Ledger discipline: the matching open entry is consumed; a
        completion whose entry is gone (or belongs to a different issue
        time) is *stale* -- a callback surviving a crash/re-join cycle --
        and is dropped instead of double-resolving the query.
        """
        if self._open_queries.get(key) != started_at:
            # Stale completion from a previous session of this peer: the
            # query was already finalized (failed_crash at crash time).
            # Observable so the auditor can assert it never double-counts.
            self.sim.emit(
                "cdn.query_stale",
                outcome=outcome,
                peer=self.address,
                key=key,
            )
            return
        del self._open_queries[key]
        transfer = self.network.latency(self.address, provider)
        lookup_latency = max(0.0, self.sim.now - started_at - transfer)
        if outcome == "hit_local":
            self.store.touch(key)
        __, evicted = self.store.add_with_evictions(key)
        if evicted:
            self._forget_evicted(evicted)
        self.system.metrics.record(
            self.sim.now, key, self.locality, outcome, lookup_latency, transfer, hops
        )
        self.sim.emit("cdn.query_done", outcome=outcome, peer=self.address, key=key)
        self._after_query(key, outcome)

    def _forget_evicted(self, evicted) -> None:
        """Cache replacement made room by dropping the *evicted* keys."""
        if self.stream is not None:
            # Evicted objects may legitimately be queried again.
            self.stream.forget({index for ws, index in evicted if ws == self.website})
        self._on_evicted(evicted)

    def _after_query(self, key: ObjectKey, outcome: str) -> None:
        """Protocol hook: push-threshold checks, summary updates, ..."""

    def _on_evicted(self, keys) -> None:
        """Protocol hook: cache replacement dropped *keys* (bounded-cache
        extension); summaries and indexes must stop advertising them."""

    def _fetch_from_server(
        self,
        key: ObjectKey,
        outcome: str,
        started_at: float,
        hops: int = 0,
    ) -> None:
        """Fall back to the origin web server (a P2P miss).

        Servers never fail in this model, but the *path* to them can: under
        an injected partition or loss burst the fetch may exhaust its retry
        budget.  The query is then finalized with the terminal
        ``failed_unreachable`` outcome rather than silently leaking an open
        ledger entry forever.  In fault-free runs the retry wrapper never
        times out, so the event stream is identical to a plain RPC.
        """
        server = self.system.servers[key[0]]
        params = self.system.params
        self.retrying_rpc(
            server.address,
            "server.fetch",
            {"key": key},
            on_reply=lambda payload: self._finish_query(
                key, outcome, server.address, started_at, hops
            ),
            on_give_up=lambda: self._fail_query(key, "failed_unreachable", started_at),
            retries=params.rpc_retries,
        )

    def _fail_query(self, key: ObjectKey, outcome: str, started_at: float) -> None:
        """Finalize an open query with a terminal failure outcome."""
        if self._open_queries.get(key) != started_at:
            return  # already finalized (crash sweep or a racing completion)
        del self._open_queries[key]
        self.system.metrics.record(
            self.sim.now, key, self.locality, outcome, self.sim.now - started_at, 0.0
        )
        self.sim.emit("cdn.query_done", outcome=outcome, peer=self.address, key=key)


class CdnSystem:
    """Base orchestrator: identity -> peer bookkeeping and churn hooks.

    Subclasses provide :meth:`_make_peer` and
    :meth:`setup_initial_population`.
    """

    #: Protocol name used in reports ("flower", "petalup", "squirrel").
    name = "base"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        binner: LandmarkBinner,
        catalog: Catalog,
        params: ExperimentConfig,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.binner = binner
        self.catalog = catalog
        self.params = params
        self.query_interval_ms = minutes(params.query_interval_min)
        #: Table 1 couples the two: one period paces petal gossip and the
        #: content-peer -> directory keepalives.
        self.gossip_period_ms = minutes(params.gossip_period_min)
        self.metrics = metrics or MetricsCollector()
        self.zipf = ZipfSampler(catalog.objects_per_website, params.zipf_exponent)
        self.servers: Dict[WebsiteId, OriginServer] = self._make_servers()
        self.peers: Dict[int, BasePeer] = {}
        self._websites: Dict[int, WebsiteId] = {}
        #: Flower's D-ring of directory peers, Squirrel's global ring.
        self.ring = ChordRing(self._ring_params())
        self.seed_identities: List[int] = []
        #: Object-size model (:class:`repro.workload.objectsize`); ``None``
        #: keeps every object a unit payload and swarming fully inert.
        self.sizes = None
        #: :class:`~repro.cdn.swarm.SwarmTransfer`, bound together with
        #: ``sizes`` so the swarming code loads only when swarming is on.
        self.swarm_transfer = None
        # --- swarming accounting (zero-cost while ``swarming`` is off);
        # starts, restarts, chunk retries and degraded transfers are the
        # counts of their ``swarm.*`` trace kinds ---
        self.swarm_completed = 0
        self.swarm_failed = 0
        self.swarm_p2p_bytes = 0
        self.swarm_origin_bytes = 0

    def _ring_params(self) -> RingParams:
        """Chord parameters of the D-ring (Squirrel's global ring): the
        configured maintenance period, and an RPC timeout above the worst
        round trip.  The sharded system widens the timeout."""
        params = self.params
        return RingParams(
            maintenance_period_ms=seconds(params.chord_maintenance_s),
            rpc_timeout_ms=2.4 * params.latency_max_ms,
        )

    def _make_servers(self) -> Dict[WebsiteId, OriginServer]:
        """One origin server per website.  Sharded systems override this to
        register the servers in their shard's infrastructure address block
        (every shard hosts its own replica of the stateless server set)."""
        return {
            website: OriginServer(self.network, website)
            for website in self.catalog.websites()
        }

    # -------------------------------------------------------------- identity
    def website_of(self, identity: int) -> WebsiteId:
        """The website an identity is interested in, fixed for the whole
        experiment ("each peer is randomly assigned a website from |W| to
        which it has interest throughout the experiment")."""
        website = self._websites.get(identity)
        if website is None:
            website = self.sim.rng("interest").randrange(self.catalog.num_websites)
            self._websites[identity] = website
        return website

    def assign_website(self, identity: int, website: WebsiteId) -> None:
        """Pin an identity's interest (used when seeding directory peers)."""
        self.catalog.validate_website(website)
        existing = self._websites.get(identity)
        if existing is not None and existing != website:
            raise CDNError(
                f"identity {identity} already interested in website {existing}"
            )
        self._websites[identity] = website

    def offer_website(self, identity: int, website: WebsiteId) -> None:
        """Pin an identity's interest unless it already holds one: a flash
        crowd also sweeps up returning peers with other interests, and
        their interest is fixed for the whole experiment."""
        self.catalog.validate_website(website)
        self._websites.setdefault(identity, website)

    def peer_for(self, identity: int) -> BasePeer:
        """The peer object of *identity*, created on first contact."""
        peer = self.peers.get(identity)
        if peer is None:
            peer = self._make_peer(identity)
            self.peers[identity] = peer
        return peer

    def _make_peer(self, identity: int) -> BasePeer:
        raise NotImplementedError

    # ----------------------------------------------------------- churn hooks
    def on_arrival(self, identity: int) -> None:
        self.peer_for(identity).begin_session()

    def on_departure(self, identity: int) -> None:
        peer = self.peers.get(identity)
        if peer is not None and peer.alive:
            peer.crash()

    def setup_initial_population(self) -> None:
        """Create the population present at t=0 (protocol-specific)."""
        raise NotImplementedError

    # ------------------------------------------------------------ inspection
    @property
    def online_peers(self) -> int:
        return sum(1 for peer in self.peers.values() if peer.alive)

    def extra_totals(self, openloop: bool) -> Dict[str, Any]:
        """This protocol's own blocks of a result's ``extra`` (none here);
        *openloop* says whether an open-loop workload drove the run."""
        return {}

    def install_sizes(self, sizes) -> None:
        """Attach the object-size model (and share it with the origin
        servers so they can account bytes served)."""
        from repro.cdn.swarm import SwarmTransfer

        self.sizes = sizes
        self.swarm_transfer = SwarmTransfer
        for server in self.servers.values():
            server.sizes = sizes
