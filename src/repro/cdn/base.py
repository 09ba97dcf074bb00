"""Protocol-independent CDN machinery.

Three things live here:

- :class:`ProtocolParams` -- every protocol knob of Table 1 plus the
  implementation knobs (timeouts, retry delays, PetalUp limits), decoupled
  from the experiment-level configuration so the CDN layer does not depend
  on :mod:`repro.experiments`;
- :class:`BasePeer` -- the life of one participant: arrival / crash /
  re-join, the periodic query process, and the query *accounting* shared by
  every protocol (when a query completes, compute lookup latency and
  transfer distance the same way for Flower and Squirrel, so the comparison
  is apples-to-apples);
- :class:`CdnSystem` -- the per-protocol orchestrator the experiment runner
  drives through ``on_arrival`` / ``on_departure`` callbacks from the churn
  model.

Measurement conventions (metrics of section 6):

- **lookup latency** = time from issuing the query until the fetch request
  *reaches* the node that will provide the object (provider or origin
  server), i.e. completion time minus the final one-way reply latency;
- **transfer distance** = one-way latency between the querier and that
  provider.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.cdn.server import OriginServer
from repro.cdn.storage import ContentStore
from repro.dht.ring import RingParams
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

#: How long a client that found every directory instance busy waits before
#: re-scanning D-ring; the same pause paces directory re-probes, D-ring
#: join retries and takeover announcements.
SCAN_RETRY_DELAY_MS = seconds(30)


@dataclass(frozen=True)
class ProtocolParams:
    """CDN protocol knobs (Table 1 plus implementation parameters).

    Attributes:
        query_interval_ms: gap between a peer's queries (paper: 6 min).
        gossip_period_ms: petal gossip period (paper: 1 h).
        keepalive_period_ms: content-peer -> directory keepalive period
            (paper couples it to the gossip period: 1 h).
        push_threshold: fraction of content changes that triggers a push
            (paper: 0.5).
        zipf_exponent: object-popularity skew (Breslau et al.: ~0.8).
        directory_load_limit: members per directory instance before PetalUp
            splits; ``None`` = unbounded (plain Flower-CDN).
        max_instances: maximum directory instances per petal (PetalUp's
            2**m; 1 = plain Flower-CDN).
        directory_collaboration: whether directory peers of the same website
            answer each other's misses (section 3.2 "may collaborate").
        cache_capacity: per-peer cache size in objects; ``None`` is the
            paper's unbounded assumption, a number enables LRU replacement
            (the cache-policy extension the paper scopes out).
        dring: Chord parameters of the D-ring (or Squirrel's global ring).
        rpc_retries: per-call retry budget of directory-facing RPCs
            (query / push / keepalive), via ``NetworkNode.retrying_rpc``;
            0 restores the seed's single-shot timeout behaviour where one
            lost message condemns the directory.
        replication_k: number of D-ring successors each directory
            replicates its versioned (view, index) state to, plus one
            in-petal member heir (section 5.3 warm failover).  0 disables
            replication entirely -- no replica traffic, no extra RNG
            draws, runs bit-identical to the non-replicated build.
        directory_queue_limit: bounded admission queue (in requests) per
            directory instance.  0 disables admission control entirely --
            no queueing math runs, queries are never shed, the run stays
            bit-identical to the ungated build.  With a limit, a query
            arriving at a directory whose virtual backlog already holds
            this many requests is *shed* with an explicit redirect
            instead of silently piling up.
        directory_service_ms: mean service time one directory lookup
            occupies the admission queue for (only read when
            ``directory_queue_limit > 0``).
        overload_shedding: replica-aware PetalUp overload handling.
            When on, a splitting directory seeds the new instance with a
            deterministic partition of its member view (derived from the
            same versioned state the section 5.3 replicas carry), and an
            instance that stays overloaded sheds members directly to its
            warm ring successor instead of bouncing new clients through
            the section 4 instance scan.  Off by default: splits hand
            over an empty view, exactly the paper's behaviour.
        swarming: chunked multi-source transfers (:mod:`repro.cdn.swarm`).
            Off by default: fetches stay atomic RPCs, no object sizes are
            consulted, the run stays bit-identical to the pre-swarming
            build.  On, objects spanning more than one chunk are fetched
            in parallel from multiple holders with per-chunk failover.
        swarm_parallel: max concurrent chunk fetches per transfer.
        swarm_sources: max distinct sources a transfer asks manifests of.
        swarm_resume: keep completed chunks across source failures and
            re-request only what's missing (the robustness headline).
            Off = the cold baseline: any source failure discards all
            progress and refetches the whole object from the origin.
        swarm_replicate: petal members each full-object holder places
            chunk replicas on (0 disables placement).
        redirect_hints: queue-aware redirect hints (overload extension).
            When on (and ``directory_queue_limit > 0``) directories
            piggyback their current admission-queue depth -- plus the
            depths gossiped to them by sibling instances over the
            replication channel -- on replies and keepalives, and clients
            use the hints to pre-route a query to the least-loaded live
            instance *before* the admission queue sheds it.  Off by
            default: no hint is computed, shipped, or harvested, and runs
            stay bit-identical to the hint-free build.
        rebalance: shedding-aware content rebalancing.  When on, each
            directory tracks windowed per-key fetch counts and -- once
            overload pressure shows (sheds or a non-empty queue) -- spills
            the top-Gini-contributing hot keys to its least-loaded members
            (``flower.rebalance`` -> ``flower.fetch`` -> push), so
            subsequent fetches fan out.  Off by default: no counts are
            kept and no spill traffic exists.
        rebalance_cooldown_rounds: sweep rounds a directory stays quiet
            after one spill pass (bounds churn).
        rebalance_budget_kb: per-spill-pass byte budget; each spilled
            key costs its modeled size (or ``rebalance_nominal_kb``
            without a size model).
        rebalance_max_keys: most keys spilled in one pass.
        rebalance_nominal_kb: assumed per-object cost against the byte
            budget when no object-size model is installed.
    """

    query_interval_ms: float = minutes(6)
    gossip_period_ms: float = minutes(60)
    keepalive_period_ms: float = minutes(60)
    push_threshold: float = 0.5
    zipf_exponent: float = 0.8
    directory_load_limit: Optional[int] = None
    max_instances: int = 1
    directory_collaboration: bool = False
    cache_capacity: Optional[int] = None
    dring: RingParams = field(default_factory=RingParams)
    rpc_retries: int = 2
    replication_k: int = 0
    directory_queue_limit: int = 0
    directory_service_ms: float = 40.0
    overload_shedding: bool = False
    swarming: bool = False
    swarm_parallel: int = 4
    swarm_sources: int = 4
    swarm_resume: bool = True
    swarm_replicate: int = 0
    redirect_hints: bool = False
    rebalance: bool = False
    rebalance_cooldown_rounds: int = 2
    rebalance_budget_kb: float = 1024.0
    rebalance_max_keys: int = 4
    rebalance_nominal_kb: float = 64.0

    def __post_init__(self) -> None:
        if self.query_interval_ms <= 0 or self.gossip_period_ms <= 0:
            raise CDNError("periods must be positive")
        if not 0.0 < self.push_threshold:
            raise CDNError("push threshold must be positive")
        if self.max_instances < 1:
            raise CDNError("max_instances must be >= 1")
        if self.directory_load_limit is not None and self.directory_load_limit < 1:
            raise CDNError("directory_load_limit must be >= 1 or None")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise CDNError("cache_capacity must be >= 1 or None")
        if self.rpc_retries < 0:
            raise CDNError("rpc_retries must be >= 0")
        if self.replication_k < 0:
            raise CDNError("replication_k must be >= 0")
        if self.directory_queue_limit < 0:
            raise CDNError("directory_queue_limit must be >= 0")
        if self.directory_service_ms <= 0:
            raise CDNError("directory_service_ms must be positive")
        if self.swarm_parallel < 1:
            raise CDNError("swarm_parallel must be >= 1")
        if self.swarm_sources < 1:
            raise CDNError("swarm_sources must be >= 1")
        if self.swarm_replicate < 0:
            raise CDNError("swarm_replicate must be >= 0")
        if self.rebalance_cooldown_rounds < 0:
            raise CDNError("rebalance_cooldown_rounds must be >= 0")
        if self.rebalance_budget_kb <= 0:
            raise CDNError("rebalance_budget_kb must be positive")
        if self.rebalance_max_keys < 1:
            raise CDNError("rebalance_max_keys must be >= 1")
        if self.rebalance_nominal_kb <= 0:
            raise CDNError("rebalance_nominal_kb must be positive")


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
        self.store = ContentStore(capacity=system.params.cache_capacity)
        self.stream: Optional[QueryStream] = None
        self.queries_issued = 0
        self.sessions = 0
        self._query_process: Optional[PeriodicProcess] = None
        #: key -> issue time of queries not yet finalized (the ledger).
        self._open_queries: Dict[ObjectKey, float] = {}
        #: key -> active chunked transfer (empty unless ``swarming``).
        self._swarms: Dict[ObjectKey, object] = {}

    # ------------------------------------------------------------- lifecycle
    def begin_session(self) -> None:
        """Come online: start querying if the peer's website is active."""
        self.revive()
        self.sessions += 1
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
        interval = self.system.params.query_interval_ms
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
        params: ProtocolParams,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.binner = binner
        self.catalog = catalog
        self.params = params
        self.metrics = metrics or MetricsCollector()
        self.zipf = ZipfSampler(catalog.objects_per_website, params.zipf_exponent)
        self.servers: Dict[WebsiteId, OriginServer] = self._make_servers()
        self.peers: Dict[int, BasePeer] = {}
        self._websites: Dict[int, WebsiteId] = {}
        #: Object-size model (:class:`repro.workload.objectsize`); ``None``
        #: keeps every object a unit payload and swarming fully inert.
        self.sizes = None
        #: :class:`~repro.cdn.swarm.SwarmTransfer`, bound together with
        #: ``sizes`` so the swarming code loads only when swarming is on.
        self.swarm_transfer = None
        # --- swarming accounting (zero-cost while ``swarming`` is off) ---
        self.swarm_started = 0
        self.swarm_completed = 0
        self.swarm_degraded = 0
        self.swarm_failed = 0
        self.swarm_restarts = 0
        self.swarm_chunk_retries = 0
        self.swarm_p2p_bytes = 0
        self.swarm_origin_bytes = 0

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
