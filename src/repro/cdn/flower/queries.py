"""The query paths of a Flower-CDN participant (sections 3.2 and 4) -- a
:class:`~repro.cdn.flower.peer.FlowerPeer` mixin.

- a **new client** routes its query over D-ring to d(ws, loc) [instance 0],
  scanning successive instances while they report overload (PetalUp); the
  processing directory registers the client, answers from its
  directory-index, and hands over a view sample so the client joins the
  petal as a content peer;
- a **content peer** "does not use D-ring anymore": it answers from its own
  store, then from gossip-learnt content summaries (fetching from the
  closest summarised holder), then by asking its directory peer (and
  fetching from the provider it names, or from the closest other holder
  it names when that provider is dead), and only then falls back to the
  origin web server; every fetch and directory attempt is timed by its
  own link;
- a **directory peer** answers its own queries from its index.

Overload extensions ride the content-peer path: a shed request follows
the redirect to the next PetalUp instance once, and with
``redirect_hints`` a query is pre-routed to the least-loaded live
instance before the home admission queue sheds it
(:mod:`repro.cdn.flower.hints`).

Every ``flower.query`` reply is read in one place:
:meth:`QueryPaths._apply_member_reply` (shed / not-a-directory, member
requests only) on top of :meth:`QueryPaths._apply_answer` (provider /
sibling walk / miss).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.cdn.base import SCAN_RETRY_DELAY_MS
from repro.cdn.flower.petal import DirInfo
from repro.dht.node import ChordNode, LookupResult, NodeRef
from repro.gossip.view import Contact
from repro.types import Address, ObjectKey

#: How many summary-advertised providers a content peer tries before
#: falling back to its directory.
_MAX_SUMMARY_ATTEMPTS = 2

#: How many times a new client restarts its D-ring scan before giving up
#: on the P2P system for this query.
_MAX_SCAN_TRIES = 2

#: Each attempt of a member query at its home directory times out after
#: this many one-way latencies of the link plus the slack, capped at the
#: network's default timeout.
QUERY_TIMEOUT_LATENCIES = 6.0
QUERY_TIMEOUT_SLACK_MS = 100.0


class QueryPaths:
    """Query resolution of :class:`~repro.cdn.flower.peer.FlowerPeer`
    (see module docstring); all state lives on the peer."""

    def _resolve_query(self, key: ObjectKey, started_at: float) -> None:
        """Resolve one query via the Flower-CDN paths (module docstring)."""
        d = self.directory
        if key in self.store:
            self._finish_query(key, "hit_local", self.address, started_at)
        elif (
            d is not None
            and d.website == self.website
            and d.locality == self.locality
        ):
            self._query_own_directory(key, started_at)
        elif self.dir_info is not None:
            self._query_as_content_peer(key, started_at)
        else:
            self._scan_dring(key=key, started_at=started_at, instance=0, tries=0)

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
                sources=self.service.provider_hints(key, {self.address, provider}),
            )
            return
        candidates = self._summary_candidates(key)
        if candidates:
            self._try_summary_fetch(key, candidates, started_at)
        else:
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
                # The gossiped summary raced a pruned cache.
                self.peer_summaries.pop(provider, None)
                self._try_summary_fetch(key, candidates[1:], started_at, attempt + 1)

        def on_timeout() -> None:
            self._drop_contact(provider)
            self._try_summary_fetch(key, candidates[1:], started_at, attempt + 1)

        self.rpc(
            provider,
            "flower.fetch",
            {"key": key},
            on_reply,
            on_timeout,
            timeout_ms=self._link_timeout_ms(provider),
        )

    def _ask_directory(
        self, key: ObjectKey, started_at: float, preroute: bool = True
    ) -> None:
        """Ask our directory instance -- or, with fresh redirect hints
        saying it would shed us, a less loaded instance of the petal.

        *preroute* is False for the fallback after a stale hint-guided
        hop; dir-info is re-read either way (the home directory may have
        changed or failed meanwhile), so a query never dead-ends on a
        cached pointer.
        """
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
        if preroute and self.system.params.redirect_hints:
            route = self._hint_preroute(info)
            if route is not None:
                self._query_hinted_instance(key, started_at, info, *route)
                return

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("status") == "not_directory":
                self._on_directory_failure(info)
                self._fetch_from_server(key, "miss_failed", started_at)
                return
            self._note_directory_alive(info, payload)
            self._after_queue_wait(
                payload,
                key,
                started_at,
                lambda: self._apply_member_reply(
                    key, started_at, payload, info.address, siblings={info.address}
                ),
            )

        def on_give_up() -> None:
            self._on_directory_strike(info)
            self._fetch_from_server(key, "miss_failed", started_at)

        self._directory_rpc(
            info,
            "flower.query",
            {"key": key, "member": True},
            on_reply,
            on_give_up,
            timeout_ms=self._link_timeout_ms(info.address),
        )

    def _link_timeout_ms(self, address: Address) -> float:
        """How long one query RPC to *address* waits for its answer.

        A query's directory and providers sit inside the petal or close
        by, so an attempt timed by the link's own latency detects a dead
        peer in a few hundred ms (section 5.2: one timeout) where the
        network default waits out the slowest link of the whole topology.
        """
        return min(
            self.network.default_timeout_ms,
            QUERY_TIMEOUT_LATENCIES * self.network.link_latency(self.address, address)
            + QUERY_TIMEOUT_SLACK_MS,
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

    # ---------------------------------------- reading a flower.query reply
    def _apply_member_reply(
        self,
        key: ObjectKey,
        started_at: float,
        reply: Dict[str, Any],
        asked: Address,
        redirect: bool = True,
        siblings: Optional[Set[Address]] = None,
    ) -> None:
        """Act on instance *asked*'s reply to a member query.

        A shed request fails over at most once: the shedding directory
        named its successor instance (warm, under ``overload_shedding``
        seeded with half its members), so with *redirect* the member
        retries there directly -- no D-ring scan.  A second shed or a
        not-a-directory answer ends the query with the terminal
        ``shed_overload`` outcome; there is no queue to wait in twice.
        """
        status = reply.get("status")
        target = reply.get("redirect")
        if status not in ("shed", "not_directory"):
            self._apply_answer(key, started_at, reply, "hit_directory", 0, siblings)
        elif (
            status == "shed"
            and redirect
            and target is not None
            and target not in (self.address, asked)
        ):
            self._ask_instance(
                target,
                key,
                started_at,
                lambda answer: self._apply_member_reply(
                    key, started_at, answer, target, redirect=False
                ),
                on_timeout=lambda: self._fail_query(key, "shed_overload", started_at),
            )
        else:
            self._fail_query(key, "shed_overload", started_at)

    def _apply_answer(
        self,
        key: ObjectKey,
        started_at: float,
        reply: Dict[str, Any],
        outcome: str,
        hops: int = 0,
        siblings: Optional[Set[Address]] = None,
    ) -> None:
        """Act on a directory's answer: fetch from the provider it named
        (accounted as *outcome*); on a miss continue the sibling walk when
        *siblings* -- the directories asked so far -- allows it, else fall
        back to the origin server.

        Directory collaboration (section 3.2): the walk visits the same
        website's directory peers -- ring neighbours thanks to the key
        management service -- in successor direction along the website's
        contiguous identifier arc and stops at its end, at a repeat, or
        after k-1 extra directories.
        """
        provider = reply.get("provider")
        sibling = reply.get("sibling_address")
        if reply.get("status") == "provider" and provider is not None:
            self._fetch_provider(
                key, provider, outcome, started_at, hops, reply.get("providers")
            )
        elif (
            siblings is not None
            and sibling is not None
            and sibling not in siblings
            and sibling != self.address
            and len(siblings) <= self.system.binner.num_localities
        ):
            visited = siblings | {sibling}

            def on_reply(payload: Dict[str, Any]) -> None:
                self._after_queue_wait(
                    payload,
                    key,
                    started_at,
                    lambda: self._apply_answer(
                        key, started_at, payload, "hit_transfer", siblings=visited
                    ),
                )

            self.rpc(
                sibling,
                "flower.query",
                {"key": key, "foreign": True},
                on_reply,
                on_timeout=lambda: self._fetch_from_server(
                    key, "miss_server", started_at
                ),
            )
        else:
            self._fetch_from_server(key, "miss_server", started_at, hops)

    def _ask_instance(
        self,
        address: Address,
        key: ObjectKey,
        started_at: float,
        apply: Callable[[Dict[str, Any]], None],
        on_timeout: Callable[[], None],
    ) -> None:
        """One un-retried member query to an instance that is not our
        home directory (post-shed redirect, hint-guided hop).  Its reply
        carries its own load vector: the next query can pre-route there
        without being shed at home first."""

        def on_reply(payload: Dict[str, Any]) -> None:
            self._harvest_load_hint(payload)
            self._after_queue_wait(payload, key, started_at, lambda: apply(payload))

        self.rpc(
            address, "flower.query", {"key": key, "member": True}, on_reply, on_timeout
        )

    def _fetch_provider(
        self,
        key: ObjectKey,
        provider: Address,
        outcome: str,
        started_at: float,
        hops: int = 0,
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
            system.swarm_transfer(
                self, key, provider, started_at, hops, extra_sources=sources
            ).start()
            return

        def fall_back() -> None:
            # The closest holder the directory named, then the origin: a
            # dead or pruned provider costs a second fetch, not a miss.
            if sources:
                self._fetch_provider(
                    key,
                    min(sources, key=lambda a: self.network.latency(self.address, a)),
                    outcome,
                    started_at,
                    hops,
                )
            else:
                self._fetch_from_server(key, "miss_failed", started_at, hops)

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("ok"):
                self._finish_query(key, outcome, provider, started_at, hops)
            else:
                fall_back()

        def on_timeout() -> None:
            self._drop_contact(provider)
            # Tell our directory so it stops redirecting others to a corpse
            # before the next expiry sweep notices.
            if self.dir_info is not None:
                self.send(self.dir_info.address, "flower.dead_provider", dead=provider)
            fall_back()

        self.rpc(
            provider,
            "flower.fetch",
            {"key": key},
            on_reply,
            on_timeout,
            timeout_ms=self._link_timeout_ms(provider),
        )

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
            self._claim_directory_position(key, started_at)
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
                self._claim_directory_position(key, started_at)
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
            if status in ("scan", "shed"):
                # Overloaded (PetalUp scan) or rejected at the admission
                # queue before registration: continue down the instance
                # chain while it goes on.
                onward = reply.get("next_address" if status == "scan" else "redirect")
                if (
                    onward is not None
                    and instance + 1 < self.system.params.max_instances
                ):
                    self._contact_directory(
                        key,
                        started_at,
                        NodeRef(found.id + 1, onward),
                        instance + 1,
                        tries,
                        hops,
                    )
                elif status == "scan":
                    self._scan_failed(key, started_at)
                elif key is not None:
                    self._fail_query(key, "shed_overload", started_at)
                else:
                    # A shed registration attempt simply retries later.
                    self._retry_scan(key, started_at, tries)
            elif status == "not_directory":
                self._retry_scan(key, started_at, tries)
            else:
                self._adopt_registration(reply)
                if key is not None:
                    self._apply_answer(
                        key, started_at, reply, "hit_directory", hops, {found.address}
                    )

        params = self.system.params
        self.retrying_rpc(
            found.address,
            "flower.query",
            payload,
            on_reply=lambda reply: self._after_queue_wait(
                reply, key, started_at, lambda: apply(reply)
            ),
            on_give_up=lambda: self._retry_scan(key, started_at, tries),
            retries=params.rpc_retries,
        )

    def _retry_scan(
        self,
        key: Optional[ObjectKey],
        started_at: Optional[float],
        tries: int,
    ) -> None:
        if tries + 1 < _MAX_SCAN_TRIES:
            self.sim.schedule(
                SCAN_RETRY_DELAY_MS,
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
        if key is not None:
            self._fetch_from_server(key, "miss_failed", started_at)
        elif self.alive and not self.in_petal:
            # A bare registration attempt failed: try again later (query-less
            # peers have no other trigger to re-enter the petal).
            self.sim.schedule(
                4 * SCAN_RETRY_DELAY_MS,
                self._register_with_petal,
            )

    def _adopt_registration(self, reply: Dict[str, Any]) -> None:
        """Join the petal: harvest the reply, seed the view, follow the
        directory that registered us."""
        self._registering = False
        if self.directory is not None:
            return  # we became a directory in the meantime
        self._harvest_search_replicas(reply)
        self._harvest_load_hint(reply)
        for contact_address in reply.get("view_sample", []):
            if contact_address != self.address:
                self.view.add(Contact(contact_address, age=0))
        position = reply["dir_position"]
        self.sim.emit("flower.joined_petal", peer=self.address, position=position)
        self._follow_directory(DirInfo(position, reply["dir_address"]))

    def _register_with_petal(self) -> None:
        """Bare registration (no query): non-active arrivals and re-joins."""
        if not self.alive or self.in_petal or self._registering or self._recovering:
            return
        self._registering = True
        self._scan_dring(key=None, started_at=None, instance=0, tries=0)

    def _claim_directory_position(
        self, key: Optional[ObjectKey], started_at: Optional[float]
    ) -> None:
        """A new client found its petal's position vacant (section 5.2.2):
        try to serve instance 0 itself."""
        self._registering = False
        if not self._recovering and self.directory is None:
            self._begin_directory_role(
                self.website,
                self.locality,
                0,
                self.system.key_service.position_id(self.website, self.locality, 0),
            )
        if key is not None:
            # Nobody indexed our petal yet; this query can only be a miss.
            self._fetch_from_server(key, "miss_server", started_at)
