"""Keyword search from a peer's side (paper section 7 future work;
optional) -- a :class:`~repro.cdn.flower.peer.FlowerPeer` mixin.

A directory peer answers from its own index; a content peer asks its
directory; an unregistered peer gets no results.  When the directory is
suspect, times out or denies, the query fails over to the slot's replica
holders (section 5.4): the member heir and the k ring successors, learnt
from the ``search_replicas`` plan directories piggyback on keepalive /
push / registration replies, extended with fresh petal-mates from the
gossip view.  Replica answers are accepted only within the declared
staleness bound.  The answering side of that failover --
``flower.search_replica``, answered from the replicated member index in
our replica store -- lives here too: every peer may hold a replica.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.cdn.flower.petal import DIR_FAILURE_THRESHOLD
from repro.cdn.flower.replication import ANTI_ENTROPY_ROUNDS
from repro.dht.node import ChordNode, LookupResult
from repro.errors import CDNError
from repro.net.message import Message
from repro.types import Address, ChordId

#: How many extra petal-mates extend a search-failover chain beyond the
#: synced replica holders (section 5.4): the member sample a directory
#: ships in its failover plan, and the gossip-view contacts a client
#: appends to it -- they catch promoted heirs / provisional claimants a
#: stale hint cannot name.
FAILOVER_EXTRA_CANDIDATES = 4


def staleness_bound_ms(period_ms: float) -> float:
    """Declared bound on the age of replica-served search results, given
    the system's ``gossip_period_ms``, which also paces keepalives and
    replica syncs.

    A replica may lag its directory by up to ``ANTI_ENTROPY_ROUNDS`` sync
    periods (delta rejections force a full only on the anti-entropy
    round), and the client may take ``DIR_FAILURE_THRESHOLD`` strike
    periods to even start failing over; two more periods absorb transport
    retries and the takeover race.  Replica answers older than this are
    discarded by the querier and flagged by the chaos auditor (I7).
    """
    return period_ms * (
        ANTI_ENTROPY_ROUNDS + DIR_FAILURE_THRESHOLD + 2
    )


class SearchClient:
    """Search entry point, failover chain and replica-side answering of
    :class:`~repro.cdn.flower.peer.FlowerPeer`; all state lives on the
    peer."""

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

    def search(self, keyword: str, on_results) -> None:
        """Find petal members holding objects about *keyword*.

        Requires ``system.search_engine`` to be set (see
        :mod:`repro.cdn.flower.search`).  Every completion is accounted
        through one ``flower.search_done`` event stamped with its source.
        """
        if self.system.search_engine is None:
            raise CDNError("keyword search requires system.search_engine")
        if self.service is not None:
            self._finish_search(
                keyword, self.service.search_index(keyword), "local", 0.0, on_results
            )
            return
        info = self.dir_info
        if info is None and self._search_position is None:
            self._finish_search(keyword, [], "unregistered", 0.0, on_results)
            return
        if info is None or self._dir_suspect:
            # Orphaned mid-failure (the directory was declared dead and no
            # replacement adopted yet) or suspect: straight to replicas.
            self._search_failover(keyword, self._search_failover_plan(), on_results)
            return

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("status") != "ok":
                self._search_failover(
                    keyword, self._search_failover_plan(), on_results
                )
                return
            self._note_directory_alive(info, payload)
            self._finish_search(
                keyword,
                [(tuple(key), address) for key, address in payload["matches"]],
                "directory",
                0.0,
                on_results,
            )

        def on_give_up() -> None:
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
            if extras >= FAILOVER_EXTRA_CANDIDATES:
                break
            if contact.address in seen:
                continue
            seen.add(contact.address)
            plan.append(contact.address)
            extras += 1
        return plan

    def _search_failover(
        self,
        keyword: str,
        candidates: List[Address],
        on_results,
        ring_asked: bool = False,
    ) -> None:
        """Walk the known replica holders of our slot (member heir first,
        then ring successors) until one answers within the staleness
        bound; our own replica store is consulted first (the heir itself
        pays zero round trips).  Once the chain is spent, D-ring names one
        more candidate (:meth:`_search_via_ring`)."""
        engine = self.system.search_engine
        position = self._search_position
        if position is None and self.dir_info is not None:
            # No directory has answered us since we followed this slot, so
            # no plan was harvested: fail over for the slot we follow.
            position = self.dir_info.position_id
        if engine is None or position is None:
            self._finish_search(keyword, [], "none", 0.0, on_results)
            return
        bound = staleness_bound_ms(self.system.gossip_period_ms)
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
            if ring_asked:
                self._finish_search(keyword, [], "none", 0.0, on_results)
            else:
                self._search_via_ring(keyword, position, on_results)
            return
        target, rest = candidates[0], candidates[1:]
        params = self.system.params

        def next_candidate() -> None:
            self._search_failover(keyword, rest, on_results, ring_asked)

        def on_reply(payload: Dict[str, Any]) -> None:
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
            next_candidate()

        self.retrying_rpc(
            target,
            "flower.search_replica",
            {"position": position, "keyword": keyword},
            on_reply=on_reply,
            on_give_up=next_candidate,
            retries=params.rpc_retries,
        )

    def _search_via_ring(self, keyword: str, position: ChordId, on_results) -> None:
        """The failover chain is spent (a peer that joined the slot after
        its last replica sync may never have heard a plan, nor know a
        petal-mate): route over D-ring to the slot.  The node found holds
        the slot, or, while it is vacant, is its ring successor, the
        first of the k replica holders (section 5.4)."""
        bootstrap = self.system.ring.random_bootstrap(self.rng)
        if bootstrap is None:
            self._finish_search(keyword, [], "none", 0.0, on_results)
            return

        def on_lookup(result: LookupResult) -> None:
            found = [result.found.address] if result.ok else []
            self._search_failover(keyword, found, on_results, ring_asked=True)

        # A transient Chord node drives the lookup, as a new client's does.
        ChordNode(self, self.system.ring, position).lookup(
            position, on_lookup, start=bootstrap
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

    def handle_flower_search_replica(self, message: Message) -> Dict[str, Any]:
        """Scoped failover search (section 5.4): answer for a directory
        slot we replicate -- or serve authoritatively when we turned out
        to be the slot's (possibly provisional) directory ourselves."""
        engine = self.system.search_engine
        position = message.payload["position"]
        keyword = message.payload["keyword"]
        service = self.service
        if service is not None and service.role.position_id == position:
            return {
                "status": "ok",
                "source": "takeover",
                "staleness_ms": 0.0,
                "matches": service.search_index(keyword),
            }
        record = self.replica_store.get(position)
        if record is None:
            return {"status": "no_replica"}
        return {
            "status": "ok",
            "source": "replica",
            "staleness_ms": self.sim.now - record.updated_at,
            "matches": record.search_matches(engine.space, keyword, engine.max_results),
        }
