"""Squirrel's *home-store* strategy.

The paper's related-work section describes two DHT web-caching strategies
(section 2): the first "replicates web objects at peers with ID numerically
closest to the hash of the URL of the object without any locality or
interest considerations"; the second (the default baseline here) keeps only
a directory of downloaders at that peer.  This module implements the first,
so both halves of the paper's criticism can be measured:

- peers are forced to store content they are not interested in (the
  ``replica_store`` below, filled by strangers' uploads);
- replicas are served from a random network location (the home node);
- the whole replica set is "abruptly lost" when the home node fails, and
  the successor inheriting the key range starts empty.

Query flow: route to the home node; if it holds a replica it serves the
object directly (outcome ``hit_home``); otherwise the client fetches from
the origin and uploads a copy to the home node for future requesters.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.cdn.squirrel.peer import SquirrelPeer
from repro.cdn.squirrel.system import SquirrelSystem
from repro.dht.node import LookupResult
from repro.net.message import Message
from repro.types import Address, ObjectKey


class HomeStorePeer(SquirrelPeer):
    """A Squirrel peer under the home-store (replication) strategy."""

    def __init__(self, system, identity, website, cluster_hint=None):
        super().__init__(system, identity, website, cluster_hint)
        #: Replicas this peer hosts *as a home node* -- content it never
        #: asked for.  Unlike the browser cache, replicas do not survive a
        #: crash (a fresh process has no replica store), and a re-joining
        #: identity starts empty.
        self.replica_store: Set[ObjectKey] = set()

    def _on_session_begin(self) -> None:
        self.replica_store = set()
        super()._on_session_begin()

    def _on_crash(self) -> None:
        super()._on_crash()
        self.replica_store = set()

    # ------------------------------------------------------------ query path
    def _resolve_query(self, key: ObjectKey, started_at: float) -> None:
        """Resolve one query: Chord lookup -> home replica or origin."""
        if key in self.store:
            self._finish_query(key, "hit_local", self.address, started_at)
            return
        key_id = self._key_id(key)

        def on_lookup(result: LookupResult) -> None:
            if not self.alive:
                return
            if not result.ok:
                self._fetch_from_server(key, "miss_failed", started_at)
                return
            home = result.found
            if home.address == self.address:
                # We are the home node ourselves.
                if key in self.replica_store:
                    self._finish_query(key, "hit_local", self.address, started_at,
                                       result.hops)
                else:
                    self.replica_store.add(key)  # will hold it once fetched
                    self._fetch_from_server(key, "miss_server", started_at,
                                            result.hops)
            else:
                self._fetch_home_replica(key, home.address, started_at, result.hops)

        if self.chord is not None and self.chord.joined:
            self.chord.lookup(key_id, on_lookup)
        else:
            bootstrap = self.system.ring.random_bootstrap(self.rng)
            if bootstrap is None:
                self._fetch_from_server(key, "miss_failed", started_at)
                return
            from repro.dht.node import ChordNode

            prober = self.chord or ChordNode(self, self.system.ring, self.node_id)
            prober.lookup(key_id, on_lookup, start=bootstrap)

    def _fetch_home_replica(
        self, key: ObjectKey, home: Address, started_at: float, hops: int
    ) -> None:
        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("ok"):
                self._finish_query(key, "hit_home", home, started_at, hops)
            else:
                # Miss at the home: fetch from the origin, then replicate
                # the object at the home node for future requesters (the
                # upload is one one-way message carrying the object).
                self._fetch_from_server(key, "miss_server", started_at, hops)
                self.send(home, "squirrel.store", key=key)

        self.rpc(
            home,
            "squirrel.homefetch",
            {"key": key},
            on_reply,
            on_timeout=lambda: self._fetch_from_server(
                key, "miss_failed", started_at, hops
            ),
        )

    # ------------------------------------------------------- home behaviour
    def handle_squirrel_homefetch(self, message: Message) -> Dict[str, Any]:
        """Serve a home-node replica (or our own cached copy)."""
        key = tuple(message.payload["key"])
        return {"ok": key in self.replica_store or key in self.store}

    def handle_squirrel_store(self, message: Message) -> None:
        """Accept a replica we may have zero interest in (the criticism)."""
        self.replica_store.add(tuple(message.payload["key"]))
        return None


class HomeStoreSquirrelSystem(SquirrelSystem):
    """Squirrel under the home-store (replication) strategy."""

    name = "squirrel-home"

    def _make_peer(self, identity: int):
        return HomeStorePeer(self, identity, self.website_of(identity))

    def extra_totals(self, openloop: bool) -> Dict[str, Any]:
        return {
            **super().extra_totals(openloop),
            "forced_replicas": self.total_forced_replicas(),
        }

    def total_forced_replicas(self) -> int:
        """Objects peers currently store without having requested them."""
        return sum(
            len(peer.replica_store)
            for peer in self.peers.values()
            if peer.alive and isinstance(peer, HomeStorePeer)
        )
