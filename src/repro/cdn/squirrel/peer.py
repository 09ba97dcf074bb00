"""One Squirrel participant.

Every peer is a Chord ring member (identifier = hash of its address, stable
across re-joins: it is the same machine) and doubles as the *home node* for
the object keys its identifier range covers.  The per-object directory of
recent downloaders lives in plain memory -- when the peer crashes the
directory is gone, which is precisely the churn weakness Figure 3 probes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.cdn.base import SCAN_RETRY_DELAY_MS, BasePeer
from repro.dht.node import ChordNode, LookupResult, deliver_route_result, route_step
from repro.net.message import Message
from repro.types import Address, ObjectKey

#: Per-object home-directory size: pointers to the most recent downloaders.
HOME_DIRECTORY_CAPACITY = 8


class SquirrelPeer(BasePeer):
    """A Squirrel peer: Chord member + home-node directory + client."""

    def __init__(self, system, identity, website, cluster_hint=None):
        super().__init__(system, identity, website, cluster_hint)
        self.node_id = system.ring.space.hash_value(f"squirrel-peer-{self.address}")
        self.chord: Optional[ChordNode] = None
        #: object key -> ordered delegate addresses (oldest first).
        self.home_directory: Dict[ObjectKey, "OrderedDict[Address, None]"] = {}
        # Chord traffic goes to the Chord component: pre-registered wrappers
        # let ``NetworkNode.on_message`` and ``Network._deliver`` dispatch it
        # straight from the handler cache (each wrapper re-reads
        # ``self.chord`` at call time).
        cache = self._handler_cache
        cache["chord.route"] = self._dispatch_chord_route
        cache["chord.route_result"] = self._dispatch_chord_route_result
        dispatch_chord_component = self._dispatch_chord_component
        for kind in (
            "chord.get_state",
            "chord.notify",
            "chord.ping",
        ):
            cache[kind] = dispatch_chord_component

    # ------------------------------------------------------------ dispatch
    # Cache-resident wrappers (see ``__init__``).
    def _dispatch_chord_route(self, message: Message) -> Optional[Dict[str, Any]]:
        return route_step(self.chord, self, message)

    def _dispatch_chord_route_result(self, message: Message) -> Optional[Dict[str, Any]]:
        return deliver_route_result(self, message)

    def _dispatch_chord_component(self, message: Message) -> Optional[Dict[str, Any]]:
        chord = self.chord
        if chord is None:
            return {}
        handler = chord._handler_cache.get(message.kind)
        if handler is None:
            return chord.on_message(message)
        return handler(message)

    # ------------------------------------------------------------ lifecycle
    def _on_session_begin(self) -> None:
        self.home_directory = {}  # a fresh process: the directory died
        self.chord = ChordNode(self, self.system.ring, self.node_id)
        bootstrap = self.system.ring.random_bootstrap(self.rng)
        if bootstrap is None:
            self.chord.create()
            return
        self.chord.join(
            bootstrap,
            on_joined=lambda: None,
            on_failed=self._join_failed,
        )

    def _join_failed(self, reason: str, holder) -> None:
        if not self.alive or self.chord is None or self.chord.joined:
            return
        # Retry until we get in; queries work meanwhile via bootstrap starts.
        self.sim.schedule(SCAN_RETRY_DELAY_MS, self._retry_join)

    def _retry_join(self) -> None:
        if not self.alive or self.chord is None or self.chord.joined:
            return
        bootstrap = self.system.ring.random_bootstrap(self.rng)
        if bootstrap is None:
            self.chord.create()
            return
        self.chord.join(bootstrap, on_joined=lambda: None, on_failed=self._join_failed)

    def _on_crash(self) -> None:
        if self.chord is not None:
            self.chord.shutdown()
            self.chord = None
        self.home_directory = {}

    # =====================================================================
    # Query path
    # =====================================================================
    def _resolve_query(self, key: ObjectKey, started_at: float) -> None:
        """Resolve one query: Chord lookup -> home node -> delegate."""
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
                self._resolve_at_own_home(key, started_at, result.hops)
            else:
                self._ask_home(key, home.address, started_at, result.hops)

        if self.chord is not None and self.chord.joined:
            self.chord.lookup(key_id, on_lookup)
        else:
            bootstrap = self.system.ring.random_bootstrap(self.rng)
            if bootstrap is None:
                self._fetch_from_server(key, "miss_failed", started_at)
                return
            prober = self.chord or ChordNode(self, self.system.ring, self.node_id)
            prober.lookup(key_id, on_lookup, start=bootstrap)

    def _key_id(self, key: ObjectKey) -> int:
        return self.system.ring.space.hash_value(self.system.catalog.url(key))

    def _resolve_at_own_home(self, key: ObjectKey, started_at: float, hops: int) -> None:
        provider = self._pick_delegate(key, exclude=self.address)
        self._register_delegate(key, self.address)
        if provider is None:
            self._fetch_from_server(key, "miss_server", started_at, hops)
        else:
            self._fetch_delegate(key, provider, self.address, started_at, hops)

    def _ask_home(
        self, key: ObjectKey, home: Address, started_at: float, hops: int
    ) -> None:
        def on_reply(payload: Dict[str, Any]) -> None:
            provider = payload.get("provider")
            if provider is None:
                self._fetch_from_server(key, "miss_server", started_at, hops)
            else:
                self._fetch_delegate(key, provider, home, started_at, hops)

        self.rpc(
            home,
            "squirrel.query",
            {"key": key},
            on_reply,
            on_timeout=lambda: self._fetch_from_server(
                key, "miss_failed", started_at, hops
            ),
        )

    def _fetch_delegate(
        self,
        key: ObjectKey,
        provider: Address,
        home: Address,
        started_at: float,
        hops: int,
    ) -> None:
        if provider == self.address:
            self._finish_query(key, "hit_local", self.address, started_at, hops)
            return

        def on_reply(payload: Dict[str, Any]) -> None:
            if payload.get("ok"):
                self._finish_query(key, "hit_directory", provider, started_at, hops)
            else:
                self._report_dead_delegate(key, provider, home)
                self._fetch_from_server(key, "miss_failed", started_at, hops)

        def on_timeout() -> None:
            self._report_dead_delegate(key, provider, home)
            self._fetch_from_server(key, "miss_failed", started_at, hops)

        self.rpc(provider, "squirrel.fetch", {"key": key}, on_reply, on_timeout)

    def _report_dead_delegate(self, key: ObjectKey, delegate: Address, home: Address) -> None:
        if home == self.address:
            self._drop_delegate(key, delegate)
        else:
            self.send(home, "squirrel.dead", key=key, delegate=delegate)

    # =====================================================================
    # Home-node behaviour
    # =====================================================================
    def _pick_delegate(self, key: ObjectKey, exclude: Address) -> Optional[Address]:
        delegates = self.home_directory.get(key)
        if not delegates:
            return None
        candidates: List[Address] = [a for a in delegates if a != exclude]
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def _register_delegate(self, key: ObjectKey, requester: Address) -> None:
        delegates = self.home_directory.setdefault(key, OrderedDict())
        if requester in delegates:
            delegates.move_to_end(requester)
        else:
            delegates[requester] = None
            while len(delegates) > HOME_DIRECTORY_CAPACITY:
                delegates.popitem(last=False)  # evict the oldest

    def _drop_delegate(self, key: ObjectKey, delegate: Address) -> None:
        delegates = self.home_directory.get(key)
        if delegates is not None:
            delegates.pop(delegate, None)
            if not delegates:
                del self.home_directory[key]

    def handle_squirrel_query(self, message: Message) -> Dict[str, Any]:
        """Home-node side: redirect to a delegate, record the requester."""
        key = tuple(message.payload["key"])
        provider = self._pick_delegate(key, exclude=message.src)
        if provider is None and key in self.store:
            provider = self.address
        # Optimistically record the requester: it is about to hold a copy
        # (from the delegate or from the origin server).
        self._register_delegate(key, message.src)
        return {"provider": provider}

    def handle_squirrel_fetch(self, message: Message) -> Dict[str, Any]:
        """Serve an object from our cache to another peer."""
        key = tuple(message.payload["key"])
        return {"ok": key in self.store}

    def handle_squirrel_dead(self, message: Message) -> None:
        """A client reports one of our delegates dead: evict it."""
        self._drop_delegate(
            tuple(message.payload["key"]), message.payload["delegate"]
        )
        return None
