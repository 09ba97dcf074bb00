"""The Chord protocol state machine of one node.

Implements the SIGCOMM 2001 protocol with the robustness refinements every
deployed Chord uses:

- a **successor list** of r entries instead of a single successor, so the
  ring survives r-1 simultaneous adjacent failures;
- **recursive lookups** forwarded hop by hop, every hop acknowledged: a
  next hop that stays silent is purged from the forwarder's tables and the
  route continues through the next best candidate -- this is what keeps
  routing alive under the paper's "worst scenarios of churn";
- a single combined **maintenance tick** (stabilize + notify + one finger
  repair + predecessor check) per period, desynchronized across nodes.

A :class:`ChordNode` is a *component* attached to a host
:class:`~repro.net.transport.NetworkNode`; hosts forward every message whose
kind starts with ``"chord."`` to :meth:`ChordNode.on_message`.  This
composition is what lets a CDN peer carry a Chord node only while it plays
the directory role (Flower-CDN) or all the time (Squirrel).

Identifiers are *assigned by the caller*: Squirrel hashes the host address,
while the D-ring assigns structured ids from (website, locality, instance) --
the paper's "novel key management service".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.errors import DHTError
from repro.net.message import Message
from repro.net.transport import ACK, NetworkNode
from repro.sim.process import PeriodicProcess, desynchronized_start
from repro.types import Address, ChordId

#: Relative jitter of the maintenance period, so nodes do not tick in
#: lock-step.
MAINTENANCE_JITTER = 0.1

#: Hard cap on hops per route: a route this long is a loop and is dropped.
LOOKUP_MAX_PROBES = 64


class NodeRef(NamedTuple):
    """A remote node as known locally: (identifier, network address)."""

    id: ChordId
    address: Address

    def pack(self) -> "tuple":
        """Wire form of this ref.

        A ``NodeRef`` *is* a tuple (NamedTuple), so it is its own wire
        form -- returning ``self`` avoids one tuple allocation per packed
        ref on the maintenance hot path (hundreds of thousands per run).
        """
        return self

    @staticmethod
    def unpack(raw: Optional[tuple]) -> Optional["NodeRef"]:
        if type(raw) is NodeRef or raw is None:
            # Simulated peers share one address space, so packed refs arrive
            # as the NodeRef they were packed from: identity, no allocation.
            return raw
        return NodeRef(raw[0], raw[1])


class LookupResult(NamedTuple):
    """Outcome of one lookup.

    Attributes:
        key: the identifier that was looked up.
        found: ref of the key's successor, or None when the lookup failed.
        hops: number of nodes the route was forwarded through.
        timeouts: number of end-to-end attempts that timed out (a dead hop
            rerouted around in flight costs latency, not an attempt).
        latency_ms: wall-clock (simulated) time from start to completion,
            including timeout stalls -- the paper's "lookup latency".
    """

    key: ChordId
    found: Optional[NodeRef]
    hops: int
    timeouts: int
    latency_ms: float

    @property
    def ok(self) -> bool:
        return self.found is not None


LookupCallback = Callable[[LookupResult], None]

#: ``tuple.__new__`` bound once: LookupResult is a NamedTuple, so building
#: it directly from a tuple skips the generated constructor frame (one
#: LookupResult per lookup; see _RecursiveLookup._finish).
_new_lookup_result = tuple.__new__


class ChordNode:
    """One node's Chord state and behaviour.

    Args:
        host: the network endpoint this Chord node lives on.
        ring: the shared overlay (parameters + bootstrap registry).
        node_id: this node's identifier on the ring.

    The node starts *inactive*: call :meth:`create` (first node of a ring or
    warm start), or :meth:`join` to enter an existing ring.
    """

    def __init__(self, host: NetworkNode, ring: "ChordRing", node_id: ChordId) -> None:
        if not ring.space.contains(node_id):
            raise DHTError(f"node id {node_id} outside the identifier space")
        self.host = host
        self.ring = ring
        self.space = ring.space
        self.node_id = node_id
        self.predecessor: Optional[NodeRef] = None
        self.successors: List[NodeRef] = []
        self.fingers: List[Optional[NodeRef]] = [None] * ring.params.bits
        self.joined = False
        self._next_finger = 1  # finger 0 is the successor; repaired by stabilize
        #: finger i's target key -- static per (node_id, bits), computed
        #: lazily on the first repair tick (same formula as
        #: IdSpace.finger_start).  Directory nodes are created in large
        #: numbers under churn and many die before their first repair, so
        #: paying the table at construction time is wasted work.
        self._finger_starts: Optional[List[ChordId]] = None
        #: this node's own ref, cached: (node_id, address) are both fixed
        #: for the node's lifetime, and a shared ref object lets the finger
        #: scan skip duplicate entries by identity.
        self._ref = NodeRef(node_id, host.address)
        self._maintenance: Optional[PeriodicProcess] = None
        self._stabilizing = False
        #: kind -> bound handler, resolved once (hot dispatch path).
        self._handler_cache: Dict[str, Callable[[Message], Optional[Dict[str, Any]]]] = {}

    # ---------------------------------------------------------------- basics
    @property
    def ref(self) -> NodeRef:
        return self._ref

    @property
    def is_active(self) -> bool:
        """Joined and the host is up."""
        return self.joined and self.host.alive

    @property
    def successor(self) -> Optional[NodeRef]:
        return self.successors[0] if self.successors else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChordNode(id={self.node_id}, addr={self.host.address}, "
            f"joined={self.joined}, succ={self.successor})"
        )

    # ------------------------------------------------------------- lifecycle
    def create(self) -> None:
        """Become the first (and only) node of a new ring."""
        if self.joined:
            raise DHTError("node already joined")
        self.successors = [self.ref]
        self.predecessor = self.ref
        self._complete_join()

    def adopt_warm_state(
        self,
        successors: List[NodeRef],
        predecessor: Optional[NodeRef],
        fingers: List[Optional[NodeRef]],
    ) -> None:
        """Install converged state directly (warm start -- see ChordRing)."""
        if self.joined:
            raise DHTError("node already joined")
        self.successors = list(successors)
        self.predecessor = predecessor
        self.fingers = list(fingers)
        self._complete_join(register=False)  # warm_start registers itself

    def join(
        self,
        bootstrap: Address,
        on_joined: Callable[[], None],
        on_failed: Callable[[str, Optional[NodeRef]], None],
    ) -> None:
        """Join the ring through *bootstrap*.

        On success ``on_joined()`` fires once the node is wired in.  On
        failure ``on_failed(reason, holder)`` fires with reason one of
        ``"taken"`` (another node already holds this exact identifier --
        the D-ring replacement race of section 5.2.2; *holder* is that
        node), ``"lookup"`` (routing failed) or ``"race"`` (a concurrent
        joiner integrated first).
        """
        if self.joined:
            raise DHTError("node already joined")

        def lookup_done(result: LookupResult) -> None:
            if not self.host.alive:
                return
            if not result.ok:
                on_failed("lookup", None)
                return
            succ = result.found
            if succ.id == self.node_id and succ.address != self.host.address:
                on_failed("taken", succ)
                return
            self._finish_join(succ, on_joined, on_failed)

        self.lookup(self.node_id, lookup_done, start=bootstrap)

    def _finish_join(
        self,
        succ: NodeRef,
        on_joined: Callable[[], None],
        on_failed: Callable[[str, Optional[NodeRef]], None],
    ) -> None:
        """Adopt *succ*, then notify it; the notify reply settles the race."""

        def state_reply(payload: Dict[str, Any]) -> None:
            if not payload.get("successors"):
                on_failed("lookup", None)
                return
            succlist = [NodeRef.unpack(raw) for raw in payload["successors"]]
            self.successors = self._merged_successors(succ, succlist)

            def notify_reply(reply: Dict[str, Any]) -> None:
                if not reply.get("accepted", False):
                    self.successors = []
                    on_failed("race", NodeRef.unpack(reply.get("holder")))
                    return
                if not self.ring.try_register(self):
                    # A same-id candidate integrated through a different
                    # successor while we were joining: it won (section
                    # 5.2.2 -- first to integrate succeeds).
                    self.successors = []
                    holder = self.ring.holder_of(self.node_id)
                    on_failed("race", holder.ref if holder is not None else None)
                    return
                self._complete_join(register=False)
                on_joined()

            self.host.rpc(
                succ.address,
                "chord.notify",
                {"candidate": self.ref.pack()},
                on_reply=notify_reply,
                on_timeout=lambda: on_failed("lookup", None),
                timeout_ms=self.ring.params.rpc_timeout_ms,
            )

        self.host.rpc(
            succ.address,
            "chord.get_state",
            {},
            on_reply=state_reply,
            on_timeout=lambda: on_failed("lookup", None),
            timeout_ms=self.ring.params.rpc_timeout_ms,
        )

    def _complete_join(self, register: bool = True) -> None:
        self.joined = True
        if register:
            self.ring.register(self)
        self.start_maintenance()
        self.host.sim.emit("chord.join", id=self.node_id, addr=self.host.address)

    def start_maintenance(self) -> None:
        """Start the periodic stabilization tick (idempotent)."""
        if self._maintenance is not None and self._maintenance.active:
            return
        params = self.ring.params
        rng = self.host.sim.rng("chord.maintenance")
        self._maintenance = PeriodicProcess(
            self.host.sim,
            params.maintenance_period_ms,
            self._maintenance_tick,
            initial_delay=desynchronized_start(params.maintenance_period_ms, rng),
            jitter=MAINTENANCE_JITTER,
            rng=rng,
        )

    def shutdown(self) -> None:
        """Stop participating (crash or leave).  Safe to call repeatedly."""
        if self._maintenance is not None:
            self._maintenance.cancel()
            self._maintenance = None
        if self.joined:
            self.ring.deregister(self)
            self.joined = False
        # The cached handlers are bound to us: a node that is shut down is
        # about to be dropped, and must be freeable by refcount.
        self._handler_cache.clear()
        self.host.sim.emit("chord.shutdown", id=self.node_id)

    def leave_gracefully(self) -> None:
        """Voluntary departure: hand neighbours to each other, then go."""
        pred, succ = self.predecessor, self.successor
        if pred is not None and succ is not None and pred.id != self.node_id:
            self.host.send(
                pred.address, "chord.successor_hint", successor=succ.pack()
            )
            self.host.send(
                succ.address, "chord.predecessor_hint", predecessor=pred.pack()
            )
        self.shutdown()

    # ------------------------------------------------------------ local data
    def closest_preceding(self, key: ChordId) -> Optional[NodeRef]:
        """Best locally known node strictly between self and *key*.

        Scans the finger table from the top, then the successor list, per
        the Chord paper; a node observed dead has already left both
        (:meth:`note_failed`).
        """
        best: Optional[NodeRef] = None
        space = self.space
        size = space.size
        best_distance = size
        node_id = self.node_id
        # The interval test ``id in (node_id, key)`` is inlined below: the
        # finger scan runs for every routing hop and the ``in_open`` method
        # call dominates its cost at paper scale (semantics identical to
        # ``IdSpace.in_open``, property-tested there).
        wraps = node_id >= key  # interval wraps the origin (or is degenerate)
        prev = None
        for finger in reversed(self.fingers):
            # Adjacent finger slots frequently hold the *same* ref object
            # (low fingers all equal the successor); a rejected ref would be
            # rejected again, and an accepted one returns immediately, so
            # duplicates can be skipped by identity.
            if finger is None or finger is prev:
                continue
            prev = finger
            fid = finger.id
            if fid == node_id:
                continue
            if wraps:
                if node_id == key:
                    if fid != node_id:
                        return finger
                elif fid > node_id or fid < key:
                    return finger
            elif node_id < fid < key:
                return finger
        for candidate in self.successors:
            cid = candidate.id
            if cid == node_id:
                continue
            if space.in_open(cid, node_id, key):
                distance = (key - cid) % size
                if distance < best_distance:
                    best, best_distance = candidate, distance
        return best

    def note_failed(self, node_id: ChordId) -> None:
        """Purge a node observed dead from every local table."""
        self.successors = [s for s in self.successors if s.id != node_id]
        self.fingers = [
            None if f is not None and f.id == node_id else f for f in self.fingers
        ]
        if self.predecessor is not None and self.predecessor.id == node_id:
            self.predecessor = None

    def _merged_successors(self, head: NodeRef, rest: List[Optional[NodeRef]]) -> List[NodeRef]:
        """Successor list = head + its list, deduplicated, truncated to r."""
        merged: List[NodeRef] = [head]
        seen = {head.id, self.node_id}
        seen_add = seen.add
        limit = self.ring.params.successor_list_size
        count = 1
        for ref in rest:
            if ref is None:
                continue
            rid = ref.id
            if rid in seen:
                continue
            merged.append(ref)
            seen_add(rid)
            count += 1
            if count >= limit:
                break
        return merged

    # ------------------------------------------------------------- lookups
    def lookup(
        self,
        key: ChordId,
        on_done: LookupCallback,
        start: Optional[Address] = None,
    ) -> None:
        """Find the successor of *key* by recursive routing (see the
        "Recursive routing" comment below).

        Args:
            key: identifier to resolve.
            on_done: receives a :class:`LookupResult` (check ``.ok``).
            start: route through this address first instead of using local
                tables -- how non-members (new clients bootstrapping into
                Flower-CDN) route over a ring they do not belong to.
        """
        if start is None and not self.joined:
            raise DHTError("lookup from a non-member requires a start address")
        _RecursiveLookup(self, key, on_done, start).begin()

    # ------------------------------------------------------------- handlers
    def on_message(self, message: Message) -> Optional[Dict[str, Any]]:
        """Dispatch ``chord.*`` message kinds to handler methods."""
        kind = message.kind
        handler = self._handler_cache.get(kind)
        if handler is None:
            handler = getattr(self, "handle_" + kind.replace(".", "_"), None)
            if handler is None:
                raise DHTError(f"unknown chord message kind {message.kind!r}")
            self._handler_cache[kind] = handler
        return handler(message)

    def handle_chord_get_state(self, message: Message) -> Dict[str, Any]:
        """Stabilization read: our predecessor and successor list."""
        # NodeRefs are their own wire form (see NodeRef.pack); a plain list
        # copy packs the successor list without per-entry method calls.
        return {
            "id": self.node_id,
            "predecessor": self.predecessor,
            "successors": list(self.successors),
        }

    def handle_chord_notify(self, message: Message) -> Dict[str, Any]:
        """A node believes it is our predecessor (join or stabilize)."""
        candidate = NodeRef.unpack(message.payload["candidate"])
        if candidate is None or not self.joined:
            return {"accepted": False, "holder": None}
        pred = self.predecessor
        if pred is not None and candidate.id == pred.id and candidate.address != pred.address:
            # Identifier collision: the position is already held (the
            # paper's D-ring join race, section 5.2.2).
            return {"accepted": False, "holder": pred.pack()}
        if (
            pred is None
            or pred.id == self.node_id
            or self.space.in_open(candidate.id, pred.id, self.node_id)
            or candidate.id == pred.id  # refresh from the same node
        ):
            self.predecessor = candidate
            return {"accepted": True}
        return {"accepted": False, "holder": pred.pack()}

    def handle_chord_ping(self, message: Message) -> Any:
        """Liveness probe (predecessor check): a ring member just acks."""
        return ACK if self.joined else {"id": self.node_id, "joined": False}

    def handle_chord_successor_hint(self, message: Message) -> None:
        """A gracefully leaving successor points us past itself."""
        hint = NodeRef.unpack(message.payload["successor"])
        if hint is not None and self.joined and hint.id != self.node_id:
            leaving = self.successor
            if leaving is not None:
                self.note_failed(leaving.id)
            self.successors = self._merged_successors(hint, self.successors)
        return None

    def handle_chord_predecessor_hint(self, message: Message) -> None:
        """A gracefully leaving predecessor points us past itself."""
        hint = NodeRef.unpack(message.payload["predecessor"])
        if hint is None or not self.joined or hint.id == self.node_id:
            return None
        pred = self.predecessor
        if (
            pred is None
            or pred.address == message.src  # sender is our leaving predecessor
            or self.space.in_open(hint.id, pred.id, self.node_id)
        ):
            self.predecessor = hint
        return None

    # ---------------------------------------------------------- maintenance
    def _maintenance_tick(self) -> None:
        if not (self.joined and self.host.alive):  # is_active, inlined
            return
        self._stabilize()
        self._fix_one_finger()
        self._check_predecessor()

    def _stabilize(self, attempt: int = 0) -> None:
        """Classic stabilize: learn successor's predecessor, then notify."""
        if self._stabilizing and attempt == 0:
            return  # previous round still in flight
        successors = self.successors
        succ = successors[0] if successors else None
        if succ is None:
            self.successors = [self._ref]
            self._stabilizing = False
            return
        if succ.id == self.node_id:
            # We point at ourselves.  If someone has notified us (we have a
            # real predecessor), adopt it as successor -- this is how the
            # second node of a ring gets linked in classic Chord.
            self._stabilizing = False
            pred = self.predecessor
            if pred is not None and pred.id != self.node_id:
                merged = self._merged_successors(pred, [])
                self.successors = merged
                self.fingers[0] = merged[0]
                self.host.send(pred.address, "chord.notify", candidate=self._ref)
            return
        self._stabilizing = True

        def on_state(payload: Dict[str, Any]) -> None:
            self._stabilizing = False
            if not (self.joined and self.host.alive):  # is_active, inlined
                return
            if not payload.get("successors"):
                # The host answered but is no longer a ring member (it
                # crashed and came back as a plain peer): drop it like a
                # failure, else the ring would never route around it.
                on_timeout()
                return
            pred = NodeRef.unpack(payload.get("predecessor"))
            # The successor entries are NodeRefs already (their own wire
            # form -- see NodeRef.pack); no per-entry unpack needed on this,
            # the most frequent maintenance reply in a run.
            succlist = payload["successors"]
            new_succ = succ
            if (
                pred is not None
                and pred.id != self.node_id
                and self.space.in_open(pred.id, self.node_id, succ.id)
            ):
                new_succ = pred  # a closer successor has appeared
            merged = self._merged_successors(
                new_succ, [succ] + succlist if new_succ != succ else succlist
            )
            self.successors = merged
            first = merged[0]
            self.fingers[0] = first
            self.host.send(first.address, "chord.notify", candidate=self._ref)

        def on_timeout() -> None:
            self._stabilizing = False
            if not (self.joined and self.host.alive):  # is_active, inlined
                return
            self.note_failed(succ.id)
            self.host.sim.emit("chord.successor_failed", id=self.node_id, dead=succ.id)
            if attempt < self.ring.params.successor_list_size:
                self._stabilize(attempt + 1)  # fall through to the next one
            elif not self.successors:
                self.successors = [self._ref]  # last resort: re-anchor later

        self.host.rpc(
            succ.address,
            "chord.get_state",
            {},
            on_reply=on_state,
            on_timeout=on_timeout,
            timeout_ms=self.ring.params.rpc_timeout_ms,
        )

    def _fix_one_finger(self) -> None:
        """Repair fingers round-robin: one *lookup* per tick.

        Fingers whose start falls within (self, successor] equal the
        successor and are repaired for free while scanning, so the lookup
        budget is spent only on the ~log2(N) genuinely distinct fingers --
        without this, a 32-bit table would take 31 ticks per full repair
        cycle and rot badly under churn.
        """
        if not self.joined:
            return
        bits = self.ring.params.bits
        node_id = self.node_id
        starts = self._finger_starts
        if starts is None:
            size = self.space.size
            starts = self._finger_starts = [
                (node_id + (1 << i)) % size for i in range(bits)
            ]
        fingers = self.fingers
        successors = self.successors
        succ = successors[0] if successors else None
        succ_id = succ.id if succ is not None else None
        for __ in range(bits - 1):
            index = self._next_finger
            self._next_finger += 1
            if self._next_finger >= bits:
                self._next_finger = 1
            key = starts[index]
            if succ_id is not None and (
                # key in (node_id, succ_id] cyclically (in_half_open_right,
                # inlined: this test runs ~log2(N) times per tick per node).
                node_id == succ_id
                or (node_id < key <= succ_id)
                or (node_id > succ_id and (key > node_id or key <= succ_id))
            ):
                fingers[index] = succ
                continue

            def done(result: LookupResult, index: int = index) -> None:
                if result.found is not None and self.joined and self.host.alive:
                    self.fingers[index] = result.found

            self.lookup(key, done)
            return

    def _check_predecessor(self) -> None:
        pred = self.predecessor
        if pred is None or pred.id == self.node_id:
            return

        def on_timeout() -> None:
            if not self.joined:
                return  # shut down meanwhile: these are not our tables now
            if self.predecessor is not None and self.predecessor.id == pred.id:
                self.predecessor = None

        def on_reply(payload: Dict[str, Any]) -> None:
            # A member's ack never gets here: whoever answers in words is
            # no longer a ring member.
            on_timeout()

        self.host.rpc(
            pred.address,
            "chord.ping",
            {},
            on_reply=on_reply,
            on_timeout=on_timeout,
            timeout_ms=self.ring.params.rpc_timeout_ms,
        )


# ---------------------------------------------------------------------------
# Recursive routing
# ---------------------------------------------------------------------------
#
# The query travels hop by hop as ``chord.route`` RPCs, and the node owning
# the key sends a one-way ``chord.route_result`` straight back to the
# origin.  A hop acknowledges the previous hop and forwards in the same
# instant, so a route still costs one link latency per hop, the way
# PeerSim-style Chord simulations route.  The ack is what makes a hop
# reliable: a previous hop that hears ``{"ok": False}`` or nothing within
# ``rpc_timeout_ms`` purges the dead entry and reroutes through its next
# best candidate, up to three handoffs (``forward_route``, whose callbacks
# are the methods of one slotted ``_Hop`` record).  The positive ack is the
# transport's ``ACK``: it settles the hop's RPC and calls nobody; on a
# fabric that cannot lose or delay it, it is not even an event, and a hop
# answered in time never arms its deadline.  Only a route that runs out of
# handoffs, or whose result is lost, is lost: the origin then retries the
# whole route after ``recursive_timeout_ms`` (a deadline armed with
# ``Network.arm_deadline``, so an attempt that finished in time never
# fires) and gives up after ``recursive_retries`` attempts.
#
# Hosts keep one pending-callback table for all their Chord activity (a
# host may run several logical nodes over its lifetime -- e.g. a Flower
# peer doing a bootstrap scan with a transient node); the helpers below own
# that table so host classes stay trivial.

def deliver_route_result(host: NetworkNode, message: Message) -> None:
    """Host-side dispatch of ``chord.route_result`` (see module comment)."""
    pending = host._chord_pending_lookups  # pre-created by NetworkNode
    if not pending:
        return None
    callback = pending.pop(message.payload.get("nonce"), None)
    if callback is not None:
        callback(message.payload)
    return None


def route_step(node: Optional["ChordNode"], host: NetworkNode, message: Message) -> Any:
    """Host-side dispatch of ``chord.route``: acknowledge, then answer the
    origin or forward one hop closer.

    The :data:`~repro.net.transport.ACK` tells the previous hop the message
    is in good hands; a previous hop that gets no ack (we crashed) or
    ``{"ok": False}`` (we are not a ring member any more) reroutes around
    us -- per-hop reliability, the way deployed recursive DHTs forward.
    """
    if node is None or not node.joined or not host.alive:
        return {"ok": False}
    payload = message.payload
    key: ChordId = payload["key"]
    hops: int = payload["hops"]
    if hops >= LOOKUP_MAX_PROBES:
        return ACK  # loop guard: swallow silently
    successors = node.successors
    if not successors:
        return {"ok": False}
    succ = successors[0]
    node_id = node.node_id
    succ_id = succ.id
    # key in (node_id, succ_id] cyclically -- in_half_open_right inlined;
    # this test runs once per forwarded hop of every recursive lookup.
    if (
        node_id == succ_id
        or (node_id < key <= succ_id)
        or (node_id > succ_id and (key > node_id or key <= succ_id))
    ):
        host.send(
            payload["origin"],
            "chord.route_result",
            nonce=payload["nonce"],
            result=succ,
            hops=hops,
        )
        return ACK
    # The next hop's payload: a literal in the first hop's key order,
    # cheaper than a ``dict(payload, hops=...)`` copy.
    forward_route(
        node,
        host,
        {
            "key": key,
            "origin": payload["origin"],
            "nonce": payload["nonce"],
            "hops": hops + 1,
        },
    )
    return ACK


def forward_route(
    node: "ChordNode",
    host: NetworkNode,
    payload: Dict[str, Any],
    attempts: int = 3,
) -> None:
    """Send the route one hop closer, rerouting around dead next hops.

    Each failed handoff purges the dead entry from our tables
    (:meth:`ChordNode.note_failed` -- reactive repair) and tries the next
    best candidate, up to *attempts* times; after that the route is dropped
    and the origin's end-to-end retry takes over.
    """
    if attempts <= 0 or not host.alive or not node.joined:
        return
    key: ChordId = payload["key"]
    nxt = node.closest_preceding(key)
    if nxt is None:
        successors = node.successors
        nxt = successors[0] if successors else None
    if nxt is None or nxt.id == node.node_id:
        return
    hop = _new_hop(_Hop)
    hop.node = node
    hop.host = host
    hop.payload = payload
    hop.attempts = attempts
    hop.nxt = nxt
    host.rpc(
        nxt.address,
        "chord.route",
        payload,
        hop.refused,
        hop.timed_out,
        node.ring.params.rpc_timeout_ms,
    )


class _Hop:
    """One handoff of a route to its next hop.  Its methods are the hop
    RPC's callbacks, so a hop allocates one slotted record and no closure."""

    __slots__ = ("node", "host", "payload", "attempts", "nxt")

    def refused(self, reply: Dict[str, Any]) -> None:
        # Only a refusal gets here (the positive ack is the transport's
        # ACK): the next hop answers but is not a ring member any more.
        node = self.node
        if not node.joined:
            return
        node.note_failed(self.nxt.id)
        forward_route(node, self.host, self.payload, self.attempts - 1)

    def timed_out(self) -> None:
        node = self.node
        if not node.joined:
            return  # shut down meanwhile: no table to repair, no reroute
        dead = self.nxt.id
        node.note_failed(dead)
        self.host.sim.emit("chord.route_reroute", at=node.node_id, dead=dead)
        forward_route(node, self.host, self.payload, self.attempts - 1)


#: ``_Hop.__new__`` bound once: one hop record per forwarded hop.
_new_hop = _Hop.__new__


class _RecursiveLookup:
    """State of one in-flight recursive lookup (origin side).

    Attempts are sequential, so the lookup is its own deadline record for
    :meth:`Network.arm_deadline` (``settled`` / ``deadline`` / ``seq`` /
    :meth:`fire_timeout`): nothing refers back to it, and once it has
    finished its pending deadline is dropped without becoming an event.
    """

    __slots__ = (
        "node",
        "key",
        "on_done",
        "start_address",
        "started_at",
        "attempts",
        "settled",
        "nonce",
        "deadline",
        "seq",
        "__weakref__",
    )

    def __init__(
        self,
        node: ChordNode,
        key: ChordId,
        on_done: LookupCallback,
        start: Optional[Address],
    ) -> None:
        self.node = node
        self.key = key
        self.on_done = on_done
        self.start_address = start
        self.started_at = node.host.sim.now
        self.attempts = 0
        self.settled = False
        self.nonce: Optional[tuple] = None

    # -------------------------------------------------------------- driving
    def begin(self) -> None:
        self.attempts += 1
        node = self.node
        host = node.host
        # A fresh nonce per attempt, from the host's counter.
        sequence = host._chord_nonce_seq + 1
        host._chord_nonce_seq = sequence
        nonce = self.nonce = (host.address, sequence)
        host._chord_pending_lookups[nonce] = self._on_result
        host.network.arm_deadline(node.ring.params.recursive_timeout_ms, self)
        key = self.key
        payload = {"key": key, "origin": host.address, "nonce": nonce, "hops": 1}
        if self.start_address is not None and not node.joined:
            # Non-members hand the route to their bootstrap; no alternative
            # first hop exists, so a dead bootstrap surfaces as an attempt
            # timeout and, eventually, a failed lookup.
            host.rpc(self.start_address, "chord.route", payload)
            return
        # First step runs locally: we are a ring member.
        successors = node.successors
        succ = successors[0] if successors else None
        if succ is None:
            self._finish(None, 0)
            return
        node_id = node.node_id
        succ_id = succ.id
        # key in (node_id, succ_id] cyclically -- in_half_open_right
        # inlined, as in route_step.
        if (
            node_id == succ_id
            or (node_id < key <= succ_id)
            or (node_id > succ_id and (key > node_id or key <= succ_id))
        ):
            self._finish(succ, 0)
            return
        forward_route(node, host, payload)

    def _on_result(self, payload: Dict[str, Any]) -> None:
        if self.settled or not self.node.host.alive:
            return
        self._finish(NodeRef.unpack(payload.get("result")), payload.get("hops", 0))

    def fire_timeout(self) -> None:
        """The current attempt's deadline passed with no result."""
        self.node.host._chord_pending_lookups.pop(self.nonce, None)
        if not self.node.host.alive:
            self.settled = True
            return
        if self.attempts > self.node.ring.params.recursive_retries:
            self._finish(None, 0, timeouts=self.attempts)
            return
        self.begin()

    def _finish(self, found: Optional[NodeRef], hops: int, timeouts: Optional[int] = None) -> None:
        self.settled = True
        if self.nonce is not None:
            self.node.host._chord_pending_lookups.pop(self.nonce, None)
        sim = self.node.host.sim
        if timeouts is None:
            timeouts = self.attempts - 1
        latency_ms = sim.now - self.started_at
        # NamedTuple construction via tuple.__new__: LookupResult *is* a
        # tuple, and one is built per lookup -- the generated __new__ frame
        # is pure overhead on this path.
        result = _new_lookup_result(
            LookupResult, (self.key, found, hops, timeouts, latency_ms)
        )
        sim.emit(
            "chord.lookup",
            ok=found is not None,
            hops=hops,
            timeouts=timeouts,
            latency_ms=latency_ms,
        )
        self.on_done(result)
