"""Latency-delayed message transport with liveness and RPC timeouts.

This is where the simulation meets the "physical" network:

- a message from ``a`` to ``b`` is delivered ``topology.latency(a, b)``
  milliseconds after it is sent;
- a message addressed to a failed peer is silently lost -- exactly what a
  crash looks like from the outside;
- the RPC helper gives protocol code the only failure signal real P2P nodes
  have: *no reply within the timeout*.  All failure detection in the paper's
  maintenance protocols (section 5) is built on this.

An RPC is one object, the request (:class:`_Request`): the envelope that
travels also carries the caller, its callbacks and the deadline.  The
deadline reserves its place in the event order at send but is an event
only once its timeout can win: armed at send when the link is already as
slow as the timeout or the request leaves this fabric, otherwise by the
event that learns it (a drop, a reply due at or after the deadline, a
caller down when the reply lands).  A call answered in time never arms
its deadline at all.

Protocol endpoints subclass :class:`NetworkNode` and implement handlers named
``handle_<kind>`` (dots in the kind become underscores).  A handler's return
value becomes the RPC reply payload; a handler with nothing to say beyond
"I am here" returns :data:`ACK`, which settles the caller's RPC without
calling its ``on_reply``.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from heapq import heappush
from typing import Any, Callable, Deque, Dict, Iterator, Optional

from repro.errors import TransportError
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.types import Address

#: ``Message.__new__`` bound once -- the hot send/rpc paths build envelopes
#: by slot assignment instead of paying a constructor frame per message.
_new_message = Message.__new__

#: Called with the RPC reply payload when the response arrives.
ReplyCallback = Callable[[Dict[str, Any]], None]

#: Called when an RPC times out (destination dead or unknown).
FailureCallback = Callable[[], None]

#: Drop causes tracked by :attr:`Network.drop_counts`.
DROP_CAUSES = ("loss", "dead_dst", "partition")

#: Bit width of one address inside a packed latency-cache key: keys are
#: ``(src << ADDR_SHIFT) | dst`` because a single int hash is markedly
#: cheaper than building and hashing a tuple on every send/rpc/reply.
#: 32 bits accommodates the sharded address space (16-bit shard id +
#: 16-bit per-shard block -- see ``repro.net.shardnet``) with room to
#: spare; :meth:`Network.register` rejects addresses at or beyond this
#: bound so the packing can never silently alias two links.
ADDR_SHIFT = 32

#: First address that no longer fits the packed-key scheme.
MAX_PACKED_ADDRESS = 1 << ADDR_SHIFT

#: What :meth:`Network._deliver` returns for a message it dropped.
DROPPED = object()


class _Ack:
    """The type of :data:`ACK`; pickles by name, so a copy that crossed
    the shard bus is the same object again."""

    __slots__ = ()

    def __reduce__(self) -> str:
        return "ACK"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ACK"


#: The reply of a handler that has nothing to say beyond "I am here".  It
#: settles the caller's RPC like any reply, but ``on_reply`` is never
#: called for it -- a caller's ``on_reply`` hears negative or informative
#: replies only -- and where a sent reply cannot fail to arrive in time it
#: is not an event either (see :meth:`Network._deliver`).
ACK = _Ack()


class NetworkNode:
    """Base class of every protocol endpoint.

    Subclasses implement ``handle_<kind>(message) -> Optional[dict]`` methods;
    the returned dict (if any) is delivered to the RPC caller as the reply.

    Attributes:
        network: the owning :class:`Network`.
        sim: the simulator (shortcut for ``network.sim``).
        address: this node's unique address, assigned at registration.
        alive: liveness flag; dead nodes receive nothing and send nothing.
    """

    def __init__(self, network: "Network", cluster_hint: Optional[int] = None) -> None:
        self.network = network
        self.sim: Simulator = network.sim
        self.alive = True
        #: kind -> bound handler method, resolved once per kind (dispatch
        #: runs for every delivered message; the getattr + str.replace pair
        #: is too expensive to repeat hundreds of thousands of times).
        self._handler_cache: Dict[str, Callable[[Message], Optional[Dict[str, Any]]]] = {}
        #: per-host Chord lookup correlation state (owned by repro.dht.node;
        #: pre-created here so the recursive-lookup hot path uses direct
        #: attribute access instead of getattr-with-default).
        self._chord_pending_lookups: Dict[Any, Callable[[Dict[str, Any]], None]] = {}
        self._chord_nonce_seq = 0
        self.address: Address = network.register(self, cluster_hint)

    # ------------------------------------------------------------- liveness
    def fail(self) -> None:
        """Crash the node.  In-flight messages to it will be dropped.

        Subclasses override to also cancel their periodic processes, then
        call ``super().fail()``.
        """
        self.alive = False
        self.network.liveness_epoch += 1

    def revive(self) -> None:
        """Bring the node back up (a user re-joining from the same machine).

        The address -- and therefore the topology position -- is retained:
        it is the same physical host.
        """
        self.alive = True
        self.network.liveness_epoch += 1

    # ------------------------------------------------------------ messaging
    #
    # send/rpc carry the full transmit path inline (latency-cache lookup,
    # event pushes) rather than calling Network helpers: these two are
    # called once per message in the whole system, and the wrapper frames
    # plus re-dispatch measurably slow the canonical benchmark.

    def send(self, dst: Address, kind: str, **payload: Any) -> None:
        """Fire-and-forget one-way message; delivered after the link latency
        if the destination is alive at delivery time."""
        if not self.alive:
            return  # a crashed node sends nothing
        network = self.network
        sim = network.sim
        now = sim.now
        src_addr = self.address
        # Message construction, inlined (__new__ + slot stores): the
        # constructor frame is pure overhead on a path this frequent.
        message = _new_message(Message)
        message.src = src_addr
        message.dst = dst
        message.kind = kind
        message.payload = payload
        message.sent_at = now
        message.request_id = None
        network.messages_sent += 1
        network.kind_counts[kind] += 1
        # Network._link_latency, inlined (int key, shift = ADDR_SHIFT).
        cache = network._latency_cache
        latency = cache.get((src_addr << 32) | dst)
        if latency is None:
            latency = network.topology.latency(src_addr, dst)
            cache[(src_addr << 32) | dst] = latency
        faults = network.faults
        if faults is not None and now >= faults.calm_until:
            latency = faults.latency_adjust(src_addr, dst, latency)
        # sim.defer, inlined (one delivery event per message).
        queue = sim._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(
            queue._heap,
            [now + latency, seq, network._deliver_cb, (message,)],
        )
        live = queue._live + 1
        queue._live = live
        if live > queue._peak:
            queue._peak = live

    def rpc(
        self,
        dst: Address,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        on_reply: Optional[ReplyCallback] = None,
        on_timeout: Optional[FailureCallback] = None,
        timeout_ms: Optional[float] = None,
    ) -> None:
        """Request/response with timeout.

        The destination handler runs when the request arrives; its return
        value travels back and ``on_reply`` fires at the source one link
        latency later -- unless the handler returned :data:`ACK`, which
        only settles the call: ``on_reply`` hears negative or informative
        replies, never a bare acknowledgement.  If the destination is dead
        (at delivery time) the request vanishes and ``on_timeout`` fires
        ``timeout_ms`` after the send -- the caller cannot tell *why* there
        was no answer, only that there was none, matching real failure
        detection.

        Callbacks are suppressed if the *source* has died in the meantime
        (a dead peer processes nothing, including its own timers).
        """
        if not self.alive:
            return
        network = self.network
        if timeout_ms is None:
            timeout_ms = network.default_timeout_ms
        sim = network.sim
        now = sim.now
        src_addr = self.address
        # The request is the call's state too: one envelope, built by
        # __new__ + slot stores (a constructor frame per RPC is pure
        # overhead at this rate).
        request = _new_request(_Request)
        request.src = src_addr
        request.dst = dst
        request.kind = kind
        request.payload = {} if payload is None else payload
        request.sent_at = now
        request.caller = self
        request.on_reply = on_reply
        request.on_timeout = on_timeout
        request.settled = False
        network.messages_sent += 1
        network.kind_counts[kind] += 1
        # Network._link_latency, inlined (int key, shift = ADDR_SHIFT).
        cache = network._latency_cache
        latency = cache.get((src_addr << 32) | dst)
        if latency is None:
            latency = network.topology.latency(src_addr, dst)
            cache[(src_addr << 32) | dst] = latency
        faults = network.faults
        if faults is not None and now >= faults.calm_until:
            latency = faults.latency_adjust(src_addr, dst, latency)
        # Two sequence numbers, exactly as a timeout defer followed by a
        # delivery defer would take them: the deadline owns the lower one,
        # whether or not it ever becomes a heap entry, and doubles as the
        # correlation id (unique per scheduled event, so per RPC).  The
        # deadline enters its FIFO now only if the timeout can already win,
        # or if the request leaves this fabric (another shard answers it);
        # otherwise the event that learns the timeout can win arms it (see
        # Network._arm), and a request answered in time never is.
        queue = sim._queue
        deadline = now + timeout_ms
        if now + latency >= deadline or dst not in network._nodes:
            network.arm_deadline(timeout_ms, request)
            request.armed = True
            request.request_id = request.seq
        else:
            seq = queue._seq
            queue._seq = seq + 1
            request.deadline = deadline
            request.seq = request.request_id = seq
            request.armed = False
        # sim.defer, inlined (one delivery event per request).
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, [now + latency, seq, network._deliver_cb, (request,)])
        live = queue._live + 1
        queue._live = live
        if live > queue._peak:
            queue._peak = live

    def retrying_rpc(
        self,
        dst: Address,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        on_reply: Optional[ReplyCallback] = None,
        on_give_up: Optional[FailureCallback] = None,
        timeout_ms: Optional[float] = None,
        retries: int = 2,
        backoff_ms: float = 500.0,
        backoff_factor: float = 2.0,
        backoff_cap_ms: float = 8000.0,
        rng: Optional["random.Random"] = None,
    ) -> None:
        """RPC with capped exponential backoff and deterministic jitter.

        A single lost request or reply no longer looks like a dead peer:
        the call is retried up to *retries* times, waiting
        ``min(cap, backoff * factor**attempt)`` scaled by a jitter factor
        in [0.5, 1.0) between attempts.  Only when the whole budget is
        exhausted does *on_give_up* fire -- the moment protocol code may
        legitimately declare the destination failed.

        Jitter draws come from the simulator's dedicated ``"rpc.retry"``
        stream (or *rng*), so runs stay reproducible and unrelated
        components' random sequences are not perturbed.
        """
        if retries < 0:
            raise TransportError(f"retry budget must be >= 0 (got {retries})")
        record = _RetryingRpc()
        record.src = self
        record.dst = dst
        record.kind = kind
        record.body = dict(payload or {})
        record.on_reply = on_reply
        record.on_give_up = on_give_up
        record.timeout_ms = timeout_ms
        record.retries = retries
        record.backoff_ms = backoff_ms
        record.backoff_factor = backoff_factor
        record.backoff_cap_ms = backoff_cap_ms
        record.rng = rng if rng is not None else self.sim.rng("rpc.retry")
        record.number = 0
        record.attempt()

    def on_message(self, message: Message) -> Optional[Dict[str, Any]]:
        """Dispatch to ``handle_<kind>``.  Subclasses rarely override this."""
        kind = message.kind
        handler = self._handler_cache.get(kind)
        if handler is None:
            handler = getattr(self, "handle_" + kind.replace(".", "_"), None)
            if handler is None:
                raise TransportError(
                    f"{type(self).__name__} at {self.address} has no handler "
                    f"for message kind {message.kind!r}"
                )
            self._handler_cache[kind] = handler
        return handler(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"{type(self).__name__}(addr={self.address}, {state})"


class Network:
    """The message fabric: registry, latency-delayed delivery, RPC.

    Args:
        sim: the driving simulator.
        topology: the latency model; each registered node is placed in it.
        default_timeout_ms: RPC timeout when the caller does not pass one.
            Must exceed the worst-case round trip (2 x max link latency),
            otherwise live-but-distant peers would be misdiagnosed as dead.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        default_timeout_ms: float = 2000.0,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.default_timeout_ms = default_timeout_ms
        self._drop_rate = 0.0
        self._drop_rng: Optional["random.Random"] = None
        #: address -> node; a dict, because the sharded fabric's structured
        #: addresses are sparse.
        self._nodes: Dict[Address, NetworkNode] = {}
        #: memoized base link latencies per directed pair, keyed by the
        #: packed int ``(src << ADDR_SHIFT) | dst``.  Topology positions are
        #: immutable after registration, so entries never go stale;
        #: fault-injected adjustments are applied on top and are never cached.
        self._latency_cache: Dict[int, float] = {}
        #: bound delivery callbacks, created once -- every scheduled message
        #: event would otherwise allocate a fresh bound method.
        self._deliver_cb = self._deliver
        self._deliver_reply_cb = self._deliver_reply
        self._fire_timeouts_cb = self._fire_timeouts
        #: timeout value -> records awaiting that timeout (RPC requests
        #: armed at send, lookup attempts), in deadline order; each
        #: non-empty FIFO has exactly one heap entry, for its head (see
        #: :meth:`arm_deadline`).
        self._timeout_fifos: Dict[float, Deque[Any]] = {}
        #: bumped on every write of a node's ``alive`` flag (registration,
        #: :meth:`NetworkNode.fail`, :meth:`NetworkNode.revive`), so a
        #: consumer can cache anything derived from the live population
        #: and revalidate it with one integer comparison.
        self.liveness_epoch = 0
        self.messages_sent = 0
        #: drop cause -> count; see :data:`DROP_CAUSES`.
        self.drop_counts: Dict[str, int] = {cause: 0 for cause in DROP_CAUSES}
        #: message kind -> number sent; the raw material of the overhead
        #: analysis ("minimizing the incurred overhead" -- paper section 1).
        #: A defaultdict so the hot send/rpc paths bump it with a single
        #: subscript instead of a ``get``-then-store pair.
        self.kind_counts: Dict[str, int] = defaultdict(int)
        #: optional :class:`~repro.net.faults.FaultController`; consulted at
        #: scheduling time (latency degradation) and delivery time (partition
        #: cuts, bursty loss), in both cases only once the clock has reached
        #: its ``calm_until``.
        self.faults = None
        #: optional :class:`~repro.net.bandwidth.BandwidthModel`.  ``None``
        #: (the default) keeps the latency-only link model bit-identical to
        #: the pre-bandwidth build: no flow objects, no extra events, no RNG
        #: draws.  The swarming transfer layer consults it for payload
        #: transfer times; control messages always stay latency-only.
        self.bandwidth = None

    # ------------------------------------------------------------ fault model
    def install_faults(self, controller) -> None:
        """Attach a :class:`~repro.net.faults.FaultController` to delivery.

        The network reads its ``calm_until`` on every leg and calls
        ``drop_cause`` / ``latency_adjust`` only once the clock is there.
        """
        self.faults = controller

    def install_bandwidth(self, model) -> None:
        """Attach a :class:`~repro.net.bandwidth.BandwidthModel`."""
        self.bandwidth = model

    def configure_loss(self, rate: float, rng: "random.Random") -> None:
        """Drop each delivery (requests, replies, one-ways) i.i.d. with
        probability *rate* -- failure injection beyond crash churn.

        Protocols already treat lost messages exactly like messages to dead
        peers (RPC timeouts), so no protocol code changes; only the failure
        *rate* goes up.
        """
        if not 0.0 <= rate <= 1.0:
            raise TransportError(f"loss rate must be in [0, 1] (got {rate})")
        self._drop_rate = rate
        self._drop_rng = rng

    def _lost(self) -> bool:
        return (
            self._drop_rate > 0.0
            and self._drop_rng is not None
            and self._drop_rng.random() < self._drop_rate
        )

    # -------------------------------------------------------------- registry
    def _next_address(self, cluster_hint: Optional[int]) -> Address:
        """The address the next registration takes: a dense counter here,
        a slot of a structured block in the sharded fabric."""
        return len(self._nodes)

    def register(self, node: NetworkNode, cluster_hint: Optional[int] = None) -> Address:
        """Register *node*, place it in the topology, return its address."""
        address = self._next_address(cluster_hint)
        if address >= MAX_PACKED_ADDRESS:
            # The latency cache packs (src, dst) into one int; an address
            # beyond the shift width would silently alias another link.
            raise TransportError(
                f"address {address} exceeds the {ADDR_SHIFT}-bit packed "
                f"latency-cache key space"
            )
        self._nodes[address] = node
        self.topology.register(address, cluster_hint)
        self.liveness_epoch += 1
        return address

    def node(self, address: Address) -> NetworkNode:
        """The node registered at *address*."""
        try:
            return self._nodes[address]
        except KeyError:
            raise TransportError(f"unknown address {address}") from None

    def is_alive(self, address: Address) -> bool:
        """Liveness of the node at *address* (False for unknown addresses)."""
        node = self._nodes.get(address)
        return node is not None and node.alive

    def latency(self, a: Address, b: Address) -> float:
        """One-way base latency between two registered addresses.

        Memoized per directed pair (topologies are static; symmetric pairs
        simply occupy two entries).  Keys are single ints --
        ``(a << ADDR_SHIFT) | b`` -- because an int hash is markedly
        cheaper than building and hashing a tuple on every send/rpc/reply.
        :meth:`register` guarantees every address fits in ``ADDR_SHIFT``
        bits, so the packing never aliases two links.  Fault-injected
        adjustments are never cached: see :meth:`_link_latency`.
        """
        key = (a << ADDR_SHIFT) | b
        cache = self._latency_cache
        base = cache.get(key)
        if base is None:
            base = self.topology.latency(a, b)
            cache[key] = base
        return base

    def nodes(self) -> Iterator[NetworkNode]:
        """All registered nodes (fault campaigns iterate this)."""
        return iter(self._nodes.values())

    def _link_latency(self, src: Address, dst: Address) -> float:
        """Base latency plus any active fault-injected degradation."""
        base = self.latency(src, dst)
        faults = self.faults
        if faults is not None and self.sim.now >= faults.calm_until:
            return faults.latency_adjust(src, dst, base)
        return base

    def _drop(self, cause: str, kind: str, dst: Address) -> None:
        self.drop_counts[cause] = self.drop_counts.get(cause, 0) + 1
        self.sim.emit("net.drop", message_kind=kind, dst=dst, cause=cause)

    # -------------------------------------------------------------- delivery
    def _delivery_drop_cause(self, src: Address, dst: Address) -> Optional[str]:
        """Why a delivery on link src -> dst is lost right now, if at all."""
        faults = self.faults
        if faults is not None and self.sim.now >= faults.calm_until:
            cause = faults.drop_cause(src, dst)
            if cause is not None:
                return cause
        if self._drop_rate > 0.0 and self._lost():
            return "loss"
        return None

    def _deliver(self, message: Message) -> Any:
        """The delivery event of a request or one-way message.  Returns the
        handler's reply (possibly ``None``) or :data:`DROPPED` -- read only
        by the sharded fabric, which answers a request that came in over
        the bus with an outbox entry, not the reply event a local
        :class:`_Request` gets."""
        dst = message.dst
        dst_node = self._nodes.get(dst)
        if dst_node is None or not dst_node.alive:
            self._drop("dead_dst", message.kind, dst)
            if message.request_id is not None and not message.armed:
                self._arm(message)
            return DROPPED
        faults = self.faults
        if (
            faults is not None and self.sim.now >= faults.calm_until
        ) or self._drop_rate > 0.0:
            cause = self._delivery_drop_cause(message.src, dst)
            if cause is not None:
                self._drop(cause, message.kind, dst)
                if message.request_id is not None and not message.armed:
                    self._arm(message)
                return DROPPED
        # Cache-first dispatch: a node's ``_handler_cache`` only ever holds
        # handlers whose invocation is behaviourally identical to running the
        # node's full ``on_message`` for that kind (overrides special-case
        # their kinds *before* the caching tail, or pre-register equivalent
        # wrappers), so a hit here skips one Python frame per delivery.
        handler = dst_node._handler_cache.get(message.kind)
        reply = dst_node.on_message(message) if handler is None else handler(message)
        if message.request_id is not None:
            self.messages_sent += 1
            src = message.src
            # Network._link_latency, inlined (int key, shift = ADDR_SHIFT).
            cache = self._latency_cache
            latency = cache.get((dst << 32) | src)
            if latency is None:
                latency = self.topology.latency(dst, src)
                cache[(dst << 32) | src] = latency
            sim = self.sim
            now = sim.now
            arrival = now + latency
            faults = self.faults
            if faults is not None:
                if now >= faults.calm_until:
                    arrival = now + faults.latency_adjust(dst, src, latency)
            elif (
                reply is ACK
                and self._drop_rate == 0.0
                and arrival < message.deadline
            ):
                # Nothing can drop, delay or outrun this ack (a tie with
                # the deadline would lose to the timeout's lower sequence
                # number, hence strict), and nobody listens for it: settle
                # here and spend no reply event.
                message.settled = True
                message.caller = message.on_reply = message.on_timeout = None
                return reply
            if arrival >= message.deadline and not message.armed:
                self._arm(message)  # the reply would arrive too late
            # sim.defer, inlined (one reply event per answered RPC).
            queue = sim._queue
            seq = queue._seq
            queue._seq = seq + 1
            heappush(
                queue._heap,
                [
                    arrival,
                    seq,
                    self._deliver_reply_cb,
                    (message, reply if reply is not None else {}),
                ],
            )
            live = queue._live + 1
            queue._live = live
            if live > queue._peak:
                queue._peak = live
        return reply

    def _deliver_reply(self, request: "_Request", payload: Dict[str, Any]) -> None:
        # Same fast-path guard as request delivery: with no fault window
        # open and no configured loss, a reply cannot be dropped, so skip
        # the cause computation entirely (one reply per answered RPC).
        faults = self.faults
        if (
            faults is not None and self.sim.now >= faults.calm_until
        ) or self._drop_rate > 0.0:
            cause = self._delivery_drop_cause(request.dst, request.src)
            if cause is not None:
                self._drop(cause, "(reply)", request.src)
                if not request.armed:
                    self._arm(request)
                return
        # Settle by reply, inline: this is the tail of every answered RPC.
        if request.settled:
            return
        if not request.caller.alive:
            # A caller revived before the deadline still hears its timeout.
            if not request.armed:
                self._arm(request)
            return
        request.settled = True
        on_reply = request.on_reply
        request.caller = request.on_reply = request.on_timeout = None
        if on_reply is not None and payload is not ACK:
            on_reply(payload)

    def _arm(self, request: "_Request") -> None:
        """Make *request*'s deadline the heap entry it reserved at send.

        Called by the event that learns the timeout can win: the request
        or its reply was dropped, the reply would arrive at or after the
        deadline, or the caller was down when it arrived.  That event runs
        before the deadline, and nothing can settle the request in
        between, so the entry calls ``fire_timeout`` unconditionally -- at
        exactly the ``(deadline, seq)`` an eagerly armed deadline has.
        """
        request.armed = True
        queue = self.sim._queue
        heappush(
            queue._heap,
            [request.deadline, request.seq, _Request.fire_timeout, (request,)],
        )
        live = queue._live + 1
        queue._live = live
        if live > queue._peak:
            queue._peak = live

    def arm_deadline(self, timeout_ms: float, record: Any) -> None:
        """Give *record* a deadline *timeout_ms* from now.

        *record* is anything with ``settled`` / ``deadline`` / ``seq``
        attributes and a ``fire_timeout()`` method (an RPC request armed
        at send, a lookup attempt).  It takes one sequence number, as
        ``sim.defer`` would, and unless it is ``settled`` by then its
        ``fire_timeout()`` runs at exactly that ``(deadline, seq)`` -- but
        it is not an event
        of its own: ``now`` is monotone, so deadlines of one timeout value
        are FIFO, only the head of each FIFO holds a heap entry, and a
        record settled while it waits behind that head never costs an
        event at all.
        """
        sim = self.sim
        queue = sim._queue
        seq = queue._seq
        queue._seq = seq + 1
        record.deadline = deadline = sim.now + timeout_ms
        record.seq = seq
        fifo = self._timeout_fifos.get(timeout_ms)
        if fifo is None:
            fifo = self._timeout_fifos[timeout_ms] = deque()
        if not fifo:
            heappush(queue._heap, [deadline, seq, self._fire_timeouts_cb, (fifo,)])
            live = queue._live + 1
            queue._live = live
            if live > queue._peak:
                queue._peak = live
        fifo.append(record)

    def _fire_timeouts(self, fifo: Deque[Any]) -> None:
        """The armed head of one timeout FIFO has reached its deadline.

        Records settled early are dropped without ever having been events;
        the next unsettled one is armed under the ``(deadline, seq)`` it
        reserved, so it fires at the heap position a timeout event of its
        own would have had.  Arming comes before the callback:
        ``fire_timeout`` may arm a deadline of this same timeout value,
        which must find the FIFO's one entry in place.
        """
        record = fifo.popleft()
        while fifo:
            head = fifo[0]
            if not head.settled:
                # sim.defer at the head's reserved position, inlined.
                queue = self.sim._queue
                heappush(
                    queue._heap,
                    [head.deadline, head.seq, self._fire_timeouts_cb, (fifo,)],
                )
                live = queue._live + 1
                queue._live = live
                if live > queue._peak:
                    queue._peak = live
                break
            fifo.popleft()
        if not record.settled:
            record.fire_timeout()


class _Request(Message):
    """One RPC in flight: the request envelope is also the call's state.

    It correlates the reply and the timeout; whichever comes first wins
    (:meth:`Network._deliver_reply` settles by reply,
    :meth:`Network._deliver` by an :data:`ACK` that needs no reply event,
    :meth:`fire_timeout` by timeout).  :meth:`NetworkNode.rpc` fills the
    slots; ``deadline`` and ``seq`` are reserved at send, and ``armed``
    says whether the deadline is already pending, in a timeout FIFO
    (:meth:`Network.arm_deadline`) or as a heap entry (:meth:`Network._arm`).
    A request answered in time is never armed at all.

    Settling releases the caller and its callbacks at once: an eagerly
    armed request answered early stays in its timeout FIFO until the
    deadline passes, and must not keep the caller's closures (and
    whatever they capture) alive that long.
    """

    __slots__ = ("caller", "on_reply", "on_timeout", "settled", "deadline", "seq", "armed")

    def fire_timeout(self) -> None:
        if not self.caller.alive:
            return
        self.settled = True
        on_timeout = self.on_timeout
        self.caller = self.on_reply = self.on_timeout = None
        if on_timeout is not None:
            on_timeout()


#: ``_Request.__new__`` bound once -- see ``_new_message`` above.
_new_request = _Request.__new__


class _RetryingRpc:
    """The state of one :meth:`NetworkNode.retrying_rpc` call.

    Attempts are sequential, so one record serves the whole call and its
    methods are the attempt and timeout callbacks.  Nothing here refers to
    itself: the only references to the record are the pending attempt's
    request (``on_timeout``) or the backoff event, so the moment the
    reply is delivered or the budget is spent the record -- and with it
    the caller's callbacks, the payload and whatever they capture -- is
    freed by refcount, never by the cyclic collector.
    """

    __slots__ = (
        "src",
        "dst",
        "kind",
        "body",
        "on_reply",
        "on_give_up",
        "timeout_ms",
        "retries",
        "backoff_ms",
        "backoff_factor",
        "backoff_cap_ms",
        "rng",
        "number",
        "__weakref__",
    )

    def attempt(self) -> None:
        """Send attempt ``number`` (a fresh copy of the payload each time:
        handlers may mutate what they receive)."""
        src = self.src
        if not src.alive:
            return
        src.rpc(
            self.dst,
            self.kind,
            dict(self.body),
            self.on_reply,
            self.timed_out,
            self.timeout_ms,
        )

    def timed_out(self) -> None:
        """Attempt ``number`` went unanswered: back off and retry, or give
        up once the budget is spent."""
        src = self.src
        if not src.alive:
            return
        number = self.number
        if number >= self.retries:
            if self.on_give_up is not None:
                self.on_give_up()
            return
        delay = min(
            self.backoff_cap_ms, self.backoff_ms * (self.backoff_factor ** number)
        )
        delay *= 0.5 + 0.5 * self.rng.random()
        self.number = number + 1
        src.sim.emit(
            "net.rpc_retry", rpc_kind=self.kind, dst=self.dst, attempt=number + 1
        )
        src.sim.defer(delay, self.attempt)
