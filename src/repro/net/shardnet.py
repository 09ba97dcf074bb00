"""Sharded network fabric: structured addresses, pure topology, bus boundary.

The sharded execution layer (:mod:`repro.sim.sharded`) runs one
:class:`~repro.sim.engine.Simulator` per *shard* -- a group of localities --
possibly in separate worker processes.  Three things make that possible
without any shared mutable state between shards:

1. **Structured addresses** (:class:`ShardMap`).  Every address encodes its
   shard and its locality: shard ``s`` owns the block
   ``[s * 2**16, (s+1) * 2**16)``, whose first ``num_websites`` slots hold
   the shard's own origin-server replicas and whose remainder is split into
   equal per-locality sub-blocks.  Any shard can decode any address it sees
   in a message without asking anyone.

2. **A pure-function topology** (:class:`ShardedTopology`).  A peer's
   coordinates are a deterministic function of its address alone (seeded
   hash -> Gaussian scatter around its locality's cluster centre), so
   ``latency(a, b)`` is computable in *any* shard for *any* pair of
   addresses -- cross-shard sends price their link at the source exactly as
   local sends do.  This replaces the registration-order-dependent RNG of
   :class:`~repro.net.topology.ClusteredTopology`, whose draws could never
   be kept consistent across independently running shards.

3. **A bus boundary in delivery** (:class:`ShardedNetwork`).  The transport
   send paths are untouched; when the delivery event for a message addressed
   to a foreign shard fires, the message becomes an *outbox entry* instead
   of a local dispatch.  The window scheduler drains outboxes at every
   barrier and injects them into the destination shards in a canonical
   order (see :mod:`repro.sim.sharded`).

Because ``Network._link_latency`` packs latency-cache keys as
``(src << ADDR_SHIFT) | dst``, the full sharded address space must stay
below ``2**ADDR_SHIFT`` (32 bits today): with 16-bit blocks that caps
the map at 65536 shards — far beyond any practical host count.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError, TransportError
from repro.net.message import Message
from repro.net.topology import Topology
from repro.net.transport import ADDR_SHIFT, Network, NetworkNode, _RpcContext
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.types import Address, Coordinate, LocalityId

#: Bits per shard address block (64k addresses per shard).
BLOCK_BITS = 16

#: Hard cap on shards: (num_shards << BLOCK_BITS) must stay below
#: 2**ADDR_SHIFT because the transport's latency cache packs keys as
#: (src << ADDR_SHIFT) | dst.
MAX_SHARDS = 1 << (ADDR_SHIFT - BLOCK_BITS)

#: Outbox entry tags (tuple position 0).
MSG = "m"
REPLY = "r"


class ShardMap:
    """The static partition of the world into shards.

    Localities are assigned round-robin (``shard_of_locality(loc) =
    loc % num_shards``); ``num_localities`` must divide evenly so every
    shard carries the same number of localities.

    Args:
        num_shards: number of shards (1..MAX_SHARDS).
        num_localities: the experiment's locality count k.
        num_websites: |W|; sizes the per-shard origin-server block.
    """

    def __init__(self, num_shards: int, num_localities: int, num_websites: int) -> None:
        if num_shards < 1:
            raise ConfigError(f"need at least one shard (got {num_shards})")
        if num_shards > MAX_SHARDS:
            raise ConfigError(
                f"at most {MAX_SHARDS} shards fit the packed address space "
                f"(got {num_shards}); pass a smaller num_shards"
            )
        if num_shards > num_localities:
            raise ConfigError(
                f"{num_shards} shards but only {num_localities} localities; "
                f"a shard cannot be empty"
            )
        if num_localities % num_shards != 0:
            raise ConfigError(
                f"num_shards={num_shards} does not divide "
                f"num_localities={num_localities} cleanly; choose a divisor "
                f"of {num_localities}"
            )
        if num_websites < 1:
            raise ConfigError("need at least one website")
        block = 1 << BLOCK_BITS
        per_shard_localities = num_localities // num_shards
        peer_space = block - num_websites
        if peer_space < per_shard_localities:
            raise ConfigError(
                f"{num_websites} origin servers leave no room for peers in a "
                f"{block}-address shard block"
            )
        self.num_shards = num_shards
        self.num_localities = num_localities
        self.num_websites = num_websites
        self.localities_per_shard = per_shard_localities
        #: addresses available per (shard, locality) sub-block.
        self.locality_capacity = peer_space // per_shard_localities

    # ------------------------------------------------------------- structure
    def shard_of_locality(self, locality: LocalityId) -> int:
        return locality % self.num_shards

    def localities_of(self, shard: int) -> Tuple[LocalityId, ...]:
        """The localities shard *shard* owns, ascending."""
        return tuple(
            loc for loc in range(self.num_localities) if loc % self.num_shards == shard
        )

    # ------------------------------------------------------------- addresses
    def shard_of_address(self, address: Address) -> int:
        return address >> BLOCK_BITS

    def server_address(self, shard: int, website: int) -> Address:
        """Address of shard-local origin-server replica of *website*."""
        return (shard << BLOCK_BITS) | website

    def peer_address(self, shard: int, locality: LocalityId, index: int) -> Address:
        """The *index*-th peer address of *locality* inside *shard*."""
        if index >= self.locality_capacity:
            raise TransportError(
                f"locality {locality} address sub-block exhausted "
                f"({self.locality_capacity} slots)"
            )
        slot = self.localities_of(shard).index(locality)
        offset = self.num_websites + slot * self.locality_capacity + index
        return (shard << BLOCK_BITS) | offset

    def is_server_address(self, address: Address) -> bool:
        return (address & ((1 << BLOCK_BITS) - 1)) < self.num_websites

    def locality_of_address(self, address: Address) -> LocalityId:
        """The locality any address belongs to, decodable anywhere.

        Origin-server replicas are pinned to one of their hosting shard's
        localities (``website % localities_per_shard``) so partitions and
        latency behave as if the server were an in-region host.
        """
        shard = address >> BLOCK_BITS
        offset = address & ((1 << BLOCK_BITS) - 1)
        local = self.localities_of(shard)
        if offset < self.num_websites:
            return local[offset % len(local)]
        slot = (offset - self.num_websites) // self.locality_capacity
        if slot >= len(local):
            raise TransportError(f"address {address} outside any locality sub-block")
        return local[slot]

    def seed_peer_address(self, website: int, locality: LocalityId) -> Address:
        """Address of the seed directory peer of petal (website, locality).

        Seed peers are the first registrations in each locality and are
        created in ``DRingKeyService.all_positions`` order (website-major),
        so the seed of (ws, loc) always lands at per-locality index ws.
        This is what lets every shard compute the full initial D-ring
        membership table locally (see ShardedFlowerSystem).
        """
        return self.peer_address(self.shard_of_locality(locality), locality, website)


class ShardedBinner:
    """Exact locality binning from the structured address.

    Stands in for :class:`~repro.net.landmarks.LandmarkBinner` in sharded
    runs: the locality is decoded from the address instead of probabilistic
    landmark probing, so it is identical in every shard (a documented
    deviation -- see docs/PROTOCOLS.md section 10).
    """

    def __init__(self, shard_map: ShardMap) -> None:
        self.num_localities = shard_map.num_localities
        self._map = shard_map

    def locality_of(self, address: Address) -> LocalityId:
        return self._map.locality_of_address(address)


class ShardedTopology(Topology):
    """Clustered latency model as a pure function of the address.

    Geometry matches :class:`~repro.net.topology.ClusteredTopology` (cluster
    centres on a jittered circle, Gaussian scatter, affine distance-to-
    latency map); only the randomness source differs: every coordinate is
    derived from ``(topology_seed, address)``, never from registration
    order.  All shards construct this object from the same master seed and
    therefore agree on every pairwise latency.
    """

    _MAX_DISTANCE = math.sqrt(2.0)

    def __init__(
        self,
        shard_map: ShardMap,
        topology_seed: int,
        latency_min_ms: float = 10.0,
        latency_max_ms: float = 500.0,
        spread: float = 0.04,
    ) -> None:
        if not 0 < latency_min_ms < latency_max_ms:
            raise ConfigError(
                f"need 0 < latency_min < latency_max "
                f"(got {latency_min_ms}, {latency_max_ms})"
            )
        self._map = shard_map
        self._seed = topology_seed
        self.latency_min_ms = latency_min_ms
        self.latency_max_ms = latency_max_ms
        self.spread = spread
        self.num_clusters = shard_map.num_localities
        rng = random.Random(derive_seed(topology_seed, "sharded-centers"))
        self.centers: List[Coordinate] = []
        for i in range(self.num_clusters):
            angle = 2.0 * math.pi * i / self.num_clusters
            jitter_x = rng.uniform(-0.03, 0.03)
            jitter_y = rng.uniform(-0.03, 0.03)
            x = 0.5 + 0.38 * math.cos(angle) + jitter_x
            y = 0.5 + 0.38 * math.sin(angle) + jitter_y
            self.centers.append((min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)))
        self._positions: Dict[Address, Coordinate] = {}
        self._registered: set = set()

    def register(self, address: Address, cluster_hint: Optional[int] = None) -> None:
        if address in self._registered:
            raise ConfigError(f"address {address} already registered")
        self._registered.add(address)

    def knows(self, address: Address) -> bool:
        return address in self._registered

    def cluster_of(self, address: Address) -> int:
        return self._map.locality_of_address(address)

    def position(self, address: Address) -> Coordinate:
        pos = self._positions.get(address)
        if pos is None:
            cx, cy = self.centers[self._map.locality_of_address(address)]
            rng = random.Random(derive_seed(self._seed, f"sharded-pos:{address}"))
            x = min(max(rng.gauss(cx, self.spread), 0.0), 1.0)
            y = min(max(rng.gauss(cy, self.spread), 0.0), 1.0)
            pos = (x, y)
            self._positions[address] = pos
        return pos

    def latency_at(self, pa: Coordinate, pb: Coordinate) -> float:
        dist = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
        fraction = dist / self._MAX_DISTANCE
        return self.latency_min_ms + fraction * (self.latency_max_ms - self.latency_min_ms)

    def latency(self, a: Address, b: Address) -> float:
        if a == b:
            return 0.0
        return self.latency_at(self.position(a), self.position(b))


class ShardedNetwork(Network):
    """One shard's slice of the fabric, with a bus boundary in delivery.

    Addresses come from the :class:`ShardMap` instead of a dense counter;
    the node registry is a dict keyed by global address.  The send paths
    (``NetworkNode.send`` / ``rpc``) are inherited unchanged -- the pure
    topology prices any link, local or not -- and the fork happens when the
    delivery event fires: a foreign destination turns the message into an
    outbox entry that the window scheduler ships at the next barrier.

    Outbox entry wire forms (plain tuples, picklable)::

        (MSG,   arrival, dst_shard, dst, kind, payload, src, sent_at, token)
        (REPLY, arrival, dst_shard, token, payload, replier)

    ``arrival`` is the virtual time the delivery event fired (request) or
    the reply would naturally land (reply); the scheduler floors it to the
    injection barrier.  ``token`` is ``(src_shard, serial)`` correlating a
    cross-shard RPC to its pending context at the source, or None for
    one-way messages.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: ShardedTopology,
        shard_map: ShardMap,
        shard_id: int,
        default_timeout_ms: float = 2000.0,
    ) -> None:
        super().__init__(sim, topology, default_timeout_ms)
        self.shard_map = shard_map
        self.shard_id = shard_id
        #: global address -> node, replacing the base class's dense list.
        self._nodes: Dict[Address, NetworkNode] = {}
        self._localities = shard_map.localities_of(shard_id)
        self._locality_fill: Dict[LocalityId, int] = {loc: 0 for loc in self._localities}
        self._infra_mode = False
        self._infra_count = 0
        self._placement_rng = sim.rng("placement")
        #: entries bound for other shards, drained at every barrier.
        self.outbox: List[tuple] = []
        self._pending_remote: Dict[Tuple[int, int], _RpcContext] = {}
        self._remote_serial = 0
        self.bus_entries_out = 0
        self.bus_entries_in = 0

    # -------------------------------------------------------------- registry
    @contextmanager
    def infra_registration(self):
        """Within this context, registrations take origin-server slots."""
        self._infra_mode = True
        try:
            yield self
        finally:
            self._infra_mode = False

    def register(self, node: NetworkNode, cluster_hint: Optional[int] = None) -> Address:
        if self._infra_mode:
            if self._infra_count >= self.shard_map.num_websites:
                raise TransportError("origin-server address block exhausted")
            address = self.shard_map.server_address(self.shard_id, self._infra_count)
            self._infra_count += 1
        else:
            if cluster_hint is None:
                locality = self._placement_rng.choice(self._localities)
            elif cluster_hint in self._locality_fill:
                locality = cluster_hint
            else:
                raise TransportError(
                    f"locality {cluster_hint} is not owned by shard {self.shard_id}"
                )
            index = self._locality_fill[locality]
            self._locality_fill[locality] = index + 1
            address = self.shard_map.peer_address(self.shard_id, locality, index)
        self._nodes[address] = node
        self.topology.register(address, cluster_hint)
        self.liveness_epoch += 1
        return address

    def node(self, address: Address) -> NetworkNode:
        found = self._nodes.get(address)
        if found is None:
            raise TransportError(f"unknown address {address}")
        return found

    def is_alive(self, address: Address) -> bool:
        found = self._nodes.get(address)
        return found is not None and found.alive

    def is_local(self, address: Address) -> bool:
        return (address >> BLOCK_BITS) == self.shard_id

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[NetworkNode]:
        return iter(self._nodes.values())

    # -------------------------------------------------------------- delivery
    def _deliver(self, message: Message, context: Optional[_RpcContext]) -> None:
        dst = message.dst
        if (dst >> BLOCK_BITS) != self.shard_id:
            # Foreign shard: the link latency has already elapsed (this event
            # fired at send + latency); ship the message over the bus.  The
            # RPC timeout event stays local and fires unless a reply entry
            # comes back and settles the context first.
            token = None
            if context is not None:
                token = (self.shard_id, self._remote_serial)
                self._remote_serial += 1
                self._pending_remote[token] = context
            self.outbox.append(
                (
                    MSG,
                    self.sim.now,
                    dst >> BLOCK_BITS,
                    dst,
                    message.kind,
                    message.payload,
                    message.src,
                    message.sent_at,
                    token,
                )
            )
            self.bus_entries_out += 1
            return
        dst_node = self._nodes.get(dst)
        if dst_node is None or not dst_node.alive:
            self._drop("dead_dst", message.kind, dst)
            return
        faults = self.faults
        if (
            faults is not None and self.sim.now >= faults.calm_until
        ) or self._drop_rate > 0.0:
            cause = self._delivery_drop_cause(message.src, dst)
            if cause is not None:
                self._drop(cause, message.kind, dst)
                return
        handler = dst_node._handler_cache.get(message.kind)
        reply = dst_node.on_message(message) if handler is None else handler(message)
        if context is not None:
            self.messages_sent += 1
            src = message.src
            latency = self._link_latency(dst, src)
            self.sim.defer(
                latency,
                self._deliver_reply_cb,
                context,
                dst,
                reply if reply is not None else {},
            )

    # ------------------------------------------------------------------- bus
    def inject_entries(self, entries: List[tuple], barrier: float) -> None:
        """Schedule canonically ordered foreign entries into this shard.

        Entries whose natural arrival predates the barrier are floored to
        it (the conservative-window rule); later arrivals (reply legs whose
        link latency exceeds the window) keep their natural time.  Called
        with both simulators at *barrier*, in the order produced by
        :func:`repro.sim.sharded.route_entries`, so equal-time deliveries
        fire in canonical bus order.
        """
        sim = self.sim
        for entry in entries:
            self.bus_entries_in += 1
            when = entry[1]
            if when < barrier:
                when = barrier
            if entry[0] == MSG:
                sim.schedule_at(when, self._apply_remote_message, entry)
            else:
                sim.schedule_at(when, self._apply_remote_reply, entry)

    def _apply_remote_message(self, entry: tuple) -> None:
        __, __, __, dst, kind, payload, src, sent_at, token = entry
        dst_node = self._nodes.get(dst)
        if dst_node is None or not dst_node.alive:
            self._drop("dead_dst", kind, dst)
            return
        faults = self.faults
        if (
            faults is not None and self.sim.now >= faults.calm_until
        ) or self._drop_rate > 0.0:
            cause = self._delivery_drop_cause(src, dst)
            if cause is not None:
                self._drop(cause, kind, dst)
                return
        message = Message(src, dst, kind, payload, sent_at=sent_at)
        handler = dst_node._handler_cache.get(kind)
        reply = dst_node.on_message(message) if handler is None else handler(message)
        if token is not None:
            self.messages_sent += 1
            latency = self._link_latency(dst, src)
            self.outbox.append(
                (
                    REPLY,
                    self.sim.now + latency,
                    token[0],
                    token,
                    reply if reply is not None else {},
                    dst,
                )
            )
            self.bus_entries_out += 1

    def _apply_remote_reply(self, entry: tuple) -> None:
        __, __, __, token, payload, replier = entry
        context = self._pending_remote.pop(token, None)
        if context is None:
            return  # already timed out and swept
        faults = self.faults
        if (
            faults is not None and self.sim.now >= faults.calm_until
        ) or self._drop_rate > 0.0:
            cause = self._delivery_drop_cause(replier, context.src.address)
            if cause is not None:
                self._drop(cause, "(reply)", context.src.address)
                return
        context.fire_reply(payload)

    def sweep_settled(self) -> None:
        """Drop pending cross-shard RPC contexts that have settled.

        A context settles either when its reply entry arrives or when its
        local timeout event fires; either way the map entry is dead weight.
        The window scheduler calls this at every barrier so never-answered
        RPCs (dead destination, dropped reply) do not accumulate.
        """
        pending = self._pending_remote
        if pending:
            settled = [token for token, ctx in pending.items() if ctx.settled]
            for token in settled:
                del pending[token]


def drain_outbox(network: ShardedNetwork) -> List[tuple]:
    """Take the shard's accumulated outbox (clearing it) and sweep RPCs."""
    entries = network.outbox
    network.outbox = []
    network.sweep_settled()
    return entries
