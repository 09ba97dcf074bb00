"""Sharded network fabric: the single-simulator fabric, forked where it differs.

The sharded execution layer (:mod:`repro.sim.sharded`) runs one
:class:`~repro.sim.engine.Simulator` per *shard* -- a group of localities --
possibly in separate worker processes.  Three things make that possible
without any shared mutable state between shards, and each is one small
override of the class the single-simulator build uses:

1. **Structured addresses** (:class:`ShardMap`, allocated by
   :meth:`ShardedNetwork._next_address`).  Every address encodes its shard
   and its locality: shard ``s`` owns the block
   ``[s * 2**16, (s+1) * 2**16)``, whose first ``num_websites`` slots hold
   the shard's own origin-server replicas and whose remainder is split into
   equal per-locality sub-blocks.  Any shard can decode any address it sees
   in a message without asking anyone.

2. **A pure-function topology** (:class:`ShardedTopology`, a
   :class:`~repro.net.topology.ClusteredTopology` that overrides where a
   peer sits).  A peer's coordinates are a deterministic function of its
   address alone (seeded hash -> Gaussian scatter around its locality's
   cluster centre), so ``latency(a, b)`` is computable in *any* shard for
   *any* pair of addresses -- cross-shard sends price their link at the
   source exactly as local sends do.  The base class draws positions from
   one stream in registration order, which could never be kept consistent
   across independently running shards.

3. **A bus boundary in delivery** (:meth:`ShardedNetwork._deliver`).  The
   transport send paths are untouched; when the delivery event for a
   message addressed to a foreign shard fires, the message becomes an
   *outbox entry* instead of a local dispatch -- everything local falls
   through to :meth:`Network._deliver`.  The window scheduler drains
   outboxes at every barrier and injects them into the destination shards
   in a canonical order (see :mod:`repro.sim.sharded`), where they pass the
   same delivery gate and the same reply settling as local traffic.

Because ``Network.latency`` packs latency-cache keys as
``(src << ADDR_SHIFT) | dst``, the full sharded address space must stay
below ``2**ADDR_SHIFT`` (32 bits today): with 16-bit blocks that caps
the map at 65536 shards — far beyond any practical host count.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError, TransportError
from repro.net.message import Message
from repro.net.topology import ClusteredTopology
from repro.net.transport import ADDR_SHIFT, DROPPED, Network, _Request
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
        return tuple(range(shard, self.num_localities, self.num_shards))

    # ------------------------------------------------------------- addresses
    def shard_of_address(self, address: Address) -> int:
        return address >> BLOCK_BITS

    def server_address(self, shard: int, website: int) -> Address:
        """Address of shard-local origin-server replica of *website*."""
        return (shard << BLOCK_BITS) | website

    def peer_address(self, shard: int, locality: LocalityId, index: int) -> Address:
        """The *index*-th peer address of *locality* inside *shard*."""
        in_map = 0 <= locality < self.num_localities
        if not in_map or self.shard_of_locality(locality) != shard:
            raise TransportError(f"locality {locality} is not owned by shard {shard}")
        if index >= self.locality_capacity:
            raise TransportError(
                f"locality {locality} address sub-block exhausted "
                f"({self.locality_capacity} slots)"
            )
        # Round-robin assignment: the shard's slot-th locality is
        # ``shard + slot * num_shards`` (decoded in locality_of_address).
        slot = locality // self.num_shards
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
        if offset < self.num_websites:
            slot = offset % self.localities_per_shard
        else:
            slot = (offset - self.num_websites) // self.locality_capacity
        if slot >= self.localities_per_shard or shard >= self.num_shards:
            raise TransportError(f"address {address} outside any locality sub-block")
        return shard + slot * self.num_shards

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


class ShardedTopology(ClusteredTopology):
    """The clustered latency model with positions as a pure function of
    the address.

    Cluster centres, the distance-to-latency map and parameter validation
    are :class:`~repro.net.topology.ClusteredTopology`'s; only the
    randomness source differs: every coordinate is derived from
    ``(topology_seed, address)``, never from registration order, and the
    cluster is decoded from the address.  All shards construct this object
    from the same master seed and therefore agree on every pairwise latency.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        topology_seed: int,
        latency_min_ms: float = 10.0,
        latency_max_ms: float = 500.0,
        spread: float = 0.04,
    ) -> None:
        super().__init__(
            random.Random(derive_seed(topology_seed, "sharded-centers")),
            shard_map.num_localities,
            latency_min_ms,
            latency_max_ms,
            spread,
        )
        self._map = shard_map
        self._seed = topology_seed
        #: ``_positions`` is only a cache here (it also holds foreign
        #: addresses), so registration is tracked on its own.
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
            rng = random.Random(derive_seed(self._seed, f"sharded-pos:{address}"))
            pos = self._scatter(rng, self.cluster_of(address))
            self._positions[address] = pos
        return pos


class ShardedNetwork(Network):
    """One shard's slice of the fabric, with a bus boundary in delivery.

    Addresses come from the :class:`ShardMap` instead of a dense counter.
    Registry, send paths (``NetworkNode.send`` / ``rpc``), the delivery gate
    and reply settling are inherited unchanged -- the pure topology prices
    any link, local or not -- and the fork happens when the delivery event
    fires: a foreign destination turns the message into an outbox entry
    that the window scheduler ships at the next barrier.

    Outbox entry wire forms (plain tuples, picklable)::

        (MSG,   arrival, dst_shard, dst, kind, payload, src, sent_at, token)
        (REPLY, arrival, dst_shard, token, payload, replier)

    ``arrival`` is the virtual time the delivery event fired (request) or
    the reply would naturally land (reply); the scheduler floors it to the
    injection barrier.  ``token`` is ``(src_shard, serial)`` correlating a
    cross-shard RPC to its pending request at the source, or None for
    one-way messages.  The request itself waits in ``_pending_remote``
    for its reply; its deadline was armed at send (the destination is not
    in this shard's registry), so it fires locally unless a reply entry
    settles the request first.
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
        self._localities = shard_map.localities_of(shard_id)
        #: locality -> peer addresses handed out so far.
        self._locality_fill: Dict[LocalityId, int] = {}
        self._infra_mode = False
        self._infra_count = 0
        self._placement_rng = sim.rng("placement")
        #: entries bound for other shards, drained at every barrier.
        self.outbox: List[tuple] = []
        self._pending_remote: Dict[Tuple[int, int], _Request] = {}
        self._remote_serial = 0
        self.bus_entries_out = 0

    # -------------------------------------------------------------- registry
    @contextmanager
    def infra_registration(self):
        """Within this context, registrations take origin-server slots."""
        self._infra_mode = True
        try:
            yield self
        finally:
            self._infra_mode = False

    def _next_address(self, cluster_hint: Optional[int]) -> Address:
        """An origin-server slot inside :meth:`infra_registration`, else the
        next slot of the hinted (or a randomly placed) local locality."""
        if self._infra_mode:
            if self._infra_count >= self.shard_map.num_websites:
                raise TransportError("origin-server address block exhausted")
            address = self.shard_map.server_address(self.shard_id, self._infra_count)
            self._infra_count += 1
            return address
        if cluster_hint is None:
            locality = self._placement_rng.choice(self._localities)
        else:
            locality = cluster_hint
        index = self._locality_fill.get(locality, 0)
        # Refuses a hinted locality this shard does not own.
        address = self.shard_map.peer_address(self.shard_id, locality, index)
        self._locality_fill[locality] = index + 1
        return address

    # -------------------------------------------------------------- delivery
    def _deliver(self, message: Message) -> None:
        dst = message.dst
        if (dst >> BLOCK_BITS) == self.shard_id:
            super()._deliver(message)
            return
        # Foreign shard: the link latency has already elapsed (this event
        # fired at send + latency); ship the message over the bus.  A
        # request's deadline stays local and fires unless a reply entry
        # comes back and settles the request first.
        token = None
        if message.request_id is not None:
            token = (self.shard_id, self._remote_serial)
            self._remote_serial += 1
            self._pending_remote[token] = message
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
        apply = {MSG: self._apply_remote_message, REPLY: self._apply_remote_reply}
        for entry in entries:
            self.sim.schedule_at(max(entry[1], barrier), apply[entry[0]], entry)

    def _apply_remote_message(self, entry: tuple) -> None:
        """A request from the bus: the local delivery gate and dispatch,
        but an RPC's reply leaves as an outbox entry priced *now*.  (A
        local reply event firing at ``now + latency`` would ship one
        barrier later and cost an event the bus does not have.)"""
        __, __, __, dst, kind, payload, src, sent_at, token = entry
        message = Message(src, dst, kind, payload, sent_at=sent_at)
        reply = super()._deliver(message)
        if token is not None and reply is not DROPPED:
            self.messages_sent += 1
            self.outbox.append(
                (
                    REPLY,
                    self.sim.now + self._link_latency(dst, src),
                    token[0],
                    token,
                    reply if reply is not None else {},
                    dst,
                )
            )
            self.bus_entries_out += 1

    def _apply_remote_reply(self, entry: tuple) -> None:
        __, __, __, token, payload, __ = entry
        request = self._pending_remote.pop(token, None)
        if request is not None:  # else it timed out and was swept
            self._deliver_reply(request, payload)

    def sweep_settled(self) -> None:
        """Drop pending cross-shard requests that have settled.

        A request settles either when its reply entry arrives or when its
        local timeout event fires; either way the map entry is dead weight.
        The window scheduler calls this at every barrier so never-answered
        RPCs (dead destination, dropped reply) do not accumulate.
        """
        pending = self._pending_remote
        if pending:
            settled = [token for token, request in pending.items() if request.settled]
            for token in settled:
                del pending[token]


def drain_outbox(network: ShardedNetwork) -> List[tuple]:
    """Take the shard's accumulated outbox (clearing it) and sweep RPCs."""
    entries = network.outbox
    network.outbox = []
    network.sweep_settled()
    return entries
