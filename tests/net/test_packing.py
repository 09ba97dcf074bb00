"""Pins for the 32-bit packed latency-cache key (shard-cap lift).

The transport memoizes link latencies under single-int keys
``(src << ADDR_SHIFT) | dst``.  ADDR_SHIFT used to be 20 bits, which
capped the sharded address space (16-bit blocks) at 16 shards; these
tests pin the widened 32-bit layout: no aliasing for addresses past the
old boundary, an explicit overflow guard at registration, and ShardMap
accepting shard counts the old packing rejected.
"""

import pytest

from repro.errors import ConfigError, TransportError
from repro.net.shardnet import BLOCK_BITS, MAX_SHARDS, ShardMap
from repro.net.topology import Topology
from repro.net.transport import (
    ADDR_SHIFT,
    MAX_PACKED_ADDRESS,
    Network,
    NetworkNode,
)
from repro.sim.engine import Simulator


def test_packing_constants():
    assert ADDR_SHIFT == 32
    assert MAX_PACKED_ADDRESS == 1 << 32
    # 16-bit shard blocks inside a 32-bit space -> 65536 shards, up from
    # the 16 the old 20-bit key allowed.
    assert MAX_SHARDS == 1 << (ADDR_SHIFT - BLOCK_BITS)
    assert MAX_SHARDS == 65536


class SpyTopology(Topology):
    """Accepts any address; latency encodes the (src, dst) pair."""

    def register(self, address, cluster_hint=None):
        return

    def latency(self, a, b):
        return float(a) * 1e9 + float(b)

    def knows(self, address):
        return True


def test_no_aliasing_past_the_old_20_bit_boundary():
    # Under the old 20-bit shift, (src=0, dst=2**20+5) and (src=1, dst=5)
    # packed to the SAME key (2**20 + 5): the second lookup would have
    # returned the first pair's cached latency.
    network = Network(Simulator(seed=1), SpyTopology())
    pair_a = (0, 2**20 + 5)
    pair_b = (1, 5)
    assert (pair_a[0] << 20) | pair_a[1] == (pair_b[0] << 20) | pair_b[1]
    latency_a = network.link_latency(*pair_a)
    latency_b = network.link_latency(*pair_b)
    assert latency_a != latency_b
    assert len(network._latency_cache) == 2
    # Cache hits return the right entry too.
    assert network.link_latency(*pair_b) == latency_b


class _Full(dict):
    """A node registry that claims the packed address space is exhausted."""

    def __len__(self):
        return MAX_PACKED_ADDRESS


def test_register_rejects_addresses_beyond_the_key_space():
    network = Network(Simulator(seed=1), SpyTopology())
    # The dense allocator hands out address = len(registry) and register()
    # must refuse before storing; fake exhaustion instead of allocating
    # 2**32 nodes.
    network._nodes = _Full()
    with pytest.raises(TransportError, match="packed"):
        NetworkNode(network)  # auto-registers in __init__
    assert dict.__len__(network._nodes) == 0  # nothing was stored


def test_shard_map_accepts_32_shards():
    # 32 > the old 16-shard cap; must now construct cleanly.
    smap = ShardMap(num_shards=32, num_localities=32, num_websites=3)
    for shard in (0, 17, 31):
        address = smap.peer_address(shard, shard, 5)
        assert smap.shard_of_address(address) == shard
        assert smap.locality_of_address(address) == shard
        assert address < MAX_PACKED_ADDRESS


def test_shard_map_cap_is_the_packed_space():
    with pytest.raises(ConfigError):
        ShardMap(
            num_shards=MAX_SHARDS + 1,
            num_localities=MAX_SHARDS + 1,
            num_websites=1,
        )
