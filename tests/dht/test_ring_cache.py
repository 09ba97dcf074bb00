"""The sorted-membership cache behind ``ChordRing.members()``.

``members()`` / ``active_members()`` / ``successor_of()`` are called from
oracle checks and bootstrap on every churn event; re-sorting
the registry each time was O(n log n) per call.  The cache serves them
from one lazily rebuilt sorted list.  These tests pin the contract: the
cache is invisible (same results as a fresh sort), invalidated by every
mutation path, and the returned lists are safe-to-mutate copies.
"""

from tests.dht.conftest import ChordWorld


def _ids(nodes):
    return [n.node_id for n in nodes]


def test_members_cache_is_reused_between_calls():
    world = ChordWorld()
    world.warm_ring([40, 7, 9000, 311])
    ring = world.ring
    first = ring.members()
    # Second call reuses the cached sorted list (no rebuild)...
    cached = ring._sorted_nodes
    second = ring.members()
    assert ring._sorted_nodes is cached
    # ...but hands out a fresh copy each time.
    assert first == second
    assert first is not second
    assert _ids(first) == [7, 40, 311, 9000]


def test_returned_list_is_a_copy():
    world = ChordWorld()
    world.warm_ring([5, 6, 7])
    ring = world.ring
    stolen = ring.members()
    stolen.clear()  # must not corrupt the cache
    assert _ids(ring.members()) == [5, 6, 7]


def test_register_invalidates_cache():
    world = ChordWorld()
    hosts = world.warm_ring([10, 20, 30])
    ring = world.ring
    assert _ids(ring.members()) == [10, 20, 30]
    newcomer = world.add_node(15)
    ring.register(newcomer.chord)
    assert _ids(ring.members()) == [10, 15, 20, 30]
    assert ring.successor_of(11).node_id == 15
    # warm_ring hosts are untouched.
    assert all(h.chord.joined for h in hosts)


def test_deregister_invalidates_cache():
    world = ChordWorld()
    hosts = world.warm_ring([10, 20, 30])
    ring = world.ring
    ring.members()  # prime the cache
    ring.deregister(hosts[1].chord)
    assert _ids(ring.members()) == [10, 30]
    assert ring.successor_of(15).node_id == 30


def test_try_register_invalidates_cache():
    world = ChordWorld()
    world.warm_ring([100, 200])
    ring = world.ring
    ring.members()  # prime
    claimant = world.add_node(150)
    assert ring.try_register(claimant.chord)
    assert _ids(ring.members()) == [100, 150, 200]


def test_successor_of_matches_linear_scan():
    world = ChordWorld()
    ids = [3, 99, 1024, 40_000, 65_000]
    world.warm_ring(ids)
    ring = world.ring
    for key in [0, 3, 4, 100, 1024, 1025, 50_000, 65_001]:
        expected = min(
            (i for i in ids if i >= key), default=min(ids)
        )
        assert ring.successor_of(key).node_id == expected


def test_active_members_filters_dead_hosts_without_invalidating():
    world = ChordWorld()
    hosts = world.warm_ring([1, 2, 3, 4])
    ring = world.ring
    ring.members()  # prime the cache
    cached = ring._sorted_nodes
    hosts[2].alive = False
    assert _ids(ring.active_members()) == [1, 2, 4]
    # Liveness is evaluated per call; the sorted cache itself is untouched,
    # and the dead-but-registered node still appears in members().
    assert ring._sorted_nodes is cached
    assert _ids(ring.members()) == [1, 2, 3, 4]
