"""Unit tests for ring parameters, registry and warm start."""

import pytest

from repro.dht.ring import RingParams
from repro.errors import DHTError

from tests.dht.conftest import ChordWorld


def test_params_validation():
    with pytest.raises(DHTError):
        RingParams(successor_list_size=0)


def test_params_select_no_lookup_mode():
    """Lookups are recursive, full stop: the iterative twin and the four
    knobs that configured it are gone."""
    import dataclasses

    names = {f.name for f in dataclasses.fields(RingParams)}
    assert len(names) == 6
    assert not names & {
        "lookup_mode", "probe_retries", "retry_backoff_ms", "lookup_max_timeouts"
    }


def test_node_id_must_fit_space():
    world = ChordWorld()
    with pytest.raises(DHTError):
        world.add_node(2**16)  # bits=16


def test_warm_start_builds_sorted_ring():
    world = ChordWorld()
    ids = [10, 500, 90, 30000, 42]
    world.warm_ring(ids)
    members = world.ring.members()
    assert [m.node_id for m in members] == sorted(ids)
    for i, member in enumerate(members):
        expected_succ = members[(i + 1) % len(members)]
        assert member.successor.id == expected_succ.node_id
        expected_pred = members[(i - 1) % len(members)]
        assert member.predecessor.id == expected_pred.node_id
        assert member.joined


def test_warm_start_successor_lists_full():
    world = ChordWorld()
    hosts = world.warm_ring(range(0, 100, 7))
    r = world.ring.params.successor_list_size
    for host in hosts:
        assert len(host.chord.successors) == min(r, len(hosts))


def test_warm_start_fingers_correct():
    world = ChordWorld()
    ids = [0, 1000, 5000, 20000, 40000, 60000]
    hosts = world.warm_ring(ids)
    space = world.ring.space
    sorted_ids = sorted(ids)

    def true_successor(key):
        for i in sorted_ids:
            if i >= key:
                return i
        return sorted_ids[0]

    for host in hosts:
        node = host.chord
        for index, finger in enumerate(node.fingers):
            start = space.finger_start(node.node_id, index)
            assert finger is not None
            assert finger.id == true_successor(start)


def test_warm_start_rejects_duplicates():
    world = ChordWorld()
    hosts = [world.add_node(5), world.add_node(5)]
    with pytest.raises(DHTError):
        world.ring.warm_start([h.chord for h in hosts])


def test_register_conflict_detection():
    world = ChordWorld()
    a = world.add_node(7)
    b = world.add_node(7)
    a.chord.create()
    with pytest.raises(DHTError):
        world.ring.register(b.chord)


def test_register_allows_replacing_dead_node():
    world = ChordWorld()
    a = world.add_node(7)
    a.chord.create()
    a.fail()
    b = world.add_node(7)
    world.ring.register(b.chord)  # dead holder may be replaced
    assert world.ring.members()[-1] is b.chord or b.chord in world.ring.members()


def test_deregister_only_removes_own_entry():
    world = ChordWorld()
    a = world.add_node(7)
    a.chord.create()
    b = world.add_node(9)
    world.ring.deregister(b.chord)  # not registered: no-op
    assert len(world.ring) == 1


def test_random_bootstrap():
    world = ChordWorld()
    assert world.ring.random_bootstrap(world.sim.rng("boot")) is None
    hosts = world.warm_ring([1, 2, 3])
    addr = world.ring.random_bootstrap(world.sim.rng("boot"))
    assert addr in [h.address for h in hosts]


def test_random_bootstrap_skips_dead():
    world = ChordWorld()
    hosts = world.warm_ring([1, 2, 3])
    hosts[0].fail()
    hosts[1].fail()
    for _ in range(10):
        assert world.ring.random_bootstrap(world.sim.rng("boot")) == hosts[2].address


def test_active_members():
    world = ChordWorld()
    hosts = world.warm_ring([1, 2, 3])
    hosts[1].fail()
    active = world.ring.active_members()
    assert {n.node_id for n in active} == {1, 3}


def test_warm_start_empty_is_noop():
    world = ChordWorld()
    world.ring.warm_start([])
    assert len(world.ring) == 0


def test_warm_start_single_node():
    world = ChordWorld()
    hosts = world.warm_ring([42])
    node = hosts[0].chord
    assert node.successor.id == 42
    assert node.predecessor.id == 42
