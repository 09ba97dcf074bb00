"""Unit and property tests for ring arithmetic -- Chord's foundation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dht.idspace import IdSpace
from repro.dht.node import NodeRef, route_step
from repro.dht.ring import RingParams
from repro.errors import DHTError
from repro.net.message import Message
from repro.net.transport import ACK

from tests.dht.conftest import ChordWorld

SPACE = IdSpace(8)  # small space: 0..255, exercises wrap-around heavily
ids = st.integers(0, SPACE.size - 1)


def test_bits_validated():
    with pytest.raises(DHTError):
        IdSpace(0)
    with pytest.raises(DHTError):
        IdSpace(200)


def test_size():
    assert IdSpace(8).size == 256
    assert IdSpace(32).size == 2**32


def test_contains():
    assert SPACE.contains(0)
    assert SPACE.contains(255)
    assert not SPACE.contains(256)
    assert not SPACE.contains(-1)


def test_hash_in_range_and_stable():
    space = IdSpace(16)
    h = space.hash_value("website-3/object-17")
    assert 0 <= h < space.size
    assert h == space.hash_value("website-3/object-17")
    assert h != space.hash_value("website-3/object-18")


def test_add_wraps():
    assert SPACE.add(250, 10) == 4
    assert SPACE.add(4, -10) == 250


def test_finger_start():
    assert SPACE.finger_start(0, 0) == 1
    assert SPACE.finger_start(0, 7) == 128
    assert SPACE.finger_start(200, 7) == (200 + 128) % 256
    with pytest.raises(DHTError):
        SPACE.finger_start(0, 8)


def test_distance():
    assert SPACE.distance(10, 20) == 10
    assert SPACE.distance(20, 10) == 246
    assert SPACE.distance(7, 7) == 0


def test_in_open_simple():
    assert SPACE.in_open(5, 0, 10)
    assert not SPACE.in_open(0, 0, 10)
    assert not SPACE.in_open(10, 0, 10)


def test_in_open_wrapping():
    assert SPACE.in_open(250, 200, 10)
    assert SPACE.in_open(5, 200, 10)
    assert not SPACE.in_open(100, 200, 10)


def test_in_open_degenerate_full_circle():
    assert SPACE.in_open(5, 7, 7)
    assert not SPACE.in_open(7, 7, 7)


def test_half_open_right_includes_endpoint():
    assert SPACE.in_half_open_right(10, 0, 10)
    assert not SPACE.in_half_open_right(0, 0, 10)
    assert SPACE.in_half_open_right(3, 250, 10)
    # single-node ring owns everything
    assert SPACE.in_half_open_right(42, 7, 7)


@given(x=ids, a=ids, b=ids)
@settings(max_examples=300, deadline=None)
def test_open_interval_matches_walk(x, a, b):
    """(a, b) must equal the set reached walking clockwise from a to b."""
    if a == b:
        expected = x != a
    else:
        walk = set()
        current = SPACE.add(a, 1)
        while current != b:
            walk.add(current)
            current = SPACE.add(current, 1)
        expected = x in walk
    assert SPACE.in_open(x, a, b) == expected


@given(x=ids, a=ids, b=ids)
@settings(max_examples=200, deadline=None)
def test_half_open_right_consistent_with_open(x, a, b):
    if a != b:
        assert SPACE.in_half_open_right(x, a, b) == (SPACE.in_open(x, a, b) or x == b)


@given(x=ids, a=ids, b=ids)
@settings(max_examples=200, deadline=None)
def test_interval_partition(x, a, b):
    """For a != b, exactly one of: x in (a,b), x in (b,a], x == b."""
    if a == b:
        return
    memberships = [
        SPACE.in_open(x, a, b),
        SPACE.in_half_open_right(x, b, a),
        x == b,
    ]
    assert sum(bool(m) for m in memberships) == 1


@given(a=ids, b=ids)
@settings(max_examples=200, deadline=None)
def test_distance_antisymmetric(a, b):
    if a != b:
        assert SPACE.distance(a, b) + SPACE.distance(b, a) == SPACE.size


# ---------------------------------------------------------------------------
# The degenerate (start == end) and wrap-around intervals, by walking the
# circle -- and the three inlined copies of the interval tests in the
# routing hot paths, against the methods above.
# ---------------------------------------------------------------------------


def clockwise_after(a, b):
    """The ids met walking clockwise from just after *a* up to and
    including *b*; the whole circle when ``a == b``."""
    walk = []
    current = a
    while True:
        current = SPACE.add(current, 1)
        walk.append(current)
        if current == b:
            return walk


@pytest.mark.parametrize(
    "a, b", [(7, 7), (0, 0), (255, 255), (200, 10), (255, 0), (0, 255), (10, 200)]
)
def test_degenerate_and_wrapping_intervals_match_the_walk(a, b):
    closed_right = set(clockwise_after(a, b))
    for x in range(SPACE.size):
        assert SPACE.in_half_open_right(x, a, b) == (x in closed_right)
        assert SPACE.in_open(x, a, b) == (x in closed_right and x != b)


@given(x=ids, a=ids, b=ids)
@example(x=7, a=7, b=7)
@example(x=8, a=7, b=7)
@settings(max_examples=200, deadline=None)
def test_half_open_right_matches_walk(x, a, b):
    assert SPACE.in_half_open_right(x, a, b) == (x in clockwise_after(a, b))


def joined_node(node_id, successor_ids):
    """A joined 8-bit node that never ticks, with one other registered
    host whose address every ref it knows carries."""
    world = ChordWorld(params=RingParams(bits=8, maintenance_period_ms=1e12))
    host = world.add_node(node_id)
    peer = world.add_node(SPACE.add(node_id, 1))
    refs = {}

    def ref(ref_id):
        if ref_id is None:
            return None
        return refs.setdefault(ref_id, NodeRef(ref_id, peer.address))

    node = host.chord
    node.successors = [ref(i) for i in successor_ids]
    node.joined = True
    return world, host, peer, ref


optional_ids = st.one_of(st.none(), ids)


@given(
    node_id=ids,
    key=ids,
    finger_ids=st.lists(optional_ids, min_size=8, max_size=8),
    successor_ids=st.lists(ids, max_size=4),
)
@example(node_id=7, key=7, finger_ids=[None] * 7 + [7], successor_ids=[9])
@example(node_id=7, key=7, finger_ids=[8, 8, 8, 40, None, 7, 7, 200], successor_ids=[])
@example(node_id=200, key=10, finger_ids=[201, 100, 5, 10, 250, 200, None, 11], successor_ids=[])
@example(node_id=200, key=10, finger_ids=[None] * 8, successor_ids=[100, 250, 3, 9])
@settings(max_examples=300, deadline=None)
def test_closest_preceding_matches_the_interval_methods(
    node_id, key, finger_ids, successor_ids
):
    world, host, peer, ref = joined_node(node_id, successor_ids)
    node = host.chord
    node.fingers = [ref(i) for i in finger_ids]
    expected = None
    for finger in reversed(node.fingers):
        if (
            finger is not None
            and finger.id != node_id
            and SPACE.in_open(finger.id, node_id, key)
        ):
            expected = finger
            break
    else:
        for candidate in node.successors:
            if candidate.id != node_id and SPACE.in_open(candidate.id, node_id, key):
                if expected is None or SPACE.distance(candidate.id, key) < SPACE.distance(
                    expected.id, key
                ):
                    expected = candidate
    assert node.closest_preceding(key) is expected


@given(node_id=ids, succ_id=ids, key=ids)
@example(node_id=7, succ_id=7, key=7)
@example(node_id=7, succ_id=7, key=100)
@example(node_id=200, succ_id=10, key=10)
@example(node_id=200, succ_id=10, key=200)
@example(node_id=200, succ_id=10, key=255)
@example(node_id=200, succ_id=10, key=0)
@example(node_id=200, succ_id=10, key=11)
@settings(max_examples=300, deadline=None)
def test_route_step_answers_exactly_the_keys_its_successor_owns(node_id, succ_id, key):
    world, host, peer, ref = joined_node(node_id, [succ_id])
    message = Message(
        peer.address,
        host.address,
        "chord.route",
        {"key": key, "origin": peer.address, "nonce": (peer.address, 1), "hops": 1},
    )
    assert route_step(host.chord, host, message) is ACK
    answered = world.network.kind_counts["chord.route_result"] == 1
    assert answered == SPACE.in_half_open_right(key, node_id, succ_id)


@given(node_id=ids, succ_id=ids)
@example(node_id=7, succ_id=7)
@example(node_id=200, succ_id=10)
@example(node_id=255, succ_id=0)
@example(node_id=0, succ_id=255)
@settings(max_examples=300, deadline=None)
def test_fix_one_finger_gives_the_successor_exactly_the_starts_it_owns(
    node_id, succ_id
):
    world, host, peer, ref = joined_node(node_id, [succ_id])
    node = host.chord
    looked_up = []
    node.lookup = lambda key, on_done: looked_up.append(key)
    node._fix_one_finger()
    expected_fingers = [None] * SPACE.bits
    expected_lookups = []
    for index in range(1, SPACE.bits):
        start = SPACE.finger_start(node_id, index)
        if not SPACE.in_half_open_right(start, node_id, succ_id):
            expected_lookups.append(start)  # the tick's one lookup
            break
        expected_fingers[index] = ref(succ_id)
    assert node.fingers == expected_fingers
    assert looked_up == expected_lookups
