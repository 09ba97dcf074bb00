"""One definition each: the re-point step and message dispatch.

``FlowerPeer`` acquires or changes its directory through eight entry
points; all of them must end in the same state.  And every pre-registered
message kind must reach the same handler whether it arrives through
``on_message`` or through the network's cache-first delivery.
"""

import pytest

from repro.cdn.flower.directory import DirectoryRole
from repro.cdn.flower.petal import PUSH_QUEUE_LIMIT, DirInfo
from repro.cdn.flower.service import DirectoryService
from repro.cdn.flower.system import FlowerSystem
from repro.cdn.squirrel.system import SquirrelSystem
from repro.net.message import Message
from repro.sim.clock import seconds
from tests.cdn.conftest import CdnWorld, make_params

STALE = 424242  # an address nobody holds: the directory we used to follow


def _message(src, peer, kind, **payload):
    return Message(src=src, dst=peer.address, kind=kind, payload=payload)


# Each entry point: how the peer learns that the directory at *address*
# now serves *position*.
def _registration_reply(world, peer, position, address):
    peer._adopt_registration(
        {"dir_position": position, "dir_address": address, "view_sample": []}
    )


def _gossip(world, peer, position, address):
    peer._reconcile_dir_info(DirInfo(position, address, age=0))


def _lost_join_race(world, peer, position, address):
    peer._begin_directory_role(0, 0, 0, position)  # the slot is taken
    world.run(seconds(5))


def _demotion(world, peer, position, address):
    role = DirectoryRole(peer.address, 0, 0, 0, position)
    DirectoryService(peer, role).serve_provisionally()
    _suspect_with_queued_push(peer)
    peer.service.replicator._demote(address)


def _dir_announce(world, peer, position, address):
    peer.on_message(
        _message(address, peer, "flower.dir_announce", position=position, registered=True)
    )


def _dir_redirect(world, peer, position, address):
    peer.on_message(
        _message(STALE, peer, "flower.dir_redirect", position=position, winner=address)
    )


def _member_shed(world, peer, position, address):
    peer.on_message(
        _message(STALE, peer, "flower.member_shed", position=position, address=address)
    )


#: entry point -> (dir-info held beforehand, suspect beforehand, learn).
#: A peer that follows nobody holds nothing against anybody: the two
#: entry points only reachable from there (gossip adopt, lost join race)
#: do not void strikes or queued pushes (``forgive=False``, pinned by the
#: committed overload A/B results), so they start clean.
ENTRY_POINTS = {
    "registration reply": (None, True, _registration_reply),
    "gossip adopt": (None, False, _gossip),
    "gossip slot-changed": (STALE, True, _gossip),
    "lost join race": (None, False, _lost_join_race),
    "demotion": (None, False, _demotion),  # turns suspect once it serves
    "flower.dir_announce": (STALE, True, _dir_announce),
    "flower.dir_redirect": (STALE, True, _dir_redirect),
    "flower.member_shed": (STALE, True, _member_shed),
}


def _suspect_with_queued_push(peer):
    peer._dir_strikes = 1
    peer._reprobe_pending = True
    peer._queue_push([(0, 1)])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_repoint_entry_ends_in_the_same_state(entry):
    following, suspect, learn = ENTRY_POINTS[entry]
    world = CdnWorld(FlowerSystem, params=make_params(replication_k=2))
    directory = world.directory_of(0, 0)
    position = directory.directory.position_id
    peer = world.arrive(website=0, locality=0)
    world.query(peer, (0, 5))
    world.run(seconds(5))
    assert peer.dir_info == DirInfo(position, directory.address)
    # Leave the petal's loops; follow a stale directory or nobody.
    for process in (peer._gossip_process, peer._keepalive_process):
        process.cancel()
    peer.dir_info = DirInfo(position, following, age=3) if following else None
    if suspect:
        _suspect_with_queued_push(peer)
    pushes = []
    retrying_rpc = peer.retrying_rpc

    def spy(dst, kind, payload, **kwargs):
        if kind == "flower.push":
            pushes.append((dst, payload["keys"]))
        return retrying_rpc(dst, kind, payload, **kwargs)

    peer.retrying_rpc = spy

    learn(world, peer, position, directory.address)

    assert peer.dir_info == DirInfo(position, directory.address)
    assert peer._dir_strikes == 0 and not peer._reprobe_pending
    assert not peer._pending_pushes
    assert peer._gossip_process.active and peer._keepalive_process.active
    assert pushes == [(directory.address, sorted(peer.store.keys()))]


def test_push_queue_exists_only_while_pushes_are_queued():
    """``()`` is "nothing queued": the bounded deque is built by the first
    queued push and dropped with the queue, so the many peers that never
    see their directory suspect never carry one."""
    world = CdnWorld(FlowerSystem, params=make_params())
    peer = world.arrive(website=0, locality=0)
    assert peer._pending_pushes == ()
    for index in range(PUSH_QUEUE_LIMIT + 1):
        peer._queue_push([(0, index)])
    assert list(peer._pending_pushes) == [  # drop-oldest
        [(0, index)] for index in range(1, PUSH_QUEUE_LIMIT + 1)
    ]
    peer._forget_directory()
    assert peer._pending_pushes == ()


# ---------------------------------------------------------------------------
# Dispatch: on_message and Network._deliver share one table
# ---------------------------------------------------------------------------

ROLE_LESS_REPLIES = {
    "chord.route": {"ok": False},
    "chord.route_result": None,
    "chord.get_state": {},
    "chord.notify": {},
    "chord.ping": {},
    "chord.successor_hint": {},
    "chord.predecessor_hint": {},
}


@pytest.mark.parametrize("system_cls", [FlowerSystem, SquirrelSystem])
def test_on_message_and_delivery_reach_the_same_handler(system_cls):
    world = CdnWorld(system_cls)
    # A peer that holds no Chord component: a Flower content peer, a
    # Squirrel peer that has not begun its session.
    peer = world.system.peer_for(world._next_identity)
    assert getattr(peer, "directory", None) is None
    assert getattr(peer, "chord", None) is None
    registered = dict(peer._handler_cache)
    assert set(ROLE_LESS_REPLIES) <= set(registered)
    assert ("gossip.shuffle" in registered) == (system_cls is FlowerSystem)
    # The five component kinds share one bound method, not one each.
    component_kinds = [k for k, reply in ROLE_LESS_REPLIES.items() if reply == {}]
    assert len({id(registered[kind]) for kind in component_kinds}) == 1
    for kind, handler in registered.items():
        seen = []

        def spy(message, handler=handler):
            seen.append(message)
            return handler(message)

        peer._handler_cache[kind] = spy
        message = _message(STALE, peer, kind, key=0, nonce=0, contacts=[])
        reply = peer.on_message(message)
        world.network._deliver(message)
        assert seen == [message, message], kind
        if kind in ROLE_LESS_REPLIES:
            assert reply == ROLE_LESS_REPLIES[kind], kind
