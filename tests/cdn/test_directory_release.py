"""A member query waits for one retry on its directory, not the whole
retry ladder.

A lost packet is what the first retry is for, so an unanswered first
attempt is retried as before.  Once that retry goes unanswered too, the
query goes to the origin (``miss_failed``); the rest of the ladder runs on
detached and only feeds the suspect/strike machinery, at the time it
always did.
"""

import pytest

from repro.sim.clock import seconds

from tests.cdn.conftest import CdnWorld

TIMEOUT_MS = 1500.0  # CdnWorld's network default
KEY = (0, 7)


def registered_member():
    """A content peer of petal (0, 0), registered with its directory and
    past its first push, with the query-done kinds recorded."""
    world = CdnWorld()
    client = world.arrive(website=0, locality=0)
    world.query(client, (0, 5))
    world.run(seconds(10))
    directory = world.directory_of(0, client.locality)
    assert client.dir_info.address == directory.address
    assert not client._dir_suspect
    world.sim.trace.record(
        "cdn.query_done", "cdn.query_stale", "flower.directory_suspect"
    )
    return world, client, directory


def spy_on_rpcs(peer):
    """Record ``(time, kind, dst)`` of every RPC attempt *peer* sends."""
    sent = []
    rpc = peer.rpc

    def spy(dst, kind, *args, **kwargs):
        sent.append((peer.sim.now, kind, dst))
        return rpc(dst, kind, *args, **kwargs)

    peer.rpc = spy
    return sent


def done_events(world):
    return [
        e for e in world.sim.trace.events("cdn.query_done") if e.payload["key"] == KEY
    ]


def test_query_to_a_crashed_directory_is_released_after_one_retry():
    world, client, directory = registered_member()
    directory.crash()
    sent = spy_on_rpcs(client)
    asked_at = world.sim.now
    record = world.query(client, KEY)

    assert record.outcome == "miss_failed"
    attempts = [t for t, kind, dst in sent if kind == "flower.query"]
    assert attempts[0] == asked_at
    server = world.system.servers[KEY[0]].address
    fetches = [t for t, kind, dst in sent if kind == "server.fetch" and dst == server]
    assert fetches == [attempts[1] + TIMEOUT_MS]
    # Lookup latency runs until the request reaches the origin.
    assert record.lookup_latency_ms == pytest.approx(
        attempts[1] + TIMEOUT_MS - asked_at + record.transfer_ms
    )
    # The released query cached a new object; its push is queued, as the
    # ladder's strike would have queued it had the query waited, so the
    # release adds no push (and no strike) of its own.
    assert client.dir_info.unanswered == 1
    assert len(client._pending_pushes) == 1
    assert [kind for _, kind, _ in sent if kind == "flower.push"] == []
    # The ladder ran on after the release: the strike lands when its last
    # attempt times out, as it did when the query waited for it.
    world.run(seconds(30))
    attempts = [t for t, kind, dst in sent if kind == "flower.query"]
    assert len(attempts) == 1 + world.params.rpc_retries
    strikes = [e.time for e in world.sim.trace.events("flower.directory_suspect")]
    assert attempts[-1] + TIMEOUT_MS in strikes
    assert attempts[-1] + TIMEOUT_MS > record.time
    assert client.dir_info.unanswered == 0


def test_one_lost_attempt_is_rescued_by_the_retry():
    """The first attempt is lost and the retry answered: the directory
    still serves the query, with no release and no strike."""
    world, client, directory = registered_member()
    directory.fail()  # unreachable, but keeps its role
    world.sim.schedule(TIMEOUT_MS / 2, directory.revive)
    sent = spy_on_rpcs(client)
    record = world.query(client, KEY)

    assert record.outcome == "miss_server"  # the directory's answer: a miss
    assert len([t for t, kind, dst in sent if kind == "flower.query"]) == 2
    assert world.sim.trace.events("flower.directory_suspect") == []
    assert client.dir_info.unanswered == 0


def test_a_late_reply_only_revives_the_directory():
    """The first attempt and the retry are lost, the last attempt is
    answered: the query was already released and closes once, and the
    answer counts only as proof that the directory is alive (no strike,
    nothing reopened)."""
    world, client, directory = registered_member()
    directory.fail()
    # After the retry reached the dead host, before the last attempt goes.
    world.sim.schedule(2 * TIMEOUT_MS, directory.revive)
    sent = spy_on_rpcs(client)
    record = world.query(client, KEY)
    world.run(seconds(30))

    assert record.outcome == "miss_failed"
    attempts = [t for t, kind, dst in sent if kind == "flower.query"]
    assert len(attempts) == 3
    assert [e.payload["outcome"] for e in done_events(world)] == ["miss_failed"]
    assert world.sim.trace.events("cdn.query_stale") == []
    assert KEY not in client._open_queries
    assert world.sim.trace.events("flower.directory_suspect") == []
    assert client.dir_info.address == directory.address
    assert client.dir_info.unanswered == 0
    assert not client._dir_suspect
