"""A member query times each attempt at its directory by the link's RTT.

Every attempt of the retry ladder waits ``QUERY_TIMEOUT_LATENCIES`` one-way
latencies of the link to the home directory plus
``QUERY_TIMEOUT_SLACK_MS``, capped at the network's default timeout.  A
dead directory so costs a query three short attempts and two backoffs
before it goes to the origin (``miss_failed``), with its strike at the
give-up; a lost packet is still rescued by a retry; and a live directory,
however slow its link, is never timed out.
"""

import pytest

from repro.cdn.flower.queries import (
    QUERY_TIMEOUT_LATENCIES,
    QUERY_TIMEOUT_SLACK_MS,
)
from repro.net.faults import FaultController, LatencySpikeSpec
from repro.net.transport import ADDR_SHIFT, RETRY_BACKOFF_FACTOR, RETRY_BACKOFF_MS
from repro.sim.clock import seconds

from tests.cdn.conftest import CdnWorld

DEFAULT_TIMEOUT_MS = 1500.0  # CdnWorld's network default
KEY = (0, 7)


def registered_member():
    """A content peer of website 0 in its own locality's petal (so its
    directory link is a short one), registered with its directory and
    past its first push, with the query-done kinds recorded."""
    world = CdnWorld()
    client = world.arrive(website=0)
    world.query(client, (0, 5))
    world.run(seconds(10))
    directory = world.directory_of(0, client.locality)
    assert client.dir_info.address == directory.address
    assert not client._dir_suspect
    world.sim.trace.record(
        "cdn.query_done", "flower.directory_suspect", "net.rpc_retry"
    )
    return world, client, directory


def attempt_timeout(world, client, directory):
    latency = world.network.link_latency(client.address, directory.address)
    timeout = QUERY_TIMEOUT_LATENCIES * latency + QUERY_TIMEOUT_SLACK_MS
    return min(DEFAULT_TIMEOUT_MS, timeout)


def spy_on_rpcs(peer):
    """Record ``(time, kind, dst)`` of every RPC attempt *peer* sends."""
    sent = []
    rpc = peer.rpc

    def spy(dst, kind, *args, **kwargs):
        sent.append((peer.sim.now, kind, dst))
        return rpc(dst, kind, *args, **kwargs)

    peer.rpc = spy
    return sent


def query_attempts(sent):
    return [t for t, kind, dst in sent if kind == "flower.query"]


def test_a_crashed_directory_costs_three_short_attempts_and_two_backoffs():
    world, client, directory = registered_member()
    timeout = attempt_timeout(world, client, directory)
    # Directory links stay inside the petal: far below the default.
    assert timeout < DEFAULT_TIMEOUT_MS / 2
    directory.crash()
    sent = spy_on_rpcs(client)
    asked_at = world.sim.now
    record = world.query(client, KEY)

    assert record.outcome == "miss_failed"
    attempts = query_attempts(sent)
    assert len(attempts) == 1 + world.params.rpc_retries == 3
    assert attempts[0] == asked_at
    # Each retry waits one short timeout plus its jittered backoff, in
    # [0.5, 1.0) of RETRY_BACKOFF_MS * RETRY_BACKOFF_FACTOR**n.
    for n, (sent_at, next_at) in enumerate(zip(attempts, attempts[1:])):
        backoff = next_at - sent_at - timeout
        full = RETRY_BACKOFF_MS * RETRY_BACKOFF_FACTOR**n
        assert 0.5 * full <= backoff < full
    gave_up_at = attempts[-1] + timeout
    server = world.system.servers[KEY[0]].address
    fetches = [t for t, kind, dst in sent if kind == "server.fetch" and dst == server]
    assert fetches == [pytest.approx(gave_up_at)]
    # Lookup latency runs until the request reaches the origin.
    assert record.lookup_latency_ms == pytest.approx(
        gave_up_at - asked_at + record.transfer_ms
    )
    # The strike lands at the give-up, as the query leaves for the origin.
    strikes = [e.time for e in world.sim.trace.events("flower.directory_suspect")]
    assert strikes == [pytest.approx(gave_up_at)]
    world.run(seconds(30))
    assert len(query_attempts(sent)) == 3


def test_one_lost_attempt_is_rescued_by_the_retry():
    """The first attempt is lost and the retry answered: the directory
    still serves the query, with no strike."""
    world, client, directory = registered_member()
    timeout = attempt_timeout(world, client, directory)
    directory.fail()  # unreachable, but keeps its role
    world.sim.schedule(timeout / 2, directory.revive)
    sent = spy_on_rpcs(client)
    record = world.query(client, KEY)

    assert record.outcome == "miss_server"  # the directory's answer: a miss
    assert len(query_attempts(sent)) == 2
    assert world.sim.trace.events("flower.directory_suspect") == []


def set_link_latency(world, a, b, latency_ms):
    """Pin the one-way base latency of the link between *a* and *b*."""
    cache = world.network._latency_cache
    cache[(a << ADDR_SHIFT) | b] = cache[(b << ADDR_SHIFT) | a] = latency_ms


def assert_never_timed_out(world, client):
    sent = spy_on_rpcs(client)
    record = world.query(client, KEY)
    assert record.outcome == "miss_server"
    assert len(query_attempts(sent)) == 1
    assert world.sim.trace.events("net.rpc_retry") == []
    assert world.sim.trace.events("flower.directory_suspect") == []


def test_a_live_directory_behind_a_slow_link_is_never_timed_out():
    """At 500 ms one-way the round trip is 1 000 ms: the attempt waits
    the network default (6 x 500 + 100 is more), which still covers it."""
    world, client, directory = registered_member()
    set_link_latency(world, client.address, directory.address, 500.0)
    assert attempt_timeout(world, client, directory) == DEFAULT_TIMEOUT_MS
    assert_never_timed_out(world, client)


def test_a_live_directory_under_a_latency_spike_is_never_timed_out():
    """The timeout follows the link's current latency, spike included:
    timed by the base latency alone, this round trip would time out."""
    world, client, directory = registered_member()
    base = world.network.latency(client.address, directory.address)
    spike = LatencySpikeSpec(
        start_ms=world.sim.now,
        end_ms=world.sim.now + seconds(60),
        additive_ms=400.0,
    )
    FaultController(world.sim, world.network).apply([spike])
    timed_by_base = QUERY_TIMEOUT_LATENCIES * base + QUERY_TIMEOUT_SLACK_MS
    assert 2 * (base + 400.0) > timed_by_base
    assert_never_timed_out(world, client)
