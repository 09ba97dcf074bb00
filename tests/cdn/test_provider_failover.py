"""A dead provider costs a query one short timeout and a second fetch.

Every ``flower.fetch`` a query sends waits ``QUERY_TIMEOUT_LATENCIES``
one-way latencies of its link plus ``QUERY_TIMEOUT_SLACK_MS``, capped at
the network's default timeout -- the rule a member's directory attempts
follow.  A directory's provider answer names other holders besides the
provider; a plain fetch that times out (or finds the object pruned)
tries the one closest to the querier once -- the close-by content peer of
section 3.2 -- before the query goes to the origin (``miss_failed``).
"""

import pytest

from repro.cdn.flower.queries import (
    QUERY_TIMEOUT_LATENCIES,
    QUERY_TIMEOUT_SLACK_MS,
)
from repro.gossip.view import Contact
from repro.sim.clock import seconds

from tests.cdn.conftest import CdnWorld
from tests.cdn.test_directory_release import DEFAULT_TIMEOUT_MS, spy_on_rpcs

KEY = (0, 5)


def link_timeout(world, a, b):
    latency = world.network.link_latency(a.address, b.address)
    return min(DEFAULT_TIMEOUT_MS, QUERY_TIMEOUT_LATENCIES * latency + QUERY_TIMEOUT_SLACK_MS)


def arrivals_in_one_locality(world, count):
    """The first *count* arrivals of website 0 that share a locality, so
    every link among them and to their directory is a short one."""
    by_locality = {}
    while True:
        peer = world.arrive(website=0)
        group = by_locality.setdefault(peer.locality, [])
        group.append(peer)
        if len(group) == count:
            return group


def petal_with_two_holders():
    """Two holders of KEY and a querier in one petal, all registered and
    indexed; the querier has learnt no content summary yet."""
    world = CdnWorld()
    first, second, querier = arrivals_in_one_locality(world, 3)
    for holder in (first, second):
        world.query(holder, KEY)
    world.query(querier, (0, 9))  # registers the querier
    world.run(seconds(10))
    directory = world.directory_of(0, querier.locality)
    assert directory.directory.providers_of(KEY) >= {first.address, second.address}
    assert querier.dir_info.address == directory.address
    assert not querier.peer_summaries
    return world, directory, first, second, querier


def name_as_provider(directory, holder):
    """Make the directory's random pick deterministic: it names *holder*."""
    directory.directory.pick_provider = lambda key, rng, exclude=None: holder.address


def fetches(sent):
    return [(t, dst) for t, kind, dst in sent if kind in ("flower.fetch", "server.fetch")]


def test_a_crashed_provider_with_a_live_backup_is_a_directory_hit():
    world, directory, dead, backup, querier = petal_with_two_holders()
    name_as_provider(directory, dead)
    dead.crash()
    sent = spy_on_rpcs(querier)
    record = world.query(querier, KEY)

    assert record.outcome == "hit_directory"
    assert record.transfer_ms == world.network.latency(querier.address, backup.address)
    timeout = link_timeout(world, querier, dead)
    assert timeout < DEFAULT_TIMEOUT_MS / 2
    (first_at, first_dst), (second_at, second_dst) = fetches(sent)
    assert (first_dst, second_dst) == (dead.address, backup.address)
    assert second_at - first_at == pytest.approx(timeout)


def test_the_backup_is_the_named_holder_closest_to_the_querier():
    """Not the first named (the lowest address): every querier would pile
    its backup fetches on that one holder."""
    world = CdnWorld()
    group = arrivals_in_one_locality(world, 5)

    def closest(querier, peers):
        return min(peers, key=lambda p: world.network.latency(querier.address, p.address))

    # A querier and a provider whose loss leaves a closest holder that is
    # not the lowest address, so the two rules pick different backups.
    querier, dead, rest = next(
        (q, d, rest)
        for q in group
        for d in group
        if d is not q
        for rest in [[h for h in group if h not in (q, d)]]
        if closest(q, rest) is not min(rest, key=lambda p: p.address)
    )
    for holder in (dead, *rest):
        world.query(holder, KEY)
    world.query(querier, (0, 9))
    world.run(seconds(10))
    name_as_provider(world.directory_of(0, querier.locality), dead)
    dead.crash()
    sent = spy_on_rpcs(querier)
    record = world.query(querier, KEY)

    assert record.outcome == "hit_directory"
    assert [dst for _, dst in fetches(sent)] == [
        dead.address,
        closest(querier, rest).address,
    ]


def test_with_both_holders_dead_the_query_reaches_the_origin_after_two_short_timeouts():
    world, directory, dead, backup, querier = petal_with_two_holders()
    name_as_provider(directory, dead)
    dead.crash()
    backup.crash()
    sent = spy_on_rpcs(querier)
    record = world.query(querier, KEY)

    assert record.outcome == "miss_failed"
    server = world.system.servers[KEY[0]].address
    calls = fetches(sent)
    assert [dst for _, dst in calls] == [dead.address, backup.address, server]
    assert calls[1][0] - calls[0][0] == pytest.approx(link_timeout(world, querier, dead))
    assert calls[2][0] - calls[1][0] == pytest.approx(
        link_timeout(world, querier, backup)
    )
    # Two short timeouts together wait less than one network default.
    assert calls[2][0] - calls[0][0] < DEFAULT_TIMEOUT_MS


def test_a_dead_summary_candidate_costs_a_per_link_wait():
    world, directory, dead, backup, querier = petal_with_two_holders()
    # The querier learnt from gossip that *dead* holds KEY.
    querier.view.add(Contact(dead.address, age=0))
    querier.peer_summaries[dead.address] = dead.summary.snapshot()
    assert querier._summary_candidates(KEY) == [dead.address]
    name_as_provider(directory, backup)
    dead.crash()
    sent = spy_on_rpcs(querier)
    record = world.query(querier, KEY)

    assert record.outcome == "hit_directory"
    assert [(kind, dst) for _, kind, dst in sent[:3]] == [
        ("flower.fetch", dead.address),
        ("flower.query", directory.address),
        ("flower.fetch", backup.address),
    ]
    waited = sent[1][0] - sent[0][0]
    assert waited == pytest.approx(link_timeout(world, querier, dead))
    assert waited < DEFAULT_TIMEOUT_MS / 2

