"""The versioned ``SystemStats`` facade.

One entry point (``system.stats()``), typed frozen dataclasses, and a
pinned ``STATS_VERSION``; each block's ``to_dict()`` keeps the dict shape
the pre-facade reports parsed.
"""

import dataclasses

import pytest

from repro.cdn.flower.stats import STATS_VERSION, SystemStats
from repro.cdn.flower.system import FlowerSystem
from repro.sim.clock import minutes

from tests.cdn.conftest import CdnWorld


def make_world():
    world = CdnWorld(FlowerSystem)
    world.run(minutes(5))
    peer = world.arrive(website=0, locality=0)
    world.query(peer, (0, 7))
    return world


def test_stats_returns_the_versioned_snapshot():
    world = make_world()
    stats = world.system.stats()
    assert isinstance(stats, SystemStats)
    assert stats.version == STATS_VERSION
    blocks = {f.name for f in dataclasses.fields(stats)}
    assert blocks == {"version", "overload", "replication", "swarm"}


def test_overload_dict_shape_is_the_legacy_one_plus_new_counters():
    world = make_world()
    overload = world.system.stats().overload.to_dict()
    # The pre-facade keys every existing report reads ...
    for key in (
        "queries_shed",
        "members_shed",
        "directories",
        "peak_queue_depth",
        "directory_loads",
        "directory_queries",
        "directory_sheds",
        "directory_detail",
        "content_fetches",
        "instances",
    ):
        assert key in overload
    # ... plus the reactive-plane counters of this PR.
    for key in (
        "hint_hops",
        "hint_hits",
        "hint_stale",
        "rebalance_spills",
        "rebalance_adoptions",
        "rebalance_kb",
        "content_detail",
    ):
        assert key in overload


def test_content_detail_rows_carry_the_petal():
    world = make_world()
    detail = world.system.stats().overload.content_detail
    assert detail  # at least the queried member
    for row in detail.values():
        assert set(row) == {"website", "locality", "fetches"}


def test_stats_snapshots_are_immutable():
    world = make_world()
    stats = world.system.stats()
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.overload.queries_shed = 99
