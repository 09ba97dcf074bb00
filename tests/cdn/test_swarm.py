"""Swarming tests: the size model, chunk placement, and seeder death.

The headline robustness property lives here: a chunked transfer whose
seeder dies mid-download *resumes* (warm mode keeps completed chunks and
fails over per-chunk) instead of restarting, and every terminal outcome
accounts for 100% of the object's bytes.
"""

from itertools import islice

import pytest

from repro.cdn.flower.system import FlowerSystem
from repro.errors import ConfigError
from repro.metrics.collector import HIT_OUTCOMES
from repro.net.bandwidth import BandwidthModel
from repro.sim.clock import seconds
from repro.workload.objectsize import ObjectSizeModel

from tests.cdn.conftest import CdnWorld, make_params


# ------------------------------------------------------------ size model


class TestObjectSizeModel:
    def test_sizes_are_a_pure_function_of_seed_and_key(self):
        a = ObjectSizeModel(seed=5)
        b = ObjectSizeModel(seed=5)
        keys = [(w, i) for w in range(3) for i in range(50)]
        assert [a.size_bytes(k) for k in keys] == [b.size_bytes(k) for k in keys]
        # A different seed redraws the sizes.
        c = ObjectSizeModel(seed=6)
        assert [c.size_bytes(k) for k in keys] != [a.size_bytes(k) for k in keys]

    def test_sizes_are_bounded_and_heavy_tailed(self):
        model = ObjectSizeModel(mean_kb=64.0, alpha=1.5, max_kb=4096.0, seed=1)
        sizes = [model.size_bytes((0, i)) for i in range(500)]
        assert all(1024 <= s <= 4096 * 1024 for s in sizes)
        # Heavy tail: the median sits well below the mean.
        ordered = sorted(sizes)
        median = ordered[len(ordered) // 2]
        mean = sum(sizes) / len(sizes)
        assert median < mean

    def test_chunk_arithmetic_is_consistent(self):
        model = ObjectSizeModel(mean_kb=256.0, chunk_kb=64, seed=2)
        for i in range(50):
            key = (0, i)
            sizes = model.chunk_sizes(key)
            assert sum(sizes) == model.size_bytes(key)
            assert len(sizes) == model.chunk_count(key)
            assert all(s == model.chunk_bytes for s in sizes[:-1])
            assert 0 < sizes[-1] <= model.chunk_bytes
            assert [
                model.chunk_size(key, j) for j in range(len(sizes))
            ] == sizes

    def test_chunk_index_out_of_range_rejected(self):
        model = ObjectSizeModel(seed=1)
        with pytest.raises(ConfigError):
            model.chunk_size((0, 0), model.chunk_count((0, 0)))
        with pytest.raises(ConfigError):
            model.chunk_size((0, 0), -1)

    @pytest.mark.parametrize(
        "bad",
        [
            {"alpha": 1.0},
            {"alpha": 0.5},
            {"mean_kb": 0.0},
            {"chunk_kb": 0},
        ],
    )
    def test_param_validation(self, bad):
        with pytest.raises(ConfigError):
            ObjectSizeModel(**bad)


# ----------------------------------------------------------- world setup


def swarm_world(resume=True, bandwidth_kbps=0.0, replicate=0, seed=1, chunk_kb=64):
    params = make_params(
        swarming=True,
        swarm_resume=resume,
        swarm_replicate=replicate,
        bandwidth_kbps=bandwidth_kbps,
    )
    world = CdnWorld(FlowerSystem, seed=seed, params=params)
    world.system.install_sizes(
        ObjectSizeModel(mean_kb=256.0, chunk_kb=chunk_kb, seed=seed)
    )
    if bandwidth_kbps > 0.0:
        world.network.install_bandwidth(BandwidthModel(world.sim, params, seed))
    return world


def find_key(sizes, min_chunks, max_chunks=10_000, website=0, count=20):
    for index in range(count):
        key = (website, index)
        if min_chunks <= sizes.chunk_count(key) <= max_chunks:
            return key
    raise AssertionError("no key with the wanted chunk count in the catalog")


def seed_provider(world, key):
    """Arrive a peer, cache *key* from the origin, let the push land."""
    provider = world.arrive(website=key[0], locality=0)
    record = world.query(provider, key)
    assert record.outcome == "miss_server"
    world.run(seconds(15))  # push -> directory index learns the holder
    return provider


# ------------------------------------------------------------------ happy


def test_small_objects_keep_the_atomic_fetch_path():
    # A 4 MB chunk swallows every object whole: chunk_count == 1 for all.
    world = swarm_world(chunk_kb=4096)
    key = find_key(world.system.sizes, 1, 1)
    seed_provider(world, key)
    client = world.arrive(website=key[0], locality=0)
    record = world.query(client, key)
    assert record.outcome == "hit_directory"
    assert world.sim.trace.count("swarm.start") == 0


def test_large_object_is_served_by_a_swarm_transfer():
    world = swarm_world()
    key = find_key(world.system.sizes, 3)
    provider = seed_provider(world, key)
    client = world.arrive(website=key[0], locality=0)
    record = world.query(client, key)
    assert record.outcome == "hit_swarm" and record.outcome in HIT_OUTCOMES
    system = world.system
    assert world.sim.trace.count("swarm.start") == 1
    assert system.swarm_completed == 1
    assert world.sim.trace.count("swarm.degraded") == 0
    # Byte accounting: all of the object came over P2P chunk payloads,
    # and the provider billed exactly those uploads.
    size = system.sizes.size_bytes(key)
    assert system.swarm_p2p_bytes == size
    assert system.swarm_origin_bytes == 0
    assert provider.bytes_uploaded == size
    # The object is now stored locally like any other hit.
    assert key in client.store


def test_chunk_placement_spreads_replicas_and_manifests_name_them():
    world = swarm_world(replicate=2)
    sizes = world.system.sizes
    key = find_key(sizes, 3)
    count = sizes.chunk_count(key)
    holder = world.arrive(website=key[0], locality=0)
    helper = world.arrive(website=key[0], locality=0)
    world.query(helper, (key[0], (key[1] + 1) % 20))  # join the petal
    world.query(holder, key)
    world.run(seconds(30))  # gossip a view, then place replicas
    holder._maybe_place_chunks(key)
    world.run(seconds(5))
    placed = [
        peer
        for peer in world.system.peers.values()
        if key in getattr(peer, "chunk_holdings", {})
    ]
    assert placed, "no peer accepted a chunk replica"
    for peer in placed:
        held = peer.chunk_holdings[key]
        assert held and held <= set(range(count))
        # A partial holder advertises exactly its chunks, and names the
        # full holder that placed them as a further source.
        assert key not in peer.store


# ----------------------------------------------------------- seeder death


def kill_mid_transfer(world, provider):
    """Crash *provider* once it is actively uploading chunk payloads."""
    bandwidth = world.network.bandwidth
    world.run_until(lambda: bandwidth.active_flows(provider.address) > 0)
    provider.crash()


def test_warm_transfer_survives_seeder_death_by_resuming():
    world = swarm_world(resume=True, bandwidth_kbps=2000.0)
    system = world.system
    key = find_key(system.sizes, 4)
    provider = seed_provider(world, key)
    client = world.arrive(website=key[0], locality=0)

    started = world.sim.now
    before = len(system.metrics)
    client.resolve_query(key, started_at=started)
    kill_mid_transfer(world, provider)
    world.run_until(
        lambda: any(
            r.object_key == key and r.time >= started
            for r in islice(system.metrics.records, before, None)
        )
    )
    record = next(
        r
        for r in islice(system.metrics.records, before, None)
        if r.object_key == key and r.time >= started
    )
    # Sole seeder died mid-download: the remaining chunks degrade to the
    # origin, completed chunks are KEPT (resume, never restart).
    assert record.outcome == "miss_degraded"
    assert world.sim.trace.count("swarm.restart") == 0
    assert world.sim.trace.count("swarm.degraded") == 1
    assert system.swarm_p2p_bytes > 0, "progress before the crash was discarded"
    assert system.swarm_origin_bytes > 0
    # 100% terminal accounting: every byte of the object is attributed.
    size = system.sizes.size_bytes(key)
    assert system.swarm_p2p_bytes + system.swarm_origin_bytes == size
    assert world.sim.trace.count("swarm.chunk_retry") > 0


def test_cold_transfer_restarts_from_zero_on_seeder_death():
    world = swarm_world(resume=False, bandwidth_kbps=2000.0)
    system = world.system
    key = find_key(system.sizes, 4)
    provider = seed_provider(world, key)
    client = world.arrive(website=key[0], locality=0)

    started = world.sim.now
    before = len(system.metrics)
    client.resolve_query(key, started_at=started)
    kill_mid_transfer(world, provider)
    world.run_until(
        lambda: any(
            r.object_key == key and r.time >= started
            for r in islice(system.metrics.records, before, None)
        )
    )
    record = next(
        r
        for r in islice(system.metrics.records, before, None)
        if r.object_key == key and r.time >= started
    )
    # The baseline strategy throws everything away and refetches the
    # whole object from the origin.
    assert record.outcome == "miss_degraded"
    assert world.sim.trace.count("swarm.restart") >= 1


def test_downloader_crash_mid_transfer_settles_the_ledger():
    world = swarm_world(resume=True, bandwidth_kbps=2000.0)
    system = world.system
    key = find_key(system.sizes, 4)
    seed_provider(world, key)
    client = world.arrive(website=key[0], locality=0)
    client.resolve_query(key, started_at=world.sim.now)
    world.run_until(lambda: world.sim.trace.count("swarm.start") == 1)
    client.crash()
    world.run(seconds(5))
    # The transfer closed without a served outcome and no swarm state
    # lingers on the dead peer.
    assert system.swarm_failed == 1
    assert not client._swarms
