"""Protocol tests for PetalUp-CDN: load-triggered directory splits."""

import pytest

from repro.cdn.petalup.system import PetalUpSystem
from repro.errors import CDNError, ConfigError
from repro.sim.clock import minutes, seconds

from tests.cdn.conftest import CdnWorld, make_params


def make_petalup_world(load_limit=3, max_instances=4, seed=1):
    return CdnWorld(
        PetalUpSystem,
        seed=seed,
        params=make_params(
            directory_load_limit=load_limit, max_instances=max_instances
        ),
    )


class TestConfiguration:
    def test_params_helper_validates(self):
        with pytest.raises(ConfigError):
            make_params(directory_load_limit=0, max_instances=4)
        with pytest.raises(CDNError):
            CdnWorld(
                PetalUpSystem,
                params=make_params(directory_load_limit=3, max_instances=1),
            )

    def test_system_requires_split_knobs(self):
        with pytest.raises(CDNError):
            CdnWorld(PetalUpSystem, params=make_params())  # plain Flower params

    def test_params_flow_through(self, petalup_world):
        params = petalup_world.system.params
        assert params.directory_load_limit == 3
        assert params.max_instances == 4


class TestSplitProtocol:
    def fill_petal(self, world, website=0, locality=0, count=6):
        peers = []
        for index in range(count):
            peer = world.arrive(website=website, locality=locality)
            peer.locality = locality
            world.query(peer, (website, index + 1))
            world.run(seconds(30))
            peers.append(peer)
        return peers

    def test_overload_spawns_second_instance(self):
        world = make_petalup_world(load_limit=3)
        self.fill_petal(world, count=6)
        world.run(minutes(10))
        # a second directory instance must have joined D-ring
        assert world.system.instance_count(0, 0) >= 2
        second = world.directory_of(0, 0, instance=1)
        assert second is not None
        assert second.directory.instance == 1

    def test_instances_occupy_successive_ids(self):
        world = make_petalup_world(load_limit=3)
        self.fill_petal(world, count=6)
        world.run(minutes(10))
        first = world.directory_of(0, 0, instance=0)
        second = world.directory_of(0, 0, instance=1)
        if first is not None and second is not None:
            assert (
                second.directory.position_id == first.directory.position_id + 1
            )

    def test_promoted_peer_removed_from_first_instance(self):
        world = make_petalup_world(load_limit=3)
        self.fill_petal(world, count=6)
        world.run(minutes(10))
        first = world.directory_of(0, 0, instance=0)
        second = world.directory_of(0, 0, instance=1)
        if first is not None and second is not None:
            assert not first.directory.has_member(second.address)

    def test_clients_distributed_across_instances(self):
        """Section 4: each instance manages a subset of the content peers."""
        world = make_petalup_world(load_limit=3)
        self.fill_petal(world, count=8)
        world.run(minutes(20))
        total = world.system.petal_size(0, 0)
        first = world.directory_of(0, 0, instance=0)
        if first is not None and world.system.instance_count(0, 0) >= 2:
            assert first.directory.load <= total

    def test_flower_never_splits(self, flower_world):
        """Plain Flower-CDN (no load limit) keeps a single instance."""
        world = flower_world
        for index in range(6):
            peer = world.arrive(website=0, locality=0)
            peer.locality = 0
            world.query(peer, (0, index + 1))
        world.run(minutes(10))
        assert world.system.key_service.max_instances == 1
