"""Directory-role lifecycle: member expiry and re-admission.

Section 5.1's keepalive / expiry interplay: silent members age out after
``MEMBER_EXPIRY_ROUNDS`` sweeps; contact of any kind -- keepalive, push,
query -- resets ages, and an expired member is re-admitted transparently
by its next query.
"""

from repro.cdn.flower.service import MEMBER_EXPIRY_ROUNDS
from repro.sim.clock import minutes, seconds


def _register_member(world, website=0, locality=0, key=(0, 5)):
    """Bring one client online, query once so it joins the petal, and let
    its content push land; returns (client, directory_peer)."""
    client = world.arrive(website=website, locality=locality)
    directory = world.directory_of(website, locality)
    world.query(client, key)
    world.run(seconds(10))  # push lands; index now references the client
    assert directory.directory.has_member(client.address)
    return client, directory


class TestExpiryKeepaliveInterplay:
    def test_keepalive_prevents_expiry(self, flower_world):
        world = flower_world
        client, directory = _register_member(world)
        before = world.system.expired_members
        # several full sweep periods: the client's periodic keepalive
        # keeps touching its directory entry
        world.run(4 * world.system.gossip_period_ms)
        assert directory.directory.has_member(client.address)
        assert world.system.expired_members == before

    def test_silent_member_expires_after_rounds(self, flower_world):
        world = flower_world
        client, directory = _register_member(world)
        expired_events = []
        world.sim.trace.subscribe(
            "flower.member_expired", lambda e: expired_events.append(e)
        )
        # Silence the member without killing it: its keepalive (and
        # query) processes stop, as if all its messages were lost.
        client._keepalive_process.cancel()
        client._stop_query_process()
        world.run((MEMBER_EXPIRY_ROUNDS + 2) * world.system.gossip_period_ms * 1.1)
        assert not directory.directory.has_member(client.address)
        # eviction also purged the index pointers
        assert client.address not in directory.directory.member_keys
        assert world.system.expired_members >= 1
        assert any(
            e.payload["member"] == client.address
            and e.payload["directory"] == directory.address
            for e in expired_events
        )

    def test_expired_member_reregisters_on_next_query(self, flower_world):
        world = flower_world
        client, directory = _register_member(world)
        client._keepalive_process.cancel()
        client._stop_query_process()
        world.run((MEMBER_EXPIRY_ROUNDS + 2) * world.system.gossip_period_ms * 1.1)
        assert not directory.directory.has_member(client.address)
        # the comeback query re-admits the peer cleanly...
        record = world.query(client, (0, 7))
        assert record.outcome in ("hit_directory", "miss_server")
        world.run(seconds(10))
        assert directory.directory.has_member(client.address)
        # ...and its push re-populates the index
        assert client.address in {
            a
            for addrs in (
                directory.directory.providers_of((0, 7)),
                directory.directory.providers_of((0, 5)),
            )
            for a in addrs
        }

    def test_expiry_sweep_runs_only_while_directory(self, flower_world):
        """A crash ends the role, and the role's expiry sweep with it."""
        world = flower_world
        client, old_dir = _register_member(world)
        sweep = old_dir.service._sweep_process
        assert sweep.active
        swept_by_old = []
        world.sim.trace.subscribe(
            "flower.member_expired",
            lambda e: e.payload["directory"] == old_dir.address
            and swept_by_old.append(e),
        )
        old_dir.crash()
        assert old_dir.directory is None and old_dir.service is None
        assert not sweep.active
        world.run(minutes(45))
        # the old holder expires no one; the heir's sweep is a new one
        assert swept_by_old == []
        heir = world.directory_of(0, client.locality)
        assert heir is not None and heir.address != old_dir.address
        assert heir.service._sweep_process.active
