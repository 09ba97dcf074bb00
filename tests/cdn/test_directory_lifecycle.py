"""Directory-role lifecycle: voluntary leave, member expiry, re-admission.

Section 5.2.2's voluntary-departure path (state handoff to a petal
member that takes the D-ring position) and section 5.1's keepalive /
expiry interplay (silent members age out after ``MEMBER_EXPIRY_ROUNDS``
sweeps; contact of any kind -- keepalive, push, query -- resets ages,
and an expired member is re-admitted transparently by its next query).
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


class TestGracefulLeave:
    def test_handoff_preserves_index_and_position(self, flower_world):
        world = flower_world
        first, old_dir = _register_member(world, key=(0, 5))
        second, _ = _register_member(
            world, locality=first.locality, key=(0, 9)
        )
        old_snapshot = old_dir.directory.snapshot()
        assert old_snapshot["member_keys"]  # index is non-trivial

        old_dir.leave_directory_gracefully()
        assert old_dir.directory is None
        world.run(seconds(10))  # handoff message delivers

        new_dir = world.directory_of(0, first.locality)
        assert new_dir is not None
        assert new_dir.address != old_dir.address
        # the heir is drawn from the petal: one of the two members
        assert new_dir.address in (first.address, second.address)
        role = new_dir.directory
        assert role.website == 0 and role.locality == first.locality
        # the heir drops its *own* snapshot entry (it is the owner now)
        # but keeps the other member's index pointers
        other = second if new_dir.address == first.address else first
        other_key = (0, 9) if other is second else (0, 5)
        assert role.has_member(other.address)
        assert other_key in set(role.member_keys.get(other.address, ()))

    def test_heir_answers_searches_right_after_handoff(self, flower_world):
        """Section 5.4: the heir adopts the predecessor's directory-index
        from the handoff without deriving a single keyword set, and
        answers searches from it immediately after promotion."""
        from repro.cdn.flower.search import KeywordSearchEngine, KeywordSpace

        world = flower_world
        engine = KeywordSearchEngine(KeywordSpace(num_keywords=8))
        world.system.search_engine = engine
        first, old_dir = _register_member(world, key=(0, 5))
        second, _ = _register_member(
            world, locality=first.locality, key=(0, 9)
        )

        derivations = []
        real_keywords_of = engine.space.keywords_of
        engine.space.keywords_of = lambda key: (
            derivations.append(key) or real_keywords_of(key)
        )
        try:
            old_dir.leave_directory_gracefully()
            world.run(seconds(10))  # handoff message delivers
        finally:
            engine.space.keywords_of = real_keywords_of

        new_dir = world.directory_of(0, first.locality)
        assert new_dir is not None and new_dir.address != old_dir.address
        # Adopting the index derived nothing.
        assert derivations == []
        # The surviving member's keys are searchable through the heir.
        other = second if new_dir.address == first.address else first
        other_key = (0, 9) if other is second else (0, 5)
        keyword = next(iter(real_keywords_of(other_key)))
        results = []
        new_dir.search(keyword, results.append)  # local: zero round trips
        assert any(key == other_key for key, __ in results[0])

    def test_leave_without_members_just_vacates(self, flower_world):
        world = flower_world
        directory = world.directory_of(1, 1)
        directory.leave_directory_gracefully()
        world.run(seconds(10))
        # nobody to hand off to: the slot is simply vacant
        assert world.directory_of(1, 1) is None
        assert directory.directory is None

    def test_queries_survive_handoff(self, flower_world):
        """A fresh client in the petal still resolves after the handoff."""
        world = flower_world
        client, old_dir = _register_member(world, key=(0, 5))
        old_dir.leave_directory_gracefully()
        world.run(seconds(10))
        newcomer = world.arrive(website=0, locality=client.locality)
        record = world.query(newcomer, (0, 5))
        # served, one way or another (directory hit via the inherited
        # index, or a server miss if the lookup raced the takeover)
        assert record.outcome in ("hit_directory", "hit_gossip", "miss_server")


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
        """After a graceful leave the old holder sweeps no more."""
        world = flower_world
        client, old_dir = _register_member(world)
        old_dir.leave_directory_gracefully()
        before = world.system.expired_members
        world.run(minutes(45))
        # the old holder cannot expire anyone; only the heir's sweep runs
        assert old_dir.directory is None
        assert world.system.expired_members >= before
