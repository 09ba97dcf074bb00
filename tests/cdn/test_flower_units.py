"""Fine-grained unit tests for FlowerPeer internals.

The protocol-level behaviour is covered by tests/cdn/test_flower.py; these
pin down the smaller mechanisms: dir-info reconciliation, summary-candidate
selection, push triggering, registration payloads.
"""

from repro.cdn.flower.petal import DirInfo
from repro.gossip.view import Contact
from repro.sim.clock import seconds

from tests.cdn.conftest import CdnWorld


def joined_client(world, website=0, locality=0):
    peer = world.arrive(website=website, locality=locality)
    world.query(peer, (website, 1))
    return peer


class TestDirInfo:
    def test_pack_unpack_roundtrip(self):
        info = DirInfo(position_id=123, address=7, age=2)
        assert DirInfo.unpack(info.pack()) == info
        assert DirInfo.unpack(None) is None


class TestDirInfoReconciliation:
    def test_fresher_same_position_adopts_address(self):
        world = CdnWorld()
        peer = joined_client(world)
        replacement = world.arrive(website=0, locality=peer.locality)
        peer.dir_info.age = 3
        position = peer.dir_info.position_id
        peer._reconcile_dir_info(DirInfo(position, replacement.address, age=1))
        assert peer.dir_info.address == replacement.address
        assert peer.dir_info.age == 1

    def test_staler_same_position_ignored(self):
        world = CdnWorld()
        peer = joined_client(world)
        original = peer.dir_info.address
        peer.dir_info.age = 0
        peer._reconcile_dir_info(DirInfo(peer.dir_info.position_id, 42, age=5))
        assert peer.dir_info.address == original

    def test_other_position_ignored_when_set(self):
        world = CdnWorld()
        peer = joined_client(world)
        original = peer.dir_info.position_id
        foreign = world.system.key_service.position_id(1, peer.locality, 0)
        peer._reconcile_dir_info(DirInfo(foreign, 42, age=0))
        assert peer.dir_info.position_id == original

    def test_orphan_adopts_own_petal_directory(self):
        world = CdnWorld()
        peer = joined_client(world)
        position = peer.dir_info.position_id
        directory_address = peer.dir_info.address
        peer.dir_info = None
        peer._reconcile_dir_info(DirInfo(position, directory_address, age=1))
        assert peer.dir_info is not None
        assert peer.dir_info.address == directory_address

    def test_orphan_rejects_foreign_petal(self):
        world = CdnWorld()
        peer = joined_client(world, website=0)
        peer.dir_info = None
        foreign = world.system.key_service.position_id(1, peer.locality, 0)
        peer._reconcile_dir_info(DirInfo(foreign, 42, age=0))
        assert peer.dir_info is None

    def test_directory_peer_never_reconciles(self):
        world = CdnWorld()
        directory = world.directory_of(0, 0)
        directory._reconcile_dir_info(DirInfo(1, 42, age=0))
        assert directory.dir_info is None


class TestSummaryCandidates:
    def test_candidates_require_view_and_key(self):
        world = CdnWorld()
        peer = joined_client(world)
        other = joined_client(world, locality=peer.locality)
        # other holds (0,1); peer knows its summary but it is not in view
        peer.peer_summaries[other.address] = other.summary.snapshot()
        assert peer._summary_candidates((0, 1)) == []
        peer.view.add(Contact(other.address))
        assert other.address in peer._summary_candidates((0, 1))
        assert peer._summary_candidates((0, 19)) == []

    def test_candidates_sorted_by_latency(self):
        world = CdnWorld()
        peer = joined_client(world)
        holders = [joined_client(world, locality=peer.locality) for __ in range(3)]
        for holder in holders:
            holder.store.add_with_evictions((0, 7))
            holder.summary.add((0, 7))
            peer.view.add(Contact(holder.address))
            peer.peer_summaries[holder.address] = holder.summary.snapshot()
        candidates = peer._summary_candidates((0, 7))
        latencies = [world.network.latency(peer.address, a) for a in candidates]
        assert latencies == sorted(latencies)

    def test_own_address_never_a_candidate(self):
        world = CdnWorld()
        peer = joined_client(world)
        peer.peer_summaries[peer.address] = peer.summary.snapshot()
        assert peer.address not in peer._summary_candidates((0, 1))


class TestPushBehaviour:
    def test_push_state_reset_on_registration(self):
        world = CdnWorld()
        peer = world.arrive(website=0)
        peer.store.add_with_evictions((0, 9))
        peer.store.mark_pushed()
        assert not peer.store.should_push(0.5)
        world.query(peer, (0, 1))  # registration resets push state + pushes
        world.run(seconds(10))
        directory = world.directory_of(0, peer.locality)
        assert directory.directory.providers_of((0, 9)) == {peer.address}

    def test_gossip_payload_carries_summary_and_dirinfo(self):
        world = CdnWorld()
        peer = joined_client(world)
        data = peer._gossip_data()
        assert data["summary"].contains((0, 1))
        assert DirInfo.unpack(data["dir"]) == peer.dir_info

    def test_after_query_updates_summary(self):
        world = CdnWorld()
        peer = joined_client(world)
        world.query(peer, (0, 5))
        assert peer.summary.contains((0, 5))


class TestRoleGuards:
    def test_promote_declined_by_directory_peer(self):
        world = CdnWorld()
        directory = world.directory_of(0, 0)
        from repro.net.message import Message

        reply = directory.handle_flower_promote(
            Message(src=1, dst=directory.address, kind="flower.promote",
                    payload={"website": 0, "locality": 0, "instance": 1,
                             "position": 999})
        )
        assert reply == {"accepted": False}

    def test_fetch_reports_missing_object(self):
        world = CdnWorld()
        peer = joined_client(world)
        from repro.net.message import Message

        reply = peer.handle_flower_fetch(
            Message(src=1, dst=peer.address, kind="flower.fetch",
                    payload={"key": (0, 19)})
        )
        assert reply == {"ok": False}

    def test_crash_clears_membership_state(self):
        world = CdnWorld()
        peer = joined_client(world)
        peer.view.add(Contact(99))
        peer.peer_summaries[99] = peer.summary.snapshot()
        peer.crash()
        assert peer.dir_info is None
        assert len(peer.view) == 0
        assert peer.peer_summaries == {}
        assert not peer._recovering

    def test_registration_payload_excludes_joiner(self):
        world = CdnWorld()
        directory = world.directory_of(0, 0)
        role = directory.directory
        for address in (50, 51, 52):
            role.add_member(address)
        payload = directory.service.registration_payload(joiner=51)
        assert 51 not in payload["view_sample"]
        assert payload["dir_address"] == directory.address
        assert payload["dir_position"] == role.position_id
