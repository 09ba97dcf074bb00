"""Unit tests for the directory role (index, members, load, snapshots)."""

import random

from repro.cdn.flower.directory import DirectoryRole


def make_role(owner=99):
    return DirectoryRole(owner, website=0, locality=1, instance=0, position_id=1234)


def test_initial_state():
    role = make_role()
    assert role.load == 0
    assert not role.overloaded(10)
    assert role.overloaded(None) is False
    assert role.providers_of((0, 1)) == set()


def test_add_member_indexes_keys():
    role = make_role()
    role.add_member(5, [(0, 1), (0, 2)])
    assert role.has_member(5)
    assert role.load == 1
    assert role.providers_of((0, 1)) == {5}
    assert role.providers_of((0, 2)) == {5}


def test_owner_never_a_member():
    role = make_role(owner=99)
    role.add_member(99, [(0, 1)])
    assert not role.has_member(99)
    assert role.load == 0


def test_update_member_keys_diffs():
    role = make_role()
    role.add_member(5, [(0, 1), (0, 2)])
    role.update_member_keys(5, [(0, 2), (0, 3)])
    assert role.providers_of((0, 1)) == set()
    assert role.providers_of((0, 2)) == {5}
    assert role.providers_of((0, 3)) == {5}


def test_remove_member_clears_pointers():
    role = make_role()
    role.add_member(5, [(0, 1)])
    role.add_member(6, [(0, 1)])
    role.remove_member(5)
    assert not role.has_member(5)
    assert role.providers_of((0, 1)) == {6}
    role.remove_member(6)
    assert role.providers_of((0, 1)) == set()
    assert (0, 1) not in role.index


def test_pick_provider_respects_exclusion():
    role = make_role()
    role.add_member(5, [(0, 1)])
    role.add_member(6, [(0, 1)])
    rng = random.Random(1)
    picks = {role.pick_provider((0, 1), rng, exclude={5}) for __ in range(10)}
    assert picks == {6}
    assert role.pick_provider((0, 1), rng, exclude={5, 6}) is None
    assert role.pick_provider((9, 9), rng) is None


def test_overload_accounting():
    role = make_role()
    for address in range(1, 5):
        role.add_member(address)
    assert role.load == 4
    assert role.overloaded(4)
    assert role.overloaded(3)
    assert not role.overloaded(5)
    assert not role.overloaded(None)


def test_expire_members_sweep():
    role = make_role()
    role.add_member(5, [(0, 1)])
    role.add_member(6)
    # two sweeps without contact exceed max_age=1
    assert role.expire_members(max_age=1) == []
    role.touch_member(6)  # 6 stays fresh
    expired = role.expire_members(max_age=1)
    assert expired == [5]
    assert not role.has_member(5)
    assert role.providers_of((0, 1)) == set()
    assert role.has_member(6)


def test_touch_resets_age():
    role = make_role()
    role.add_member(5)
    role.expire_members(max_age=5)
    role.touch_member(5)
    assert role.members.get(5).age == 0


def test_member_sample():
    role = make_role()
    for address in range(1, 8):
        role.add_member(address)
    sample = role.member_sample(random.Random(2), 3)
    assert len(sample) == 3
    assert len(set(sample)) == 3
    assert all(1 <= a < 8 for a in sample)


def test_snapshot_roundtrip():
    # The snapshot form a promotion's partition carries (section 5.3).
    snapshot = {
        "members": [(5, 0), (6, 1)],
        "member_keys": {5: [(0, 1), (0, 2)], 6: [(0, 2)]},
    }
    heir = DirectoryRole(77, 0, 1, 0, 1234)
    heir.adopt_snapshot(snapshot)
    assert heir.has_member(5) and heir.has_member(6)
    assert heir.providers_of((0, 2)) == {5, 6}
    assert heir.providers_of((0, 1)) == {5}


def test_adopt_snapshot_skips_self():
    snapshot = {"members": [(77, 0)], "member_keys": {77: [(0, 1)]}}
    heir = DirectoryRole(77, 0, 1, 0, 1234)
    heir.adopt_snapshot(snapshot)
    assert not heir.has_member(77)
    assert heir.providers_of((0, 1)) == set()
