"""Unit and property tests for the partial view."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.view import Contact, PartialView


def test_empty_view():
    view = PartialView(owner=0)
    assert len(view) == 0
    assert view.oldest() is None
    assert view.addresses() == []


def test_add_and_contains():
    view = PartialView(owner=0)
    assert view.add(Contact(1, age=2))
    assert 1 in view
    assert view.get(1).age == 2


def test_never_stores_owner():
    view = PartialView(owner=0)
    assert not view.add(Contact(0))
    assert 0 not in view


def test_younger_age_wins():
    view = PartialView(owner=0)
    view.add(Contact(1, age=5))
    assert view.add(Contact(1, age=2))      # fresher: updates
    assert view.get(1).age == 2
    assert not view.add(Contact(1, age=9))  # staler: ignored
    assert view.get(1).age == 2


def test_merge_counts_changes():
    view = PartialView(owner=0)
    view.add(Contact(1, age=5))
    changed = view.merge([Contact(1, age=1), Contact(2), Contact(0)])
    assert changed == 2  # refreshed 1, added 2, skipped owner


def test_remove():
    view = PartialView(owner=0)
    view.add(Contact(1))
    assert view.remove(1)
    assert not view.remove(1)
    assert 1 not in view


def test_increase_ages_and_refresh():
    view = PartialView(owner=0)
    view.add(Contact(1, age=0))
    view.add(Contact(2, age=3))
    view.increase_ages()
    assert view.get(1).age == 1
    assert view.get(2).age == 4
    view.refresh(2)
    assert view.get(2).age == 0
    view.refresh(99)  # unknown: no-op


def test_oldest():
    view = PartialView(owner=0)
    view.add(Contact(1, age=1))
    view.add(Contact(2, age=7))
    view.add(Contact(3, age=4))
    assert view.oldest().address == 2


def test_sample_excludes_and_bounds():
    view = PartialView(owner=0)
    for address in range(1, 11):
        view.add(Contact(address))
    rng = random.Random(3)
    sample = view.sample(rng, 4, exclude={1, 2})
    assert len(sample) == 4
    assert all(c.address not in (0, 1, 2) for c in sample)
    # asking for more than available returns everything eligible
    assert len(view.sample(rng, 50, exclude={1})) == 9


def test_capacity_displaces_only_older():
    view = PartialView(owner=0, capacity=2)
    view.add(Contact(1, age=5))
    view.add(Contact(2, age=1))
    assert view.full
    # newcomer fresher than the oldest entry displaces it
    assert view.add(Contact(3, age=0))
    assert 1 not in view and 3 in view
    # newcomer staler than everything is refused
    assert not view.add(Contact(4, age=9))
    assert 4 not in view
    assert len(view) == 2


def test_clear():
    view = PartialView(owner=0)
    view.add(Contact(1))
    view.clear()
    assert len(view) == 0


@given(
    entries=st.lists(
        st.tuples(st.integers(1, 30), st.integers(0, 10)), max_size=60
    )
)
@settings(max_examples=100, deadline=None)
def test_property_view_keeps_min_age_per_address(entries):
    """After arbitrary merges, each address holds its minimum observed age."""
    view = PartialView(owner=0)
    best = {}
    for address, age in entries:
        view.add(Contact(address, age))
        best[address] = min(best.get(address, age), age)
    assert len(view) == len(best)
    for address, age in best.items():
        assert view.get(address).age == age


@given(
    capacity=st.integers(1, 8),
    entries=st.lists(st.tuples(st.integers(1, 40), st.integers(0, 10)), max_size=80),
)
@settings(max_examples=100, deadline=None)
def test_property_capacity_never_exceeded(capacity, entries):
    view = PartialView(owner=0, capacity=capacity)
    for address, age in entries:
        view.add(Contact(address, age))
    assert len(view) <= capacity
