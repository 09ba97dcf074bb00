"""Unit tests for the content catalog."""

import pytest

from repro.errors import WorkloadError
from repro.workload.catalog import Catalog


def test_paper_defaults():
    catalog = Catalog()
    assert catalog.num_websites == 100
    assert catalog.objects_per_website == 500
    assert catalog.num_active_websites == 6


def test_validation():
    with pytest.raises(WorkloadError):
        Catalog(num_websites=0)
    with pytest.raises(WorkloadError):
        Catalog(objects_per_website=0)
    with pytest.raises(WorkloadError):
        Catalog(num_websites=5, num_active_websites=6)
    with pytest.raises(WorkloadError):
        Catalog(num_active_websites=0)


def test_websites_and_active():
    catalog = Catalog(num_websites=10, num_active_websites=3)
    assert list(catalog.websites()) == list(range(10))
    assert [ws for ws in catalog.websites() if catalog.is_active(ws)] == [0, 1, 2]
    assert catalog.is_active(2)
    assert not catalog.is_active(3)


def test_url_distinct_per_object():
    catalog = Catalog(num_websites=2, objects_per_website=3)
    urls = {catalog.url((ws, index)) for ws in range(2) for index in range(3)}
    assert len(urls) == 6
