"""Unit tests for landmark-based locality binning."""

import random

import pytest

from repro.errors import TopologyError
from repro.net.landmarks import LandmarkBinner
from repro.net.topology import ClusteredTopology, UniformRandomTopology


def test_requires_at_least_one_locality():
    with pytest.raises(TopologyError):
        LandmarkBinner(0, lambda a, i: 0.0)


def test_locality_is_nearest_landmark():
    probes = {0: [5.0, 1.0, 9.0], 1: [2.0, 8.0, 3.0]}
    binner = LandmarkBinner(3, lambda addr, i: probes[addr][i])
    assert binner.locality_of(0) == 1
    assert binner.locality_of(1) == 0


def test_locality_is_cached():
    calls = []

    def probe(addr, i):
        calls.append((addr, i))
        return float(i)

    binner = LandmarkBinner(2, probe)
    binner.locality_of(7)
    first_calls = len(calls)
    binner.locality_of(7)
    assert len(calls) == first_calls  # no new probes


def test_landmark_vector_length():
    binner = LandmarkBinner(4, lambda a, i: float(i))
    assert binner.landmark_vector(0) == [0.0, 1.0, 2.0, 3.0]


def test_clustered_binning_recovers_ground_truth():
    """With landmarks at the cluster centres, binning should recover the
    topology's ground-truth clusters for nearly every peer."""
    topo = ClusteredTopology(random.Random(5), num_clusters=6)
    for address in range(400):
        topo.register(address)
    binner = LandmarkBinner.for_clustered(topo)
    matches = sum(
        1 for a in range(400) if binner.locality_of(a) == topo.cluster_of(a)
    )
    assert matches >= 390  # > 97 % agreement


def test_for_addresses_on_uniform_topology():
    topo = UniformRandomTopology(seed=9)
    for address in range(50):
        topo.register(address)
    binner = LandmarkBinner.for_addresses(topo, [0, 1, 2])
    assert binner.num_localities == 3
    localities = {binner.locality_of(a) for a in range(3, 50)}
    assert localities <= {0, 1, 2}
    # consistent partition: calling twice agrees
    assert [binner.locality_of(a) for a in range(50)] == [
        binner.locality_of(a) for a in range(50)
    ]


def test_for_addresses_validates_landmarks():
    topo = UniformRandomTopology(seed=9)
    topo.register(0)
    with pytest.raises(TopologyError):
        LandmarkBinner.for_addresses(topo, [])
    with pytest.raises(TopologyError):
        LandmarkBinner.for_addresses(topo, [99])
