"""Landmark-based locality binning.

Flower-CDN groups peers into *k* physical localities "using a landmark
technique" (paper section 3.1, citing Ratnasamy et al., INFOCOM 2002).  The
idea: a small set of well-known landmark hosts exists; a joining peer probes
its latency to each landmark and derives its locality from the result.  Peers
that are physically close obtain the same locality label without any global
coordination.

We implement the nearest-landmark variant: ``locality = argmin_i probe(i)``.
With one landmark per geographic cluster this recovers the ground-truth
clusters of :class:`~repro.net.topology.ClusteredTopology` almost perfectly
(the property tests quantify this), while on a structureless topology it
produces an arbitrary -- but still consistent -- partition, which is exactly
what the locality ablation needs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.errors import TopologyError
from repro.net.topology import ClusteredTopology, Topology
from repro.types import Address, LocalityId

#: Measured latency from a peer to landmark *i*.
ProbeFunction = Callable[[Address, int], float]


class LandmarkBinner:
    """Assign each peer a locality by probing k landmarks.

    Args:
        num_localities: the number of landmarks, k (paper uses 6).
        probe: ``probe(address, landmark_index) -> latency_ms``.
    """

    def __init__(self, num_localities: int, probe: ProbeFunction) -> None:
        if num_localities < 1:
            raise TopologyError(f"need at least one locality (got {num_localities})")
        self.num_localities = num_localities
        self._probe = probe
        self._cache: Dict[Address, LocalityId] = {}

    @classmethod
    def for_clustered(cls, topology: ClusteredTopology) -> "LandmarkBinner":
        """Landmarks placed at the cluster centres of a clustered topology.

        This models the common deployment where landmarks are well-spread
        infrastructure hosts (one per region).
        """

        def probe(address: Address, landmark: int) -> float:
            return topology.latency_at(
                topology.position(address), topology.centers[landmark]
            )

        return cls(topology.num_clusters, probe)

    @classmethod
    def for_addresses(
        cls, topology: Topology, landmark_addresses: Sequence[Address]
    ) -> "LandmarkBinner":
        """Landmarks hosted at designated registered peers."""
        landmarks = list(landmark_addresses)
        if not landmarks:
            raise TopologyError("need at least one landmark address")
        for address in landmarks:
            if not topology.knows(address):
                raise TopologyError(f"landmark address {address} is not registered")

        def probe(address: Address, landmark: int) -> float:
            return topology.latency(address, landmarks[landmark])

        return cls(len(landmarks), probe)

    def landmark_vector(self, address: Address) -> List[float]:
        """The full vector of probed latencies (one per landmark)."""
        return [self._probe(address, i) for i in range(self.num_localities)]

    def locality_of(self, address: Address) -> LocalityId:
        """The peer's locality: the index of its nearest landmark.

        The result is cached: localities are determined once at join time,
        like a real peer would do, and never flap afterwards.
        """
        cached = self._cache.get(address)
        if cached is not None:
            return cached
        vector = self.landmark_vector(address)
        locality = min(range(self.num_localities), key=vector.__getitem__)
        self._cache[address] = locality
        return locality
