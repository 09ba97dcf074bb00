"""Synthetic latency topologies.

The simulation only ever asks one question of the physical network: *what is
the one-way latency between peers a and b?*  (Bandwidth and CPU are not
modelled -- paper section 6.1.)  Three answers are provided:

:class:`ClusteredTopology`
    Peers live in a 2-D metric space organised as *k* geographic clusters;
    latency grows affinely with Euclidean distance, spanning the paper's
    10-500 ms range.  Peers of one cluster are mutually close (tens of ms)
    while peers of different clusters are far (hundreds of ms).  This is the
    default and the one that gives landmark binning (and hence Flower-CDN's
    locality awareness) something real to discover.

:class:`UniformRandomTopology`
    Every pair gets an i.i.d. latency uniform in [min, max], computed
    on demand from a hash so that no O(n^2) matrix is stored.  Used by the
    locality ablation: with no latent structure, locality awareness cannot
    help, which quantifies what the clustered structure is worth.

:class:`ExplicitTopology`
    A literal latency matrix, for unit tests that need exact numbers.

All topologies are *symmetric* (latency(a, b) == latency(b, a)) and return
0.0 for self-latency.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

from repro.errors import TopologyError
from repro.sim.rng import derive_seed
from repro.types import Address, Coordinate


class Topology:
    """Base class: a registry of peer positions and a latency metric."""

    def register(self, address: Address, cluster_hint: Optional[int] = None) -> None:
        """Place a new peer.  Must be called once per address before use.

        Args:
            address: the peer's unique address.
            cluster_hint: topologies with geographic structure may honour
                this to place the peer in a chosen region (used to seed the
                initial directory-peer population, one per locality);
                structureless topologies ignore it.
        """
        raise NotImplementedError

    def latency(self, a: Address, b: Address) -> float:
        """One-way latency in ms between two registered peers."""
        raise NotImplementedError

    def knows(self, address: Address) -> bool:
        """True if *address* has been registered."""
        raise NotImplementedError


class ClusteredTopology(Topology):
    """k Gaussian clusters in the unit square, affine distance-to-latency map.

    Cluster centres are spread quasi-uniformly on a circle (plus jitter) so
    that inter-cluster distances are comparable; peers scatter around their
    centre with standard deviation *spread*.

    The latency map is calibrated so the *observable* range matches the
    paper: nearby peers see ~``latency_min`` and the most distant pairs
    approach ``latency_max``.

    Args:
        rng: random stream for placement.
        num_clusters: number of geographic clusters (the paper's k = 6).
        latency_min_ms / latency_max_ms: the paper's 10-500 ms range.
        spread: cluster standard deviation in unit-square units.
    """

    #: Diameter of the unit square -- the maximum possible distance.
    _MAX_DISTANCE = math.sqrt(2.0)

    def __init__(
        self,
        rng: random.Random,
        num_clusters: int = 6,
        latency_min_ms: float = 10.0,
        latency_max_ms: float = 500.0,
        spread: float = 0.04,
    ) -> None:
        if num_clusters < 1:
            raise TopologyError(f"need at least one cluster (got {num_clusters})")
        if not 0 < latency_min_ms < latency_max_ms:
            raise TopologyError(
                f"need 0 < latency_min < latency_max "
                f"(got {latency_min_ms}, {latency_max_ms})"
            )
        self._rng = rng
        self.num_clusters = num_clusters
        self.latency_min_ms = latency_min_ms
        self.latency_max_ms = latency_max_ms
        self.spread = spread
        self.centers: List[Coordinate] = self._place_centers()
        self._positions: Dict[Address, Coordinate] = {}
        self._clusters: Dict[Address, int] = {}

    def _place_centers(self) -> List[Coordinate]:
        """Spread cluster centres on a circle inside the unit square."""
        centers: List[Coordinate] = []
        for i in range(self.num_clusters):
            angle = 2.0 * math.pi * i / self.num_clusters
            jitter_x = self._rng.uniform(-0.03, 0.03)
            jitter_y = self._rng.uniform(-0.03, 0.03)
            x = 0.5 + 0.38 * math.cos(angle) + jitter_x
            y = 0.5 + 0.38 * math.sin(angle) + jitter_y
            centers.append((min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)))
        return centers

    def register(self, address: Address, cluster_hint: Optional[int] = None) -> None:
        if address in self._positions:
            raise TopologyError(f"address {address} already registered")
        if cluster_hint is not None and not 0 <= cluster_hint < self.num_clusters:
            raise TopologyError(f"cluster hint {cluster_hint} out of range")
        cluster = cluster_hint if cluster_hint is not None else self._rng.randrange(self.num_clusters)
        self._positions[address] = self._scatter(self._rng, cluster)
        self._clusters[address] = cluster

    def _scatter(self, rng: random.Random, cluster: int) -> Coordinate:
        """A point drawn from *rng* around *cluster*'s centre, clamped to
        the unit square."""
        cx, cy = self.centers[cluster]
        x = min(max(rng.gauss(cx, self.spread), 0.0), 1.0)
        y = min(max(rng.gauss(cy, self.spread), 0.0), 1.0)
        return (x, y)

    def knows(self, address: Address) -> bool:
        return address in self._positions

    def position(self, address: Address) -> Coordinate:
        """The peer's coordinates (mainly for tests and visualisation)."""
        try:
            return self._positions[address]
        except KeyError:
            raise TopologyError(f"unknown address {address}") from None

    def cluster_of(self, address: Address) -> int:
        """The ground-truth cluster a peer was placed in.

        Landmark binning (:mod:`repro.net.landmarks`) should *recover* this;
        tests compare the two.
        """
        try:
            return self._clusters[address]
        except KeyError:
            raise TopologyError(f"unknown address {address}") from None

    def latency_at(self, pa: Coordinate, pb: Coordinate) -> float:
        """Latency between two raw coordinates (used by landmark probing)."""
        dist = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
        fraction = dist / self._MAX_DISTANCE
        return self.latency_min_ms + fraction * (self.latency_max_ms - self.latency_min_ms)

    def latency(self, a: Address, b: Address) -> float:
        if a == b:
            return 0.0
        return self.latency_at(self.position(a), self.position(b))


class UniformRandomTopology(Topology):
    """I.i.d. uniform pairwise latencies, O(1) memory.

    The latency of a pair is a deterministic hash of ``(seed, min, max)`` of
    the two addresses, so it is stable across calls without storing an
    O(n^2) matrix.  There is no locality structure by construction.
    """

    def __init__(
        self,
        seed: int,
        latency_min_ms: float = 10.0,
        latency_max_ms: float = 500.0,
    ) -> None:
        if not 0 < latency_min_ms < latency_max_ms:
            raise TopologyError(
                f"need 0 < latency_min < latency_max "
                f"(got {latency_min_ms}, {latency_max_ms})"
            )
        self._seed = seed
        self.latency_min_ms = latency_min_ms
        self.latency_max_ms = latency_max_ms
        self._registered: set = set()

    def register(self, address: Address, cluster_hint: Optional[int] = None) -> None:
        if address in self._registered:
            raise TopologyError(f"address {address} already registered")
        self._registered.add(address)

    def knows(self, address: Address) -> bool:
        return address in self._registered

    def latency(self, a: Address, b: Address) -> float:
        if a not in self._registered or b not in self._registered:
            raise TopologyError(f"unknown address in pair ({a}, {b})")
        if a == b:
            return 0.0
        low, high = (a, b) if a < b else (b, a)
        # 53 bits of hash → uniform fraction in [0, 1).
        fraction = (derive_seed(self._seed, f"lat:{low}:{high}") >> 11) / float(1 << 53)
        return self.latency_min_ms + fraction * (self.latency_max_ms - self.latency_min_ms)


class ExplicitTopology(Topology):
    """A literal symmetric latency matrix, for unit tests.

    Args:
        matrix: square matrix; ``matrix[a][b]`` is the latency a -> b.
            Must be symmetric with a zero diagonal.
    """

    def __init__(self, matrix: Sequence[Sequence[float]]) -> None:
        n = len(matrix)
        for i, row in enumerate(matrix):
            if len(row) != n:
                raise TopologyError("latency matrix must be square")
            if row[i] != 0.0:
                raise TopologyError("latency matrix diagonal must be zero")
            for j in range(n):
                if matrix[i][j] != matrix[j][i]:
                    raise TopologyError("latency matrix must be symmetric")
                if matrix[i][j] < 0:
                    raise TopologyError("latencies must be non-negative")
        self._matrix = [list(row) for row in matrix]
        self._registered: set = set()

    def register(self, address: Address, cluster_hint: Optional[int] = None) -> None:
        if address in self._registered:
            raise TopologyError(f"address {address} already registered")
        if not 0 <= address < len(self._matrix):
            raise TopologyError(
                f"address {address} outside matrix of size {len(self._matrix)}"
            )
        self._registered.add(address)

    def knows(self, address: Address) -> bool:
        return address in self._registered

    def latency(self, a: Address, b: Address) -> float:
        if a not in self._registered or b not in self._registered:
            raise TopologyError(f"unknown address in pair ({a}, {b})")
        return self._matrix[a][b]
