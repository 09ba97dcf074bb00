"""Keyword search within petals (the paper's future work, section 7).

The paper closes with: "In the future, we plan to explore sophisticated
search functionalities wrt. semantic and personalized search."  This module
implements the natural first step on top of Flower-CDN's existing
machinery: *keyword* search resolved by the petal's directory peer.

Model: every object carries a small deterministic set of keywords (standing
in for extracted content terms).  A directory peer already knows which
member holds which object (the directory-index); inverting it by keyword
answers "who in my petal has anything about K?" with zero extra protocol
state -- the index keeps itself fresh through the usual push/expiry
maintenance, so search inherits Flower-CDN's churn robustness for free.

With warm directory failover enabled (section 5.3, ``directory_replication_k > 0``)
search additionally inherits the *replicated* directory-index that rides
the versioned sync channel: when the directory is suspect or a search times
out, the content peer retries against the replica holders it learned from
its directory (the heir plus the k D-ring successors), accepting answers
only while their staleness stays under
:func:`~repro.cdn.flower.search_client.staleness_bound_ms`.

Usage::

    system.search_engine = KeywordSearchEngine(KeywordSpace(num_keywords=50))
    peer.search("kw7", on_results)   # content peers ask their directory;
                                     # directory peers answer locally
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import CDNError
from repro.sim.process import PeriodicProcess
from repro.types import Address, ObjectKey

#: One search result: (object key, address of a provider).
SearchMatch = Tuple[ObjectKey, Address]

SearchCallback = Callable[[List[SearchMatch]], None]

#: Bound on the memoized object -> keywords mapping (entries, LRU evicted).
#: Far above any catalog the experiments build, so in practice the cache
#: converges to "compute each object's digest exactly once per space".
_KEYWORD_CACHE_SIZE = 65536


class KeywordSpace:
    """Deterministic object -> keywords mapping.

    Stands in for real content-derived terms: every object gets between
    ``min_keywords`` and ``max_keywords`` keywords chosen by hashing, so all
    peers agree on the mapping without exchanging metadata.
    """

    def __init__(
        self,
        num_keywords: int = 50,
        min_keywords: int = 1,
        max_keywords: int = 3,
    ) -> None:
        if num_keywords < 1:
            raise CDNError("need at least one keyword")
        if not 1 <= min_keywords <= max_keywords:
            raise CDNError("need 1 <= min_keywords <= max_keywords")
        self.num_keywords = num_keywords
        self.min_keywords = min_keywords
        self.max_keywords = max_keywords
        #: sha256 per lookup is measurable on the query/search hot path;
        #: the mapping is immutable, so memoize it.  ``frozenset`` keeps
        #: cached values safe to share across callers.
        self._cache: "OrderedDict[ObjectKey, FrozenSet[str]]" = OrderedDict()
        self._cache_capacity = _KEYWORD_CACHE_SIZE

    def all_keywords(self) -> List[str]:
        """Every keyword in the space."""
        return [f"kw{i}" for i in range(self.num_keywords)]

    def keywords_of(self, key: ObjectKey) -> FrozenSet[str]:
        """The object's keywords (deterministic, stable everywhere)."""
        cache = self._cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return cached
        digest = hashlib.sha256(f"kw:{key[0]}:{key[1]}".encode()).digest()
        count = self.min_keywords + digest[0] % (
            self.max_keywords - self.min_keywords + 1
        )
        chosen = set()
        position = 1
        while len(chosen) < count:
            chunk = digest[position: position + 2]
            if len(chunk) < 2:  # pragma: no cover - 32-byte digest suffices
                break
            chosen.add(f"kw{int.from_bytes(chunk, 'big') % self.num_keywords}")
            position += 2
        result = frozenset(chosen)
        cache[key] = result
        if len(cache) > self._cache_capacity:
            cache.popitem(last=False)
        return result

    def matches(self, key: ObjectKey, keyword: str) -> bool:
        """Does *key* carry *keyword*?"""
        return keyword in self.keywords_of(key)


class KeywordSearchEngine:
    """Directory-side keyword resolution over the directory-index."""

    def __init__(self, space: KeywordSpace, max_results: int = 20) -> None:
        if max_results < 1:
            raise CDNError("max_results must be positive")
        self.space = space
        self.max_results = max_results

    def search_index(
        self,
        index: Dict[ObjectKey, Set[Address]],
        own_store_keys: Set[ObjectKey],
        own_address: Address,
        keyword: str,
    ) -> List[SearchMatch]:
        """All (object, provider) pairs in a petal matching *keyword*.

        Providers come from the directory-index; the directory's own cache
        participates too (it is a content peer of its petal).
        """
        matches: List[SearchMatch] = []
        for key, providers in index.items():
            if providers and self.space.matches(key, keyword):
                matches.append((key, next(iter(sorted(providers)))))
                if len(matches) >= self.max_results:
                    return matches
        for key in sorted(own_store_keys):
            if self.space.matches(key, keyword) and all(
                key != k for k, __ in matches
            ):
                matches.append((key, own_address))
                if len(matches) >= self.max_results:
                    break
        return matches


class SearchProbeWorkload:
    """Periodic keyword searches from random petal members.

    Drives the availability experiments: each tick, one eligible peer
    (in a petal now, or orphaned from one -- those must count toward an
    outage, not silently drop out of the denominator) issues a search for
    a random keyword.  Results are observed through the
    ``flower.search_done`` trace event, not collected here.

    Draws come from a dedicated RNG stream so enabling probes never
    perturbs the protocol's own random sequences.
    """

    def __init__(
        self,
        sim,
        system,
        period_ms: float,
        rng,
        localities: Optional[Sequence[int]] = None,
        websites: Optional[Sequence[int]] = None,
    ) -> None:
        self.sim = sim
        self.system = system
        self.rng = rng
        self.localities = None if localities is None else frozenset(localities)
        self.websites = None if websites is None else frozenset(websites)
        self.issued = 0
        self.process = PeriodicProcess(
            sim, period_ms, self._tick, initial_delay=rng.uniform(0.0, period_ms)
        )

    def _candidates(self) -> list:
        peers = [
            peer
            for peer in self.system.peers.values()
            if getattr(peer, "search_probe_target", False)
            and (self.localities is None or peer.locality in self.localities)
            and (self.websites is None or peer.website in self.websites)
        ]
        peers.sort(key=lambda peer: peer.address)
        return peers

    def _tick(self) -> None:
        engine = self.system.search_engine
        if engine is None:
            return
        peers = self._candidates()
        if not peers:
            return
        peer = peers[self.rng.randrange(len(peers))]
        keyword = f"kw{self.rng.randrange(engine.space.num_keywords)}"
        self.issued += 1
        peer.search(keyword, _discard_results)


def _discard_results(matches: List[SearchMatch]) -> None:
    """Probe sink: outcomes are accounted via ``flower.search_done``."""


class SearchAvailabilityTracker:
    """Windowed availability statistics over ``flower.search_done`` events.

    ``unregistered`` completions (peers that never joined a petal) are
    excluded from the denominator; every other source counts as issued,
    and everything except ``none`` counts as answered.
    """

    ANSWERED = frozenset({"local", "directory", "replica", "takeover"})

    def __init__(self, sim) -> None:
        self._events: List[Tuple[float, str, float]] = []
        sim.trace.subscribe("flower.search_done", self._on_done)

    def _on_done(self, event) -> None:
        payload = event.payload
        self._events.append(
            (event.time, payload["source"], payload["staleness_ms"])
        )

    def window_stats(
        self, start_ms: float = 0.0, end_ms: float = float("inf")
    ) -> dict:
        issued = answered = replica_served = 0
        max_stale = 0.0
        by_source: Dict[str, int] = {}
        for time, source, staleness_ms in self._events:
            if not start_ms <= time < end_ms or source == "unregistered":
                continue
            issued += 1
            by_source[source] = by_source.get(source, 0) + 1
            if source in self.ANSWERED:
                answered += 1
            if source == "replica":
                replica_served += 1
                if staleness_ms > max_stale:
                    max_stale = staleness_ms
        return {
            "issued": issued,
            "answered": answered,
            "availability": answered / issued if issued else 1.0,
            "replica_served": replica_served,
            "max_replica_staleness_ms": max_stale,
            "by_source": dict(sorted(by_source.items())),
        }
