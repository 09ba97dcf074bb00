"""Per-peer content storage with push-threshold change tracking.

"A peer only stores content it has requested" and "has enough storage
potential to avoid replacing its content through the experiment's duration"
(paper section 6.1) -- so by default the store is a grow-only set of object
keys, kept across sessions (the same user's browser cache survives a
crash).

The paper explicitly scopes out "cache issues such as cache expiration and
replacement policies" (footnote 1); as an extension this store also
supports a **bounded LRU cache** (``capacity=N``): adding beyond the
capacity evicts the least-recently-used objects, evictions count as changes
for the push threshold (the directory must unlearn them), and the ablation
benchmark measures what finite caches cost the system.

The store also implements the bookkeeping behind push messages: a content
peer pushes "updates about its stored content to its directory peer ...
whenever the percentage of its changes reaches a threshold" (section 5.1,
push threshold 0.5 in Table 1).  The percentage is changes-since-last-push
relative to the size the directory last saw.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Optional, Set

from repro.errors import CDNError
from repro.types import ObjectKey


class ContentStore:
    """A peer's cached objects plus push-threshold accounting.

    Args:
        initial: keys present from the start.
        capacity: maximum number of objects; ``None`` (the paper's
            assumption) means unbounded.  With a capacity, insertion beyond
            it evicts least-recently-used keys.
    """

    def __init__(
        self,
        initial: Iterable[ObjectKey] = (),
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise CDNError("cache capacity must be >= 1 or None")
        self.capacity = capacity
        self._keys: "OrderedDict[ObjectKey, None]" = OrderedDict(
            (key, None) for key in initial
        )
        while capacity is not None and len(self._keys) > capacity:
            self._keys.popitem(last=False)
        self._size_at_last_push = 0
        self._changes_since_push = len(self._keys)
        self.evictions = 0

    # --------------------------------------------------------------- content
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: ObjectKey) -> bool:
        return key in self._keys

    def add_with_evictions(self, key: ObjectKey) -> "tuple[bool, List[ObjectKey]]":
        """Store *key*; return (was_new, evicted_keys)."""
        if key in self._keys:
            self._keys.move_to_end(key)  # refresh recency
            return False, []
        self._keys[key] = None
        self._changes_since_push += 1
        evicted: List[ObjectKey] = []
        while self.capacity is not None and len(self._keys) > self.capacity:
            victim, __ = self._keys.popitem(last=False)
            evicted.append(victim)
            self.evictions += 1
            self._changes_since_push += 1  # the directory must unlearn it
        return True, evicted

    def touch(self, key: ObjectKey) -> None:
        """Mark *key* as recently used (a local cache hit)."""
        if key in self._keys:
            self._keys.move_to_end(key)

    def keys(self) -> Set[ObjectKey]:
        """A copy of the stored key set."""
        return set(self._keys)

    def held_indexes(self, website: int) -> Set[int]:
        """Object indexes held for one website (seeds a re-joining peer's
        query stream: it never re-requests what it already has)."""
        return {index for ws, index in self._keys if ws == website}

    # ------------------------------------------------------------------ push
    def change_fraction(self) -> float:
        """Changes since last push relative to the last-pushed size.

        A peer that has never pushed anything (size 0) reports 1.0 as soon
        as it holds anything, so the first object always triggers a push.
        """
        if self._changes_since_push == 0:
            return 0.0
        return self._changes_since_push / max(1, self._size_at_last_push)

    def should_push(self, threshold: float) -> bool:
        """True when the accumulated changes warrant a push exchange."""
        return self.change_fraction() >= threshold

    def mark_pushed(self) -> None:
        """Reset change tracking after a successful push."""
        self._size_at_last_push = len(self._keys)
        self._changes_since_push = 0

    def reset_push_state(self) -> None:
        """Forget that anything was ever pushed.

        Called when the peer (re-)registers with a directory peer: the new
        directory has never seen this cache, so the whole content counts as
        unpushed changes and the next threshold check fires immediately.
        """
        self._size_at_last_push = 0
        self._changes_since_push = len(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContentStore({len(self._keys)} keys, "
            f"{self._changes_since_push} unpushed)"
        )
