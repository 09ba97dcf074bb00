"""Serving chunked swarming transfers (:mod:`repro.cdn.swarm`; inert
unless ``params.swarming``) -- a :class:`~repro.cdn.flower.peer.FlowerPeer`
mixin.

A peer that holds a whole object, or partial chunk replicas placed on it
by a full-object holder, names its chunks (``swarm.manifest``) and agrees
to upload them (``swarm.chunk``); after caching a chunked object it
places k chunk replicas on petal-mates (``swarm.place``).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.net.message import Message
from repro.types import ObjectKey

#: Bound on the per-peer partial chunk-replica map: at most this many
#: distinct keys, FIFO-evicted.
SWARM_HOLDINGS_LIMIT = 32


class SwarmHolder:
    """Chunk serving and placement of
    :class:`~repro.cdn.flower.peer.FlowerPeer`; all state lives on the
    peer."""

    def handle_swarm_manifest(self, message: Message) -> Dict[str, Any]:
        """Name the chunks we hold plus other holders we know of."""
        sizes = self.system.sizes
        key = tuple(message.payload["key"])
        if key in self.store:
            have = list(range(sizes.chunk_count(key)))
        else:
            held = self.chunk_holdings.get(key)
            have = sorted(held) if held else []
        if not have:
            return {"ok": False}
        reply: Dict[str, Any] = {"ok": True, "have": have}
        hints = self._swarm_hints.get(key)
        if hints:
            reply["also"] = [a for a in hints if a != message.src]
        return reply

    def handle_swarm_chunk(self, message: Message) -> Dict[str, Any]:
        """Agree to upload one chunk (payload timing is the caller's flow)."""
        sizes = self.system.sizes
        key = tuple(message.payload["key"])
        chunk = message.payload["chunk"]
        if not 0 <= chunk < sizes.chunk_count(key):
            return {"ok": False}
        held = key in self.store or chunk in self.chunk_holdings.get(key, ())
        if not held:
            return {"ok": False}
        self.bytes_uploaded += sizes.chunk_size(key, chunk)
        return {"ok": True}

    def handle_swarm_place(self, message: Message) -> None:
        """Accept a chunk-replica placement from a full-object holder."""
        sizes = self.system.sizes
        key = tuple(message.payload["key"])
        if key in self.store:
            return  # already a full holder; partial state would be noise
        held = self.chunk_holdings.get(key)
        if held is None:
            if len(self.chunk_holdings) >= SWARM_HOLDINGS_LIMIT:
                evicted = next(iter(self.chunk_holdings))
                del self.chunk_holdings[evicted]
                self._swarm_hints.pop(evicted, None)
            held = self.chunk_holdings[key] = set()
        count = sizes.chunk_count(key)
        held.update(i for i in message.payload["chunks"] if 0 <= i < count)
        # The placer has the whole object: remember it as a holder hint.
        hints = self._swarm_hints.setdefault(key, [])
        if message.src not in hints and len(hints) < self.system.params.swarm_sources:
            hints.append(message.src)
        return

    def _maybe_place_chunks(self, key: ObjectKey) -> None:
        """After caching a chunked object, place k chunk replicas.

        Round-robin slices to the first k live view contacts (sorted, so
        the spread is deterministic); the recipients become the ``also``
        hints of our future manifest replies.
        """
        params = self.system.params
        sizes = self.system.sizes
        if not params.swarming or params.swarm_replicate < 1 or sizes is None:
            return
        if key in self._placed or key not in self.store:
            return
        count = sizes.chunk_count(key)
        if count < 2:
            return
        contacts = sorted(a for a in self.view.addresses() if a != self.address)
        if not contacts:
            return
        k = min(params.swarm_replicate, len(contacts))
        targets = contacts[:k]
        self._placed.add(key)
        hints = self._swarm_hints.setdefault(key, [])
        for j, target in enumerate(targets):
            chunks = [i for i in range(count) if i % k == j]
            self.send(target, "swarm.place", key=key, chunks=chunks)
            if target not in hints and len(hints) < params.swarm_sources:
                hints.append(target)
