"""Origin web servers.

Every supported website has an origin server that can always serve its own
objects -- the P2P CDN exists precisely to keep queries *away* from it.  A
query that reaches the server is a miss for the hit-ratio metric; the
server's network distance still counts for lookup latency and transfer
distance, because the object does get delivered from there.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.net.message import Message
from repro.net.transport import Network, NetworkNode
from repro.types import WebsiteId


class OriginServer(NetworkNode):
    """The authoritative server of one website."""

    #: Servers never fail in this model: fault campaigns pass them over.
    never_fails = True

    def __init__(self, network: Network, website: WebsiteId) -> None:
        super().__init__(network)
        self.website = website
        self.requests_served = 0
        #: Origin-served payload bytes -- whole objects plus chunks.  Only
        #: accounted when an object-size model is installed.
        self.bytes_served = 0
        self.sizes = None

    def handle_server_fetch(self, message: Message) -> Dict[str, Any]:
        """Serve an object (always succeeds for the server's own website)."""
        key = tuple(message.payload["key"])
        ok = key[0] == self.website
        if ok:
            self.requests_served += 1
            if self.sizes is not None:
                self.bytes_served += self.sizes.size_bytes(key)
        return {"ok": ok}

    def handle_server_chunk(self, message: Message) -> Dict[str, Any]:
        """Serve one chunk to a degraded swarming transfer.

        The downloader names the chunk's byte size (chunk geometry is a
        pure function of the shared size model, so this is bookkeeping,
        not trust).
        """
        key = tuple(message.payload["key"])
        ok = key[0] == self.website
        if ok:
            self.bytes_served += message.payload.get("size", 0)
        return {"ok": ok}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OriginServer(ws={self.website}, served={self.requests_served})"
