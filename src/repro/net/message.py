"""Message envelope.

Every unit of communication in the simulation is a :class:`Message`.  The
payload is an arbitrary dict owned by the protocol layer; the envelope only
carries addressing and correlation metadata.

``Message`` is a plain ``__slots__`` class rather than a dataclass: at
paper scale hundreds of thousands of envelopes are allocated per run, and
slots shave both per-instance memory and attribute-access time on the
delivery hot path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.types import Address


class Message:
    """One message in flight.

    Attributes:
        src: sender address.
        dst: destination address.
        kind: protocol-level message type (e.g. ``"gossip.shuffle"``).
        payload: protocol-owned content.
        sent_at: simulation time the message left the sender.
        request_id: correlation id set by the RPC layer (None for one-way):
            the sequence number an RPC reserves for its deadline.  An RPC's
            request is a ``repro.net.transport._Request``, this envelope
            plus the call's own state.
    """

    __slots__ = ("src", "dst", "kind", "payload", "sent_at", "request_id")

    def __init__(
        self,
        src: Address,
        dst: Address,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        sent_at: float = 0.0,
        request_id: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = {} if payload is None else payload
        self.sent_at = sent_at
        self.request_id = request_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        req = f", req={self.request_id}" if self.request_id is not None else ""
        return f"Message({self.src}->{self.dst} {self.kind!r} @{self.sent_at:.1f}{req})"
