"""m-bit circular identifier space arithmetic.

All Chord correctness hinges on getting modular interval membership right,
including full-circle wrap-around and the degenerate ``a == b`` case, so the
logic lives here in one place with exhaustive property tests.
"""

from __future__ import annotations

import hashlib

from repro.errors import DHTError
from repro.types import ChordId


class IdSpace:
    """The identifier circle of size ``2**bits``."""

    def __init__(self, bits: int = 32) -> None:
        if not 1 <= bits <= 160:
            raise DHTError(f"bits must be in [1, 160] (got {bits})")
        self.bits = bits
        self.size = 1 << bits

    def contains(self, value: int) -> bool:
        """True if *value* is a valid identifier."""
        return 0 <= value < self.size

    def hash_value(self, key: str) -> ChordId:
        """Consistent hash of an arbitrary string key onto the circle."""
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        return int.from_bytes(digest, "big") % self.size

    def add(self, a: ChordId, delta: int) -> ChordId:
        """``(a + delta) mod 2**bits`` (delta may be negative)."""
        return (a + delta) % self.size

    def finger_start(self, node_id: ChordId, index: int) -> ChordId:
        """Start of finger *index* (0-based): ``node + 2**index``."""
        if not 0 <= index < self.bits:
            raise DHTError(f"finger index {index} outside [0, {self.bits})")
        return (node_id + (1 << index)) % self.size

    def distance(self, a: ChordId, b: ChordId) -> int:
        """Clockwise distance travelled going from *a* to *b*."""
        return (b - a) % self.size

    def in_open(self, x: ChordId, a: ChordId, b: ChordId) -> bool:
        """x in (a, b) going clockwise.

        When ``a == b`` the interval is the whole circle minus the endpoint,
        which is the convention Chord's proofs rely on (a single-node ring is
        its own successor for every other key).
        """
        if a == b:
            return x != a
        if a < b:
            return a < x < b
        return x > a or x < b

    def in_half_open_right(self, x: ChordId, a: ChordId, b: ChordId) -> bool:
        """x in (a, b] going clockwise (successor test)."""
        if a == b:
            return True  # single node owns the whole circle
        return self.in_open(x, a, b) or x == b
