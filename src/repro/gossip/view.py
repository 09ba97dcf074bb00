"""Age-annotated partial membership views.

Each content peer of ``petal(ws, loc)`` maintains a ``view(ws, loc)``: a set
of contacts -- addresses of other content peers of the same petal -- each
carrying an *age* (gossip rounds since the contact was last known fresh).
Ages drive Cyclon's replacement policy: the oldest contact is the one gossip
reaches out to, so dead entries are probed and evicted quickly.

The paper deliberately does **not** cap the view size ("we do not limit the
view size of a content peer and allow it to grow with the size of its
petal"); eviction of unavailable contacts bounds it naturally.  A capacity
is still supported because PetalUp-CDN's directory peers measure their load
as the number of content peers in their view and split when it exceeds a
limit (section 4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.types import Address


@dataclass
class Contact:
    """One view entry: a peer we believe is in our petal.

    Attributes:
        address: the contact's network address.
        age: gossip rounds since this entry was known fresh (0 = fresh).
    """

    address: Address
    age: int = 0


class PartialView:
    """A peer's partial view of its petal, keyed by address.

    Merge rule everywhere: when the same address appears twice, the entry
    with the *smaller* age wins (fresher information).
    """

    def __init__(self, owner: Address, capacity: Optional[int] = None) -> None:
        self.owner = owner
        self.capacity = capacity
        self._contacts: Dict[Address, Contact] = {}

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._contacts)

    def __contains__(self, address: Address) -> bool:
        return address in self._contacts

    def addresses(self) -> List[Address]:
        return list(self._contacts)

    def contacts(self) -> List[Contact]:
        return list(self._contacts.values())

    def get(self, address: Address) -> Optional[Contact]:
        return self._contacts.get(address)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._contacts) >= self.capacity

    # --------------------------------------------------------------- updates
    def add(self, contact: Contact) -> bool:
        """Insert or refresh a contact (younger age wins).

        The owner's own address is never stored.  Returns True if the view
        changed.  When at capacity, new addresses displace the oldest entry
        only if they are fresher; otherwise they are dropped.
        """
        if contact.address == self.owner:
            return False
        existing = self._contacts.get(contact.address)
        if existing is not None:
            if contact.age < existing.age:
                existing.age = contact.age
                return True
            return False
        if self.full:
            oldest = self.oldest()
            if oldest is None or oldest.age <= contact.age:
                return False
            del self._contacts[oldest.address]
        self._contacts[contact.address] = Contact(contact.address, contact.age)
        return True

    def merge(self, contacts: Iterable[Contact]) -> int:
        """Add many contacts; return how many changed the view."""
        return sum(1 for contact in contacts if self.add(contact))

    def remove(self, address: Address) -> bool:
        """Evict a contact (e.g. it was found unavailable)."""
        return self._contacts.pop(address, None) is not None

    def increase_ages(self, delta: int = 1) -> None:
        """Age every entry by *delta* (start of a gossip round)."""
        for contact in self._contacts.values():
            contact.age += delta

    def refresh(self, address: Address) -> None:
        """Reset a contact's age to 0 (we just heard from it)."""
        contact = self._contacts.get(address)
        if contact is not None:
            contact.age = 0

    # -------------------------------------------------------------- selection
    def oldest(self) -> Optional[Contact]:
        """The entry with the largest age (gossip's exchange target)."""
        if not self._contacts:
            return None
        return max(self._contacts.values(), key=lambda c: c.age)

    def sample(
        self,
        rng: random.Random,
        count: int,
        exclude: Optional[Set[Address]] = None,
    ) -> List[Contact]:
        """Up to *count* distinct contacts, uniformly, minus *exclude*."""
        pool = [
            contact
            for contact in self._contacts.values()
            if exclude is None or contact.address not in exclude
        ]
        if len(pool) <= count:
            return list(pool)
        return rng.sample(pool, count)

    def clear(self) -> None:
        self._contacts.clear()
