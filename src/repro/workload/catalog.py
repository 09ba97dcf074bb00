"""The content universe: websites and their objects.

Each supported website serves a fixed set of requestable, cacheable objects
(500 in the paper).  Objects are identified by ``(website_id, object_index)``
pairs throughout the system; URLs exist only where a protocol genuinely
hashes URLs (Squirrel's home-node placement).
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.types import ObjectKey, WebsiteId


class Catalog:
    """The universe of websites and objects.

    Args:
        num_websites: |W|, the number of supported websites.
        objects_per_website: requestable objects per website.
        num_active_websites: how many websites actually receive queries;
            peers of the remaining websites only participate in churn
            (paper: "we restrict the query generation to 6 active websites").
            Defaults to the paper's 6, clamped to the website count.
    """

    def __init__(
        self,
        num_websites: int = 100,
        objects_per_website: int = 500,
        num_active_websites: "int | None" = None,
    ) -> None:
        if num_active_websites is None:
            num_active_websites = min(6, num_websites)
        if num_websites < 1 or objects_per_website < 1:
            raise WorkloadError(
                f"catalog needs at least one website and one object "
                f"(got {num_websites}, {objects_per_website})"
            )
        if not 1 <= num_active_websites <= num_websites:
            raise WorkloadError(
                f"num_active_websites must be in [1, {num_websites}] "
                f"(got {num_active_websites})"
            )
        self.num_websites = num_websites
        self.objects_per_website = objects_per_website
        self.num_active_websites = num_active_websites

    # -------------------------------------------------------------- websites
    def websites(self) -> range:
        return range(self.num_websites)

    def is_active(self, website: WebsiteId) -> bool:
        """Whether *website* generates queries (the first n by convention)."""
        return 0 <= website < self.num_active_websites

    def validate_website(self, website: WebsiteId) -> None:
        if not 0 <= website < self.num_websites:
            raise WorkloadError(f"unknown website {website}")

    # --------------------------------------------------------------- objects
    def url(self, key: ObjectKey) -> str:
        """Canonical URL of an object (what Squirrel hashes)."""
        return f"http://ws{key[0]}.example.org/object/{key[1]}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Catalog({self.num_websites} websites x "
            f"{self.objects_per_website} objects, "
            f"{self.num_active_websites} active)"
        )
