"""PetalUp-CDN system class.

The protocol mechanics (instance scan, load-triggered splits, view handoff)
are implemented on :class:`~repro.cdn.flower.peer.FlowerPeer`; PetalUp-CDN
is the configuration that activates them.
"""

from __future__ import annotations

from repro.cdn.flower.system import FlowerSystem
from repro.errors import CDNError

#: The paper observes petals "never surpass 30" peers at the simulated
#: scales; PetalUp's default load limit splits a directory at that size.
DEFAULT_LOAD_LIMIT = 30

#: Default cap on instances per petal (the paper's 2**m).
DEFAULT_MAX_INSTANCES = 8


class PetalUpSystem(FlowerSystem):
    """Flower-CDN with elastic, load-split directory instances."""

    name = "petalup"

    def __init__(self, sim, network, binner, catalog, params, metrics=None):
        if params.max_instances < 2 or params.directory_load_limit is None:
            raise CDNError(
                "PetalUpSystem requires max_instances >= 2 and a finite "
                "directory_load_limit (build_world fills in the defaults)"
            )
        super().__init__(sim, network, binner, catalog, params, metrics)

    # ------------------------------------------------------------- reports
    def instance_count(self, website: int, locality: int) -> int:
        """How many directory instances currently serve one petal.

        O(instances) via the live directory registry the base system
        maintains at every role transition -- callers poll this inside
        simulation loops, where the previous full population scan was the
        dominant cost.
        """
        count = 0
        for peer in self.directory_instances(website, locality).values():
            d = peer.directory
            if (
                peer.alive
                and d is not None
                and d.website == website
                and d.locality == locality
            ):
                count += 1
        return count
