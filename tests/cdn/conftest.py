"""Shared fixtures for CDN protocol tests.

Builds small, churn-free worlds so tests control arrivals and failures
explicitly; queries are injected with ``peer.resolve_query`` rather than
waiting for the periodic query process.
"""

from itertools import islice

import pytest

from repro.cdn.flower.system import FlowerSystem
from repro.cdn.petalup.system import PetalUpSystem
from repro.cdn.squirrel.system import SquirrelSystem
from repro.experiments.config import ExperimentConfig
from repro.net.landmarks import LandmarkBinner
from repro.net.topology import ClusteredTopology
from repro.net.transport import Network
from repro.sim.clock import minutes
from repro.sim.engine import Simulator
from repro.workload.catalog import Catalog


def make_params(**overrides):
    """The config a test world's system reads (its world-shape fields are
    unused: ``CdnWorld`` builds its own catalog and topology)."""
    defaults = dict(
        gossip_period_min=10.0,  # fast gossip keeps tests short
        chord_maintenance_s=20.0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class CdnWorld:
    """Simulator + network + one CDN system, without churn."""

    def __init__(
        self,
        system_cls=FlowerSystem,
        seed=1,
        num_websites=2,
        num_localities=2,
        objects_per_website=20,
        num_active_websites=2,
        params=None,
    ):
        self.sim = Simulator(seed=seed)
        self.topology = ClusteredTopology(
            self.sim.rng("topology"), num_clusters=num_localities
        )
        self.network = Network(self.sim, self.topology, default_timeout_ms=1500.0)
        self.binner = LandmarkBinner.for_clustered(self.topology)
        self.catalog = Catalog(
            num_websites=num_websites,
            objects_per_website=objects_per_website,
            num_active_websites=num_active_websites,
        )
        self.params = params or make_params()
        self.system = system_cls(
            self.sim, self.network, self.binner, self.catalog, self.params
        )
        self.system.setup_initial_population()
        self._next_identity = len(self.system.seed_identities)

    # ----------------------------------------------------------------- peers
    def arrive(self, website=0, locality=None):
        """Bring a fresh identity online with a chosen interest/locality."""
        identity = self._next_identity
        self._next_identity += 1
        self.system.assign_website(identity, website)
        peer = self.system.peer_for(identity)
        if locality is not None:
            peer.locality = locality  # pin for deterministic petal targeting
        peer.begin_session()
        return peer

    def directory_of(self, website, locality, instance=0):
        """The peer currently holding a directory position, or None."""
        position = self.system.key_service.position_id(website, locality, instance)
        holder = self.system.ring.holder_of(position)
        if holder is None or not holder.is_active:
            return None
        return self.network.node(holder.host.address)

    # ------------------------------------------------------------------ time
    def run(self, duration_ms):
        self.sim.run(until=self.sim.now + duration_ms)

    def run_until(self, predicate, horizon_ms=minutes(30)):
        """Run until *predicate* holds, checked at every trace event: the
        run stops after the first event in which an emit finds it holding."""
        sim = self.sim
        if not predicate():  # run() would clear a stop() made before it

            def check(_event):
                if predicate():
                    sim.stop()

            sim.trace.subscribe_all(check)
            try:
                sim.run(until=sim.now + horizon_ms)
            finally:
                sim.trace.unsubscribe_all(check)
        assert predicate(), "condition not reached within horizon"

    def query(self, peer, key):
        """Inject one query and run until *its* record lands.

        Seed directory peers run periodic query processes of their own, so
        we must match on the object key (records carry no peer identity)
        rather than on "any new record".
        """
        started = self.sim.now
        before = len(self.system.metrics)

        def mine():
            return [
                r
                for r in islice(self.system.metrics.records, before, None)
                if r.object_key == tuple(key) and r.time >= started
            ]

        peer.resolve_query(key, started_at=started)
        self.run_until(lambda: bool(mine()))
        return mine()[0]


@pytest.fixture
def flower_world():
    return CdnWorld(FlowerSystem)


@pytest.fixture
def squirrel_world():
    return CdnWorld(SquirrelSystem)


@pytest.fixture
def petalup_world():
    return CdnWorld(
        PetalUpSystem,
        params=make_params(directory_load_limit=3, max_instances=4),
    )
