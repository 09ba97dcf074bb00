"""Unit and integration tests for the open-loop arrival process."""

import math

import pytest

from repro.errors import WorkloadError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_world
from repro.net.faults import MassFailureSpec
from repro.sim.clock import hours, minutes
from repro.workload.openloop import ArrivalProfile, OpenLoopWorkload, RegionalSurge


def make_surge(**overrides):
    defaults = dict(
        start_ms=hours(1),
        ramp_ms=minutes(10),
        peak_multiplier=3.0,
        decay_ms=minutes(30),
    )
    defaults.update(overrides)
    return RegionalSurge(**defaults)


class TestRegionalSurge:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            make_surge(peak_multiplier=0.5)
        with pytest.raises(WorkloadError):
            make_surge(ramp_ms=0)
        with pytest.raises(WorkloadError):
            make_surge(decay_ms=0)
        with pytest.raises(WorkloadError):
            make_surge(hot_probability=1.5)

    def test_intensity_shape(self):
        surge = make_surge()
        # Quiet before the start, linear ramp, exponential decay.
        assert surge.intensity(0.0) == 1.0
        assert surge.intensity(hours(1) - 1) == 1.0
        assert surge.intensity(hours(1) + minutes(5)) == pytest.approx(2.0)
        peak_time = hours(1) + minutes(10)
        assert surge.intensity(peak_time) == pytest.approx(3.0)
        assert surge.intensity(
            peak_time + minutes(30)
        ) == pytest.approx(3.0 * math.exp(-1.0))

    def test_intensity_floors_at_one(self):
        surge = make_surge()
        assert surge.intensity(hours(100)) == 1.0
        assert surge.excess(hours(100)) == 0.0

    def test_tuple_round_trip(self):
        surge = make_surge(locality=1, hot_website=4, hot_probability=0.5)
        assert RegionalSurge.from_tuple(surge.as_tuple()) == surge


class TestArrivalProfile:
    def test_from_config_is_none_at_rate_zero(self):
        config = ExperimentConfig.scaled(population=40)
        assert config.openloop_rate_qps == 0.0
        assert ArrivalProfile.from_config(config) is None

    def test_from_config_parses_surge_tuples(self):
        config = ExperimentConfig.scaled(
            population=40,
            openloop_rate_qps=5.0,
            openloop_surges=(
                (hours(1), minutes(10), 3.0, minutes(30), 0, 2, 0.8),
            ),
        )
        profile = ArrivalProfile.from_config(config)
        assert profile.rate_qps == 5.0
        (surge,) = profile.surges
        assert surge.locality == 0
        assert surge.hot_website == 2
        assert surge.hot_probability == 0.8

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ArrivalProfile(rate_qps=0.0)
        with pytest.raises(WorkloadError):
            ArrivalProfile(rate_qps=1.0, diurnal_amplitude=1.0)

    def test_multiplier_composes_diurnal_and_surge_excess(self):
        surge = make_surge()
        profile = ArrivalProfile(
            rate_qps=10.0,
            diurnal_amplitude=0.5,
            surges=(surge,),
        )
        # Quarter period: diurnal at its crest.  The surge *adds* its
        # excess, intensity minus one, on top of the diurnal factor (the
        # open loop sums the two per candidate).
        assert profile.diurnal(hours(6)) == pytest.approx(1.5)
        peak = surge.start_ms + surge.ramp_ms
        for t in (hours(6), peak):
            assert surge.excess(t) == pytest.approx(surge.intensity(t) - 1.0)
        assert surge.excess(peak) > 0.0

    def test_flat_profile_multiplier_is_one(self):
        profile = ArrivalProfile(rate_qps=2.0)
        assert profile.diurnal(hours(3)) == 1.0 and profile.surges == ()


OPENLOOP_CONFIG = ExperimentConfig.scaled(
    population=60,
    duration_hours=1.0,
    num_websites=4,
    num_active_websites=2,
    num_localities=2,
    objects_per_website=30,
    openloop_rate_qps=5.0,
)


class TestOpenLoopWorkload:
    def test_not_constructed_at_rate_zero(self):
        world = build_world(
            "flower", OPENLOOP_CONFIG.replace(openloop_rate_qps=0.0), seed=3
        )
        assert world.openloop is None

    def test_issues_queries_through_the_ledger(self):
        world = build_world("flower", OPENLOOP_CONFIG, seed=3)
        assert isinstance(world.openloop, OpenLoopWorkload)
        world.run()
        stats = world.openloop.stats
        assert stats["issued"] > 0
        assert stats["arrivals"] >= stats["issued"]
        # Every open-loop query terminated through the normal outcome
        # taxonomy; none is still open at the horizon.
        assert len(world.system.metrics) >= stats["issued"]
        leftover = sum(
            len(peer._open_queries) for peer in world.system.peers.values()
        )
        assert leftover == 0

    def test_add_surge_raises_the_thinning_peak(self):
        world = build_world("flower", OPENLOOP_CONFIG, seed=3)
        workload = world.openloop
        before = workload._peak
        workload.add_surge(make_surge(peak_multiplier=4.0))
        assert workload._peak == pytest.approx(before + 3.0)

    def test_deterministic_across_reruns(self):
        def stats_of():
            world = build_world("flower", OPENLOOP_CONFIG, seed=9)
            world.run()
            return dict(world.openloop.stats), world.system.metrics.hit_ratio()

        assert stats_of() == stats_of()


class TestEligibleListCache:
    """The cached eligible lists equal a fresh population scan -- same
    peer objects in the same order -- at every single arrival."""

    CONFIG = ExperimentConfig.scaled(
        population=60,
        duration_hours=1.0,
        num_websites=4,
        num_active_websites=2,
        num_localities=2,
        objects_per_website=30,
        openloop_rate_qps=4.0,
        # One crowd scoped to a locality, one also to a hot website.
        openloop_surges=(
            (minutes(10), minutes(5), 3.0, minutes(30), 0, -1, 0.9),
            (minutes(20), minutes(5), 2.0, minutes(30), 1, 0, 0.5),
        ),
        # Crashes through FaultController -> node.crash(), not the churn
        # hooks: the epoch must be bumped where ``alive`` is written.
        fault_schedule=(MassFailureSpec(at_ms=minutes(30), fraction=0.5),),
    )

    def test_cache_matches_a_fresh_scan_at_every_arrival(self):
        checked = {"arrivals": 0, "surge": 0, "rebuilds": 0}
        scopes = set()

        class Checking(OpenLoopWorkload):
            def _eligible_peers(self, surge):
                before = self._eligible_epoch
                peers = super()._eligible_peers(surge)
                checked["rebuilds"] += self._eligible_epoch != before
                fresh = self._scan_eligible()
                cached = self._eligible
                assert len(cached) == len(fresh)
                assert all(a is b for a, b in zip(cached, fresh))
                scopes.update(self._eligible_scoped)
                for (locality, website), sub in self._eligible_scoped.items():
                    expected = [
                        peer
                        for peer in fresh
                        if (locality < 0 or peer.locality == locality)
                        and (website < 0 or peer.website == website)
                    ]
                    assert len(sub) == len(expected)
                    assert all(a is b for a, b in zip(sub, expected))
                checked["arrivals"] += 1
                checked["surge"] += surge is not None
                return peers

        world = build_world("petalup", self.CONFIG, seed=5)
        world.openloop.__class__ = Checking
        online = []
        world.sim.schedule_at(
            minutes(30) - 1.0, lambda: online.append(world.system.online_peers)
        )
        world.sim.schedule_at(
            minutes(30) + 1.0, lambda: online.append(world.system.online_peers)
        )
        world.run()
        assert checked["arrivals"] == world.openloop.stats["arrivals"] > 1000
        assert checked["surge"] == world.openloop.stats["surge_arrivals"] > 100
        assert {(0, -1), (1, -1), (1, 0)} <= scopes  # locality and hot sub-lists
        assert world.churn.arrivals > 0 and world.churn.departures > 0
        assert online[1] < 0.7 * online[0]  # the mass failure hit
        # The point of the cache: far fewer scans than arrivals.
        assert 0 < checked["rebuilds"] < checked["arrivals"] / 10

    def test_liveness_epoch_counts_every_write_of_alive(self):
        world = build_world("petalup", self.CONFIG, seed=5)
        network = world.network
        peer = next(iter(world.system.peers.values()))
        epoch = network.liveness_epoch
        peer.fail()
        assert network.liveness_epoch == epoch + 1
        peer.revive()
        assert network.liveness_epoch == epoch + 2
        world.system.peer_for(10_000)  # a new identity registers a node
        assert network.liveness_epoch > epoch + 2
