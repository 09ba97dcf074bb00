"""Unit and statistical tests for the churn model."""

import pytest

from repro.errors import WorkloadError
from repro.sim.clock import hours, minutes
from repro.sim.engine import Simulator
from repro.workload.churn import ChurnModel


def make_model(sim, population=50, pool_factor=1.3, mean_uptime_min=60,
               on_arrival=None, on_departure=None):
    return ChurnModel(
        sim,
        sim.rng("churn"),
        num_identities=int(population * pool_factor),
        mean_uptime_ms=minutes(mean_uptime_min),
        target_population=population,
        on_arrival=on_arrival or (lambda identity: None),
        on_departure=on_departure or (lambda identity: None),
    )


def test_validation():
    sim = Simulator()
    noop = lambda identity: None
    with pytest.raises(WorkloadError):
        ChurnModel(sim, sim.rng("c"), 0, 1000.0, 1, noop, noop)
    with pytest.raises(WorkloadError):
        ChurnModel(sim, sim.rng("c"), 10, 0.0, 1, noop, noop)
    with pytest.raises(WorkloadError):
        ChurnModel(sim, sim.rng("c"), 10, 1000.0, 0, noop, noop)
    with pytest.raises(WorkloadError):
        ChurnModel(sim, sim.rng("c"), 10, 1000.0, 11, noop, noop)


def test_mean_interarrival_is_m_over_p():
    sim = Simulator()
    model = make_model(sim, population=100, mean_uptime_min=60)
    assert model.mean_interarrival_ms == minutes(60) / 100


def test_seed_online():
    sim = Simulator(seed=1)
    model = make_model(sim)
    model.seed_online(3)
    assert 3 in model._online
    assert model.online_count == 1


def test_seed_online_twice_rejected():
    sim = Simulator(seed=1)
    model = make_model(sim)
    model.seed_online(3)
    with pytest.raises(WorkloadError):
        model.seed_online(3)


def test_seed_unknown_identity_rejected():
    sim = Simulator(seed=1)
    model = make_model(sim, population=10, pool_factor=1.0)
    with pytest.raises(WorkloadError):
        model.seed_online(99)


def test_seeded_identity_eventually_departs():
    sim = Simulator(seed=2)
    departures = []
    model = make_model(sim, on_departure=departures.append)
    model.seed_online(0)
    sim.run(until=hours(24))
    assert departures and departures[0] == 0 or 0 in departures


def test_arrivals_and_departures_fire_callbacks():
    sim = Simulator(seed=3)
    arrived, departed = [], []
    model = make_model(
        sim, population=20, on_arrival=arrived.append, on_departure=departed.append
    )
    model.start()
    sim.run(until=hours(6))
    assert len(arrived) > 20           # plenty of sessions in 6 h at m=1 h
    assert len(departed) > 10
    assert model.arrivals == len(arrived)
    assert model.departures == len(departed)


def test_start_idempotent():
    sim = Simulator(seed=3)
    model = make_model(sim, population=5)
    model.start()
    model.start()
    sim.run(until=hours(1))
    # only one arrival process: arrival count is plausible for rate P/m
    assert model.arrivals < 30


def test_population_converges_to_target():
    """Mean online population over the steady state must approach P."""
    sim = Simulator(seed=5)
    population = 80
    model = make_model(sim, population=population)
    model.start()
    sim.run(until=hours(6))  # warm up
    samples = []
    for __ in range(48):
        sim.run(until=sim.now + minutes(15))
        samples.append(model.online_count)
    mean_online = sum(samples) / len(samples)
    assert 0.75 * population <= mean_online <= 1.25 * population


def test_identities_rejoin_with_new_sessions():
    sim = Simulator(seed=7)
    sessions = {}
    model = make_model(
        sim,
        population=10,
        on_arrival=lambda identity: sessions.setdefault(identity, 0),
    )

    def count_arrival(identity):
        sessions[identity] = sessions.get(identity, 0) + 1

    model.on_arrival = count_arrival
    model.start()
    sim.run(until=hours(24))
    assert any(count >= 2 for count in sessions.values())


def test_uptime_draws_are_exponential_mean():
    sim = Simulator(seed=9)
    model = make_model(sim, mean_uptime_min=60)
    draws = [model.draw_uptime_ms() for __ in range(4000)]
    mean = sum(draws) / len(draws)
    assert 0.9 * minutes(60) < mean < 1.1 * minutes(60)


def test_departed_identity_goes_back_to_pool():
    sim = Simulator(seed=11)
    model = make_model(sim, population=5, pool_factor=1.0)
    model.seed_online(0)
    sim.run(until=hours(24))
    if 0 not in model._online:
        assert model.online_count <= 5
