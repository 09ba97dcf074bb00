"""Tests for world construction and end-to-end experiment runs."""

import pytest

from repro.cdn.flower.system import FlowerSystem
from repro.cdn.petalup.system import PetalUpSystem
from repro.cdn.squirrel.system import SquirrelSystem
from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    PROTOCOLS,
    World,
    build_world,
    run_experiment,
    run_recovery_experiment,
)
from repro.net.faults import PartitionSpec, UniformLossSpec
from repro.sim.clock import hours, minutes

TINY = ExperimentConfig.scaled(
    population=60,
    duration_hours=1.5,
    num_websites=4,
    num_active_websites=2,
    num_localities=2,
    objects_per_website=30,
)


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigError):
        build_world("gnutella", TINY)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_registered_protocol_builds_its_own_system(protocol):
    assert build_world(protocol, TINY, seed=3).system.name == protocol


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_system_reads_the_run_config(protocol):
    """The run's config is the system's one parameter object, not a copy."""
    config = TINY.replace(directory_load_limit=3, max_instances=4)
    assert build_world(protocol, config, seed=3).system.params is config


def test_build_world_flower():
    world = build_world("flower", TINY, seed=3)
    assert isinstance(world.system, FlowerSystem)
    assert len(world.system.seed_identities) == 8  # 4 websites x 2 localities
    assert world.churn.online_count == 8
    assert len(world.system.ring.members()) == 8


def test_build_world_squirrel():
    world = build_world("squirrel", TINY, seed=3)
    assert isinstance(world.system, SquirrelSystem)
    assert len(world.system.ring.members()) == 8


def test_build_world_petalup_fills_defaults():
    world = build_world("petalup", TINY, seed=3)
    assert isinstance(world.system, PetalUpSystem)
    assert world.config.directory_load_limit is not None
    assert world.config.max_instances >= 2


def test_uniform_topology_ablation_builds():
    config = TINY.replace(topology="uniform")
    world = build_world("flower", config, seed=3)
    world.run(until_ms=60_000.0)
    assert world.system.online_peers > 0


def test_run_experiment_produces_result():
    result = run_experiment("flower", TINY, seed=5)
    assert result.protocol == "flower"
    assert result.queries > 0
    assert 0.0 <= result.hit_ratio <= 1.0
    assert result.mean_lookup_latency_ms >= 0.0
    assert result.mean_transfer_ms >= 0.0
    assert result.arrivals > 0
    assert result.events_executed > 0
    assert sum(result.outcome_counts.values()) == result.queries
    assert result.extra["directories"] >= 0


def test_run_experiment_is_deterministic():
    a = run_experiment("flower", TINY, seed=11)
    b = run_experiment("flower", TINY, seed=11)
    assert a.queries == b.queries
    assert a.hit_ratio == b.hit_ratio
    assert a.mean_lookup_latency_ms == b.mean_lookup_latency_ms
    assert a.outcome_counts == b.outcome_counts
    assert a.events_executed == b.events_executed


def test_different_seeds_differ():
    a = run_experiment("flower", TINY, seed=1)
    b = run_experiment("flower", TINY, seed=2)
    assert (a.queries, a.hit_ratio) != (b.queries, b.hit_ratio)


def test_result_serialization_roundtrip():
    import json

    result = run_experiment("squirrel", TINY, seed=5)
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["protocol"] == "squirrel"
    assert payload["queries"] == result.queries
    assert payload["extra"]["ring_size"] >= 0
    assert isinstance(payload["hit_ratio_curve"], list)


def test_summary_line_contains_metrics():
    result = run_experiment("flower", TINY, seed=5)
    line = result.summary_line()
    assert "flower" in line
    assert "hit=" in line and "lookup=" in line


# --------------------------------------------- one summary for every door
def test_every_run_door_reports_the_same_standard_extra():
    """One config -- admission queues on, a fault scheduled, no open loop
    -- through the plain, recovery and chaos doors: each plane's block is
    reported by all of them, and only the door's own keys differ."""
    from repro.chaos import run_chaos
    from repro.chaos.plan import ChaosPlan

    start, heal = minutes(20), minutes(40)
    config = TINY.replace(
        duration_hours=1.0,
        directory_queue_limit=8,
        fault_schedule=(PartitionSpec(locality=0, start_ms=start, heal_ms=heal),),
    )
    plain = run_experiment("flower", config, seed=5)
    recovery, __ = run_recovery_experiment("flower", config, start, heal, seed=5)
    plan = ChaosPlan(name="none", chaos_seed=0, horizon_ms=hours(1.0))
    chaos = run_chaos("flower", config, plan, seed=5, results_dir=None).result
    standard = {
        "online_peers",
        "message_counts",
        "drop_counts",
        "directories",
        "expired_members",
        "overload",
        "fault_stats",
    }
    assert set(plain.extra) == standard
    assert set(recovery.extra) == standard | {"availability"}
    assert set(chaos.extra) == standard | {
        "chaos_plan",
        "chaos_violations",
        "auditor_stats",
    }
    # The same world ran three times: the shared blocks agree.
    for door in (recovery, chaos):
        assert {k: door.extra[k] for k in standard} == plain.extra


# ------------------------------------------------------- the sharded door
SHARDED = ExperimentConfig.scaled(
    population=96,
    duration_hours=0.25,
    num_websites=4,
    num_active_websites=2,
    num_localities=4,
    objects_per_website=30,
)


@pytest.mark.parametrize(
    "plane, overrides",
    [
        ("open-loop", dict(openloop_rate_qps=20.0)),
        ("swarming", dict(swarming=True)),
        ("bandwidth", dict(bandwidth_kbps=4000.0)),
    ],
)
def test_sharded_run_refuses_planes_it_does_not_carry(plane, overrides):
    """These planes used to be dropped without a word: the run came back
    with the plain run's numbers."""
    with pytest.raises(ConfigError, match=plane) as error:
        run_experiment("flower", SHARDED.replace(**overrides), seed=1, workers=2)
    assert "--workers 1" in str(error.value)


def test_shard_cell_holds_a_world():
    """A shard is a ``World`` like any other, so whatever takes a world --
    the invariant auditor first of all -- takes a shard's."""
    from repro.chaos.auditor import InvariantAuditor
    from repro.experiments.sharded import ShardCell, default_window_ms
    from repro.net.shardnet import ShardMap

    shard_map = ShardMap(4, SHARDED.num_localities, SHARDED.num_websites)
    config = SHARDED.replace(
        search_keywords=8, fault_schedule=(UniformLossSpec(0.01),)
    )
    cell = ShardCell(config, 1, shard_map, 2, default_window_ms(config), False)
    assert isinstance(cell.world, World)
    assert cell.world.system.search_engine is not None
    assert cell.world.churn.online_count == SHARDED.num_websites  # one locality
    InvariantAuditor(cell.world, results_dir=None)
    cell.run_to(minutes(1))
    assert cell.finalize()["totals"]["events_executed"] > 0


def test_shard_cell_widens_timeouts_by_the_bus_slack():
    """A cross-shard round trip can wait at two window barriers, so a
    cell's D-ring and transport time out ``2 * window`` later."""
    from repro.experiments.sharded import ShardCell
    from repro.net.shardnet import ShardMap

    shard_map = ShardMap(2, SHARDED.num_localities, SHARDED.num_websites)
    cell = ShardCell(SHARDED, 1, shard_map, 0, 75.0, False)
    assert cell.world.system.ring.params.rpc_timeout_ms == 1_200.0 + 2 * 75.0
    assert cell.world.network.default_timeout_ms == 1_500.0 + 2 * 75.0


def test_shard_cell_schedules_its_share_of_a_churn_surge():
    """A surge of 10 arrivals over 4 shards is 3 + 3 + 2 + 2 admissions:
    that many more events wait in each cell than without the surge."""
    from repro.experiments.sharded import ShardCell, default_window_ms
    from repro.net.shardnet import ShardMap
    from repro.workload.churn import ChurnSurgeSpec

    shard_map = ShardMap(4, SHARDED.num_localities, SHARDED.num_websites)
    surge = ChurnSurgeSpec(start_ms=minutes(5), duration_ms=minutes(30), arrivals=10)

    def pending(config, shard_id):
        cell = ShardCell(config, 1, shard_map, shard_id, default_window_ms(config), False)
        return cell.world.sim.pending_events

    surged = SHARDED.replace(fault_schedule=(surge,))
    shares = [pending(surged, shard) - pending(SHARDED, shard) for shard in range(4)]
    assert shares == [3, 3, 2, 2]
