"""Chaos plan generation: determinism, structure, serialization."""

import dataclasses

import pytest

from repro.chaos.plan import (
    ChaosPhase,
    ChaosPlan,
    generate_plan,
    spec_from_dict,
    spec_to_dict,
)
from repro.errors import ConfigError
from repro.net.faults import (
    BurstyLossSpec,
    MassFailureSpec,
    PartitionSpec,
    SeederDeathSpec,
    UniformLossSpec,
)
from repro.sim.clock import hours
from repro.workload.churn import ChurnSurgeSpec
from repro.workload.openloop import RegionalSurge


def make_plan(chaos_seed=7, horizon_h=6.0, intensity=1.0, **kwargs):
    return generate_plan(
        chaos_seed,
        horizon_ms=hours(horizon_h),
        num_localities=3,
        num_websites=12,
        intensity=intensity,
        population=120,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_same_inputs_same_plan():
    assert make_plan() == make_plan()


def test_different_seed_different_plan():
    assert make_plan(chaos_seed=7) != make_plan(chaos_seed=8)


def test_plan_is_decoupled_from_master_seed():
    """The plan depends only on its own arguments; it never touches the
    global random module or any simulator stream."""
    import random

    random.seed(123)
    first = make_plan()
    random.seed(456)
    assert make_plan() == first


def test_plan_brackets_chaos_with_calm_phases():
    plan = make_plan()
    assert plan.phases[0].kind == "calm"
    assert plan.phases[0].start_ms == 0.0
    assert plan.phases[-1].kind == "calm"
    assert plan.phases[-1].end_ms == plan.horizon_ms


def test_partitions_heal_before_horizon():
    for seed in range(10):
        plan = make_plan(chaos_seed=seed, intensity=2.0)
        for fault in plan.faults:
            if isinstance(fault, PartitionSpec):
                assert fault.heal_ms < plan.horizon_ms


def test_at_most_one_bursty_loss_window():
    for seed in range(10):
        plan = make_plan(chaos_seed=seed, intensity=3.0)
        bursty = [f for f in plan.faults if isinstance(f, BurstyLossSpec)]
        assert len(bursty) <= 1


def test_intensity_scales_damage():
    mild = make_plan(intensity=0.5)
    harsh = make_plan(intensity=3.0)

    def mass_fraction(plan):
        fractions = [
            f.fraction for f in plan.faults if isinstance(f, MassFailureSpec)
        ]
        return max(fractions) if fractions else 0.0

    # same seed, same phase sequence: the harsher plan fails more mass
    if mass_fraction(mild) and mass_fraction(harsh):
        assert mass_fraction(harsh) > mass_fraction(mild)


def test_split_brain_phase_wipes_directories_inside_the_cut():
    """Every ``split_brain`` phase pairs one locality partition with a
    directories-only mass failure *inside* the cut window, in the *same*
    locality -- the warm-failover torture scenario of section 5.3."""
    found = 0
    for seed in range(30):
        plan = make_plan(chaos_seed=seed, horizon_h=8.0, intensity=2.0)
        for phase in plan.phases:
            if phase.kind != "split_brain":
                continue
            found += 1
            cuts = [
                f
                for f in plan.faults
                if isinstance(f, PartitionSpec) and f.start_ms == phase.start_ms
            ]
            assert len(cuts) == 1
            cut = cuts[0]
            assert cut.heal_ms < phase.end_ms  # heals while auditors watch
            wipes = [
                f
                for f in plan.faults
                if isinstance(f, MassFailureSpec)
                and f.directories_only
                and f.locality == cut.locality
                and cut.start_ms < f.at_ms < cut.heal_ms
            ]
            assert wipes, "the wipe must land inside the partition window"
            assert all(0.0 < w.fraction <= 1.0 for w in wipes)
    assert found > 0, "30 seeds at weight 1.0 must produce split_brain phases"


def of_kind(plan, kind):
    return [spec for spec in plan.faults if isinstance(spec, kind)]


def test_a_plan_is_a_timeline_plus_one_spec_list():
    names = [f.name for f in dataclasses.fields(ChaosPlan)]
    assert names == ["name", "chaos_seed", "horizon_ms", "faults", "phases"]


def test_seeder_death_is_opt_in_and_byte_compatible():
    """Without the kwargs the menu, RNG stream and serialized form are
    exactly the classic ones: no opt-in kind is ever generated."""
    for seed in range(12):
        classic = make_plan(chaos_seed=seed)
        assert classic == make_plan(chaos_seed=seed, overload=False, seeder_death=False)
        assert not of_kind(classic, (SeederDeathSpec, RegionalSurge))
        kinds = {spec["type"] for spec in classic.to_dict()["faults"]}
        assert not kinds & {"seeder_death", "regional_surge"}


def test_seeder_death_phases_produce_bounded_strikes():
    found = 0
    for seed in range(12):
        plan = make_plan(chaos_seed=seed, intensity=2.0, seeder_death=True)
        strikes = of_kind(plan, SeederDeathSpec)
        for spec in strikes:
            found += 1
            assert 0.0 <= spec.at_ms <= plan.horizon_ms
            assert spec.count >= 1
            assert spec.hot_website is None or 0 <= spec.hot_website < 12
        if strikes:
            # The strike lands inside a declared seeder_death phase.
            windows = [
                (p.start_ms, p.end_ms)
                for p in plan.phases
                if p.kind == "seeder_death"
            ]
            for spec in strikes:
                assert any(lo <= spec.at_ms <= hi for lo, hi in windows)
            # And the opted-in plan still round-trips.
            assert ChaosPlan.from_dict(plan.to_dict()) == plan
    assert found > 0, "12 seeds with the kwarg must produce seeder deaths"


def test_sustained_overload_phases_produce_one_surge_each():
    """Every ``sustained_overload`` phase is one ``RegionalSurge`` starting
    with it, in the spelling the open loop reads (-1 = everywhere / no
    website), and the opted-in plan round-trips."""
    found = 0
    for seed in range(12):
        plan = make_plan(chaos_seed=seed, intensity=2.0, overload=True)
        surges = of_kind(plan, RegionalSurge)
        starts = [p.start_ms for p in plan.phases if p.kind == "sustained_overload"]
        assert [s.start_ms for s in surges] == starts
        for surge in surges:
            found += 1
            assert surge.peak_multiplier > 1.0
            assert -1 <= surge.locality < 3 and -1 <= surge.hot_website < 12
        assert ChaosPlan.from_dict(plan.to_dict()) == plan
    assert found > 0, "12 seeds with the kwarg must produce overload surges"


def test_seeder_death_spec_validation():
    with pytest.raises(ConfigError):
        SeederDeathSpec(at_ms=-1.0, count=1)
    with pytest.raises(ConfigError):
        SeederDeathSpec(at_ms=0.0, count=0)


def test_generate_plan_validation():
    with pytest.raises(ConfigError):
        make_plan(horizon_h=-1.0)
    with pytest.raises(ConfigError):
        make_plan(intensity=0.0)
    with pytest.raises(ConfigError):
        make_plan(intensity=11.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_plan_round_trips_through_dict():
    plan = make_plan(intensity=2.0)
    assert ChaosPlan.from_dict(plan.to_dict()) == plan


def test_round_trip_is_json_compatible():
    import json

    plan = make_plan()
    assert ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan


def test_spec_registry_round_trips_every_type():
    specs = [
        PartitionSpec(locality=1, start_ms=10.0, heal_ms=20.0),
        MassFailureSpec(at_ms=5.0, fraction=0.25, directories_only=True),
        BurstyLossSpec(p_good_to_bad=0.1, p_bad_to_good=0.4),
        ChurnSurgeSpec(start_ms=0.0, duration_ms=100.0, arrivals=4, hot_website=2),
        RegionalSurge(10.0, 5.0, 3.0, 20.0, locality=1, hot_website=2),
        SeederDeathSpec(at_ms=30.0, count=3, hot_website=1),
        SeederDeathSpec(at_ms=30.0, count=1),
        UniformLossSpec(0.05),
        ChaosPhase("calm", 0.0, 50.0),
    ]
    for spec in specs:
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_unknown_spec_type_rejected():
    with pytest.raises(ConfigError):
        spec_from_dict({"type": "meteor_strike"})


def test_unknown_schema_rejected():
    """Schema 1 (side lists of surges and seeder deaths) is refused like
    any other schema this build does not write."""
    for schema in (1, 99):
        data = make_plan().to_dict()
        data["schema"] = schema
        with pytest.raises(ConfigError):
            ChaosPlan.from_dict(data)


def test_surge_validation():
    with pytest.raises(ConfigError):
        ChurnSurgeSpec(start_ms=0.0, duration_ms=0.0, arrivals=1)
    with pytest.raises(ConfigError):
        ChurnSurgeSpec(start_ms=0.0, duration_ms=10.0, arrivals=0)
    with pytest.raises(ConfigError):
        ChurnSurgeSpec(
            start_ms=0.0, duration_ms=10.0, arrivals=1,
            hot_interest_probability=1.5,
        )
