"""Unit tests for deterministic named RNG streams."""

from repro.sim.rng import RngRegistry, derive_seed


def test_derive_seed_is_stable():
    assert derive_seed(42, "churn") == derive_seed(42, "churn")


def test_derive_seed_differs_by_name_and_seed():
    assert derive_seed(42, "churn") != derive_seed(42, "workload")
    assert derive_seed(42, "churn") != derive_seed(43, "churn")


def test_same_name_returns_same_stream_object():
    registry = RngRegistry(1)
    assert registry.stream("a") is registry.stream("a")


def test_streams_reproducible_across_registries():
    seq_a = [RngRegistry(7).stream("x").random() for _ in range(1)]
    seq_b = [RngRegistry(7).stream("x").random() for _ in range(1)]
    assert seq_a == seq_b


def test_streams_independent():
    registry = RngRegistry(7)
    a = registry.stream("a")
    b = registry.stream("b")
    seq_a = [a.random() for _ in range(10)]
    seq_b = [b.random() for _ in range(10)]
    assert seq_a != seq_b


def test_consuming_one_stream_does_not_perturb_another():
    clean = RngRegistry(7)
    expected = [clean.stream("b").random() for _ in range(5)]

    mixed = RngRegistry(7)
    mixed.stream("a").random()  # interleaved use of another stream
    got_first = mixed.stream("b").random()
    mixed.stream("a").random()
    got_rest = [mixed.stream("b").random() for _ in range(4)]
    assert [got_first] + got_rest == expected

