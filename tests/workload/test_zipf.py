"""Unit and statistical tests for the Zipf sampler."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.zipf import ZipfSampler


def test_validation():
    with pytest.raises(WorkloadError):
        ZipfSampler(0)
    with pytest.raises(WorkloadError):
        ZipfSampler(10, exponent=-0.1)


def test_probabilities_sum_to_one():
    sampler = ZipfSampler(100, 0.8)
    total = sum(sampler.probability(rank) for rank in range(100))
    assert abs(total - 1.0) < 1e-9


def test_probability_rank_bounds():
    sampler = ZipfSampler(10)
    with pytest.raises(WorkloadError):
        sampler.probability(10)
    with pytest.raises(WorkloadError):
        sampler.probability(-1)


def test_probability_monotone_decreasing():
    sampler = ZipfSampler(50, 0.8)
    probs = [sampler.probability(rank) for rank in range(50)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_zipf_ratio_between_ranks():
    """P(0)/P(k-1) must equal k^alpha exactly."""
    sampler = ZipfSampler(100, 1.0)
    assert abs(sampler.probability(0) / sampler.probability(9) - 10.0) < 1e-9


def test_exponent_zero_is_uniform():
    sampler = ZipfSampler(20, 0.0)
    for rank in range(20):
        assert abs(sampler.probability(rank) - 0.05) < 1e-12


def test_samples_in_range_and_skewed():
    sampler = ZipfSampler(500, 0.8)
    rng = random.Random(7)
    counts = Counter(sampler.sample(rng) for _ in range(20_000))
    assert all(0 <= rank < 500 for rank in counts)
    top_10_share = sum(counts[rank] for rank in range(10)) / 20_000
    expected = sum(sampler.probability(rank) for rank in range(10))
    assert abs(top_10_share - expected) < 0.02
    assert top_10_share > 0.15  # heavy head, unlike uniform (0.02)


def test_deterministic_given_rng_seed():
    sampler = ZipfSampler(100, 0.8)
    rng_a, rng_b = random.Random(3), random.Random(3)
    a = [sampler.sample(rng_a) for _ in range(20)]
    b = [sampler.sample(rng_b) for _ in range(20)]
    assert a == b


@given(n=st.integers(1, 300), exponent=st.floats(0.0, 2.0))
@settings(max_examples=50, deadline=None)
def test_property_sampler_well_formed(n, exponent):
    sampler = ZipfSampler(n, exponent)
    rng = random.Random(11)
    for __ in range(20):
        assert 0 <= sampler.sample(rng) < n
