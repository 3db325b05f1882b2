"""Tests for the seeded Monte Carlo simulator."""

from collections import Counter

import pytest

from carrychain.carries import ChainSpec, _digit_sum_counts, state_space
from carrychain.simulate import (
    GENERATOR_ALGORITHM,
    SimConfig,
    digit_sum_draw,
    run_chain,
    tv_distance,
)
from carrychain.spectral import chain_stationary


def test_tv_distance_trivials():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0
    assert tv_distance([1, 0], [0, 1]) == 1
    assert tv_distance([0.5, 0.5], [0.25, 0.75]) == 0.25


def test_tv_distance_length_mismatch():
    with pytest.raises(ValueError):
        tv_distance([1.0], [0.5, 0.5])


def test_config_validation():
    s = ChainSpec(3, -1, 2)
    with pytest.raises(ValueError):
        SimConfig(s, steps=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(s, steps=500, seed=1, burn_in=1000)
    with pytest.raises(ValueError):
        SimConfig(s, steps=10, seed=1, burn_in=-1)


def test_visited_carries_stay_in_state_space():
    s = ChainSpec(3, -1, 2)
    result = run_chain(SimConfig(s, steps=20_000, seed=11), chain_stationary(s))
    assert set(result.counts) <= set(state_space(s))
    assert sum(result.counts.values()) == result.samples == 19_000


def test_single_summand_classical_base_has_no_carry():
    s = ChainSpec(10, 0, 1)
    result = run_chain(SimConfig(s, steps=5_000, seed=3), chain_stationary(s))
    assert set(result.counts) == {0}


def test_determinism_same_seed():
    s = ChainSpec(5, -1, 3)
    cfg = SimConfig(s, steps=50_000, seed=99)
    exact = chain_stationary(s)
    a = run_chain(cfg, exact=exact)
    b = run_chain(cfg, exact=exact)
    assert a.counts == b.counts
    assert a.empirical == b.empirical
    assert a.tv_distance == b.tv_distance
    assert a.generator == GENERATOR_ALGORITHM == "mt19937-digit-sum-bisect"


@pytest.mark.parametrize("digits,n", [
    ([0], 3), ([0, 1], 1), ([0, 1], 5), ([-1, 0, 1], 4), ([-2, -1, 0, 1, 2], 5),
    ([-3, -2, -1, 0, 1, 2, 3, 4, 5, 6], 4), ([-1, 0, 4], 6), ([0, 7, 11], 8),
])
def test_digit_sum_draw_hits_each_sum_exactly_its_count(digits, n):
    # Every u in range(|D|^n) once: each sum must come up exactly as often as
    # the digit n-tuples that add up to it, so a uniform u gives the exact law.
    size, draw = digit_sum_draw(digits, n)
    assert size == len(digits) ** n <= 10 ** 4
    assert Counter(map(draw, range(size))) == _digit_sum_counts(digits, n)


def test_different_seeds_differ():
    s = ChainSpec(3, -1, 2)
    exact = chain_stationary(s)
    a = run_chain(SimConfig(s, steps=50_000, seed=1), exact)
    b = run_chain(SimConfig(s, steps=50_000, seed=2), exact)
    assert a.counts != b.counts


def test_negative_base_simulation_converges():
    # Base -3 with digits {-1, 0, 1} is symmetric: a carry of the wrong sign
    # has the same law. Base -4 with digits {-1, 0, 1, 2} is not.
    for s in (ChainSpec(3, -1, 2, negative=True),
              ChainSpec(4, -1, 4, negative=True)):
        exact = chain_stationary(s)
        result = run_chain(SimConfig(s, steps=200_000, seed=7), exact=exact)
        assert set(result.counts) <= set(state_space(s)), s
        assert result.tv_distance < 0.01, s


def test_empirical_frequencies_sum_to_one():
    s = ChainSpec(6, -3, 2)
    result = run_chain(SimConfig(s, steps=30_000, seed=4), chain_stationary(s))
    assert abs(sum(result.empirical.values()) - 1) < 1e-12
