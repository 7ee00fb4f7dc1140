import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift.potential import (
    LocallyConstantFunction,
    add,
    random_function,
    recode_to_markovian,
    scale,
    sup_diff,
)
from thermoshift.shift import enumerate_periodic, enumerate_words
from thermoshift.systems import builtin_shift
from thermoshift.transfer import normalize_zero_pressure, pressure


def brute_variation(f, n):
    """Oscillation over n-prefix classes, straight from the definition."""
    depth = max(f.depth, n + 1)
    groups = {}
    for w in enumerate_words(f.base, depth):
        groups.setdefault(w[:n], []).append(f.evaluate(w))
    return max(max(vs) - min(vs) for vs in groups.values())


@pytest.fixture
def golden():
    return builtin_shift("golden-mean")


@pytest.fixture
def depth3(golden):
    rng = np.random.default_rng(41)
    return random_function(golden, 3, rng)


def test_variation_matches_brute_force(depth3):
    for n in range(1, 5):
        assert depth3.variation(n) == pytest.approx(brute_variation(depth3, n), abs=1e-14)


def test_variation_vanishes_at_range(depth3):
    assert depth3.variation(3) == 0.0
    assert depth3.variation(7) == 0.0


def test_variation_nonincreasing(depth3):
    vs = [depth3.variation(n) for n in range(1, 8)]
    assert all(x >= y for x, y in zip(vs, vs[1:]))


def test_holder_certificate(depth3):
    # var_n <= A theta^n for all n, with A the certified constant
    a = depth3.holder_constant()
    theta = depth3.base.theta
    for n in range(1, 2 * depth3.depth + 1):
        assert depth3.variation(n) <= a * theta**n + 1e-14


def test_tail_constant(depth3):
    for n in range(1, 6):
        expected = 2.0 * sum(depth3.variation(k) for k in range(n, depth3.depth))
        assert depth3.tail_constant(n) == pytest.approx(expected, abs=1e-14)
    assert depth3.tail_constant(3) == 0.0


def test_norms_split(golden):
    f = LocallyConstantFunction.from_values(
        golden, 2, {("a", "a"): 0.25, ("a", "b"): -0.4, ("b", "a"): 0.1}
    )
    norms = f.norms()
    assert norms.sup == 0.4
    assert norms.lip == pytest.approx(f.variation(1) / f.base.theta)
    assert norms.total == norms.sup + norms.lip


def test_norm_triangle_and_scaling(golden):
    rng = np.random.default_rng(7)
    f = random_function(golden, 2, rng)
    g = random_function(golden, 2, rng)
    assert add(f, g).norms().total <= f.norms().total + g.norms().total + 1e-12
    assert scale(f, -2.5).norms().total == pytest.approx(2.5 * f.norms().total)


def test_birkhoff_sum_plain(golden):
    f = LocallyConstantFunction.from_values(
        golden, 2, {("a", "a"): 1.0, ("a", "b"): 10.0, ("b", "a"): 100.0}
    )
    # w = abaa reads off ab, ba, aa
    assert f.birkhoff_sum((0, 1, 0, 0), 3) == 111.0
    with pytest.raises(ValueError):
        f.birkhoff_sum((0, 1), 2)  # needs length n + r - 1


def test_birkhoff_sum_cyclic(golden):
    f = LocallyConstantFunction.from_values(
        golden, 2, {("a", "a"): 1.0, ("a", "b"): 10.0, ("b", "a"): 100.0}
    )
    assert f.birkhoff_sum((0, 1), 2, cyclic=True) == 110.0
    assert f.birkhoff_sum((0,), 1, cyclic=True) == 1.0


def test_evaluate_uses_prefix(depth3):
    word = next(w for w in enumerate_words(depth3.base, 5))
    assert depth3.evaluate(word) == depth3.table[word[:3]]
    with pytest.raises(ValueError):
        depth3.evaluate((0,))


def test_from_values_requires_admissible_cover(golden):
    with pytest.raises(ValueError, match="not admissible"):
        LocallyConstantFunction.from_values(golden, 2, {("b", "b"): 1.0})
    with pytest.raises(ValueError, match="no value for admissible word"):
        LocallyConstantFunction.from_values(golden, 2, {("a", "a"): 1.0})
    # default fills the gaps
    f = LocallyConstantFunction.from_values(golden, 2, {("a", "a"): 1.0}, default=0.0)
    assert f.evaluate((1, 0)) == 0.0


def test_constant_and_indicator(golden):
    c = LocallyConstantFunction.constant(golden, 3.5)
    assert c.norms().total == 3.5
    assert c.variation(1) == 0.0
    ind = LocallyConstantFunction.indicator(golden, (0, 1))
    assert ind.evaluate((0, 1)) == 1.0
    assert ind.evaluate((0, 0)) == 0.0


def test_plus_constant_shifts_values_only(depth3):
    g = depth3.plus_constant(-2.0)
    assert g.evaluate((0, 0, 1)) == pytest.approx(depth3.evaluate((0, 0, 1)) - 2.0)
    for n in range(1, 5):
        assert g.variation(n) == pytest.approx(depth3.variation(n), abs=1e-14)


def test_with_depth_preserves_values(depth3):
    g = depth3.with_depth(5)
    for w in enumerate_words(depth3.base, 5):
        assert g.evaluate(w) == depth3.evaluate(w)


def test_theta_mismatch_rejected(golden):
    # two copies of one shift that differ only in the metric parameter
    f = LocallyConstantFunction.zero(replace(golden, theta=0.5))
    g = LocallyConstantFunction.zero(replace(golden, theta=0.3))
    with pytest.raises(ValueError, match="functions live on different shifts"):
        add(f, g)


def test_sup_diff(golden):
    f = LocallyConstantFunction.constant(golden, 1.0)
    g = LocallyConstantFunction.from_values(
        golden, 2, {("a", "a"): 1.5, ("a", "b"): 0.75, ("b", "a"): 1.0}
    )
    assert sup_diff(f, g) == 0.5


def test_recode_to_markovian_identity_below_range_three(golden):
    f = random_function(golden, 2, np.random.default_rng(3))
    g, rec = recode_to_markovian(f)
    assert g is f and rec is None


def test_recode_to_markovian_preserves_cyclic_sums(depth3):
    g, rec = recode_to_markovian(depth3)
    assert g.depth == 2
    for k in range(1, 7):
        for cycle in enumerate_periodic(depth3.base, k):
            plain = depth3.birkhoff_sum(cycle, k, cyclic=True)
            lifted = g.birkhoff_sum(rec.encode_cycle(cycle), k, cyclic=True)
            assert plain == pytest.approx(lifted, abs=1e-12)


def test_normalize_zero_pressure(depth3):
    g = normalize_zero_pressure(depth3)
    assert abs(pressure(g)) <= 1e-10
    again = normalize_zero_pressure(g)
    assert sup_diff(g, again) <= 1e-10


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_random_tables_satisfy_holder_certificate(seed):
    shift = builtin_shift("golden-mean")
    rng = np.random.default_rng(seed)
    f = random_function(shift, int(rng.integers(1, 5)), rng)
    a = f.holder_constant()
    for n in range(1, 2 * f.depth + 1):
        assert f.variation(n) <= a * f.base.theta**n + 1e-12
    tails = [f.tail_constant(n) for n in range(1, f.depth + 2)]
    assert all(x >= y for x, y in zip(tails, tails[1:]))
