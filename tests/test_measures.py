import math

import numpy as np
import pytest

from thermoshift.measures import (
    MarkovMeasure,
    block_entropy,
    conditional_entropy,
    conditional_kl_integral,
    entropy_rate,
    information_function,
    integrate,
    kl_divergence,
    make_markov_measure,
    metric_pressure,
    pinsker_gap,
    point_mass,
    random_markov_measure,
    reverse_kernel,
)
from thermoshift.potential import LocallyConstantFunction, random_function
from thermoshift.systems import builtin_shift, builtin_system
from thermoshift.transfer import perron_data

SYMMETRIC_RATE = 0.32508297339144845  # -(0.9 log 0.9 + 0.1 log 0.1)


@pytest.fixture
def full2():
    return builtin_shift("full-2")


@pytest.fixture
def symmetric(full2):
    return make_markov_measure(full2, np.array([[0.9, 0.1], [0.1, 0.9]]))


def test_stationary_vector(symmetric):
    assert symmetric.initial == pytest.approx([0.5, 0.5])
    assert symmetric.initial @ symmetric.kernel == pytest.approx(symmetric.initial)


def test_entropy_rate_oracle(symmetric):
    assert entropy_rate(symmetric) == pytest.approx(SYMMETRIC_RATE, abs=1e-12)


def test_two_recurrent_classes_rejected(full2):
    with pytest.raises(ValueError, match="recurrent"):
        make_markov_measure(full2, np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_kernel_rejected(full2, bad):
    # nan once gave pi = [1, 0] and entropy rate 0: every comparison was False
    with pytest.raises(ValueError, match="kernel has non-finite"):
        make_markov_measure(full2, np.array([[bad, 0.5], [0.5, 0.5]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_markov_measure_rejects_non_finite_arguments(full2, bad):
    kernel = np.array([[0.5, 0.5], [0.5, 0.5]])
    initial = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="kernel has non-finite"):
        MarkovMeasure(base=full2, kernel=np.array([[bad, 0.5], [0.5, 0.5]]), initial=initial)
    with pytest.raises(ValueError, match="initial has non-finite"):
        MarkovMeasure(base=full2, kernel=kernel, initial=np.array([0.5, bad]))


def test_transient_state_gets_zero_mass():
    shift = builtin_shift("golden-mean")
    # b leaks into a, a keeps itself: b is transient
    mu = make_markov_measure(shift, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert mu.initial == pytest.approx([1.0, 0.0])
    assert entropy_rate(mu) == 0.0


def test_point_mass():
    shift = builtin_shift("golden-mean")
    mu = point_mass(shift, "a")
    assert mu.initial == pytest.approx([1.0, 0.0])
    assert mu.word_probability((0, 0, 0)) == pytest.approx(1.0)
    assert mu.word_probability((0, 1)) == 0.0


def test_word_probability_is_chain_product(symmetric):
    w = (0, 1, 1, 0)
    expected = 0.5 * 0.1 * 0.9 * 0.1
    assert symmetric.word_probability(w) == pytest.approx(expected, abs=1e-15)


def test_integrate_depth2(symmetric, full2):
    f = LocallyConstantFunction.indicator(full2, (0, 1))
    assert integrate(symmetric, f) == pytest.approx(0.05, abs=1e-12)


def test_conditional_entropy_indexings(symmetric):
    # n = 1 is the marginal entropy, n >= 2 the entropy rate, constant
    assert conditional_entropy(symmetric, 1) == pytest.approx(math.log(2))
    for n in range(2, 8):
        assert conditional_entropy(symmetric, n) == pytest.approx(
            SYMMETRIC_RATE, abs=1e-12
        )
    assert conditional_entropy(symmetric, 2) <= conditional_entropy(symmetric, 1)


def test_bernoulli_conditional_entropy(full2):
    mu = make_markov_measure(full2, np.array([[0.5, 0.5], [0.5, 0.5]]))
    for n in range(2, 6):
        assert conditional_entropy(mu, n) == pytest.approx(math.log(2), abs=1e-14)


def test_block_entropy_oracle(symmetric):
    assert block_entropy(symmetric, 2) == pytest.approx(
        math.log(2) + SYMMETRIC_RATE, abs=1e-12
    )


def test_block_entropy_chain_rule():
    shift = builtin_shift("tribonacci")
    for seed in range(5):
        mu = random_markov_measure(shift, np.random.default_rng(seed))
        h = entropy_rate(mu)
        for n in range(2, 9):
            gap = block_entropy(mu, n) - block_entropy(mu, n - 1)
            assert gap == pytest.approx(h, abs=1e-10)


def test_reverse_kernel_reverses_mass(symmetric):
    q = reverse_kernel(symmetric)
    pi, p = symmetric.initial, symmetric.kernel
    for j in range(2):
        assert q[j].sum() == pytest.approx(1.0, abs=1e-12)
        for i in range(2):
            assert pi[i] * p[i, j] == pytest.approx(pi[j] * q[j, i], abs=1e-14)


def test_information_function_integrates_to_entropy(symmetric):
    info = information_function(symmetric)
    assert integrate(symmetric, info) == pytest.approx(SYMMETRIC_RATE, abs=1e-10)


def test_metric_pressure_sums_rate_and_integral(symmetric, full2):
    phi = LocallyConstantFunction.constant(full2, -0.25)
    assert metric_pressure(symmetric, phi) == pytest.approx(SYMMETRIC_RATE - 0.25)


def test_kl_divergence_oracle():
    p = np.array([0.5, 0.5])
    q = np.array([0.75, 0.25])
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(0.1308, abs=5e-5)


def test_kl_divergence_edge_cases():
    p = np.array([0.5, 0.5])
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == math.inf
    with pytest.raises(ValueError):
        kl_divergence(np.array([0.5, 0.6]), p)


# (p, q, D(q || p)) from scipy 1.17's rel_entr(q, p).sum(), the route this
# package used before computing the terms itself; compared with ==
KL_PINNED = (
    ([0.5, 0.25, 0.125, 0.125], [0.4, 0.3, 0.2, 0.1], 0.037125417230228636),
    ([0.7, 0.2, 0.1], [0.1, 0.2, 0.7], 1.1675460894331877),
    ([0.5, 0.5, 0.0], [1.0, 0.0, 0.0], 0.6931471805599453),
    (
        [0.3333333333333333, 0.3333333333333333, 0.3333333333333334],
        [0.33, 0.33, 0.34],
        9.967161739014851e-05,
    ),
    (
        [0.05, 0.15, 0.1, 0.2, 0.05, 0.1, 0.1, 0.05, 0.1, 0.05, 0.025, 0.025],
        [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.1],
        0.16739764335716714,
    ),
    ([1.0, 0.0], [0.5, 0.5], math.inf),
)


@pytest.mark.parametrize("p, q, expected", KL_PINNED)
def test_kl_divergence_pinned(p, q, expected):
    assert kl_divergence(np.array(p), np.array(q)) == expected


def test_kl_divergence_pinned_long_vector():
    # 200 terms: numpy's pairwise summation, not a left-to-right sum
    n = np.arange(1.0, 201.0)
    p, q = n / n.sum(), n**2 / (n**2).sum()
    assert kl_divergence(p, q) == 0.07212660369114789


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kl_divergence_rejects_non_finite_entries(bad):
    good, poisoned = [0.5, 0.5], [bad, 0.5]
    with pytest.raises(ValueError, match="p has non-finite"):
        kl_divergence(poisoned, good)
    with pytest.raises(ValueError, match="q has non-finite"):
        kl_divergence(good, poisoned)
    with pytest.raises(ValueError, match="non-finite"):
        pinsker_gap(poisoned, good)
    with pytest.raises(ValueError, match="non-finite"):
        pinsker_gap(good, poisoned)


def test_kl_nonnegative_battery():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        assert kl_divergence(p, q) >= 0.0


def test_pinsker_oracles():
    l1, bound = pinsker_gap(np.array([0.5, 0.5]), np.array([0.75, 0.25]))
    assert l1 == pytest.approx(0.5)
    assert bound == pytest.approx(0.5115, abs=5e-5)
    l1, bound = pinsker_gap(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert l1 == pytest.approx(1.0)
    assert bound == pytest.approx(math.sqrt(2 * math.log(2)), abs=1e-12)


def test_pinsker_battery():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        l1, bound = pinsker_gap(p, q)
        assert l1 <= bound + 1e-12


def test_kl_integral_full2_oracle(full2, symmetric):
    phi = LocallyConstantFunction.zero(full2)
    data = perron_data(full2, phi)
    got = conditional_kl_integral(data.measure, symmetric)
    assert got == pytest.approx(math.log(2) - SYMMETRIC_RATE, abs=1e-12)


def test_kl_integral_equals_pressure_difference():
    """The central exact identity, over random measures on every builtin."""
    for name in ("full-2", "golden-mean", "tribonacci"):
        shift = builtin_shift(name)
        phi = LocallyConstantFunction.zero(shift)
        data = perron_data(shift, phi)
        for seed in range(100):
            mu = random_markov_measure(shift, np.random.default_rng([7, seed]))
            lhs = conditional_kl_integral(data.measure, mu)
            rhs = data.pressure - metric_pressure(mu, phi)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_kl_integral_weighted_system():
    shift, phi = builtin_system("golden-range2")
    data = perron_data(shift, phi)
    for seed in range(25):
        mu = random_markov_measure(shift, np.random.default_rng([11, seed]))
        lhs = conditional_kl_integral(data.measure, mu)
        rhs = data.pressure - metric_pressure(mu, phi)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_kl_integral_support_violation_is_infinite():
    shift = builtin_shift("golden-mean")
    data = perron_data(shift, LocallyConstantFunction.zero(shift))
    mu = point_mass(shift, "a")
    # the Gibbs chain never needs a->b, the point mass does not use it either;
    # reversed golden chain from b forces a, still inside the Gibbs support
    assert conditional_kl_integral(data.measure, mu) < math.inf
    # a kernel walking an edge the Gibbs measure supports is fine, so build
    # the opposite case by comparing against a sub-shift measure
    sub = make_markov_measure(shift, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert conditional_kl_integral(sub, data.measure) == math.inf


def test_random_markov_measure_supported_on_shift():
    shift = builtin_shift("tribonacci")
    mu = random_markov_measure(shift, np.random.default_rng(5))
    assert np.all(mu.kernel[shift.matrix == 0] == 0.0)
    assert mu.kernel.sum(axis=1) == pytest.approx(np.ones(shift.n))
