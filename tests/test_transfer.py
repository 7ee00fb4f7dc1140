import math

import numpy as np
import pytest

from thermoshift.bounds import cohomology_residual
from thermoshift.measures import integrate, metric_pressure, point_mass
from thermoshift.potential import LocallyConstantFunction, random_function
from thermoshift.shift import NotMixingError, build_sft
from thermoshift.systems import builtin_shift, builtin_system
from thermoshift.transfer import (
    EigensolverError,
    equilibrium,
    gibbs_certificate,
    gurevich_estimate,
    normalize_zero_pressure,
    partition_sum,
    perron_data,
    pressure,
    transfer_matrix,
)

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def zero_data(name):
    shift = builtin_shift(name)
    return perron_data(shift, LocallyConstantFunction.zero(shift))


ALL_SYSTEMS = [
    "full2-zero",
    "full2-bernoulli",
    "golden-zero",
    "golden-range2",
    "tribonacci-zero",
]


def test_golden_pressure_closed_form():
    data = zero_data("golden-mean")
    assert data.pressure == pytest.approx(math.log(GOLDEN_RATIO), abs=1e-10)
    assert data.measure.initial == pytest.approx(
        [GOLDEN_RATIO / math.sqrt(5.0), 1.0 - GOLDEN_RATIO / math.sqrt(5.0)], abs=1e-12
    )


def test_full2_pressure_exact():
    data = zero_data("full-2")
    assert data.pressure == pytest.approx(math.log(2.0), abs=1e-12)
    assert data.kappa == 0.0
    assert data.c == 1.0
    assert data.a == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_bernoulli_gibbs_measure():
    shift, phi = builtin_system("full2-bernoulli")
    data = perron_data(shift, phi)
    assert data.pressure == pytest.approx(0.0, abs=1e-12)
    assert data.measure.initial == pytest.approx([0.3, 0.7], abs=1e-12)
    assert data.measure.kernel[0] == pytest.approx([0.3, 0.7], abs=1e-12)


def test_tribonacci_leading_eigenvalue():
    data = zero_data("tribonacci")
    # root of x^3 = x^2 + x + 1
    lam = data.lam
    assert lam**3 == pytest.approx(lam**2 + lam + 1.0, abs=1e-10)
    assert data.kappa == pytest.approx(0.40089056, abs=1e-6)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_eigen_residuals(name):
    data = perron_data(*builtin_system(name))
    b = data.matrix
    left = np.max(np.abs(data.h @ b - data.lam * data.h))
    right = np.max(np.abs(b @ data.nu - data.lam * data.nu))
    assert left <= 1e-12 * data.lam * np.max(data.h)
    assert right <= 1e-12 * data.lam * np.max(data.nu)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_normalization_convention(name):
    data = perron_data(*builtin_system(name))
    assert math.exp(float(np.mean(np.log(data.h)))) == pytest.approx(1.0, abs=1e-12)
    assert float(data.h @ data.nu) == pytest.approx(1.0, abs=1e-12)
    assert data.measure.initial == pytest.approx(data.h * data.nu)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_gibbs_kernel_is_stationary_chain(name):
    data = perron_data(*builtin_system(name))
    p = data.measure.kernel
    assert p.sum(axis=1) == pytest.approx(np.ones(data.shift.n), abs=1e-12)
    assert data.measure.initial @ p == pytest.approx(data.measure.initial, abs=1e-12)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_spectral_gap_prefactor_certifies_decay(name):
    data = perron_data(*builtin_system(name))
    pi, p = data.measure.initial, data.measure.kernel
    c, kappa = data.c, data.kappa
    rng = np.random.default_rng(13)
    vectors = rng.uniform(-1.0, 1.0, size=(100, data.shift.n))
    vectors /= np.max(np.abs(vectors), axis=1, keepdims=True)
    power = np.eye(data.shift.n)
    for n in range(1, 51):
        power = power @ p
        limit = np.outer(np.ones(data.shift.n), pi)
        for v in vectors:
            dev = np.max(np.abs((power - limit) @ v))
            assert dev <= c * kappa**n + 1e-12


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_constant_relations(name):
    data = perron_data(*builtin_system(name))
    assert data.a >= math.sqrt(2.0) - 1e-15
    assert data.b == (1.0 / math.sqrt(2.0) + math.sqrt(2.0)) * data.a


def test_pressure_additivity():
    shift = builtin_shift("golden-mean")
    phi = random_function(shift, 2, np.random.default_rng(19))
    base = pressure(phi)
    for const in (-3.0, 0.125, 7.5):
        assert pressure(phi.plus_constant(const)) == pytest.approx(
            base + const, abs=1e-12
        )


def test_normalize_zero_pressure_idempotent():
    shift = builtin_shift("tribonacci")
    phi = random_function(shift, 2, np.random.default_rng(23))
    norm = normalize_zero_pressure(phi)
    assert pressure(norm) == pytest.approx(0.0, abs=1e-10)
    assert pressure(normalize_zero_pressure(norm)) == pytest.approx(0.0, abs=1e-10)


def test_transfer_matrix_entries():
    shift, phi = builtin_system("golden-range2")
    b = transfer_matrix(shift, phi)
    assert b[0, 0] == pytest.approx(math.exp(0.25))
    assert b[0, 1] == pytest.approx(math.exp(-0.4))
    assert b[1, 0] == pytest.approx(math.exp(0.1))
    assert b[1, 1] == 0.0


def test_requires_mixing():
    cycle = build_sft(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(NotMixingError):
        perron_data(cycle, LocallyConstantFunction.zero(cycle))


def test_variational_principle_attained():
    for name in ALL_SYSTEMS:
        data = perron_data(*builtin_system(name))
        assert metric_pressure(data.measure, data.phi) == pytest.approx(
            data.pressure, abs=1e-10
        )


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def test_partition_sums_fibonacci():
    shift = builtin_shift("golden-mean")
    phi = LocallyConstantFunction.zero(shift)
    for n, ps in enumerate(partition_sum(shift, phi, "a", range(1, 13)), start=1):
        assert ps.enumeration == pytest.approx(fib(n + 1))
        assert ps.matrix == pytest.approx(fib(n + 1), abs=1e-9)


def test_partition_routes_agree_weighted():
    shift, phi = builtin_system("golden-range2")
    for ps in partition_sum(shift, phi, "a", range(1, 13)):
        assert abs(ps.enumeration - ps.matrix) <= 1e-10 * max(1.0, abs(ps.matrix))


def test_a_state_is_read_as_a_label_on_integer_labels():
    # label 1 is index 0 and carries the only self-loop; label 0 has none
    shift = build_sft([1, 0], [(1, 1), (1, 0), (0, 1)])
    phi = LocallyConstantFunction(base=shift, depth=1, table={(0,): 0.5, (1,): -1.0})
    assert partition_sum(shift, phi, 0, [1])[0] == (0.0, 0.0)
    assert partition_sum(shift, phi, 1, [1])[0].enumeration == math.exp(0.5)
    assert [n for n, _, _ in gurevich_estimate(shift, phi, 0, 2)] == [2]
    assert [n for n, _, _ in gurevich_estimate(shift, phi, 1, 2)] == [1, 2]
    with pytest.raises(ValueError, match="state 0 has no self-loop"):
        point_mass(shift, 0)
    assert point_mass(shift, 1).initial.tolist() == [1.0, 0.0]


def test_equilibrium_recodes_onto_a_shift_in_the_same_metric():
    shift = builtin_shift("golden-mean", theta=0.3)
    data = equilibrium(random_function(shift, 3, np.random.default_rng(31)))
    assert data.shift.n == 3
    assert data.shift.theta == 0.3 and data.phi.base is data.shift


def test_equilibrium_recodes_long_range():
    shift = builtin_shift("golden-mean")
    phi = random_function(shift, 3, np.random.default_rng(31))
    data = equilibrium(phi)
    assert data.shift.n == 3  # the 2-block shift of golden-mean: aa, ab, ba
    assert data.phi.depth == 2
    # pressure is intrinsic: adding a constant survives the recode roundtrip
    assert pressure(phi.plus_constant(1.0)) == pytest.approx(
        data.pressure + 1.0, abs=1e-12
    )


def test_gibbs_certificate_bernoulli_ratio_one():
    shift, phi = builtin_system("full2-bernoulli")
    cert = gibbs_certificate(perron_data(shift, phi), 8)
    assert abs(cert.worst_ratio - 1.0) <= 1e-12
    assert cert.empirical <= 1.0 + 1e-12


def test_gibbs_certificate_range2_hits_eigenvector_products():
    shift, phi = builtin_system("golden-range2")
    data = perron_data(shift, phi)
    cert = gibbs_certificate(data, 8)
    assert cert.empirical <= cert.apriori
    # the worst cylinder ratio is an exact eigenvector product
    w = cert.worst_word
    expected = data.h[w[0]] * data.nu[w[-1]]
    assert cert.worst_ratio == pytest.approx(expected, abs=1e-12)


def test_gibbs_certificate_all_ratios_in_window():
    for name in ("golden-zero", "golden-range2", "full2-bernoulli"):
        data = perron_data(*builtin_system(name))
        cert = gibbs_certificate(data, 8)
        assert 1.0 / cert.apriori <= cert.worst_ratio <= cert.apriori
        assert cert.empirical <= cert.apriori


def near_periodic(value):
    """a -> b -> a plus a loop at b weighted exp(value): as value -> -inf the
    shift approaches a period-2 cycle and kappa approaches 1."""
    shift = build_sft(["a", "b"], [("a", "b"), ("b", "a"), ("b", "b")])
    phi = LocallyConstantFunction.from_values(
        shift, 2, {("b", "b"): value}, default=0.0
    )
    return shift, phi


@pytest.mark.parametrize("value", [-5.0, -20.0])
def test_near_periodic_spectrum_answers(value):
    shift, phi = near_periodic(value)
    data = perron_data(shift, phi)
    b = data.matrix
    left = np.max(np.abs(data.h @ b - data.lam * data.h))
    right = np.max(np.abs(b @ data.nu - data.lam * data.nu))
    assert left <= 1e-12 * data.lam * np.max(data.h)
    assert right <= 1e-12 * data.lam * np.max(data.nu)
    assert np.all(data.h > 0.0) and np.all(data.nu > 0.0)
    assert cohomology_residual(data) <= 1e-10
    assert 0.0 < 1.0 - data.kappa < 1e-2


def test_gap_below_float_resolution_is_refused():
    shift, phi = near_periodic(-35.0)
    with pytest.raises(EigensolverError, match="kappa = 0.99999"):
        perron_data(shift, phi)


def test_gap_prefactor_underflow_is_refused():
    # kappa = 2.8e-10: kappa**n underflows to 0 within the probe depth while
    # the iterate norms sit above the noise floor, so no finite c exists.
    # The solve answers; the certificate refuses on each read of c or a.
    shift = builtin_shift("full-2")
    phi = LocallyConstantFunction.from_values(
        shift,
        2,
        {("a", "a"): -3.0, ("a", "b"): -6.0, ("b", "a"): -18.0, ("b", "b"): 19.0},
    )
    data = perron_data(shift, phi)
    for name in ("c", "a", "c"):
        with pytest.raises(EigensolverError, match="c = inf is not finite"):
            getattr(data, name)


def test_transfer_matrix_overflow_names_the_word():
    shift = builtin_shift("golden-mean")
    phi = LocallyConstantFunction.from_values(shift, 2, {("a", "b"): 1000.0}, default=0.0)
    with pytest.raises(ValueError, match='1000.0 on word "ab" overflows'):
        transfer_matrix(shift, phi)


def test_second_modulus_exact_on_128_states():
    rng = np.random.default_rng(2024)
    n = 128
    labels = [f"s{i}" for i in range(n)]
    edges = {(i, (i + 1) % n) for i in range(n)} | {(0, 0)}
    while len(edges) < 4 * n:
        edges.add(tuple(int(x) for x in rng.integers(0, n, size=2)))
    shift = build_sft(labels, [(labels[i], labels[j]) for i, j in sorted(edges)])
    data = perron_data(shift, random_function(shift, 2, rng))
    mods = np.sort(np.abs(np.linalg.eigvals(data.matrix)))
    assert data.lambda2_mod == pytest.approx(mods[-2], rel=1e-12)
    assert data.lam == pytest.approx(mods[-1], rel=1e-12)


def test_gurevich_estimate_refuses_an_overflowing_root():
    # exp(709.7) is finite, its row sum 2 exp(709.7) is not
    shift = builtin_shift("full-2")
    phi = LocallyConstantFunction.constant(shift, 709.7)
    for route in (lambda: gurevich_estimate(shift, phi, "a", 1), lambda: perron_data(shift, phi)):
        with pytest.raises(EigensolverError, match="dominant root inf overflows a float"):
            route()
