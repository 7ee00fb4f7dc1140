import math
from dataclasses import replace

import numpy as np
import pytest

from thermoshift.approx import (
    combined_orbit_harness,
    geometric_model,
    periodic_orbit_harness,
    stability_bound,
    truncate,
)
from thermoshift.bounds import (
    block_entropy_gap_bound,
    cohomology_residual,
    entropy_averaging_check,
    finitary_gap_bound,
    gibbs_report,
    pressure_gap_bound,
    reduction_step_norms,
)
from thermoshift.measures import (
    conditional_kl_integral,
    make_markov_measure,
    point_mass,
    random_markov_measure,
)
from thermoshift.potential import LocallyConstantFunction, add, random_function
from thermoshift.systems import BUILTIN_SYSTEMS, builtin_shift, builtin_system
from thermoshift.transfer import equilibrium, perron_data


@pytest.fixture(scope="module")
def golden_data():
    shift = builtin_shift("golden-mean")
    return perron_data(shift, LocallyConstantFunction.zero(shift))


@pytest.fixture(scope="module")
def full2_data():
    return perron_data(*builtin_system("full2-zero"))


def test_point_mass_example(full2_data):
    shift = full2_data.shift
    mu = point_mass(shift, "a")
    f = LocallyConstantFunction.indicator(shift, (0,))
    rep = pressure_gap_bound(full2_data, mu, f)
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert rep.rhs == pytest.approx(math.sqrt(2.0 * math.log(2.0)), abs=1e-12)
    assert rep.slack >= 0.0
    assert rep.kind == "pressure-gap"
    assert not rep.vacuous


def test_gibbs_against_itself_is_tight_at_zero(golden_data):
    f = random_function(golden_data.shift, 2, np.random.default_rng(1))
    rep = pressure_gap_bound(golden_data, golden_data.measure, f)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.terms["pressure_gap"] == pytest.approx(0.0, abs=1e-10)


def test_pressure_gap_battery():
    for name in sorted(BUILTIN_SYSTEMS):
        data = equilibrium(builtin_system(name)[1])
        for trial in range(60):
            rng = np.random.default_rng([3, trial])
            mu = random_markov_measure(data.shift, rng)
            f = random_function(data.shift, int(rng.integers(1, 4)), rng)
            rep = pressure_gap_bound(data, mu, f)
            assert rep.slack >= 0.0


def test_rhs_via_kl_integral_consistency(golden_data):
    """Replacing the pressure gap with the conditional KL integral must
    reproduce the same rhs: the two are equal for order-1 Markov measures."""
    for trial in range(50):
        rng = np.random.default_rng([5, trial])
        mu = random_markov_measure(golden_data.shift, rng)
        f = random_function(golden_data.shift, 2, rng)
        rep = pressure_gap_bound(golden_data, mu, f)
        gap_kl = conditional_kl_integral(golden_data.measure, mu)
        eff = rep.constants["a"]
        rhs_kl = eff * rep.terms["f_norm"] * math.sqrt(gap_kl)
        assert rep.rhs == pytest.approx(rhs_kl, abs=1e-10)


def test_reduction_steps_have_unit_norm(golden_data):
    for depth in (2, 3, 4):
        for s in reduction_step_norms(golden_data, depth):
            assert s == pytest.approx(1.0, abs=1e-12)


def test_effective_constant_matches_plain_for_depth1(golden_data):
    f = LocallyConstantFunction.indicator(golden_data.shift, (0,))
    rep = pressure_gap_bound(golden_data, golden_data.measure, f)
    assert rep.constants["a"] == pytest.approx(golden_data.a)


def test_finitary_vacuous_at_n1_on_golden(golden_data):
    # any full-support mu meets the inadmissible pair bb at n = 1
    mu = random_markov_measure(golden_data.shift, np.random.default_rng(8))
    f = LocallyConstantFunction.indicator(golden_data.shift, (0,))
    rep = finitary_gap_bound(golden_data, mu, f, 1)
    assert rep.vacuous
    assert rep.rhs == math.inf
    assert rep.slack == math.inf


def test_finitary_alternating_orbit_radicand_is_negative(golden_data):
    # H(pi) = log 2 exceeds the golden pressure, the genuine n = 1 failure
    kernel = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu = make_markov_measure(golden_data.shift, kernel)
    f = LocallyConstantFunction.indicator(golden_data.shift, (0,))
    rep = finitary_gap_bound(golden_data, mu, f, 1)
    assert rep.vacuous
    assert rep.terms["raw_radicand"] < -1e-3


def test_finitary_not_vacuous_on_full_shift(full2_data):
    for trial in range(40):
        rng = np.random.default_rng([9, trial])
        mu = random_markov_measure(full2_data.shift, rng)
        f = random_function(full2_data.shift, 2, rng)
        rep = finitary_gap_bound(full2_data, mu, f, 1)
        assert not rep.vacuous
        assert rep.slack >= 0.0


def test_finitary_battery():
    for name in ("full2-bernoulli", "golden-range2"):
        data = perron_data(*builtin_system(name))
        for trial in range(40):
            rng = np.random.default_rng([13, trial])
            mu = random_markov_measure(data.shift, rng)
            f = random_function(data.shift, 2, rng)
            for n in range(1, 13):
                rep = finitary_gap_bound(data, mu, f, n)
                if not rep.vacuous:
                    assert rep.slack >= 0.0
                    assert rep.terms["raw_radicand"] >= -1e-10


def test_finitary_rhs_decreases_in_n():
    # tail constant vanishes from n = 2 for a range-2 potential, so the rhs
    # is driven by the nonincreasing conditional entropy
    data = perron_data(*builtin_system("golden-range2"))
    mu = random_markov_measure(data.shift, np.random.default_rng(15))
    f = random_function(data.shift, 2, np.random.default_rng(16))
    rhs = [finitary_gap_bound(data, mu, f, n).rhs for n in range(2, 16)]
    assert all(x >= y - 1e-12 for x, y in zip(rhs, rhs[1:]))


def test_finitary_report_carries_both_indexings(full2_data):
    mu = random_markov_measure(full2_data.shift, np.random.default_rng(17))
    f = LocallyConstantFunction.indicator(full2_data.shift, (0,))
    rep = finitary_gap_bound(full2_data, mu, f, 4)
    assert "cond_entropy" in rep.terms
    # conditioning a partition on a family containing itself gives zero
    assert rep.terms["cond_entropy_including_present"] == 0.0


def test_block_form_needs_room(full2_data):
    mu = random_markov_measure(full2_data.shift, np.random.default_rng(18))
    f = LocallyConstantFunction.indicator(full2_data.shift, (0,))
    with pytest.raises(ValueError, match="3"):
        block_entropy_gap_bound(full2_data, mu, f, 2, 1)


def test_block_form_requires_markov_range():
    data = perron_data(*builtin_system("golden-range2"))
    mu = random_markov_measure(data.shift, np.random.default_rng(19))
    f = LocallyConstantFunction.indicator(data.shift, (0,))
    with pytest.raises(ValueError, match="varies"):
        block_entropy_gap_bound(data, mu, f, 9, 1)


def test_block_form_battery():
    for name in ("golden-zero", "golden-range2", "tribonacci-zero"):
        data = perron_data(*builtin_system(name))
        ell = data.phi.depth
        for trial in range(30):
            rng = np.random.default_rng([21, trial])
            mu = random_markov_measure(data.shift, rng)
            f = random_function(data.shift, 2, rng)
            for n in range(3 * ell, 16):
                rep = block_entropy_gap_bound(data, mu, f, n, ell)
                assert not rep.vacuous
                assert rep.terms["raw_radicand"] >= -1e-10
                assert rep.slack >= 0.0


def test_cohomology_residual_all_systems():
    for name in sorted(BUILTIN_SYSTEMS):
        data = perron_data(*builtin_system(name))
        assert cohomology_residual(data) <= 1e-10


def test_entropy_averaging_identity_and_inequality():
    data = perron_data(*builtin_system("golden-range2"))
    for seed in range(10):
        mu = random_markov_measure(data.shift, np.random.default_rng([25, seed]))
        for m in range(2, 9):
            lhs, rhs, avg_cond, avg_blocks = entropy_averaging_check(data, mu, 1, m)
            assert avg_cond == pytest.approx(avg_blocks, abs=1e-10)
            assert lhs <= rhs + 1e-12


def test_entropy_averaging_needs_integral_term():
    # shifting the potential far from zero pressure flips the naive rhs
    # (the one missing mu(phi)) below the lhs; the implemented one holds
    shift = builtin_shift("full-2")
    phi = LocallyConstantFunction.constant(shift, -5.0)
    data = perron_data(shift, phi)
    mu = random_markov_measure(shift, np.random.default_rng(29))
    lhs, rhs, avg_cond, _ = entropy_averaging_check(data, mu, 1, 6)
    assert lhs <= rhs + 1e-12
    rhs_without_integral = 2.0 * (data.pressure - avg_cond)
    assert lhs > rhs_without_integral


def test_mismatched_bases_rejected(golden_data):
    other = builtin_shift("tribonacci")
    mu = random_markov_measure(other, np.random.default_rng(30))
    f = LocallyConstantFunction.indicator(other, (0,))
    with pytest.raises(ValueError):
        pressure_gap_bound(golden_data, mu, f)


def test_an_observable_in_another_metric_is_refused(golden_data):
    # a copy of the data's shift that differs only in theta: every bound
    # measures f and phi in one metric, so f on the copy is refused
    f = LocallyConstantFunction.indicator(replace(golden_data.shift, theta=0.3), (0,))
    mu = random_markov_measure(golden_data.shift, np.random.default_rng(30))
    observable = "observable lives on a different shift than the Gibbs data"
    for bound, args in [
        (pressure_gap_bound, ()),
        (finitary_gap_bound, (2,)),
        (block_entropy_gap_bound, (3, 1)),
    ]:
        with pytest.raises(ValueError, match=observable):
            bound(golden_data, mu, f, *args)
    with pytest.raises(ValueError, match="function and measure live on different shifts"):
        periodic_orbit_harness(golden_data, f, [3, 4])
    with pytest.raises(ValueError, match="inputs live on different shifts"):
        stability_bound(golden_data, golden_data.phi, f)


def test_slack_property():
    data = perron_data(*builtin_system("full2-zero"))
    mu = random_markov_measure(data.shift, np.random.default_rng(31))
    f = LocallyConstantFunction.indicator(data.shift, (0,))
    rep = pressure_gap_bound(data, mu, f)
    assert rep.slack == rep.rhs - rep.lhs


def test_every_report_on_perron_data_has_the_same_constants():
    shift, phi = builtin_system("golden-range2")
    data = perron_data(shift, phi)
    rng = np.random.default_rng(71)
    mu = random_markov_measure(shift, rng)
    f = random_function(shift, 3, rng)
    psi = add(phi, random_function(shift, 2, rng, low=-0.1, high=0.1))
    sub = truncate(geometric_model(0.5), 4)
    named = [
        ("a", data, [pressure_gap_bound(data, mu, f), stability_bound(data, psi, f)]),
        (
            "b",
            data,
            [
                finitary_gap_bound(data, mu, f, 1),
                finitary_gap_bound(data, mu, f, 4),
                block_entropy_gap_bound(data, mu, f, 6, 2),
                *periodic_orbit_harness(data, f, range(3, 6)),
            ],
        ),
        ("b", sub.data, combined_orbit_harness(sub, {1: 1.0, 2: -0.5}, range(3, 6))),
    ]
    for name, source, reports in named:
        for rep in reports:
            assert list(rep.constants) == [name, "c", "kappa", "eigennorm", "reduction_norms"]
            steps = rep.constants["reduction_norms"]
            assert rep.constants[name] == getattr(source, name) * math.prod(steps)
            assert (rep.constants["c"], rep.constants["kappa"], rep.constants["eigennorm"]) == (
                source.c,
                source.kappa,
                source.eigennorm,
            )
            assert "f_norm" in rep.terms


def test_vacuous_report_reads_no_radicand(golden_data):
    f = LocallyConstantFunction.indicator(golden_data.shift, (0,))
    rep = gibbs_report("finitary", golden_data, f, "b", 0.5, -1.0, 0.25, True, terms={})
    assert rep.rhs == math.inf and rep.vacuous
    rep = gibbs_report("finitary", golden_data, f, "b", 0.5, 4.0, 0.25, terms={})
    assert rep.rhs == golden_data.b * 1.0 * (0.25 + 2.0)
    assert rep.slack == rep.rhs - 0.5
