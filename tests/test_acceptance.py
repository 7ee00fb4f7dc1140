"""End-to-end acceptance battery.

Each test certifies one headline property at fixed seeds and tolerances and
prints a one-line verdict; together they are the release gate for the
package.
"""

import math

import numpy as np
import pytest

from thermoshift.approx import (
    geometric_model,
    orbit_entropy_identity,
    periodic_orbit_harness,
    periodic_orbit_measure,
    stability_bound,
    truncation_harness,
)
from thermoshift.bounds import (
    block_entropy_gap_bound,
    cohomology_residual,
    finitary_gap_bound,
    pressure_gap_bound,
)
from thermoshift.cli import main
from thermoshift.measures import (
    conditional_kl_integral,
    kl_divergence,
    metric_pressure,
    pinsker_gap,
    point_mass,
    random_markov_measure,
)
from thermoshift.potential import LocallyConstantFunction, add, random_function
from thermoshift.systems import BUILTIN_SYSTEMS, builtin_shift, builtin_system
from thermoshift.transfer import (
    gibbs_certificate,
    gurevich_estimate,
    partition_sum,
    perron_data,
    transfer_matrix,
)

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
SHIFT_NAMES = ("full-2", "golden-mean", "tribonacci")


def zero_data(name):
    shift = builtin_shift(name)
    return perron_data(shift, LocallyConstantFunction.zero(shift))


def test_criterion_1_pressure_closed_forms():
    golden = zero_data("golden-mean")
    assert abs(golden.pressure - math.log(GOLDEN_RATIO)) <= 1e-10
    full = zero_data("full-2")
    assert abs(full.pressure - math.log(2.0)) <= 1e-12
    print(
        "criterion 1: PASS - golden pressure within 1e-10, full-2 within 1e-12"
    )


def test_criterion_2_gurevich_consistency():
    shift = builtin_shift("golden-mean")
    phi = LocallyConstantFunction.zero(shift)
    residuals = {n: res for n, _, res in gurevich_estimate(shift, phi, "a", 12)}
    assert residuals[12] <= 0.06
    for n in range(5, 13):
        assert residuals[n] <= residuals[n - 1] + 1e-12
    for ps in partition_sum(shift, phi, "a", range(1, 13)):
        assert abs(ps.enumeration - ps.matrix) <= 1e-10 * max(1.0, abs(ps.matrix))
    print(
        f"criterion 2: PASS - residual {residuals[12]:.4f} <= 0.06 at n=12, "
        "monotone from n=4, routes agree to 1e-10"
    )


def test_criterion_3_gibbs_property():
    for name in ("golden-zero", "golden-range2", "full2-bernoulli"):
        data = perron_data(*builtin_system(name))
        cert = gibbs_certificate(data, 8)
        assert cert.empirical <= cert.apriori
    for name in ("full2-zero", "full2-bernoulli"):
        cert = gibbs_certificate(perron_data(*builtin_system(name)), 8)
        assert abs(cert.worst_ratio - 1.0) <= 1e-12
    print(
        "criterion 3: PASS - length<=8 cylinder ratios inside the eigenvector "
        "window, Bernoulli ratios = 1 to 1e-12"
    )


def test_criterion_4_cohomology_identity():
    worst = 0.0
    for name in sorted(BUILTIN_SYSTEMS):
        data = perron_data(*builtin_system(name))
        worst = max(worst, cohomology_residual(data))
    assert worst <= 1e-10
    print(f"criterion 4: PASS - worst cohomology residual {worst:.3g} <= 1e-10")


def test_criterion_5_kl_pressure_identity():
    worst = 0.0
    for name in SHIFT_NAMES:
        data = zero_data(name)
        for seed in range(100):
            mu = random_markov_measure(data.shift, np.random.default_rng([55, seed]))
            dev = abs(
                conditional_kl_integral(data.measure, mu)
                - (data.pressure - metric_pressure(mu, data.phi))
            )
            worst = max(worst, dev)
    assert worst <= 1e-10
    print(
        f"criterion 5: PASS - KL integral equals pressure gap, worst deviation "
        f"{worst:.3g} over 300 measures"
    )


def test_criterion_6_pinsker():
    rng = np.random.default_rng(66)
    violations = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        l1, bound = pinsker_gap(p, q)
        if l1 > bound or kl_divergence(p, q) < 0.0:
            violations += 1
    assert violations == 0
    print("criterion 6: PASS - 0 Pinsker violations in 1000 seeded pairs")


def test_criterion_7_theorem1_certificates():
    per_shift = (334, 333, 333)
    checked = 0
    min_slack = math.inf
    for name, count in zip(SHIFT_NAMES, per_shift):
        data = zero_data(name)
        for trial in range(count):
            rng = np.random.default_rng([77, trial])
            mu = random_markov_measure(data.shift, rng)
            f = random_function(data.shift, int(rng.integers(1, 4)), rng)
            rep = pressure_gap_bound(data, mu, f)
            assert rep.slack >= 0.0
            min_slack = min(min_slack, rep.slack)
            checked += 1
    assert checked == 1000

    full = zero_data("full-2")
    rep = pressure_gap_bound(
        full,
        point_mass(full.shift, "a"),
        LocallyConstantFunction.indicator(full.shift, (0,)),
    )
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert rep.rhs == pytest.approx(math.sqrt(2.0 * math.log(2.0)), abs=1e-12)
    print(
        f"criterion 7: PASS - 1000 certificates, min slack {min_slack:.3g}, "
        "point-mass example lhs 1/2 <= sqrt(2 log 2)"
    )


def test_criterion_8_theorem2_certificates():
    data = perron_data(*builtin_system("golden-range2"))
    ell = data.phi.depth
    vacuous = 0
    min_general = math.inf
    min_markov = math.inf
    for trial in range(100):
        rng = np.random.default_rng([88, trial])
        mu = random_markov_measure(data.shift, rng)
        f = random_function(data.shift, int(rng.integers(1, 3)), rng)
        for n in range(1, 21):
            rep = finitary_gap_bound(data, mu, f, n)
            if rep.vacuous:
                vacuous += 1
            else:
                assert rep.slack >= 0.0
                assert rep.terms["raw_radicand"] >= -1e-10
                min_general = min(min_general, rep.slack)
            if n >= 3 * ell:
                repm = block_entropy_gap_bound(data, mu, f, n, ell)
                assert repm.slack >= 0.0
                assert repm.terms["raw_radicand"] >= -1e-10
                min_markov = min(min_markov, repm.slack)
    print(
        f"criterion 8: PASS - general min slack {min_general:.3g} "
        f"({vacuous} vacuous rows), markov min slack {min_markov:.3g}, "
        "radicands >= -1e-10"
    )


def test_criterion_9_corollary1_geometric():
    model = geometric_model(0.5)
    reports = truncation_harness(model, {1: 1.0}, range(2, 21))
    for rep in reports:
        n = rep.params["n"]
        assert abs(rep.terms["pressure_gap"] - (-math.log(1.0 - 2.0**-n))) <= 1e-12
        assert rep.slack >= 0.0
    fit = [rep for rep in reports if rep.params["n"] >= 8]
    ns = np.array([rep.params["n"] for rep in fit], dtype=float)
    lhs_slope = float(np.polyfit(ns, np.log([rep.lhs for rep in fit]), 1)[0])
    rhs_slope = float(np.polyfit(ns, np.log([rep.rhs for rep in fit]), 1)[0])
    assert lhs_slope == pytest.approx(-math.log(2.0), rel=0.10)
    assert rhs_slope == pytest.approx(-math.log(2.0) / 2.0, rel=0.10)
    print(
        f"criterion 9: PASS - exact truncation gaps, slopes {lhs_slope:.4f} "
        f"vs -log2 and {rhs_slope:.4f} vs -log2/2"
    )


def test_criterion_10_corollary2_periodic_orbits():
    systems = ("golden-zero", "golden-range2", "full2-zero", "full2-bernoulli")
    worst_trace = 0.0
    worst_ident = 0.0
    for name in systems:
        shift, phi = builtin_system(name)
        b = transfer_matrix(shift, phi)
        data = perron_data(shift, phi)
        for k in range(1, 13):
            nu = periodic_orbit_measure(data, k)
            trace = float(np.trace(np.linalg.matrix_power(b, k)))
            z = math.exp(nu.log_normalizer)
            worst_trace = max(worst_trace, abs(z - trace) / max(1.0, trace))
            lhs, rhs = orbit_entropy_identity(nu, phi)
            worst_ident = max(worst_ident, abs(lhs - rhs))
    assert worst_trace <= 1e-10
    assert worst_ident <= 1e-10

    settled = 0
    for name in systems:
        data = perron_data(*builtin_system(name))
        f = LocallyConstantFunction.indicator(data.shift, (0,))
        for rep in periodic_orbit_harness(data, f, range(3, 13)):
            if not rep.params["pre_asymptotic"]:
                assert rep.slack >= 0.0
                settled += 1
    assert settled > 0
    print(
        f"criterion 10: PASS - trace dev {worst_trace:.3g}, entropy identity "
        f"dev {worst_ident:.3g}, {settled} settled periods certified"
    )


def test_criterion_11_corollary3_stability():
    bases = [builtin_system("full2-zero"), builtin_system("golden-range2")]
    min_slack = math.inf
    for trial in range(100):
        shift, phi = bases[trial % 2]
        rng = np.random.default_rng([111, trial])
        bump = random_function(shift, 2, rng, low=-0.5, high=0.5)
        rep = stability_bound(perron_data(shift, phi), add(phi.with_depth(2), bump), LocallyConstantFunction.indicator(shift, (0,)))
        assert rep.terms["raw_sup_diff"] <= 0.5
        assert rep.slack >= 0.0
        min_slack = min(min_slack, rep.slack)

    shift = builtin_shift("full-2")
    phi = LocallyConstantFunction.zero(shift)
    psi = LocallyConstantFunction.from_values(shift, 1, {("a",): 0.1, ("b",): -0.1})
    rep = stability_bound(perron_data(shift, phi), psi, LocallyConstantFunction.indicator(shift, (0,)))
    assert rep.lhs == pytest.approx(0.04983, abs=1e-4)
    assert rep.rhs >= 0.458
    print(
        f"criterion 11: PASS - 100 perturbation pairs, min slack {min_slack:.3g}, "
        f"closed-form example lhs {rep.lhs:.5f}, rhs {rep.rhs:.4f}"
    )


def test_criterion_12_cli_determinism(tmp_path):
    cfg = tmp_path / "identities.cfg"
    cfg.write_text("[experiment]\nkind = identities\nseed = 0\n")
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["run", str(cfg), "--out", str(one)]) == 0
    assert main(["run", str(cfg), "--out", str(two)]) == 0
    first = (one / "identities.csv").read_bytes()
    second = (two / "identities.csv").read_bytes()
    assert first == second
    print(
        f"criterion 12: PASS - two seed-0 identity-suite runs byte-identical "
        f"({len(first)} bytes), exit 0"
    )
