import dataclasses
import math
import re
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from thermoshift import approx, transfer
from thermoshift.approx import (
    AMBIENT_A,
    combined_orbit_harness,
    geometric_model,
    hurwitz_zeta,
    orbit_entropy_identity,
    periodic_orbit_harness,
    periodic_orbit_measure,
    periodic_orbit_measures,
    stability_bound,
    truncate,
    truncation_harness,
    zeta_model,
)
from thermoshift.potential import LocallyConstantFunction, add, random_function
from thermoshift.shift import (
    build_sft,
    enumerate_periodic,
    enumerate_words,
    is_topologically_mixing,
)
from thermoshift.systems import BUILTIN_SYSTEMS, builtin_shift, builtin_system
from thermoshift.transfer import (
    EigensolverError,
    edge_values,
    gurevich_estimate,
    partition_sum,
    perron_data,
    transfer_matrix,
)


# --- countable models -------------------------------------------------------


def test_geometric_closed_forms():
    model = geometric_model(0.5)
    assert model.weight(1) == 0.5
    assert model.total() == pytest.approx(1.0, abs=1e-15)
    assert model.pressure() == pytest.approx(0.0, abs=1e-15)
    # tail after n: sum_{s > n} 2^-s = 2^-n
    for n in range(1, 20):
        assert model.tail(n) == pytest.approx(2.0**-n, abs=1e-15)


def test_zeta_closed_forms():
    model = zeta_model(2.0)
    assert model.total() == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    head = sum(1.0 / s**2 for s in range(1, 7))
    assert model.tail(6) == pytest.approx(math.pi**2 / 6.0 - head, abs=1e-12)


class _TwoParameterModel(NamedTuple):
    """The model's formulas as they read when a model also carried a scale,
    here at scale 1.0."""

    family: str
    param: float
    scale: float = 1.0

    def weight(self, s):
        if self.family == "geometric":
            return self.scale * self.param**s
        return self.scale * float(s) ** -self.param

    def total(self):
        if self.family == "geometric":
            return self.scale * self.param / (1.0 - self.param)
        return self.scale * hurwitz_zeta(self.param, 1.0)

    def tail(self, n):
        if self.family == "geometric":
            return self.scale * self.param ** (n + 1) / (1.0 - self.param)
        return self.scale * hurwitz_zeta(self.param, float(n + 1))

    def pressure(self):
        return math.log(self.total())

    def expectation(self, values):
        return sum(v * self.weight(s) for s, v in values.items()) / self.total()


@pytest.mark.parametrize(
    "family, build, params",
    [
        ("geometric", geometric_model, np.linspace(0.001, 0.999, 50)),
        ("zeta", zeta_model, np.linspace(1.001, 8.0, 50)),
    ],
)
def test_one_parameter_model_matches_the_scaled_formulas(family, build, params):
    """Bit for bit: dropping the scale factor 1.0 changes no value."""
    observables = ({1: 1.0}, {2: -0.5, 5: 2.0}, {s: 1.0 / s for s in range(1, 40, 3)})
    for param in params.tolist():
        model, oracle = build(param), _TwoParameterModel(family, param)
        assert model.total() == oracle.total()
        assert model.pressure() == oracle.pressure()
        assert [model.weight(s) for s in range(1, 40)] == [oracle.weight(s) for s in range(1, 40)]
        assert [model.tail(n) for n in range(60)] == [oracle.tail(n) for n in range(60)]
        for values in observables:
            assert model.expectation(values) == oracle.expectation(values)


# (x, q, zeta(x, q)) from scipy 1.17's scipy.special.zeta, which this package
# called before carrying its own port; compared with ==.  The pairs are those
# the default zeta(2) and zeta(3.0) configs read (q = 1 and q = n + 1 for
# n = 2..20), those of the benchmark's zeta models (seeds 1-2, batches 0-1),
# and five more: q < 1, a large x, a large q, the q > 1e8 asymptotic form,
# and a direct sum that stops before q + i passes 9.
ZETA_PINNED = (
    (2.0, 1.0, 1.6449340668482266),
    (2.0, 3.0, 0.39493406684822646),
    (2.0, 4.0, 0.28382295573711525),
    (2.0, 5.0, 0.22132295573711533),
    (2.0, 6.0, 0.18132295573711532),
    (2.0, 7.0, 0.15354517795933756),
    (2.0, 8.0, 0.13313701469403144),
    (2.0, 9.0, 0.11751201469403141),
    (2.0, 10.0, 0.10516633568168576),
    (2.0, 11.0, 0.09516633568168575),
    (2.0, 12.0, 0.0869018728717684),
    (2.0, 13.0, 0.07995742842732394),
    (2.0, 14.0, 0.07404026866401034),
    (2.0, 15.0, 0.0689382278476838),
    (2.0, 16.0, 0.06449378340323936),
    (2.0, 17.0, 0.06058753340323937),
    (2.0, 18.0, 0.05712732579078261),
    (2.0, 19.0, 0.0540409060376962),
    (2.0, 20.0, 0.051270822935203124),
    (2.0, 21.0, 0.04877082293520312),
    (3.0, 1.0, 1.202056903159594),
    (3.0, 3.0, 0.07705690315959428),
    (3.0, 4.0, 0.04001986612255725),
    (3.0, 5.0, 0.024394866122557243),
    (3.0, 6.0, 0.01639486612255725),
    (3.0, 7.0, 0.011765236492927617),
    (3.0, 8.0, 0.008849784597883886),
    (3.0, 9.0, 0.006896659597883886),
    (3.0, 10.0, 0.005524917485401034),
    (3.0, 11.0, 0.004524917485401034),
    (3.0, 12.0, 0.003773602684499457),
    (3.0, 13.0, 0.0031948989807957526),
    (3.0, 14.0, 0.0027397328451562444),
    (3.0, 15.0, 0.0023753013582757773),
    (3.0, 16.0, 0.0020790050619794815),
    (3.0, 17.0, 0.0018348644369794813),
    (3.0, 18.0, 0.0016313228127173194),
    (3.0, 19.0, 0.001459855048656963),
    (3.0, 20.0, 0.0013140612011573272),
    (3.0, 21.0, 0.0011890612011573275),
    (2.028749, 1.0, 1.618779469408999),
    (2.028749, 3.0, 0.3737119824550474),
    (2.028749, 4.0, 0.2660553646671917),
    (2.028749, 5.0, 0.20599729150526663),
    (2.028749, 6.0, 0.1678059157876316),
    (2.028749, 7.0, 0.14142277901239972),
    (2.028749, 8.0, 0.12212496144714638),
    (2.028749, 9.0, 0.10740668038605686),
    (2.028749, 10.0, 0.09581673303253642),
    (2.028749, 11.0, 0.08645726856210144),
    (2.028749, 12.0, 0.07874333966632718),
    (2.028749, 13.0, 0.07227769063885871),
    (2.028749, 14.0, 0.06678116145816718),
    (2.028749, 15.0, 0.06205189380375469),
    (2.028749, 16.0, 0.05794033946532886),
    (2.028749, 17.0, 0.05433336731340573),
    (2.028749, 18.0, 0.05114382784073377),
    (2.028749, 19.0, 0.04830350856887791),
    (2.028749, 20.0, 0.0457582617060696),
    (2.995032, 1.0, 1.2030441605969777),
    (3.925065, 1.0, 1.0876749861778217),
    (3.925065, 3.0, 0.021842887534143825),
    (3.925065, 4.0, 0.008437849135826648),
    (3.925065, 5.0, 0.004103983923995731),
    (3.925065, 6.0, 0.0022989004093541426),
    (3.925065, 7.0, 0.0014164185991938393),
    (3.925065, 8.0, 0.0009345426381197514),
    (3.925065, 9.0, 0.0006492351959860948),
    (3.925065, 10.0, 0.000469540141525737),
    (3.925065, 11.0, 0.00035070770552977546),
    (3.925065, 12.0, 0.00026896179789278924),
    (3.925065, 13.0, 0.0002108661683150648),
    (3.925065, 14.0, 0.00016843353973735296),
    (3.925065, 15.0, 0.00013671063393390657),
    (3.925065, 16.0, 0.00011251342010796676),
    (3.925065, 17.0, 9.37310324336485e-05),
    (3.925065, 18.0, 7.892604631891533e-05),
    (3.925065, 19.0, 6.70963437679e-05),
    (3.925065, 20.0, 5.7528611869128446e-05),
    (3.018855, 1.0, 1.1983634352236938),
    (3.018855, 3.0, 0.07498646744347214),
    (3.018855, 4.0, 0.0387087365766506),
    (3.018855, 5.0, 0.023486860398008905),
    (3.018855, 6.0, 0.015725981484427744),
    (3.018855, 7.0, 0.011250145052132374),
    (3.018855, 8.0, 0.008439722922994216),
    (3.018855, 9.0, 0.006561693996147427),
    (3.018855, 10.0, 0.0052456202393018885),
    (3.018855, 11.0, 0.004288106531634791),
    (3.018855, 12.0, 0.0035700039543087453),
    (3.018855, 13.0, 0.0030177888270119),
    (3.018855, 14.0, 0.002584111676066491),
    (3.018855, 15.0, 0.002237370315590992),
    (3.988325, 1.0, 1.0831322259804823),
    (3.988325, 3.0, 0.02012439310150332),
    (3.988325, 4.0, 0.00761934485148903),
    (3.988325, 5.0, 0.0036493578473836465),
    (3.988325, 6.0, 0.002019009312777051),
    (3.988325, 7.0, 0.001231093322496579),
    (3.988325, 8.0, 0.0008050297941465261),
    (3.988325, 9.0, 0.0005548895164601345),
    (3.988325, 10.0, 0.00039851328472494905),
    (3.988325, 11.0, 0.0002957885567219679),
    (3.988325, 12.0, 0.0002255480689207635),
    (3.223792, 1.0, 1.1630932895827266),
    (2.037728, 1.0, 1.610926268148018),
    (2.874818, 1.0, 1.2288677092925402),
    (2.312596, 1.0, 1.425781351889782),
    (3.738467, 1.0, 1.1028084954835915),
    (2.0995, 1.0, 1.5605992535748885),
    (2.861764, 1.0, 1.2319127152499418),
    (2.132346, 1.0, 1.536227683682436),
    (2.151516, 1.0, 1.5226938185010483),
    (1.5, 0.25, 10.213055360466601),
    (7.5, 37.25, 1.0286351893651256e-11),
    (2.5, 100000.0, 2.1082009182331015e-08),
    (1.5, 200000000.0, 0.0001414213564140862),
    (40.0, 1.0, 1.0000000000009095),
)


@pytest.mark.parametrize("x, q, expected", ZETA_PINNED)
def test_hurwitz_zeta_pinned(x, q, expected):
    assert hurwitz_zeta(x, q) == expected


@pytest.mark.parametrize("x, exact", [(2.0, math.pi**2 / 6.0), (4.0, math.pi**4 / 90.0)])
def test_hurwitz_zeta_riemann_values(x, exact):
    assert abs(hurwitz_zeta(x, 1.0) - exact) <= 2 * math.ulp(exact)


def test_hurwitz_zeta_returns_zero_where_every_term_underflows():
    # Cephes' stopping test reads 0/0 as nan there, which fails it, and so
    # it sums on to 0.0; a term that does not underflow keeps its bits
    assert hurwitz_zeta(1100.0, 3.0) == 0.0
    assert hurwitz_zeta(1100.0, 1.0) == 1.0
    assert zeta_model(1100.0).tail(1) == 0.0


@pytest.mark.parametrize(
    "model, message",
    [
        (zeta_model(1100.0), "state 2 of zeta(1100) has a weight that underflows to 0.0"),
        (geometric_model(1e-160), "state 3 of geometric(1e-160) has a weight that underflows"),
    ],
)
def test_truncate_refuses_a_weight_that_underflows(model, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        truncate(model, 6)


def test_hurwitz_zeta_domain():
    for x, q in ((1.0, 1.0), (0.5, 1.0), (2.0, 0.0), (2.0, -0.5), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            hurwitz_zeta(x, q)


def test_model_validation():
    with pytest.raises(ValueError):
        geometric_model(1.0)
    with pytest.raises(ValueError):
        zeta_model(1.0)
    # a model has one parameter: there is no scale to pass
    with pytest.raises(TypeError):
        geometric_model(0.5, 2.0)


def test_truncate_builds_weighted_full_shift():
    model = geometric_model(0.5)
    sub = truncate(model, 4)
    assert sub.data.shift.n == 4
    b = transfer_matrix(sub.data.shift, sub.data.phi)
    # range-1 weights are constant along rows: row i carries w_{i+1}
    assert b[:, 0] == pytest.approx([0.5, 0.25, 0.125, 0.0625])
    assert b[:, 0] == pytest.approx(b[:, 3])
    assert sub.data.pressure == pytest.approx(math.log(1.0 - 2.0**-4), abs=1e-12)


def test_truncation_pressure_monotone():
    model = geometric_model(0.5)
    last = -math.inf
    for n in range(2, 21):
        p = truncate(model, n).data.pressure
        assert p >= last - 1e-15
        assert p <= model.pressure() + 1e-15
        last = p


def test_truncation_gap_closed_form():
    model = geometric_model(0.5)
    reports = truncation_harness(model, {1: 1.0}, range(2, 21))
    for rep in reports:
        n = rep.params["n"]
        assert rep.terms["pressure_gap"] == pytest.approx(
            -math.log(1.0 - 2.0**-n), abs=1e-12
        )
        assert not rep.vacuous
        assert rep.slack >= 0.0


TRUNCATED_MODELS = [geometric_model(r) for r in (0.1, 0.3, 0.5, 0.7)] + [
    zeta_model(alpha) for alpha in (1.5, 2.0, 4.0)
]


@pytest.mark.parametrize("n", [2, 6, 20, 40, 80])
@pytest.mark.parametrize("model", TRUNCATED_MODELS, ids=lambda m: f"{m.family}-{m.param:g}")
def test_both_corollaries_read_one_truncation_gap(model, n):
    [rep] = truncation_harness(model, {1: 1.0}, [n])
    assert truncate(model, n).pressure_gap == rep.terms["pressure_gap"]


def test_truncation_gap_far_below_the_pressure_resolution():
    # P - P_80 = -log(1 - 2^-80) is 8.3e-25; log(total) - log(total - tail)
    # would read a rounding of log(1) instead
    assert truncate(geometric_model(0.5), 80).pressure_gap == -math.log1p(-(2.0**-80))
    assert truncate(geometric_model(0.1), 20).pressure_gap > 0.0


@pytest.mark.parametrize("n", [30, 60])
@pytest.mark.parametrize("values", [{1: 1.0}, {2: 1.0, 30: 1.0}], ids=["state-1", "states-2-30"])
def test_truncation_lhs_matches_exact_rationals(values, n):
    # geometric(0.5) has dyadic weights 2^-s, total 1 and tail(n) = 2^-n, so
    # Fraction gives |m(f) - m_n(f)| exactly; the float form takes a handful
    # of roundings, each within 2^-53 relative
    model = geometric_model(0.5)
    weight = {s: Fraction(1, 2**s) for s in values}
    total, tail = Fraction(1), Fraction(1, 2**n)
    m_f = sum(Fraction(v) * weight[s] for s, v in values.items()) / total
    mn_f = sum(Fraction(v) * weight[s] for s, v in values.items() if s <= n) / (total - tail)
    exact = abs(m_f - mn_f)
    [rep] = truncation_harness(model, values, [n])
    assert rep.lhs == pytest.approx(float(exact), rel=8 * 2.0**-53, abs=0.0)


def test_truncation_lhs_ratio_vanishes():
    model = geometric_model(0.5)
    reports = truncation_harness(model, {1: 1.0}, range(4, 21))
    ratios = [rep.lhs / rep.rhs for rep in reports]
    assert all(x >= y for x, y in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-3


def test_truncation_decay_slopes():
    model = geometric_model(0.5)
    reports = truncation_harness(model, {1: 1.0}, range(8, 19))
    ns = np.array([rep.params["n"] for rep in reports], dtype=float)
    lhs_slope = np.polyfit(ns, np.log([rep.lhs for rep in reports]), 1)[0]
    rhs_slope = np.polyfit(ns, np.log([rep.rhs for rep in reports]), 1)[0]
    assert lhs_slope == pytest.approx(-math.log(2.0), rel=0.10)
    assert rhs_slope == pytest.approx(-math.log(2.0) / 2.0, rel=0.10)


def test_truncation_vacuous_above_support():
    model = geometric_model(0.5)
    reports = truncation_harness(model, {5: 1.0}, range(2, 8))
    flags = {rep.params["n"]: rep.vacuous for rep in reports}
    assert flags[2] and flags[3] and flags[4]
    assert not flags[5] and not flags[6]
    for rep in reports:
        if rep.vacuous:
            assert rep.rhs == math.inf


def test_ambient_constant_is_sqrt_two():
    assert AMBIENT_A == math.sqrt(2.0)


def test_zeta_truncation_certified():
    model = zeta_model(2.0)
    reports = truncation_harness(model, {1: 1.0, 2: -1.0}, range(2, 15))
    for rep in reports:
        assert rep.slack >= 0.0


# --- periodic orbit measures ------------------------------------------------


# Reference oracle: list all n^k cyclically admissible k-words and weigh each
# by the exponential of its cyclic Birkhoff sum, in pure Python.


class EnumeratedOrbitMeasure(NamedTuple):
    n: int
    k: int
    words: tuple
    weights: np.ndarray
    log_normalizer: float

    def expectation(self, f):
        total = 0.0
        for w, p in zip(self.words, self.weights):
            total += p * f.table[tuple(w[i % self.k] for i in range(f.depth))]
        return float(total)

    def block_entropy(self):
        w = self.weights[self.weights > 0.0]
        return float(-np.sum(w * np.log(w)))

    def marginal_entropy(self):
        mass = np.zeros(self.n)
        for w, p in zip(self.words, self.weights):
            mass[w[0]] += p
        live = mass[mass > 0.0]
        return float(-np.sum(live * np.log(live)))


def enumerated_orbit_measure(shift, phi, k):
    words = enumerate_periodic(shift, k)
    raw = np.array([math.exp(phi.birkhoff_sum(w, k, cyclic=True)) for w in words])
    z = float(raw.sum())
    return EnumeratedOrbitMeasure(shift.n, k, tuple(words), raw / z, math.log(z))


ORACLE_TOL = 1e-12


def assert_matches_oracle(shift, phi, k, observables=()):
    """Trace route against the enumeration, relative with the scale floored at 1."""
    nu = periodic_orbit_measure(perron_data(shift, phi), k)
    ref = enumerated_orbit_measure(shift, phi, k)
    pairs = [
        (nu.log_normalizer, ref.log_normalizer),
        (nu.block_entropy(), ref.block_entropy()),
        (nu.marginal_entropy(), ref.marginal_entropy()),
    ]
    pairs += [(nu.expectation(f), ref.expectation(f)) for f in (phi, *observables)]
    for got, want in pairs:
        assert abs(got - want) <= ORACLE_TOL * max(1.0, abs(want)), (k, got, want)


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_trace_route_matches_enumeration_on_builtins(name):
    shift, phi = builtin_system(name)
    rng = np.random.default_rng(17)
    observables = [random_function(shift, r, rng) for r in (1, 2, 3)]
    for k in range(1, 13):
        assert_matches_oracle(shift, phi, k, observables)


@pytest.mark.parametrize("model", [geometric_model(0.5), zeta_model(2.0)])
def test_trace_route_matches_enumeration_on_truncations(model):
    for n in range(2, 6):
        sub = truncate(model, n)
        f = sub.observable({1: 1.0, 2: -0.5})
        for k in range(1, 8):
            assert_matches_oracle(sub.data.shift, sub.data.phi, k, [f])


def test_periodic_measure_trace_identity():
    for name in ("golden-zero", "golden-range2", "full2-bernoulli", "tribonacci-zero"):
        shift, phi = builtin_system(name)
        b = transfer_matrix(shift, phi)
        data = perron_data(shift, phi)
        for k in range(1, 13):
            nu = periodic_orbit_measure(data, k)
            trace = float(np.trace(np.linalg.matrix_power(b, k)))
            z = math.exp(nu.log_normalizer)
            assert abs(z - trace) <= 1e-10 * max(1.0, trace)


def test_periodic_measure_weights():
    shift, phi = builtin_system("golden-range2")
    nu = enumerated_orbit_measure(shift, phi, 3)
    assert len(nu.words) == len(enumerate_periodic(shift, 3))
    assert sum(nu.weights) == pytest.approx(1.0, abs=1e-12)
    # weight of the aab cycle against the aba rotation: equal cyclic sums
    by_word = dict(zip(nu.words, nu.weights))
    assert by_word[(0, 0, 1)] == pytest.approx(by_word[(0, 1, 0)], abs=1e-15)


def test_no_periodic_points_refused():
    # a -> b -> a and a -> b -> c -> a: mixing, but no fixed points
    shift = build_sft("abc", [("a", "b"), ("b", "a"), ("b", "c"), ("c", "a")])
    assert is_topologically_mixing(shift)
    phi = LocallyConstantFunction.zero(shift)
    with pytest.raises(ValueError, match="no periodic points of period 1"):
        periodic_orbit_measure(perron_data(shift, phi), 1)
    assert_matches_oracle(shift, phi, 2)


def test_non_finite_weights_refused():
    # every weight is finite, but their spectral radius overflows a float:
    # the data a periodic-orbit measure is built from is refused
    shift = builtin_shift("full-2")
    phi = LocallyConstantFunction.constant(shift, 709.7)
    with pytest.raises(EigensolverError, match="dominant root inf overflows a float"):
        perron_data(shift, phi)


def test_long_period_rate_reaches_pressure():
    shift, phi = builtin_system("golden-range2")
    data = perron_data(shift, phi)
    nu = periodic_orbit_measure(data, 2000)
    assert math.isfinite(nu.log_normalizer)
    pressure = data.pressure
    assert abs(nu.log_normalizer / 2000 - pressure) <= 1e-9


def test_orbit_entropy_identity_shows_other_potentials():
    # with psi in place of phi the sides differ by nu(psi - phi), which the
    # enumeration computes independently
    shift, phi = builtin_system("golden-range2")
    psi = add(phi, random_function(shift, 2, np.random.default_rng(23)))
    data = perron_data(shift, phi)
    for k in (1, 2, 5, 9):
        lhs, rhs = orbit_entropy_identity(periodic_orbit_measure(data, k), psi)
        ref = enumerated_orbit_measure(shift, phi, k)
        gap = ref.expectation(psi) - ref.expectation(phi)
        assert abs(gap) > 1e-3
        assert lhs - rhs == pytest.approx(gap, abs=1e-12)


def test_orbit_entropy_identity_exact():
    for name in ("golden-zero", "golden-range2", "full2-zero", "full2-bernoulli"):
        shift, phi = builtin_system(name)
        data = perron_data(shift, phi)
        for k in range(1, 13):
            nu = periodic_orbit_measure(data, k)
            lhs, rhs = orbit_entropy_identity(nu, phi)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_orbit_harness_certifies_settled_periods():
    for name in ("golden-zero", "full2-zero", "full2-bernoulli"):
        shift, phi = builtin_system(name)
        data = perron_data(shift, phi)
        f = LocallyConstantFunction.indicator(shift, (0,))
        for rep in periodic_orbit_harness(data, f, range(3, 13)):
            assert rep.kind == "periodic-orbit"
            if not rep.params["pre_asymptotic"]:
                assert rep.slack >= 0.0


def test_orbit_harness_marks_exact_trace_as_settled():
    # kappa = 0: trace equals lambda^k analytically, nothing pre-asymptotic
    shift, phi = builtin_system("full2-bernoulli")
    data = perron_data(shift, phi)
    f = LocallyConstantFunction.indicator(shift, (0,))
    reports = periodic_orbit_harness(data, f, range(3, 13))
    assert not any(rep.params["pre_asymptotic"] for rep in reports)


def test_orbit_harness_pre_asymptotic_rule():
    shift, phi = builtin_system("golden-zero")
    data = perron_data(shift, phi)
    f = LocallyConstantFunction.indicator(shift, (0,))
    for rep in periodic_orbit_harness(data, f, range(3, 13)):
        k = rep.params["k"]
        spectral = 2.0 * shift.n * data.kappa**k / k
        expected = rep.terms["rate_gap"] > spectral + 1e-12
        assert rep.params["pre_asymptotic"] == expected


def test_combined_orbit_harness_adds_ambient_gap():
    sub = truncate(geometric_model(0.5), 4)
    reports = combined_orbit_harness(sub, {1: 1.0}, range(3, 9))
    for rep in reports:
        assert rep.terms["combined_rhs"] >= rep.rhs
        expected = rep.rhs + AMBIENT_A * 1.0 * math.sqrt(sub.pressure_gap)
        assert rep.terms["combined_rhs"] == pytest.approx(expected, abs=1e-12)
        if not rep.params["pre_asymptotic"]:
            assert rep.terms["combined_lhs"] <= rep.terms["combined_rhs"] + 1e-12


# --- orbit families ---------------------------------------------------------
# A family shares B, its eigenvalues, the tilted lift and the word lists over
# its periods.  Its measures are held with == to a fresh one-period measure
# and to the per-period construction it replaced, inlined here as an oracle.


class OracleOrbitMeasure(NamedTuple):
    base: object
    phi: object
    k: int
    scaled: np.ndarray
    power: np.ndarray
    log_normalizer: float
    trace_dev: float

    def expectation(self, f):
        r, k = f.depth, self.k
        m = min(r, k)
        closing = np.linalg.matrix_power(self.scaled, k - m + 1)
        total = 0.0
        for u in enumerate_words(self.base, m):
            weight = closing[u[-1], u[0]]
            for a, b in zip(u, u[1:]):
                weight *= self.scaled[a, b]
            if weight > 0.0:
                total += weight * f.table[tuple(u[i % m] for i in range(r))]
        return float(total / np.trace(self.power))

    def block_entropy(self):
        n = self.base.n
        tilted = self.scaled * edge_values(self.base, self.phi)
        lift = np.block([[self.scaled, tilted], [np.zeros((n, n)), self.scaled]])
        corner = np.linalg.matrix_power(lift, self.k)[:n, n:]
        return float(self.log_normalizer - np.trace(corner) / np.trace(self.power))

    def marginal_entropy(self):
        mass = np.diag(self.power) / np.trace(self.power)
        live = mass[mass > 0.0]
        return float(-np.sum(live * np.log(live)))


def orbit_measure_oracle(shift, phi, k):
    if k < 1:
        raise ValueError("period must be at least 1")
    b = transfer_matrix(shift, phi)
    eigenvalues = np.linalg.eigvals(b)
    rho = float(np.max(np.abs(eigenvalues)))
    scaled = b / rho if rho > 0.0 else b
    power = np.linalg.matrix_power(scaled, k)
    trace = float(np.trace(power))
    if not (math.isfinite(rho) and math.isfinite(trace)):
        raise ValueError(
            f"period-{k} weights are not finite: spectral radius {rho}, "
            f"scaled trace {trace}"
        )
    if trace <= 0.0:
        raise ValueError(f"no periodic points of period {k}")
    spectral = float(np.sum((eigenvalues / rho) ** k).real)
    trace_dev = abs(trace - spectral) / max(1.0, trace)
    log_normalizer = k * math.log(rho) + math.log(trace)
    return OracleOrbitMeasure(shift, phi, k, scaled, power, log_normalizer, trace_dev)


def orbit_readings(nu, observables):
    return (
        nu.power.tobytes(),
        nu.log_normalizer,
        [nu.expectation(f) for f in observables],
        nu.block_entropy(),
        nu.marginal_entropy(),
    )


FAMILY_PERIODS = (*range(1, 21), 2000)


def family_systems():
    for name in sorted(BUILTIN_SYSTEMS):
        yield name, *builtin_system(name)
    for model in (geometric_model(0.5), zeta_model(2.0)):
        for n in range(2, 7):
            sub = truncate(model, n)
            yield f"{model.family}-{n}", sub.data.shift, sub.data.phi


@pytest.mark.parametrize("name, shift, phi", list(family_systems()))
def test_family_matches_fresh_measures_and_oracle(name, shift, phi):
    rng = np.random.default_rng(53)
    # ranges 1, 2 and 3; periods 1 and 2 read the range-3 one cyclically
    observables = [phi, *(random_function(shift, r, rng) for r in (1, 2, 3))]
    family = list(periodic_orbit_measures(perron_data(shift, phi), FAMILY_PERIODS))
    assert [nu.k for nu in family] == list(FAMILY_PERIODS)
    for nu in family:
        want = orbit_readings(orbit_measure_oracle(shift, phi, nu.k), observables)
        assert orbit_readings(nu, observables) == want, (name, nu.k)
        fresh = periodic_orbit_measure(perron_data(shift, phi), nu.k)
        assert orbit_readings(fresh, observables) == want, (name, nu.k)


def random_mixing_system(n, seed):
    """A mixing shift on n states (a cycle through every state, a self-loop
    and 2n random edges) with a random range-2 potential."""
    rng = np.random.default_rng(seed)
    labels = [f"s{i}" for i in range(n)]
    order = rng.permutation(n)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)} | {(order[0], order[0])}
    while len(edges) < 3 * n + 1:
        edges.add(tuple(rng.integers(n, size=2)))
    shift = build_sft(labels, [(labels[u], labels[v]) for u, v in sorted(edges)])
    assert is_topologically_mixing(shift)
    return shift, random_function(shift, 2, rng)


def assert_harness_matches_oracle(name, reports, shift, phi, f, periods):
    assert [rep.params["k"] for rep in reports] == list(periods), name
    for rep in reports:
        k = rep.params["k"]
        nu = orbit_measure_oracle(shift, phi, k)
        lhs = nu.block_entropy() / k + nu.expectation(phi)
        assert rep.terms["nu_f"] == nu.expectation(f), (name, k)
        assert rep.terms["identity_dev"] == abs(lhs - nu.log_normalizer / k), (name, k)
        assert rep.terms["entropy_term"] == 2.0 / (k - 2) * nu.marginal_entropy(), (name, k)
        assert rep.terms["trace_dev"] == nu.trace_dev, (name, k)


def test_family_harness_matches_oracle():
    # the harness reads its measures from one range pass: its rows equal
    # those built from the per-period construction, on every family system,
    # on a model through combined_orbit_harness, and on 40 states, where
    # periods 3..60 span three blocks of the pass
    wide = ("random-40", *random_mixing_system(40, 73), range(3, 61))
    assert len(wide[-1]) > 2 * (transfer.PROBE_BLOCK_ENTRIES // 40**2)
    for name, shift, phi, periods in [*((*s, range(3, 21)) for s in family_systems()), wide]:
        f = random_function(shift, 3, np.random.default_rng(59))
        reports = periodic_orbit_harness(perron_data(shift, phi), f, periods)
        assert_harness_matches_oracle(name, reports, shift, phi, f, periods)
    sub = truncate(zeta_model(2.0), 5)
    values = {1: 1.0, 3: -0.5}
    reports = combined_orbit_harness(sub, values, range(3, 16))
    shift, phi = sub.data.shift, sub.data.phi
    f = sub.observable(values)
    assert_harness_matches_oracle("combined-zeta-5", reports, shift, phi, f, range(3, 16))
    for rep in reports:
        assert rep.terms["combined_lhs"] == abs(sub.model.expectation(values) - rep.terms["nu_f"])


def refusal(fn, *args):
    with pytest.raises((ValueError, RuntimeError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


def family_refusal(data, periods):
    """(the periods yielded, then the refusal) of one family."""
    done = []
    with pytest.raises((ValueError, RuntimeError)) as info:
        for nu in periodic_orbit_measures(data, periods):
            done.append(nu.k)
    return done, (type(info.value), str(info.value))


def test_family_refusals_match_one_period_measures():
    # cycles of lengths 3 and 4 only: no period-5 points
    gap = build_sft("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "a")])
    assert is_topologically_mixing(gap)
    gap_phi = random_function(gap, 2, np.random.default_rng(61))
    full = builtin_shift("full-2")
    zero = LocallyConstantFunction.zero(full)
    cases = [
        (gap, gap_phi, [3, 4, 5, 6], [3, 4], 5),
        (full, zero, [3, 0, 4], [3], 0),
        (full, zero, [2, -1], [2], -1),
    ]
    for shift, phi, periods, done, bad in cases:
        want = refusal(orbit_measure_oracle, shift, phi, bad)
        data = perron_data(shift, phi)
        assert refusal(periodic_orbit_measure, data, bad) == want
        assert family_refusal(data, periods) == (done, want)
    # the harness refuses each period when it reaches it, though its range
    # pass reads a whole block ahead: period 5 before the 2 that follows it,
    # and a 2 before the period 5 that follows it
    data = perron_data(gap, gap_phi)
    f = LocallyConstantFunction.indicator(gap, (0,))
    assert refusal(periodic_orbit_harness, data, f, [3, 4, 5, 2]) == (
        ValueError,
        "no periodic points of period 5",
    )
    assert refusal(periodic_orbit_harness, data, f, [3, 2, 5]) == (
        ValueError,
        "periods below 3 have no certified form",
    )
    # an overflowing root and a long range are refused by the data a family
    # is built from, before any period is reached
    huge = LocallyConstantFunction.constant(full, 709.7)
    assert refusal(perron_data, full, huge) == (
        EigensolverError,
        "dominant root inf overflows a float: the pressure is past the float range",
    )
    long_range = random_function(full, 3, np.random.default_rng(67))
    assert refusal(perron_data, full, long_range) == (
        ValueError,
        "transfer matrix needs a potential of range at most 2",
    )


def test_long_ranges_meet_the_one_transfer_matrix_refusal():
    # every range-2 route reaches the edge words before a table entry
    shift, phi = builtin_system("full2-bernoulli")
    data = perron_data(shift, phi)
    long_range = random_function(shift, 3, np.random.default_rng(71))
    routes = [
        (partition_sum, shift, long_range, shift.states[0], [3]),
        (gurevich_estimate, shift, long_range, shift.states[0], 3),
        (perron_data, shift, long_range),
        (stability_bound, data, long_range, phi),
    ]
    for fn, *args in routes:
        assert refusal(fn, *args) == (
            ValueError,
            "transfer matrix needs a potential of range at most 2",
        ), fn.__name__


def test_family_checks_the_trace_at_every_period(monkeypatch):
    # eigenvalues 2, 0.02, -0.02 for B = [[1, 1], [1, 1]] (really 2, 0):
    # the sum matches the trace at k = 1 and misses it by 2e-4 at k = 2; the
    # measures are still built, and carry the miss for the caller to judge
    shift, phi = builtin_system("full2-zero")
    spurious = np.array([2.0, 0.02, -0.02])
    data = dataclasses.replace(perron_data(shift, phi), eigenvalues=spurious)
    assert data.lam == 2.0
    family = list(periodic_orbit_measures(data, range(1, 5)))
    assert [nu.k for nu in family] == [1, 2, 3, 4]
    with monkeypatch.context() as patch:  # the oracle's own solve finds the same values
        patch.setattr(np.linalg, "eigvals", lambda b: spurious)
        for nu in family:
            assert nu.trace_dev == orbit_measure_oracle(shift, phi, nu.k).trace_dev
            assert nu.trace_dev == periodic_orbit_measure(data, nu.k).trace_dev
    assert family[0].trace_dev <= 1e-10
    assert family[1].trace_dev == pytest.approx(2e-4, rel=1e-9)
    # the harness reports each period's miss
    f = LocallyConstantFunction.indicator(shift, (0,))
    reports = periodic_orbit_harness(data, f, range(3, 5))
    assert [rep.terms["trace_dev"] for rep in reports] == [nu.trace_dev for nu in family[2:]]
    assert reports[1].terms["trace_dev"] > 1e-10


def test_families_and_the_harness_build_no_matrix_and_solve_nothing(monkeypatch):
    # B, its root and its eigenvalues are read from the PerronData
    assert not hasattr(approx, "transfer_matrix")
    shift, phi = builtin_system("golden-range2")
    data = perron_data(shift, phi)
    f = LocallyConstantFunction.indicator(shift, (0,))

    def refuse(*args):
        raise AssertionError("a transfer matrix was built or an eigensolve ran")

    for owner, name in ((transfer, "transfer_matrix"), (np.linalg, "eig"), (np.linalg, "eigvals")):
        monkeypatch.setattr(owner, name, refuse)
    with pytest.raises(ValueError, match="periods below 3 have no certified form"):
        periodic_orbit_harness(data, f, [2, 3])
    with pytest.raises(ValueError, match="periods below 3 have no certified form"):
        periodic_orbit_harness(data, f, [3, 4, 5, 2])
    assert len(periodic_orbit_harness(data, f, range(3, 13))) == 10
    assert [nu.k for nu in periodic_orbit_measures(data, range(1, 4))] == [1, 2, 3]
    assert periodic_orbit_measure(data, 3).k == 3


# --- stability --------------------------------------------------------------


def test_stability_closed_form_example():
    shift = builtin_shift("full-2")
    phi = LocallyConstantFunction.zero(shift)
    psi = LocallyConstantFunction.from_values(shift, 1, {("a",): 0.1, ("b",): -0.1})
    f = LocallyConstantFunction.indicator(shift, (0,))
    rep = stability_bound(perron_data(shift, phi), psi, f)
    assert rep.lhs == pytest.approx(0.04983, abs=1e-4)
    assert rep.rhs >= 0.458
    assert rep.terms["sup_diff"] == pytest.approx(
        math.log(math.cosh(0.1)) + 0.1, abs=1e-12
    )
    assert rep.slack >= 0.0


def test_stability_random_pairs():
    shift, phi = builtin_system("golden-range2")
    f = LocallyConstantFunction.indicator(shift, (0,))
    data = perron_data(shift, phi)
    for trial in range(100):
        rng = np.random.default_rng([37, trial])
        bump = random_function(shift, 2, rng, low=-0.5, high=0.5)
        psi = add(phi, bump)
        rep = stability_bound(data, psi, f)
        assert rep.terms["raw_sup_diff"] <= 0.5
        assert rep.slack >= 0.0


def test_stability_symmetric_in_lhs():
    shift, phi = builtin_system("full2-bernoulli")
    psi = LocallyConstantFunction.zero(shift)
    f = LocallyConstantFunction.indicator(shift, (0,))
    one = stability_bound(perron_data(shift, phi), psi, f)
    two = stability_bound(perron_data(shift, psi), phi, f)
    assert one.lhs == pytest.approx(two.lhs, abs=1e-12)


def test_stability_rejects_long_range():
    shift = builtin_shift("golden-mean")
    phi = random_function(shift, 3, np.random.default_rng(41))
    f = LocallyConstantFunction.indicator(shift, (0,))
    data = perron_data(shift, LocallyConstantFunction.zero(shift))
    with pytest.raises(ValueError, match="range"):
        stability_bound(data, phi, f)
