"""Approximation harnesses: truncation of countable weighted shifts,
periodic-orbit measures, and stability of the equilibrium under potential
perturbation.

Countable models are weighted full shifts with closed-form tail sums, so the
ambient Gibbs measure is an explicit Bernoulli measure and the normalized
transfer operator is rank one: the ambient pressure-gap constant is exactly
sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from .bounds import BoundReport, _effective
from .measures import entropy_rate, integrate
from .potential import LocallyConstantFunction, sup_diff
from .shift import TransitionMatrix, build_sft, enumerate_periodic
from .transfer import PerronData, perron_data, transfer_matrix

AMBIENT_A = math.sqrt(2.0)


@dataclass(frozen=True)
class CountableModel:
    """Weighted full shift on states 1, 2, 3, ... with summable weights."""

    family: str
    params: tuple

    def weight(self, s: int) -> float:
        if s < 1:
            raise ValueError("states are numbered from 1")
        if self.family == "geometric":
            ratio, scale = self.params
            return scale * ratio**s
        alpha, scale = self.params
        return scale * float(s) ** -alpha

    def total(self) -> float:
        if self.family == "geometric":
            ratio, scale = self.params
            return scale * ratio / (1.0 - ratio)
        alpha, scale = self.params
        return scale * float(hurwitz_zeta(alpha, 1))

    def tail(self, n: int) -> float:
        """Exact sum of the weights of all states beyond n."""
        if self.family == "geometric":
            ratio, scale = self.params
            return scale * ratio ** (n + 1) / (1.0 - ratio)
        alpha, scale = self.params
        return scale * float(hurwitz_zeta(alpha, n + 1))

    def pressure(self) -> float:
        return math.log(self.total())

    def expectation(self, values: dict) -> float:
        """Integral of a finitely supported state function against the
        normalized weights."""
        w = self.total()
        return sum(v * self.weight(s) for s, v in values.items()) / w


def geometric_model(ratio: float, scale: float = 1.0) -> CountableModel:
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie in (0, 1)")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return CountableModel(family="geometric", params=(ratio, scale))


def zeta_model(alpha: float, scale: float = 1.0) -> CountableModel:
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1 for summable weights")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return CountableModel(family="zeta", params=(alpha, scale))


@dataclass(frozen=True, eq=False)
class FiniteSubsystem:
    """The full shift on the first `size` states of a countable model."""

    model: CountableModel
    size: int
    shift: TransitionMatrix
    phi: LocallyConstantFunction
    data: PerronData
    parent_pressure: float

    @property
    def pressure_gap(self) -> float:
        gap = self.parent_pressure - self.data.pressure
        return max(gap, 0.0)

    def observable(self, values: dict) -> LocallyConstantFunction:
        """Range-1 function on the truncation from a state-indexed table."""
        table = {}
        for i in range(self.size):
            table[(i,)] = float(values.get(i + 1, 0.0))
        return LocallyConstantFunction(base=self.shift, depth=1, table=table)


def truncate(model: CountableModel, n: int) -> FiniteSubsystem:
    if n < 2:
        raise ValueError("truncations start at 2 states")
    labels = [str(s) for s in range(1, n + 1)]
    shift = build_sft(labels, [(u, v) for u in labels for v in labels])
    table = {(i,): math.log(model.weight(i + 1)) for i in range(n)}
    phi = LocallyConstantFunction(base=shift, depth=1, table=table)
    return FiniteSubsystem(
        model=model,
        size=n,
        shift=shift,
        phi=phi,
        data=perron_data(shift, phi),
        parent_pressure=model.pressure(),
    )


def truncation_harness(model: CountableModel, values: dict, n_range) -> list:
    """Pressure-gap reports comparing the ambient Bernoulli measure with each
    truncation's.  `values` is a finitely supported observable on the states;
    rows whose truncation misses part of the support are flagged vacuous
    rather than scored.
    """
    if any(s < 1 for s in values):
        raise ValueError("states are numbered from 1")
    f_norm = max((abs(v) for v in values.values()), default=0.0)
    total = model.total()
    m_f = model.expectation(values)
    reports = []
    for n in n_range:
        tail = model.tail(n)
        gap = -math.log1p(-tail / total)
        covered = all(s <= n for s in values)
        truncated_total = total - tail
        mn_f = (
            sum(v * model.weight(s) for s, v in values.items() if s <= n)
            / truncated_total
        )
        lhs = abs(m_f - mn_f)
        rhs = AMBIENT_A * f_norm * math.sqrt(gap) if covered else math.inf
        reports.append(
            BoundReport(
                kind="truncation",
                lhs=lhs,
                rhs=rhs,
                vacuous=not covered,
                constants={"a": AMBIENT_A},
                terms={
                    "pressure_gap": gap,
                    "f_norm": f_norm,
                    "m_f": m_f,
                    "mn_f": mn_f,
                    "total": total,
                    "truncated_total": truncated_total,
                },
                params={"n": n},
            )
        )
    return reports


@dataclass(frozen=True, eq=False)
class PeriodicOrbitMeasure:
    """Probability on the period-k points, weighted by the cyclic sums."""

    base: TransitionMatrix
    k: int
    words: tuple
    weights: np.ndarray
    log_normalizer: float

    def expectation(self, f: LocallyConstantFunction) -> float:
        if not f.base.same_shift(self.base):
            raise ValueError("observable lives on a different shift")
        total = 0.0
        for w, p in zip(self.words, self.weights):
            key = tuple(w[i % self.k] for i in range(f.depth))
            total += p * f.table[key]
        return float(total)

    def block_entropy(self) -> float:
        """Entropy over length-k cylinders; each holds at most one atom."""
        w = self.weights[self.weights > 0.0]
        return float(-np.sum(w * np.log(w)))

    def marginal_entropy(self) -> float:
        mass = np.zeros(self.base.n)
        for w, p in zip(self.words, self.weights):
            mass[w[0]] += p
        live = mass[mass > 0.0]
        return float(-np.sum(live * np.log(live)))


def periodic_orbit_measure(
    shift: TransitionMatrix, phi: LocallyConstantFunction, k: int
) -> PeriodicOrbitMeasure:
    """Atoms on all cyclically admissible k-words with Gibbs-like weights.

    The normalizer is cross-checked against trace(B^k) to 1e-10 relative.
    """
    if phi.depth > 2:
        raise ValueError("needs a potential of range at most 2")
    words = enumerate_periodic(shift, k)
    if not words:
        raise ValueError(f"no periodic points of period {k}")
    raw = np.array([math.exp(phi.birkhoff_sum(w, k, cyclic=True)) for w in words])
    z = float(raw.sum())
    trace = float(np.trace(np.linalg.matrix_power(transfer_matrix(shift, phi), k)))
    if abs(z - trace) > 1e-10 * max(1.0, abs(trace)):
        raise RuntimeError(f"normalizer {z} disagrees with trace {trace} at k={k}")
    return PeriodicOrbitMeasure(
        base=shift,
        k=k,
        words=tuple(words),
        weights=raw / z,
        log_normalizer=math.log(z),
    )


def orbit_entropy_identity(nu: PeriodicOrbitMeasure, phi: LocallyConstantFunction):
    """Exact identity: block entropy rate plus the integral of the potential
    equals the log-normalizer rate."""
    lhs = nu.block_entropy() / nu.k + nu.expectation(phi)
    rhs = nu.log_normalizer / nu.k
    return lhs, rhs


def periodic_orbit_harness(
    data: PerronData, f: LocallyConstantFunction, k_range
) -> list:
    """Reports comparing the Gibbs measure with each periodic-orbit measure.

    Periods where the trace has not yet settled onto the leading eigenvalue
    (the log-normalizer rate is farther from the pressure than the spectral
    term allows) are marked pre_asymptotic in params; their slack is reported
    but carries no certificate.
    """
    norms = f.norms()
    reports = []
    theta = data.phi.theta
    size = data.shift.n
    delta = data.kappa
    eff = _effective(data.b, data, f)[0]
    m_f = integrate(data.measure, f)
    for k in k_range:
        if k < 3:
            raise ValueError("periods below 3 have no certified form")
        nu = periodic_orbit_measure(data.shift, data.phi, k)
        nu_f = nu.expectation(f)
        lhs = abs(m_f - nu_f)
        spectral = 2.0 * size * delta**k / k
        entropy_term = 2.0 / (k - 2) * nu.marginal_entropy()
        rhs = eff * norms.total * (theta ** (k / 2.0) + math.sqrt(spectral + entropy_term))
        rate_gap = abs(data.pressure - nu.log_normalizer / k)
        # noise floor keeps exactly-settled systems (kappa = 0, trace equal to
        # lambda^k analytically) from being marked by float residue
        pre_asymptotic = rate_gap > spectral + 1e-12 * max(1.0, abs(data.pressure))
        reports.append(
            BoundReport(
                kind="periodic-orbit",
                lhs=lhs,
                rhs=rhs,
                vacuous=False,
                constants={"b": eff, "kappa": delta, "c": data.c},
                terms={
                    "spectral": spectral,
                    "entropy_term": entropy_term,
                    "rate_gap": rate_gap,
                    "theta_power": theta ** (k / 2.0),
                    "theta_power_derivation": theta ** ((k - 2) // 2),
                    "f_norm": norms.total,
                    "nu_f": nu_f,
                    "m_f": m_f,
                },
                params={"k": k, "pre_asymptotic": pre_asymptotic},
            )
        )
    return reports


def combined_orbit_harness(sub: FiniteSubsystem, values: dict, k_range) -> list:
    """Periodic-orbit reports on a truncation, with the ambient comparison
    folded in: the combined right side adds the truncation term."""
    f = sub.observable(values)
    base_reports = periodic_orbit_harness(sub.data, f, k_range)
    m_f = sub.model.expectation(values)
    extra = AMBIENT_A * max(
        (abs(v) for v in values.values()), default=0.0
    ) * math.sqrt(sub.pressure_gap)
    out = []
    for rep in base_reports:
        combined_lhs = abs(m_f - rep.terms["nu_f"])
        terms = dict(rep.terms)
        terms["combined_lhs"] = combined_lhs
        terms["combined_rhs"] = rep.rhs + extra
        terms["ambient_m_f"] = m_f
        out.append(
            BoundReport(
                kind=rep.kind,
                lhs=rep.lhs,
                rhs=rep.rhs,
                vacuous=rep.vacuous,
                constants=rep.constants,
                terms=terms,
                params=rep.params,
            )
        )
    return out


def stability_bound(
    phi: LocallyConstantFunction,
    psi: LocallyConstantFunction,
    f: LocallyConstantFunction,
) -> BoundReport:
    """Distance between the two equilibrium measures against the square root
    of the sup distance between the zero-pressure normalizations.

    Also verifies the exact exchange identity: minus the entropy of psi's
    equilibrium minus its integral of the normalized phi equals its integral
    of (psi - phi) normalized.
    """
    if phi.depth > 2 or psi.depth > 2:
        raise ValueError("potentials must have range at most 2")
    if not phi.base.same_shift(psi.base) or not phi.base.same_shift(f.base):
        raise ValueError("inputs live on different shifts")
    data_phi = perron_data(phi.base, phi)
    data_psi = perron_data(psi.base, psi)
    phi0 = phi.plus_constant(-data_phi.pressure)
    psi0 = psi.plus_constant(-data_psi.pressure)

    mu_phi = data_phi.measure
    mu_psi = data_psi.measure
    lhs = abs(integrate(mu_phi, f) - integrate(mu_psi, f))
    diff = sup_diff(phi0, psi0)
    norms = f.norms()
    eff, steps = _effective(data_phi.a, data_phi, f)
    rhs = eff * norms.total * math.sqrt(diff)

    identity_lhs = -entropy_rate(mu_psi) - integrate(mu_psi, phi0)
    identity_rhs = integrate(mu_psi, psi0) - integrate(mu_psi, phi0)
    if abs(identity_lhs - identity_rhs) > 1e-10:
        raise RuntimeError(
            f"pressure exchange identity violated: {identity_lhs} vs {identity_rhs}"
        )
    return BoundReport(
        kind="stability",
        lhs=lhs,
        rhs=rhs,
        vacuous=False,
        constants={
            "a": eff,
            "c": data_phi.c,
            "kappa": data_phi.kappa,
            "reduction_norms": steps,
        },
        terms={
            "sup_diff": diff,
            "raw_sup_diff": sup_diff(phi, psi),
            "f_norm": norms.total,
            "identity_lhs": identity_lhs,
            "identity_rhs": identity_rhs,
            "thm_gap": identity_rhs,
            "mu_phi_f": integrate(mu_phi, f),
            "mu_psi_f": integrate(mu_psi, f),
        },
        params={},
    )
