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
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice, tee

import numpy as np

from .bounds import BoundReport, gibbs_report
from .measures import entropy_rate, integrate
from .potential import LocallyConstantFunction, sup_diff
from .shift import TransitionMatrix, enumerate_words
from .transfer import PROBE_BLOCK_ENTRIES, PerronData, _Powers, edge_values, perron_data

AMBIENT_A = math.sqrt(2.0)


# Euler-Maclaurin coefficients (2k)! / B_2k of the Hurwitz zeta tail, k = 1..12
_ZETA_EM = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)
_MACHEP = 2.0**-53


def hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum_{i >= 0} (q + i)^-x for x > 1, q > 0.

    Cephes' algorithm, operation for operation: above q = 1e8 the two-term
    asymptotic expansion (DLMF 25.11.43); otherwise a direct sum until
    q + i > 9 (at least nine terms, stopping early once a term is below
    MACHEP of the sum), then Euler-Maclaurin with up to twelve Bernoulli
    terms, stopping once a correction is below MACHEP of the sum.  Where
    every term so far underflows, s = 0.0 and the stopping test reads 0/0 as
    nan in C, which fails it; the port fails it the same way, and returns 0.0.
    """
    if not (x > 1.0 and q > 0.0):
        raise ValueError("hurwitz_zeta needs x > 1 and q > 0")
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q**-x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if s and abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _ZETA_EM:
        a *= x + k
        b /= w
        t = a * b / coeff
        s += t
        if s and abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


@dataclass(frozen=True)
class CountableModel:
    """Weighted full shift on states 1, 2, 3, ... with summable weights:
    ratio**s for the geometric family, s**-alpha for the zeta family, with
    ``param`` the ratio or alpha."""

    family: str
    param: float

    def weight(self, s: int) -> float:
        if s < 1:
            raise ValueError("states are numbered from 1")
        if self.family == "geometric":
            return self.param**s
        return float(s) ** -self.param

    def total(self) -> float:
        return self.tail(0)

    def tail(self, n: int) -> float:
        """Exact sum of the weights of all states beyond n."""
        if self.family == "geometric":
            return self.param ** (n + 1) / (1.0 - self.param)
        return hurwitz_zeta(self.param, float(n + 1))

    def pressure(self) -> float:
        return math.log(self.total())

    def expectation(self, values: dict) -> float:
        """Integral of a finitely supported state function against the
        normalized weights."""
        w = self.total()
        return sum(v * self.weight(s) for s, v in values.items()) / w


def geometric_model(ratio: float) -> CountableModel:
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie in (0, 1)")
    return CountableModel(family="geometric", param=ratio)


def zeta_model(alpha: float) -> CountableModel:
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1 for summable weights")
    return CountableModel(family="zeta", param=alpha)


@dataclass(frozen=True, eq=False)
class FiniteSubsystem:
    """The full shift on the first `data.shift.n` states of a countable
    model, with the eigendata of its potential `data.phi`."""

    model: CountableModel
    data: PerronData

    @property
    def pressure_gap(self) -> float:
        gap = self.model.pressure() - self.data.pressure
        return max(gap, 0.0)

    def observable(self, values: dict) -> LocallyConstantFunction:
        """Range-1 function on the truncation from a state-indexed table."""
        table = {}
        for i in range(self.data.shift.n):
            table[(i,)] = float(values.get(i + 1, 0.0))
        return LocallyConstantFunction(base=self.data.shift, depth=1, table=table)


def truncate(model: CountableModel, n: int) -> FiniteSubsystem:
    if n < 2:
        raise ValueError("truncations start at 2 states")
    weights = [model.weight(s) for s in range(1, n + 1)]
    if 0.0 in weights:
        raise ValueError(
            f"state {weights.index(0.0) + 1} of {model.family}({model.param:g}) has a "
            "weight that underflows to 0.0, so its potential is not finite"
        )
    # the full shift: no edge list, and no state to prune
    shift = TransitionMatrix(tuple(str(s) for s in range(1, n + 1)), np.ones((n, n)))
    table = {(i,): math.log(w) for i, w in enumerate(weights)}
    phi = LocallyConstantFunction(base=shift, depth=1, table=table)
    return FiniteSubsystem(model=model, data=perron_data(shift, phi))


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
    """Probability on the period-k points, weighted by the cyclic sums.

    The atom on a cyclically admissible k-word w has weight e^{S_k phi(w)}/Z
    with Z = tr B^k.  The atoms are never listed: every quantity is read off
    powers of the weighted matrix B, held as B / rho (rho its spectral
    radius) so that long periods neither overflow nor underflow.  trace_dev
    is the distance |tr (B/rho)^k - sum_i (lambda_i/rho)^k| / max(1, trace)
    between the normalizer and the eigenvalue sum, for the caller to judge.
    lift_trace and marginal are the readings of the range pass that made
    the measure, behind block_entropy and marginal_entropy.
    """

    k: int
    power: np.ndarray  # (B / rho)^k
    log_normalizer: float
    trace: float  # tr (B / rho)^k = Z / rho^k
    trace_dev: float
    lift_trace: float  # trace of the top-right block of lift^k
    marginal: float  # entropy of diag((B / rho)^k) / trace
    family: _OrbitFamily = field(repr=False)

    def expectation(self, f: LocallyConstantFunction) -> float:
        """nu(f) for f of any range r.  With m = min(r, k), the period-k
        points starting with the admissible m-word u carry the total weight
        (path weight of u) * (B^{k-m+1})[u_last, u_0]; f reads u cyclically
        when k < r."""
        if not f.base.same_shift(self.family.base):
            raise ValueError("observable lives on a different shift")
        r, k = f.depth, self.k
        m = min(r, k)
        closing = self.power if m == 1 else self.family.powers(k - m + 1)
        closing = closing.tolist()  # plain floats: the same products, no dispatch
        scaled = self.family.rows
        table = f.table
        total = 0.0
        for last, first, edges, u in self.family.words(m):
            weight = closing[last][first]
            for a, b in edges:
                weight *= scaled[a][b]
            if weight > 0.0:
                total += weight * table[u if m == r else tuple(u[i % m] for i in range(r))]
        return total / self.trace

    def block_entropy(self) -> float:
        """Entropy over length-k cylinders; each holds at most one atom.

        It equals log Z minus the nu-average of S_k phi, and
        sum_w e^{S(w)} S(w) is the trace of the top-right block of
        [[B, B*phi], [0, B]]^k.  That route never uses the invariance of nu
        under rotation, so orbit_entropy_identity compares two evaluations.
        """
        return self.log_normalizer - self.lift_trace / self.trace

    def marginal_entropy(self) -> float:
        """Entropy of the first symbol, whose law is diag(B^k) / Z."""
        return self.marginal


class _OrbitFamily:
    """What the periodic-orbit measures of one potential share.

    B / rho and the ratios lambda_i / rho are formed once from the
    PerronData, whose lam is rho and whose pressure is log rho; the tilted
    lift, the squarings of B / rho and of the lift, and the word lists of
    each length once, when a measure reads them.  measures(periods) is the
    one range pass behind every periodic-orbit measure.
    """

    def __init__(self, data: PerronData):
        self.data = data
        self.base = data.shift
        self.scaled = data.matrix / data.lam
        self.rows = self.scaled.tolist()  # B / rho as lists, for the per-word products
        self.ratios = data.eigenvalues / data.lam
        self.powers = _Powers(self.scaled)
        self._words = {}

    @cached_property
    def lift_powers(self) -> _Powers:
        """Powers of [[B/rho, (B/rho)*phi], [0, B/rho]], whose k-th power's
        top-right block sums e^{S(w)} S(w) over the period-k words, in units
        of rho^k."""
        n = self.base.n
        lift = np.zeros((2 * n, 2 * n))
        lift[:n, :n] = lift[n:, n:] = self.scaled
        lift[:n, n:] = self.scaled * edge_values(self.base, self.data.phi)
        return _Powers(lift)

    def words(self, m: int) -> list:
        """(last symbol, first symbol, edges, word) of every admissible m-word."""
        if m not in self._words:
            self._words[m] = [
                (u[-1], u[0], tuple(zip(u, u[1:])), u) for u in enumerate_words(self.base, m)
            ]
        return self._words[m]

    def measures(self, periods):
        """The period-k measure for each k of periods, in order; see
        periodic_orbit_measure.

        The one range pass.  Periods are read in blocks whose powers
        (B/rho)^k hold at most PROBE_BLOCK_ENTRIES entries, and each block
        reduces its traces, eigenvalue sums, lift-corner traces and
        first-symbol entropies in one stacked call each.  The
        log-normalizers take math.log period by period, since np.log can
        differ from it in the last bit.  A block is read ahead of the
        iteration, under np.errstate because a refused period is never
        read, and each refusal is raised when the iteration reaches its
        period.
        """
        per_block = max(1, PROBE_BLOCK_ENTRIES // self.base.n**2)
        periods = iter(periods)
        while block := list(islice(periods, per_block)):
            readings = self._readings([k for k in block if k >= 1])
            for k in block:
                if k < 1:
                    raise ValueError("period must be at least 1")
                power, trace, spectral, lift_trace, marginal = next(readings)
                if not math.isfinite(trace):
                    raise ValueError(f"period-{k} weights are not finite: scaled trace {trace}")
                if trace <= 0.0:
                    raise ValueError(f"no periodic points of period {k}")
                yield PeriodicOrbitMeasure(
                    k=k,
                    power=power,
                    log_normalizer=k * self.data.pressure + math.log(trace),
                    trace=trace,
                    trace_dev=abs(trace - spectral) / max(1.0, trace),
                    lift_trace=lift_trace,
                    marginal=marginal,
                    family=self,
                )

    def _readings(self, ks: list):
        """(power, trace, eigenvalue sum, lift-corner trace, first-symbol
        entropy) of each period of ks.  Each sum over a period's entries is
        the pairwise sum that np.trace or np.sum takes over that period."""
        if not ks:
            return iter(())
        n = self.base.n
        with np.errstate(all="ignore"):
            powers = np.array([self.powers(k) for k in ks])
            diagonals = powers.diagonal(axis1=1, axis2=2)
            traces = np.add.reduce(diagonals, axis=1)
            eigen = np.power(self.ratios, np.array(ks, dtype=float)[:, None])
            if 2 in ks:  # ratios ** 2 is np.square, which np.power need not match bit for bit
                eigen[[k == 2 for k in ks]] = np.square(self.ratios)
            spectral = np.add.reduce(eigen, axis=1).real
            corners = np.array([self.lift_powers(k)[:n, n:].diagonal() for k in ks])
            lift_traces = np.add.reduce(corners, axis=1)
            mass = diagonals / traces[:, None]
            marginal = -np.add.reduce(mass * np.log(mass), axis=1)
            # a symbol that starts no period-k point makes its row nan (0 log 0):
            # such a row sums over the symbols that start one
            for i in np.flatnonzero(np.isnan(marginal)):
                live = mass[i][mass[i] > 0.0]
                marginal[i] = -np.sum(live * np.log(live))
        lists = (traces.tolist(), spectral.tolist(), lift_traces.tolist(), marginal.tolist())
        return zip(powers, *lists)


def periodic_orbit_measures(data: PerronData, periods):
    """periodic_orbit_measure(data, k) for each k of periods, in order, from
    one range pass that shares B / rho, the squarings, the tilted lift and
    the word lists.  Each period is checked, and refused, when the iteration
    reaches it."""
    yield from _OrbitFamily(data).measures(periods)


def periodic_orbit_measure(data: PerronData, k: int) -> PeriodicOrbitMeasure:
    """Atoms on all cyclically admissible k-words of data.shift with
    Gibbs-like weights from data.phi.

    The normalizer tr B^k and the eigenvalue sum sum_i lambda_i^k, both in
    units of rho^k, are compared in the measure's trace_dev.
    """
    return next(_OrbitFamily(data).measures([k]))


def orbit_entropy_identity(nu: PeriodicOrbitMeasure, phi: LocallyConstantFunction):
    """Exact identity: block entropy rate plus the integral of the potential
    equals the log-normalizer rate.  With phi replaced by another psi the two
    sides differ by nu(psi - phi)."""
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
    but carries no certificate.  Each report carries its measure's trace_dev.
    """
    reports = []
    theta = data.shift.theta
    m_f = integrate(data.measure, f)
    # the range pass reads a block ahead of the periods checked here
    periods, ahead = tee(k_range)
    measures = _OrbitFamily(data).measures(ahead)
    for k in periods:
        if k < 3:
            raise ValueError("periods below 3 have no certified form")
        nu = next(measures)
        nu_f = nu.expectation(f)
        identity_lhs, identity_rhs = orbit_entropy_identity(nu, data.phi)
        spectral = 2.0 * data.shift.n * data.kappa**k / k
        entropy_term = 2.0 / (k - 2) * nu.marginal_entropy()
        rate_gap = abs(data.pressure - nu.log_normalizer / k)
        # noise floor keeps exactly-settled systems (kappa = 0, trace equal to
        # lambda^k analytically) from being marked by float residue
        pre_asymptotic = rate_gap > spectral + 1e-12 * max(1.0, abs(data.pressure))
        reports.append(
            gibbs_report(
                "periodic-orbit",
                data,
                f,
                "b",
                abs(m_f - nu_f),
                spectral + entropy_term,
                theta ** (k / 2.0),
                terms={
                    "spectral": spectral,
                    "entropy_term": entropy_term,
                    "rate_gap": rate_gap,
                    "theta_power": theta ** (k / 2.0),
                    "theta_power_derivation": theta ** ((k - 2) // 2),
                    "nu_f": nu_f,
                    "m_f": m_f,
                    "identity_dev": abs(identity_lhs - identity_rhs),
                    "trace_dev": nu.trace_dev,
                },
                params={"k": k, "pre_asymptotic": pre_asymptotic},
            )
        )
    return reports


def combined_orbit_harness(sub: FiniteSubsystem, values: dict, k_range) -> list:
    """Periodic-orbit reports on a truncation, with the ambient comparison
    folded in: the combined right side adds the truncation term."""
    f = sub.observable(values)
    reports = periodic_orbit_harness(sub.data, f, k_range)
    m_f = sub.model.expectation(values)
    extra = AMBIENT_A * max(
        (abs(v) for v in values.values()), default=0.0
    ) * math.sqrt(sub.pressure_gap)
    return [
        replace(
            rep,
            terms={
                **rep.terms,
                "combined_lhs": abs(m_f - rep.terms["nu_f"]),
                "combined_rhs": rep.rhs + extra,
                "ambient_m_f": m_f,
            },
        )
        for rep in reports
    ]


def stability_bound(
    data: PerronData,
    psi: LocallyConstantFunction,
    f: LocallyConstantFunction,
) -> BoundReport:
    """Distance between the equilibrium measures of phi = data.phi and psi
    against the square root of the sup distance between the zero-pressure
    normalizations.

    Also reports both sides of the exact exchange identity, for the caller
    to compare: minus the entropy of psi's equilibrium minus its integral of
    the normalized phi equals its integral of (psi - phi) normalized.
    """
    phi = data.phi
    if not phi.base.same_shift(psi.base) or not phi.base.same_shift(f.base):
        raise ValueError("inputs live on different shifts")
    data_psi = perron_data(psi.base, psi)
    phi0 = phi.plus_constant(-data.pressure)
    psi0 = psi.plus_constant(-data_psi.pressure)

    mu_psi = data_psi.measure
    mu_phi_f = integrate(data.measure, f)
    mu_psi_f = integrate(mu_psi, f)
    diff = sup_diff(phi0, psi0)
    psi_phi0 = integrate(mu_psi, phi0)
    identity_lhs = -entropy_rate(mu_psi) - psi_phi0
    identity_rhs = integrate(mu_psi, psi0) - psi_phi0
    return gibbs_report(
        "stability",
        data,
        f,
        "a",
        abs(mu_phi_f - mu_psi_f),
        diff,
        terms={
            "sup_diff": diff,
            "raw_sup_diff": sup_diff(phi, psi),
            "identity_lhs": identity_lhs,
            "identity_rhs": identity_rhs,
            "identity_dev": abs(identity_lhs - identity_rhs),
            "thm_gap": identity_rhs,
            "mu_phi_f": mu_phi_f,
            "mu_psi_f": mu_psi_f,
        },
    )
