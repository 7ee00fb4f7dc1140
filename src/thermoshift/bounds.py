"""Certified inequality checks between a Gibbs measure and a Markov measure.

Each check evaluates its left side exactly (finite cylinder sums) and hands
it to gibbs_report, which assembles the right side from the PerronData
constants into a BoundReport whose slack must be nonnegative unless the
report is flagged vacuous.  Radicands
are asserted nonnegative up to a 1e-10 float allowance before clipping;
anything worse aborts, because it indicates a bug rather than data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    MarkovMeasure,
    block_entropy,
    conditional_entropy,
    entropy_rate,
    information_function,
    integrate,
    reverse_kernel,
)
from .potential import LocallyConstantFunction
from .shift import enumerate_words
from .transfer import PerronData

CLIP_TOL = 1e-10


class RadicandError(RuntimeError):
    """A radicand came out negative beyond float tolerance."""


@dataclass(frozen=True)
class BoundReport:
    kind: str
    lhs: float
    rhs: float
    vacuous: bool
    constants: dict
    terms: dict
    params: dict

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _clip(value: float, context: str) -> float:
    if value >= 0.0:
        return value
    if value >= -CLIP_TOL:
        return 0.0
    raise RadicandError(f"{context} is {value}, below the -{CLIP_TOL} allowance")


def _check_bases(data: PerronData, mu: MarkovMeasure, f: LocallyConstantFunction):
    if not mu.base.same_shift(data.shift):
        raise ValueError("measure lives on a different shift than the Gibbs data")
    if not f.base.same_shift(data.shift):
        raise ValueError("observable lives on a different shift than the Gibbs data")


def reduction_step_norms(data: PerronData, depth: int):
    """Sup-operator norms of the averaging steps taking range-k tables to
    range-(k-1) tables, k = depth..2.  Each step averages over admissible
    one-symbol pasts with the reversed-kernel weights, so the norms come out
    exactly 1; they are computed rather than assumed, once per k and
    PerronData."""
    known = data._step_norms
    missing = [k for k in range(depth, 1, -1) if k not in known]
    if missing:
        q = reverse_kernel(data.measure).tolist()
        rows = data.shift._rows
        for k in missing:
            worst = 0.0
            for w in enumerate_words(data.shift, k - 1):
                row = sum(abs(q[w[0]][s]) for s in range(data.shift.n) if rows[s][w[0]])
                worst = max(worst, row)
            known[k] = worst
    return [known[k] for k in range(depth, 1, -1)]


def gibbs_report(
    kind: str,
    data: PerronData,
    f: LocallyConstantFunction,
    name: str,
    lhs: float,
    radicand: float,
    power: float = 0.0,
    vacuous: bool = False,
    *,
    terms: dict,
    params: dict | None = None,
) -> BoundReport:
    """The report of |m(f) - nu(f)| = lhs against C * ||f|| * (power +
    sqrt(radicand)), C being data.a or data.b (``name``) times the norms of the
    steps reducing f to range 1.  The right side is inf when vacuous, and the
    radicand is then not read.  Every such report carries the same constants:
    ``name``, c, kappa, eigennorm and reduction_norms."""
    steps = reduction_step_norms(data, f.depth) if f.depth > 1 else []
    eff = getattr(data, name)
    for s in steps:
        eff *= s
    f_norm = f.norms().total
    rhs = math.inf if vacuous else eff * f_norm * (power + math.sqrt(radicand))
    return BoundReport(
        kind=kind,
        lhs=lhs,
        rhs=rhs,
        vacuous=vacuous,
        constants={
            name: eff,
            "c": data.c,
            "kappa": data.kappa,
            "eigennorm": data.eigennorm,
            "reduction_norms": tuple(steps),
        },
        terms={**terms, "f_norm": f_norm},
        params=params or {},
    )


def pressure_gap_bound(
    data: PerronData, mu: MarkovMeasure, f: LocallyConstantFunction
) -> BoundReport:
    """|m(f) - mu(f)| against a * ||f|| * sqrt(pressure gap)."""
    _check_bases(data, mu, f)
    m_f = integrate(data.measure, f)
    mu_f = integrate(mu, f)
    gap = data.pressure - (integrate(mu, data.phi) + entropy_rate(mu))
    gap = _clip(gap, "pressure gap")
    return gibbs_report(
        "pressure-gap",
        data,
        f,
        "a",
        abs(m_f - mu_f),
        gap,
        terms={"pressure_gap": gap, "m_f": m_f, "mu_f": mu_f},
    )


def finitary_gap_bound(
    data: PerronData, mu: MarkovMeasure, f: LocallyConstantFunction, n: int
) -> BoundReport:
    """Bound with the n-step conditional entropy in place of the entropy rate.

    The conditioning is on coordinates 1..n-1 (strictly ahead of the present
    symbol); conditioning that includes coordinate 0 would force the entropy
    term to 0, and that value is recorded alongside for comparison.  At n = 1
    the conditioning is empty, and the report is flagged vacuous whenever the
    measure charges a pair of states the Gibbs reversed kernel cannot connect
    (the right side is +inf there, and the radicand may go genuinely
    negative).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_bases(data, mu, f)
    phi, theta = data.phi, data.phi.theta
    m_f = integrate(data.measure, f)
    mu_f = integrate(mu, f)

    tail = phi.tail_constant(n) * theta**n
    cond = conditional_entropy(mu, n)
    gap_n = data.pressure - (integrate(mu, phi) + cond)
    raw = tail + gap_n

    vacuous = False
    if n == 1:
        q = reverse_kernel(data.measure)
        live = np.flatnonzero(mu.initial > 0.0)
        vacuous = any(q[j, i] == 0.0 for j in live for i in live)
        if not vacuous and raw < -CLIP_TOL:
            # the empty-conditioning reading can dip negative for exotic
            # metric parameters; flag rather than certify
            vacuous = True
    radicand = raw if vacuous else _clip(raw, f"finitary radicand at n={n}")
    return gibbs_report(
        "finitary",
        data,
        f,
        "b",
        abs(m_f - mu_f),
        radicand,
        theta**n,
        vacuous,
        terms={
            "tail": tail,
            "cond_entropy": cond,
            "cond_entropy_including_present": 0.0,
            "gap_n": gap_n,
            "radicand": radicand,
            "raw_radicand": raw,
            "theta_power": theta**n,
            "m_f": m_f,
            "mu_f": mu_f,
        },
        params={"n": n},
    )


def block_entropy_gap_bound(
    data: PerronData,
    mu: MarkovMeasure,
    f: LocallyConstantFunction,
    n: int,
    ell: int,
) -> BoundReport:
    """Bound using the averaged block entropy, for potentials of range <= ell.

    Needs n >= 3*ell.  The radicand P - (mu(phi) + H_n/n) + ell/(n-ell) H(pi)
    is provably nonnegative for order-1 Markov measures, so no vacuous branch
    exists here.  The term chain_dev = |H_n - H(pi) - (n-1)h| compares the
    block entropy's dynamic program with the chain rule, for the caller to
    judge.
    """
    _check_bases(data, mu, f)
    phi, theta = data.phi, data.phi.theta
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if phi.variation(ell) != 0.0:
        raise ValueError(f"potential still varies at depth {ell}")
    if n < 3 * ell:
        raise ValueError(f"n must be at least 3*ell = {3 * ell}")
    m_f = integrate(data.measure, f)
    mu_f = integrate(mu, f)

    block = block_entropy(mu, n)
    block_rate = block / n
    marginal = conditional_entropy(mu, 1)
    raw = data.pressure - (integrate(mu, phi) + block_rate) + ell / (n - ell) * marginal
    radicand = _clip(raw, f"block-entropy radicand at n={n}, ell={ell}")
    power = theta ** ((n - ell) // 2)
    return gibbs_report(
        "block-entropy",
        data,
        f,
        "b",
        abs(m_f - mu_f),
        radicand,
        power,
        terms={
            "block_entropy_rate": block_rate,
            "marginal_entropy": marginal,
            "chain_dev": abs(block - (marginal + (n - 1) * entropy_rate(mu))),
            "radicand": radicand,
            "raw_radicand": raw,
            "theta_power": power,
            "m_f": m_f,
            "mu_f": mu_f,
        },
        params={"n": n, "ell": ell},
    )


def cohomology_residual(data: PerronData) -> float:
    """Worst violation of the exact relation tying the information function
    of the Gibbs measure to the potential, the eigenvector ratio and the
    pressure.  Zero in exact arithmetic for any range <= 2 potential."""
    info = information_function(data.measure)
    logh = np.log(data.h)
    worst = 0.0
    for i in range(data.shift.n):
        for j in data.shift.successors(i):
            value = (
                info.table[(i, j)]
                + data.phi.evaluate((i, j))
                + logh[i]
                - logh[j]
                - data.pressure
            )
            worst = max(worst, abs(value))
    return worst


def entropy_averaging_check(data: PerronData, mu: MarkovMeasure, ell: int, m: int):
    """Inequality and identity behind the block-entropy averaging step.

    Returns (lhs, rhs, avg_conditionals, avg_blocks): the halved-index gap
    lhs must be at most rhs = twice the averaged gap, and the two averages
    must agree exactly.  Both gaps subtract mu(phi) along with the entropy
    term; dropping it from the right side makes the inequality false for
    potentials far from zero pressure.
    """
    if not (m > ell >= 1):
        raise ValueError("need m > ell >= 1")
    phi = data.phi
    mu_phi = integrate(mu, phi)
    lhs = data.pressure - (mu_phi + conditional_entropy(mu, (m - ell) // 2 + 1))
    avg_cond = sum(conditional_entropy(mu, k + 1) for k in range(ell, m)) / (m - ell)
    avg_blocks = (block_entropy(mu, m) - block_entropy(mu, ell)) / (m - ell)
    rhs = 2.0 * (data.pressure - (mu_phi + avg_cond))
    return lhs, rhs, avg_cond, avg_blocks
