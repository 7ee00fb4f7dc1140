"""Stationary Markov measures on a shift and their information theory.

All measures here are order-1 Markov: a stationary vector pi together with a
transition kernel p supported on admissible edges.  Entropies, KL divergences
and information functions are then finite exact sums.  Natural logarithms
throughout, with the convention 0 log 0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .potential import LocallyConstantFunction
from .shift import TransitionMatrix, enumerate_words, strong_components

STATIONARY_TOL = 1e-12
# how far a kernel row sum may miss 1 before make_markov_measure refuses it
KERNEL_ROW_TOL = 1e-9


def _shannon(weights) -> float:
    w = np.asarray(weights, dtype=float)
    mask = w > 0.0
    return float(-np.sum(w[mask] * np.log(w[mask])))


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """A shift-invariant Markov probability: stationary pi plus kernel p.

    The measure is immutable; ``word_probability`` reads plain-Python copies
    of ``kernel`` (``_rows``) and ``initial`` (``_pi``) built here once.  The
    derived quantities below (reversed kernel, entropies, block-entropy
    iterates, the integral of each function) are computed on first use and
    kept on the instance.
    """

    base: TransitionMatrix
    kernel: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        n = self.base.n
        p = np.array(self.kernel, dtype=float)
        pi = np.array(self.initial, dtype=float)
        if p.shape != (n, n) or pi.shape != (n,):
            raise ValueError("kernel or stationary vector has the wrong shape")
        # every comparison below is False on nan, so nan would pass them all
        lows = []
        for name, v in (("kernel", p), ("initial", pi)):
            low = _finite_minimum(v)
            if low is None:
                raise ValueError(f"{name} has non-finite entries")
            lows.append(low)
        if min(lows) < 0.0:
            raise ValueError("negative probabilities")
        if ((p > 0.0) > self.base.matrix).any():
            raise ValueError("kernel puts mass on a forbidden transition")
        masses = pi.tolist()
        rows = list(zip(masses, p.sum(axis=1).tolist()))
        if any(m > 0.0 and abs(r - 1.0) > STATIONARY_TOL for m, r in rows):
            raise ValueError("kernel rows on the support do not sum to 1")
        # rows at states of measure zero may be stochastic or identically zero
        if any(m == 0.0 and abs(r - 1.0) > STATIONARY_TOL and r != 0.0 for m, r in rows):
            raise ValueError("off-support kernel rows must be stochastic or zero")
        if abs(pi.sum() - 1.0) > 1e-10:
            raise ValueError("stationary vector does not sum to 1")
        if np.abs(pi @ p - pi).max() > 1e-10:
            raise ValueError("vector is not stationary for the kernel")
        p.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "kernel", p)
        object.__setattr__(self, "initial", pi)
        object.__setattr__(self, "_rows", tuple(map(tuple, p.tolist())))
        object.__setattr__(self, "_pi", tuple(masses))

    def __reduce__(self):
        # rebuild through __post_init__, so the copy's arrays are validated
        # and read-only again and its caches start empty
        return (type(self), (self.base, self.kernel, self.initial))

    def word_probability(self, word) -> float:
        word = tuple(word)
        if not self.base.is_word(word):
            raise ValueError("inadmissible word")
        rows = self._rows
        p = self._pi[word[0]]
        for i, j in zip(word, word[1:]):
            if p == 0.0:
                return 0.0
            p *= rows[i][j]
        return p

    @cached_property
    def _reverse_kernel(self) -> np.ndarray:
        pi, p = self.initial, self.kernel
        live = pi > 0.0
        q = np.zeros_like(p)
        q[live] = (pi[:, None] * p).T[live] / pi[live, None]
        q.setflags(write=False)
        return q

    @cached_property
    def _entropy_rate(self) -> float:
        return _row_entropy(self.initial, self.kernel)

    @cached_property
    def _marginal_entropy(self) -> float:
        return _shannon(self.initial)

    @cached_property
    def _reverse_entropy(self) -> float:
        return _row_entropy(self.initial, self._reverse_kernel)

    @cached_property
    def _block_entropies(self) -> "_BlockEntropies":
        return _BlockEntropies(self.initial, self.kernel)

    @cached_property
    def _integrals(self) -> dict:
        """The integral of each function, keyed by the function; filled by
        ``integrate``."""
        return {}


def _finite_minimum(v: np.ndarray):
    """min(0, v), or None when v has a nan or an infinite entry: one
    reduction each way, and both propagate nan."""
    low = float(v.min(initial=0.0))
    return low if math.isfinite(low) and math.isfinite(float(v.max(initial=0.0))) else None


def _row_entropy(pi: np.ndarray, p: np.ndarray) -> float:
    """-sum_i pi_i sum_j p_ij log p_ij."""
    mask = p > 0.0
    plogp = np.zeros_like(p)
    plogp[mask] = p[mask] * np.log(p[mask])
    return float(-pi @ plogp.sum(axis=1))


class _BlockEntropies:
    """Dynamic program over (mass, mass*log mass) totals per final state.

    ``state`` is (values, mass, slog) after len(values) - 1 steps, values[n - 1]
    being the entropy of the partition into n-cylinders.  It is replaced as a
    whole, so a reader always sees one consistent snapshot.
    """

    def __init__(self, pi: np.ndarray, p: np.ndarray):
        logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        self.p, self.plogp = p, p * logp
        slog = np.where(pi > 0.0, pi * np.log(np.where(pi > 0.0, pi, 1.0)), 0.0)
        self.state = ((float(-slog.sum()),), pi, slog)

    def upto(self, n: int) -> float:
        """H_n, running only the steps no earlier call has run."""
        values, mass, slog = self.state
        if len(values) < n:
            values = list(values)
            while len(values) < n:
                slog = slog @ self.p + mass @ self.plogp
                mass = mass @ self.p
                values.append(float(-slog.sum()))
            self.state = (tuple(values), mass, slog)
        return values[n - 1]


def _recurrent_classes(adjacency: np.ndarray, components=None):
    """Strongly connected components with no outgoing edge, as sorted index
    lists in the order of their smallest state.  ``components`` is
    ``strong_components(adjacency)``, when the caller already has it."""
    ncomp, comp = strong_components(adjacency) if components is None else components
    heads, tails = np.nonzero(adjacency)
    head_comp = comp[heads]
    # components that some edge leaves
    leaky = set(head_comp[head_comp != comp[tails]].tolist())
    members = [[] for _ in range(ncomp)]
    for i, c in enumerate(comp.tolist()):
        members[c].append(i)
    return [members[c] for c in range(ncomp) if c not in leaky]


def make_markov_measure(shift: TransitionMatrix, kernel) -> MarkovMeasure:
    """Stationary Markov measure of a stochastic kernel on the shift.

    The kernel must have a single recurrent class; transient states get
    stationary mass zero.  Two or more recurrent classes leave the stationary
    vector ambiguous and raise an error naming them.
    """
    p = np.asarray(kernel, dtype=float)
    if p.shape != (shift.n, shift.n):
        raise ValueError(f"kernel must be {shift.n}x{shift.n}")
    low = _finite_minimum(p)
    if low is None:
        raise ValueError("kernel has non-finite entries")
    if low < 0.0:
        raise ValueError("kernel has negative entries")
    support = p > 0.0
    if (support > shift.matrix).any():
        raise ValueError("kernel puts mass on a forbidden transition")
    rows = p.sum(axis=1)
    if any(abs(r - 1.0) > KERNEL_ROW_TOL for r in rows.tolist()):
        raise ValueError("kernel rows must sum to 1")
    p = p / rows[:, None]

    full = (support == shift.matrix).all()
    if full and shift._components[0] == 1:
        # a kernel charging every edge has the shift's own components, and on
        # an irreducible shift that is one class of every state
        classes = [range(shift.n)]
    else:
        classes = _recurrent_classes(support, shift._components if full else None)
    if len(classes) != 1:
        names = [", ".join(shift.states[i] for i in cls) for cls in classes]
        raise ValueError(
            "kernel has %d recurrent classes ({%s}); stationary vector is ambiguous"
            % (len(classes), "}, {".join(names))
        )
    members = classes[0]
    k = len(members)
    # pi restricted to the class: solve pi (P - I) = 0 with sum(pi) = 1;
    # a class of every state is solved on p itself
    lhs = (p if k == shift.n else p[np.ix_(members, members)]).T.copy()
    lhs.flat[:: k + 1] -= 1.0
    lhs[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    sol = np.linalg.solve(lhs, rhs)
    sol = np.maximum(sol, 0.0)
    sol /= sol.sum()
    if k == shift.n:
        pi = sol
    else:
        pi = np.zeros(shift.n)
        pi[members] = sol
    return MarkovMeasure(base=shift, kernel=p, initial=pi)


def _flat_dirichlet(rng: np.random.Generator, dim: int) -> np.ndarray:
    """rng.dirichlet([1.0] * dim), bit for bit and leaving the stream where
    it does: the same unit gammas, scaled by the reciprocal of their sum
    taken in order, without dirichlet's per-call set-up."""
    g = rng.standard_gamma(1.0, dim)
    total = 0.0
    for x in g.tolist():
        total += x
    return g * (1.0 / total)


def random_markov_measure(shift: TransitionMatrix, rng) -> MarkovMeasure:
    """Kernel whose row over the k successors of a state is drawn as
    rng.dirichlet([1.0] * k) would draw it, rows in state order."""
    p = np.zeros((shift.n, shift.n))
    # a state without successors draws nothing, as dirichlet([]) does
    rows = [_flat_dirichlet(rng, len(succ)) for succ in shift._succ if succ]
    if rows:
        p[shift.matrix != 0] = np.concatenate(rows)
    return make_markov_measure(shift, p)


def entropy_rate(mu: MarkovMeasure) -> float:
    """Entropy per symbol, -sum_i pi_i sum_j p_ij log p_ij."""
    return mu._entropy_rate


def integrate(mu: MarkovMeasure, f: LocallyConstantFunction) -> float:
    """Expectation of a finite-range function, as an exact cylinder sum.

    The value is kept on the measure, so a second call with the same
    function object reads it back."""
    known = mu._integrals
    if f not in known:
        known[f] = _cylinder_sum(mu, f)
    return known[f]


def _cylinder_sum(mu: MarkovMeasure, f: LocallyConstantFunction) -> float:
    if not f.base.same_shift(mu.base):
        raise ValueError("function and measure live on different shifts")
    if f.depth == 1:
        return float(sum(mu.initial[i] * f.table[(i,)] for i in range(mu.base.n)))
    total = 0.0
    for w in enumerate_words(mu.base, f.depth):
        pw = mu.word_probability(w)
        if pw > 0.0:
            total += pw * f.table[w]
    return float(total)


def metric_pressure(mu: MarkovMeasure, phi: LocallyConstantFunction) -> float:
    return entropy_rate(mu) + integrate(mu, phi)


def block_entropy(mu: MarkovMeasure, n: int) -> float:
    """Entropy of the partition into length-n cylinders.

    Reads a dynamic program over (mass, mass*log mass) totals per final
    state, whose steps the measure runs once each.  The chain rule gives the
    closed form H(pi) + (n-1)h; block_entropy_gap_bound reports the distance
    between the two for the caller to judge.
    """
    if n < 1:
        raise ValueError("block length must be at least 1")
    return mu._block_entropies.upto(n)


def reverse_kernel(mu: MarkovMeasure) -> np.ndarray:
    """Time-reversed kernel q, with q[j, i] = P(previous = i | current = j).

    Rows at states of stationary mass zero are left identically zero.  The
    array is the measure's own and read-only.
    """
    return mu._reverse_kernel


def conditional_entropy(mu: MarkovMeasure, n: int) -> float:
    """Entropy of the present symbol given the next n-1 symbols.

    For n = 1 the conditioning is trivial and this is the entropy of pi; for
    an order-1 Markov measure and any n >= 2 it equals the entropy rate, and
    is computed here from the reversed kernel.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return mu._marginal_entropy
    return mu._reverse_entropy


def information_function(mu: MarkovMeasure) -> LocallyConstantFunction:
    """Minus log of the reversed transition probability, as a range-2 table.

    Admissible pairs the measure never visits get value +inf; integrating
    against the measure itself ignores them and recovers the entropy rate.
    """
    q = reverse_kernel(mu)
    table = {}
    for i in range(mu.base.n):
        for j in mu.base.successors(i):
            table[(i, j)] = -math.log(q[j, i]) if q[j, i] > 0.0 else math.inf
    return LocallyConstantFunction(base=mu.base, depth=2, table=table)


def _rel_entr(x: float, y: float) -> float:
    """The term x log(x / y) of a divergence, with 0 log(0 / y) = 0 and
    x log(x / 0) = inf for x > 0.

    The branches are those of the usual ``rel_entr``: log1p when x / y lies
    in (1/2, 2), a difference of logs when x / y under- or overflows.  The
    logs are scalar ``math`` calls on purpose: numpy's vectorised log and
    log1p can differ from libm in the last bit.  Both arguments are finite
    and nonnegative (``kl_divergence`` checks).
    """
    if x > 0.0 and y > 0.0:
        ratio = x / y
        if 0.5 < ratio < 2.0:
            return x * math.log1p((x - y) / y)
        if 0.0 < ratio < math.inf:
            return x * math.log(ratio)
        return x * (math.log(x) - math.log(y))
    if x == 0.0 and y >= 0.0:
        return 0.0
    return math.inf


def _pairwise_sum(v: list) -> float:
    """The sum of a list of floats, added in the order np.add.reduce adds a
    float64 array, so that both give the same bits: in order below 8
    entries, eight running sums over a block of at most 128, and above that
    two halves split at a multiple of 8."""
    n = len(v)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])
    total = 0.0
    if n < 8:
        for x in v:
            total += x
        return total
    r = v[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        r = [a + b for a, b in zip(r, v[i : i + 8])]
    total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in v[tail:]:
        total += x
    return total


def _floats(v) -> list:
    """The entries of a one-dimensional vector as Python floats."""
    if isinstance(v, list):
        try:
            return [float(x) for x in v]
        except TypeError:
            pass  # nested lists, or None entries: read as an array below
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("length mismatch")
    return v.tolist()


def kl_divergence(p, q) -> float:
    """Divergence of q from the reference p: sum_i q_i log(q_i / p_i).

    Returns +inf when q charges a point p does not; this is deliberately a
    value rather than an error, so harnesses can report a vacuous bound.
    """
    ps, qs = _floats(p), _floats(q)
    if len(ps) != len(qs):
        raise ValueError("length mismatch")
    # nan passes the sign and sum checks below, since each comparison is False
    for name, v in (("p", ps), ("q", qs)):
        if not all(map(math.isfinite, v)):
            raise ValueError(f"{name} has non-finite entries")
    if min(ps, default=0.0) < 0.0 or min(qs, default=0.0) < 0.0:
        raise ValueError("negative entries")
    if abs(_pairwise_sum(ps) - 1.0) > 1e-9 or abs(_pairwise_sum(qs) - 1.0) > 1e-9:
        raise ValueError("arguments must be probability vectors")
    return _kl_sum(ps, qs)


def _kl_sum(ps: list, qs: list) -> float:
    """The divergence of finite nonnegative qs from ps, read as probability
    vectors without checking their sums."""
    total = _pairwise_sum([_rel_entr(x, y) for x, y in zip(qs, ps)])
    if -1e-12 < total < 0.0:
        total = 0.0
    return total


def conditional_kl_integral(gibbs_measure: MarkovMeasure, mu: MarkovMeasure) -> float:
    """Average KL divergence between the two reversed kernels, row by row.

    Integrates D(q_mu(.|j) || q_gibbs(.|j)) over j with respect to mu's
    stationary vector.  For an order-1 Markov mu this equals the pressure of
    the Gibbs measure minus the metric pressure of mu, exactly.

    The rows are not checked again as probability vectors: both measures
    validated their kernels, and a reversed row misses 1 by the stationarity
    residual over pi_j, which exceeds 1e-9 where pi_j is tiny.
    """
    if not gibbs_measure.base.same_shift(mu.base):
        raise ValueError("measures live on different shifts")
    qg = reverse_kernel(gibbs_measure)
    qm = reverse_kernel(mu)
    total = 0.0
    for j in np.flatnonzero(mu.initial > 0.0):
        if gibbs_measure.initial[j] == 0.0:
            return math.inf
        term = _kl_sum(qg[j].tolist(), qm[j].tolist())
        if math.isinf(term):
            return math.inf
        total += mu.initial[j] * term
    return float(total)
