"""Transfer operator for Markovian potentials: eigendata, pressure, Gibbs data.

The operator acts on one-coordinate functions v through the weighted matrix
B_ij = t_ij exp(phi(i, j)) as (Lv)_j = sum_i B_ij v_i, so h below is a left
eigenvector and nu a right one.  perron_data solves for the eigendata and the
Gibbs kernel; the PerronData it returns computes the constants on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

import numpy as np

from .measures import KERNEL_ROW_TOL, MarkovMeasure, reverse_kernel
from .potential import LocallyConstantFunction, recode_to_markovian
from .shift import (
    NotMixingError,
    TransitionMatrix,
    check_state_count,
    check_word_count,
    is_topologically_mixing,
    strong_components,
)

GAP_PROBE_DEPTH = 50
# the probe reduces its iterate norms a block of powers at a time, with at
# most this many entries per block: one numpy reduction for both kernels on
# small shifts, cache-sized temporaries (not 100 n^2 floats) on large ones
PROBE_BLOCK_ENTRIES = 1 << 15
# iterate norms at float-noise level say nothing about the true decay rate
NOISE_FLOOR = 1e-13
# a few ulps of error in kappa move 1/(1 - kappa), and with it a and b, by
# more than 1e-5 relative once the gap 1 - kappa drops below this
GAP_FLOOR = 1e-10


class EigensolverError(RuntimeError):
    pass


def _edge_words(shift: TransitionMatrix, phi: LocallyConstantFunction):
    """(i, j, w) for every edge i -> j, w the word phi reads on it."""
    if not phi.base.same_shift(shift):
        raise ValueError("potential lives on a different shift")
    if phi.depth > 2:
        raise ValueError("transfer matrix needs a potential of range at most 2")
    for i in range(shift.n):
        for j in shift.successors(i):
            yield i, j, (i,) if phi.depth == 1 else (i, j)


def _steps(shift: TransitionMatrix, phi: LocallyConstantFunction) -> list:
    """Per state i, the pairs (j, phi on the edge word of i -> j) in
    lexicographic order: the summand a Birkhoff sum gains when a word steps
    from i to j (for range 1, phi at i)."""
    steps = [[] for _ in range(shift.n)]
    for i, j, w in _edge_words(shift, phi):
        steps[i].append((j, phi.table[w]))
    return steps


def edge_values(shift: TransitionMatrix, phi: LocallyConstantFunction) -> np.ndarray:
    """Matrix of phi on the edge words, 0 off the edges: log B where B > 0."""
    values = np.zeros((shift.n, shift.n))
    for i, j, w in _edge_words(shift, phi):
        values[i, j] = phi.table[w]
    return values


def transfer_matrix(shift: TransitionMatrix, phi: LocallyConstantFunction) -> np.ndarray:
    """Weighted adjacency B_ij = t_ij exp(phi on the edge word)."""
    check_state_count(shift)
    b = np.zeros((shift.n, shift.n))
    for i, j, w in _edge_words(shift, phi):
        try:
            b[i, j] = math.exp(phi.table[w])
        except OverflowError:
            labels = [str(s) for s in shift.labels(w)]
            spelled = "".join(labels) if all(len(s) == 1 for s in labels) else ":".join(labels)
            raise ValueError(
                f'potential value {phi.table[w]!r} on word "{spelled}" overflows exp'
            ) from None
    if not b.any():
        top = max(phi.table[w] for _, _, w in _edge_words(shift, phi))
        raise ValueError(
            f"every edge weight underflows to 0.0: the largest, exp({top!r}), "
            "is below the float range"
        )
    return b


def _perron_vector(matrix: np.ndarray):
    """Root of largest real part and its eigenvector, scaled to sum 1."""
    vals, vecs = np.linalg.eig(matrix)
    k = int(np.argmax(vals.real))
    lam = vals[k]
    if lam.imag != 0.0 or lam.real <= 0.0:
        # one state per strong component and no self-loop: no cycle of
        # positive weight, so B is nilpotent and its root is exactly 0
        if strong_components(matrix)[0] == len(matrix) and not matrix.diagonal().any():
            raise EigensolverError(
                "every cycle has an edge whose weight underflows to 0.0: "
                "the weighted matrix is nilpotent"
            )
        raise EigensolverError(f"dominant root {lam} is not real and positive")
    vec = vecs[:, k].real
    total = float(vec.sum())
    # entries of mixed sign can cancel to a zero sum, and a division by it
    # would warn before the sign test below refused the vector
    if total == 0.0 or not math.isfinite(total):
        raise EigensolverError("Perron vector is not strictly positive")
    vec = vec / total
    if not np.all(vec > 0.0):
        raise EigensolverError("Perron vector is not strictly positive")
    return vals, k, vec


def _spectrum(b: np.ndarray):
    """(lam, |lambda_2|, u, v, eigenvalues): dominant root, second largest
    modulus, the positive left (u B = lam u) and right (B v = lam v) Perron
    vectors, and every eigenvalue of B.

    Dense eigendecompositions of B and its transpose, O(n^3), no iteration.
    Every edge weight is finite, but their root may not be: that root is
    refused here, before any caller divides by it or takes its log.
    """
    vals, k, v = _perron_vector(b)
    u = _perron_vector(b.T)[2]
    lam = float(vals[k].real)
    if not math.isfinite(lam):
        raise EigensolverError(
            f"dominant root {lam} overflows a float: the pressure is past "
            "the float range"
        )
    moduli = np.abs(vals)
    moduli[k] = 0.0  # every modulus but lam's, and 0.0 for a 1 x 1 matrix
    lambda2 = float(moduli.max())
    return lam, lambda2, u, v, vals


@dataclass(frozen=True, eq=False)
class PerronData:
    """Eigendata of a Markovian potential together with its Gibbs measure.

    kappa is the spectral contraction rate |lambda_2|/lambda.  The certificate
    is computed from the measure, h and kappa on first read and kept: c a
    certified prefactor for the iterate norms, eigennorm the eigenvector ratio
    max(h) * max(1/h), a, b the constants entering the pressure-gap and
    block-entropy inequalities, and step_norm the sup-operator norm of one
    averaging step with the reversed kernel (its largest row sum), the same
    for every step that reduces a range-k table to range k - 1.
    """

    shift: TransitionMatrix
    phi: LocallyConstantFunction
    matrix: np.ndarray
    eigenvalues: np.ndarray  # every eigenvalue of matrix, lam among them
    lam: float
    pressure: float
    h: np.ndarray
    nu: np.ndarray
    measure: MarkovMeasure
    lambda2_mod: float
    kappa: float

    @cached_property
    def c(self) -> float:
        mu = self.measure
        c = _gap_prefactor(mu.kernel, reverse_kernel(mu), mu.initial, self.kappa)
        if not math.isfinite(c):
            raise EigensolverError(
                f"gap prefactor c = {c} is not finite (kappa = {self.kappa!r}): "
                "the iterate norms cannot be certified"
            )
        return c

    @cached_property
    def eigennorm(self) -> float:
        return float(np.max(self.h) * np.max(1.0 / self.h))

    @cached_property
    def step_norm(self) -> float:
        # each reversed-kernel row summed in Python, in state order over its predecessors
        rows, columns = reverse_kernel(self.measure).tolist(), zip(*self.shift._rows)
        return max(sum(map(abs, compress(row, col))) for row, col in zip(rows, columns))

    @cached_property
    def a(self) -> float:
        return math.sqrt(2.0) * self.c / (1.0 - self.kappa) * self.eigennorm

    @cached_property
    def b(self) -> float:
        return (1.0 / math.sqrt(2.0) + math.sqrt(2.0)) * self.a


def _gap_prefactor(p: np.ndarray, q: np.ndarray, pi: np.ndarray, kappa: float) -> float:
    """Smallest c >= 1 with iterate norms of both kernels below c*kappa^n.

    Norms are sup-operator norms of p^n - 1 pi (max absolute row sum), probed
    for n up to GAP_PROBE_DEPTH; values at float-noise level are skipped.
    """
    size = len(pi)
    limit = np.outer(np.ones_like(pi), pi)
    # both kernels advance together: block[k] holds (p^n, q^n) for one n
    kernels = np.stack((p, q))
    per_block = max(1, min(GAP_PROBE_DEPTH, PROBE_BLOCK_ENTRIES // (2 * size**2)))
    block = np.empty((per_block, 2, size, size))
    power = np.eye(size)
    norms = []
    for start in range(0, GAP_PROBE_DEPTH, per_block):
        count = min(per_block, GAP_PROBE_DEPTH - start)
        for k in range(count):
            # matmul buffers an input that overlaps out, as power does when
            # a block holds one power
            power = np.matmul(power, kernels, out=block[k])
        norms += np.abs(block[:count] - limit).sum(axis=3).max(axis=2).tolist()
    c = 1.0
    for kernel_norms in zip(*norms):  # the norms of p^n, then those of q^n
        for n, norm in enumerate(kernel_norms, start=1):
            if norm <= NOISE_FLOOR:
                continue
            decay = kappa**n if kappa > 0.0 else 1.0
            # kappa**n underflows to 0 for small nonzero kappa: no finite c
            c = max(c, norm / decay if decay > 0.0 else math.inf)
    return c


def perron_data(shift: TransitionMatrix, phi: LocallyConstantFunction) -> PerronData:
    """Eigendata, Gibbs measure and spectral gap of a range <= 2 potential.

    The solve step: it refuses a non-mixing shift, a root or vector it cannot
    trust, a gap below GAP_FLOOR and reversed rows that drift.  The constants
    are the certificate fields of PerronData, computed on first read.
    """
    if not is_topologically_mixing(shift):
        raise NotMixingError("transfer operator theory here needs a mixing shift")
    b = transfer_matrix(shift, phi)
    lam, lambda2, u, v, eigenvalues = _spectrum(b)
    # scale so the geometric mean of h is 1, then sum(h * nu) = 1; every
    # published quantity is invariant under the joint rescaling anyway
    h = u / math.exp(float(np.mean(np.log(u))))
    nu = v / float(h @ v)
    # lam * nu underflows where the Perron vectors span past the float range:
    # the kernel is refused below, not warned about
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = b * nu[None, :] / (lam * nu[:, None])
        p /= p.sum(axis=1, keepdims=True)
    if not np.isfinite(p).all():
        raise EigensolverError(
            "Gibbs kernel has non-finite entries: the Perron vectors span past the float range"
        )
    measure = MarkovMeasure(base=shift, kernel=p, initial=h * nu)

    kappa = lambda2 / lam
    if kappa < 1e-13:
        kappa = 0.0
    if 1.0 - kappa < GAP_FLOOR:
        raise EigensolverError(
            f"spectral gap 1 - kappa = {1.0 - kappa:.3g} (kappa = {kappa!r}) is below "
            f"{GAP_FLOOR:g}: the constants cannot be certified at float precision"
        )
    # q[j, i] = pi_i p_ij / pi_j: rows that miss 1 carry a pi too inaccurate
    # for q^n to approach 1 pi, and a c probed from them says nothing
    drift = float(np.max(np.abs(reverse_kernel(measure).sum(axis=1) - 1.0)))
    if drift > KERNEL_ROW_TOL:
        raise EigensolverError(
            f"reversed kernel rows miss 1 by up to {drift:.3g} (tolerance "
            f"{KERNEL_ROW_TOL:g}): pi is too inaccurate to certify the constants"
        )
    return PerronData(
        shift=shift,
        phi=phi,
        matrix=b,
        eigenvalues=eigenvalues,
        lam=lam,
        pressure=math.log(lam),
        h=h,
        nu=nu,
        measure=measure,
        lambda2_mod=lambda2,
        kappa=kappa,
    )


def equilibrium(phi: LocallyConstantFunction) -> PerronData:
    """PerronData of any finite-range potential, recoding to range 2 if needed."""
    g = recode_to_markovian(phi)
    return perron_data(g.base, g)


class _Powers:
    """Powers of one square matrix a, each formed as numpy's matrix_power
    forms it, so with its bits: k <= 3 by its shortcuts (a, a @ a and
    (a @ a) @ a), otherwise low bit first, result @ a^(2^j).  The squarings
    a^(2^j) are kept, so a range of periods, of partition sums or of
    periodic-orbit measures, makes each of them once."""

    def __init__(self, a: np.ndarray):
        self.squarings = [a]

    def __call__(self, k: int) -> np.ndarray:
        if k == 3:
            return self(2) @ self.squarings[0]
        z = self.squarings
        result, j = None, 0
        while k >> j:
            if j == len(z):
                z.append(z[-1] @ z[-1])
            if k >> j & 1:
                result = z[j] if result is None else result @ z[j]
            j += 1
        return result


class PartitionSum(NamedTuple):
    enumeration: float
    matrix: float

    @property
    def rel_err(self) -> float:
        """Relative distance between the enumeration and matrix routes."""
        return abs(self.enumeration - self.matrix) / max(1.0, abs(self.matrix))


def partition_sum(
    shift: TransitionMatrix, phi: LocallyConstantFunction, state, periods
) -> list:
    """Weighted count of period-n points through a state, computed two ways:
    one PartitionSum for each n of periods, in order.

    Every period is counted against WORD_CAP before any word is listed.  The
    enumeration route sums exp(cyclic Birkhoff sum) over cyclically
    admissible n-words starting at the state, grown from it one symbol at a
    time in lexicographic order with the sums carried along, in one word
    tree that restarts only where a period is shorter than the one before.
    The matrix route reads the diagonal entry of B^n from the powers of one
    B.  The caller judges their agreement.  A sum that overflows a float
    raises ValueError naming the first such period.
    """
    a = shift.index(state)
    periods = list(periods)
    for n in periods:
        if n < 1:
            raise ValueError("period must be at least 1")
        check_word_count(shift, n)
    steps = _steps(shift, phi)
    powers = _Powers(transfer_matrix(shift, phi))
    closing = {i: t for i in range(shift.n) for j, t in steps[i] if j == a}
    sums, length = [], math.inf
    for n in periods:
        if n < length:
            # (last symbol, Birkhoff sum over the steps taken) of each word from a
            level, length = [(a, 0.0)], 1
        for _ in range(n - length):
            level = [(j, s + t) for i, s in level for j, t in steps[i]]
        length = n
        total = 0.0
        try:
            for i, s in level:
                if i in closing:
                    total += math.exp(s + closing[i])
        except OverflowError:
            total = math.inf
        # an entry past the float range is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            mat = float(powers(n)[a, a])
        if not (math.isfinite(total) and math.isfinite(mat)):
            raise ValueError(
                f"partition sum at n={n} overflows a float: enumeration {total}, matrix {mat}"
            )
        sums.append(PartitionSum(enumeration=total, matrix=mat))
    return sums


def gurevich_estimate(
    shift: TransitionMatrix, phi: LocallyConstantFunction, state, n_max: int
):
    """Pressure estimates (1/n) log (B^n)_aa with their residuals from log lam.

    Rows where the diagonal entry vanishes (short return times) are skipped;
    a diagonal entry past the float range raises ValueError naming its n.
    lam is solved here, not by perron_data, so a periodic shift still answers;
    a reducible one is refused before the solve.
    """
    components = shift._components[0]
    if components > 1:
        raise ValueError(
            f"the shift has {components} strong components: the Gurevich "
            "estimate needs an irreducible shift"
        )
    a = shift.index(state)
    b = transfer_matrix(shift, phi)
    logp = math.log(_spectrum(b)[0])
    rows = []
    power = np.eye(shift.n)
    for n in range(1, n_max + 1):
        # entries past the float range become inf or nan quietly; only the
        # diagonal entry read below is refused
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ b
        z = float(power[a, a])
        if not math.isfinite(z):
            raise ValueError(
                f"partition sum at n={n} overflows a float: (B^{n})_aa = {z}"
            )
        if z <= 0.0:
            continue
        value = math.log(z) / n
        rows.append((n, value, abs(value - logp)))
    return rows


class GibbsCertificate(NamedTuple):
    empirical: float
    apriori: float
    worst_ratio: float
    worst_word: tuple


def gibbs_certificate(data: PerronData, n_max: int) -> GibbsCertificate:
    """Cylinder-mass comparison against the weight the word itself determines.

    For each word w of length n <= n_max the ratio m([w]) exp(kP - S) is
    formed, where S is the part of the Birkhoff sum determined by w alone
    (k = n summands for a range-1 potential, k = n-1 for range 2).  For
    range 2 the ratio is exactly h[first] * nu[last], so the empirical
    constant must sit inside the eigenvector window; the caller judges that.
    Words grow one symbol at a time, in lexicographic order, carrying their
    cylinder masses and Birkhoff sums along.  A ratio past the float range
    raises ValueError naming its word and length.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    r = data.phi.depth
    shift, measure, phi, pres = data.shift, data.measure, data.phi, data.pressure
    for n in range(1, n_max + 1):  # every length by count, before any is listed
        check_word_count(shift, n)
    kernel = measure._rows
    # each step also carries its kernel entry, for the running cylinder mass
    steps = [[(j, t, kernel[i][j]) for j, t in row] for i, row in enumerate(_steps(shift, phi))]
    worst = 1.0
    worst_word: tuple = ()
    lo, hi = math.inf, 0.0
    # (word, m([word]), Birkhoff sum over its steps), in lexicographic order
    level = [((i,), measure._pi[i], 0.0) for i in range(shift.n)]
    for n in range(1, n_max + 1):
        if n > 1:
            level = [
                (w + (j,), 0.0 if m == 0.0 else m * pij, s + t)
                for w, m, s in level
                for j, t, pij in steps[w[-1]]
            ]
        k = n if r == 1 else n - 1
        try:
            for w, mw, s in level:
                if r == 1:
                    s += phi.table[w[-1:]]
                ratio = mw * math.exp(k * pres - s)
                lo, hi = min(lo, ratio), max(hi, ratio)
                if max(ratio, 1.0 / ratio) > max(worst, 1.0 / worst):
                    worst, worst_word = ratio, w
        except (OverflowError, ZeroDivisionError):  # a mass or an exp past the float range
            spelled = ":".join(map(str, shift.labels(w)))
            raise ValueError(
                f"cylinder ratio of word {spelled!r} (length {n}) is past the float range"
            ) from None
    empirical = max(hi, 1.0 / lo)
    big = float(np.max(data.h) * np.max(data.nu))
    small = float(np.min(data.h) * np.min(data.nu))
    # the eigenvector window must be read symmetrically: a constant-scale
    # shift of all ratios is still Gibbs, so cover big, 1/small and big/small.
    # The worst ratio can attain the window exactly (range 2), so the
    # certified constant carries a rounding allowance for the two float
    # routes that produce the two sides.
    apriori = max(big / small, 1.0 / small, big, 1.0) * (1.0 + 1e-9)
    return GibbsCertificate(
        empirical=empirical,
        apriori=apriori,
        worst_ratio=worst,
        worst_word=worst_word,
    )
