"""The plain-Python tables behind the per-word readers, against the numpy
per-element formulas they replaced (inlined below as oracles, compared with
==): admissibility, enumeration, word probabilities, cyclic Birkhoff sums,
the reversed kernel and the gap-prefactor probe."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoshift.measures import (
    MarkovMeasure,
    make_markov_measure,
    reverse_kernel,
)
from thermoshift.potential import random_function
from thermoshift.shift import (
    EmptyShiftError,
    TransitionMatrix,
    build_sft,
    enumerate_periodic,
    enumerate_words,
    higher_block_recode,
    is_topologically_mixing,
)
from thermoshift.systems import builtin_system
from thermoshift.transfer import (
    GAP_PROBE_DEPTH,
    NOISE_FLOOR,
    _gap_prefactor,
    perron_data,
)

# -- oracles: the per-element numpy formulas ---------------------------------


def is_word_oracle(shift, word):
    if len(word) == 0:
        return False
    if any(not (0 <= i < shift.n) for i in word):
        return False
    return all(shift.matrix[word[k], word[k + 1]] for k in range(len(word) - 1))


def is_cycle_oracle(shift, word):
    return is_word_oracle(shift, word) and bool(shift.matrix[word[-1], word[0]])


def successors_oracle(shift, i):
    return np.flatnonzero(shift.matrix[i]).tolist()


def enumerate_words_oracle(shift, n):
    succ = [successors_oracle(shift, i) for i in range(shift.n)]
    words = [(i,) for i in range(shift.n)]
    for _ in range(n - 1):
        words = [w + (j,) for w in words for j in succ[w[-1]]]
    return words


def enumerate_periodic_oracle(shift, k):
    return [w for w in enumerate_words_oracle(shift, k) if shift.matrix[w[-1], w[0]]]


def block_matrix_oracle(shift, blocks):
    nb = len(blocks)
    m = np.zeros((nb, nb), dtype=np.int8)
    for u, bu in enumerate(blocks):
        for v, bv in enumerate(blocks):
            if bu[1:] == bv[:-1] and shift.matrix[bu[-1], bv[-1]]:
                m[u, v] = 1
    return m


def word_probability_oracle(mu, word):
    p = mu.initial[word[0]]
    for i, j in zip(word, word[1:]):
        if p == 0.0:
            return 0.0
        p *= mu.kernel[i, j]
    return float(p)


def cyclic_birkhoff_oracle(f, word):
    n, r = len(word), f.depth
    return float(sum(f.table[tuple(word[(i + j) % n] for j in range(r))] for i in range(n)))


def reverse_kernel_oracle(mu):
    pi, p = mu.initial, mu.kernel
    q = np.zeros_like(p)
    for j in np.flatnonzero(pi > 0.0):
        q[j, :] = pi * p[:, j] / pi[j]
    return q


def gap_prefactor_oracle(p, q, pi, kappa):
    limit = np.outer(np.ones_like(pi), pi)
    c = 1.0
    for kernel in (p, q):
        power = np.eye(len(pi))
        for n in range(1, GAP_PROBE_DEPTH + 1):
            power = power @ kernel
            norm = float(np.max(np.abs(power - limit).sum(axis=1)))
            if norm <= NOISE_FLOOR:
                continue
            decay = kappa**n if kappa > 0.0 else 1.0
            c = max(c, norm / decay if decay > 0.0 else math.inf)
    return c


def is_mixing_oracle(shift):
    # Wielandt: a primitive n x n 0/1 matrix has A^((n-1)^2 + 1) > 0
    a = shift.matrix.astype(np.int64)
    power = np.linalg.matrix_power(a, (shift.n - 1) ** 2 + 1)
    return bool(np.all(power > 0))


def matches_matrix(shift):
    """The cached tables say exactly what ``matrix`` says."""
    rows = tuple(tuple(bool(x) for x in row) for row in shift.matrix.tolist())
    return shift._rows == rows and all(
        list(shift._succ[i]) == successors_oracle(shift, i) for i in range(shift.n)
    )


# -- strategies ----------------------------------------------------------------


@st.composite
def pruned_shifts(draw):
    """build_sft on random edges over 2-5 states, so pruning is exercised."""
    n = draw(st.integers(min_value=2, max_value=5))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    states = "abcde"[:n]
    edges = [(states[k // n], states[k % n]) for k, b in enumerate(bits) if b]
    try:
        return build_sft(states, edges)
    except EmptyShiftError:
        assume(False)


@st.composite
def measures(draw):
    """Stationary Markov measures from random kernels on random shifts;
    transient states get mass zero."""
    shift = draw(pruned_shifts())
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=shift.n * shift.n,
            max_size=shift.n * shift.n,
        )
    )
    w = np.array(weights).reshape(shift.n, shift.n) * shift.matrix
    rows = w.sum(axis=1)
    assume(np.all(rows > 0.0))
    try:
        return make_markov_measure(shift, w / rows[:, None])
    except ValueError:  # several recurrent classes
        assume(False)


# -- tests -----------------------------------------------------------------------


@given(pruned_shifts(), st.lists(st.integers(min_value=-2, max_value=6), max_size=6))
@settings(max_examples=300, deadline=None)
def test_admissibility_matches_matrix_oracle(shift, word):
    assert matches_matrix(shift)
    for w in (tuple(word), list(word)):
        assert shift.is_word(w) == is_word_oracle(shift, w)
        if len(w) > 0:
            assert shift.is_cycle(w) == is_cycle_oracle(shift, w)
    assert shift.is_word(()) is False
    for i in range(shift.n):
        assert shift.successors(i) == successors_oracle(shift, i)
    assert is_topologically_mixing(shift) == is_mixing_oracle(shift)


@given(pruned_shifts(), st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_enumerations_match_matrix_oracle(shift, n):
    assert enumerate_words(shift, n) == enumerate_words_oracle(shift, n)
    assert enumerate_periodic(shift, n) == enumerate_periodic_oracle(shift, n)


@given(pruned_shifts(), st.integers(min_value=2, max_value=4))
@settings(max_examples=100, deadline=None)
def test_higher_block_recode_matches_matrix_oracle(shift, ell):
    rec = higher_block_recode(shift, ell)
    expected = block_matrix_oracle(shift, list(rec.blocks))
    assert np.array_equal(rec.new.matrix, expected)
    assert matches_matrix(rec.new)


@given(measures(), st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_word_probability_and_reverse_kernel_match_oracle(mu, n):
    for w in enumerate_words(mu.base, n):
        assert mu.word_probability(w) == word_probability_oracle(mu, w)
    assert reverse_kernel(mu).tobytes() == reverse_kernel_oracle(mu).tobytes()


@given(
    pruned_shifts(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_cyclic_birkhoff_sum_matches_oracle(shift, depth, k, seed):
    # depth > k reads each word more than once around the cycle
    f = random_function(shift, depth, np.random.default_rng(seed))
    for w in enumerate_periodic(shift, k):
        assert f.birkhoff_sum(w, k, cyclic=True) == cyclic_birkhoff_oracle(f, w)


def test_reverse_kernel_leaves_zero_mass_rows_zero():
    # c is transient: it feeds the recurrent class {a, b} and is never revisited
    shift = build_sft("abc", ["ab", "ba", "aa", "ca", "cc"])
    mu = make_markov_measure(shift, [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.25, 0.0, 0.75]])
    assert mu.initial[2] == 0.0
    q = reverse_kernel(mu)
    assert q[2].tolist() == [0.0, 0.0, 0.0]
    assert q.tobytes() == reverse_kernel_oracle(mu).tobytes()


def _random_kernel(rng, n):
    return rng.dirichlet(np.ones(n), size=n)


def test_gap_prefactor_matches_loop_oracle_bit_for_bit():
    rng = np.random.default_rng(2024)
    # 30, 64 and 200 states split the probe into several blocks of powers
    sizes = [int(rng.integers(1, 7)) for _ in range(60)] + [30, 64, 200]
    for trial, n in enumerate(sizes):
        p, q = _random_kernel(rng, n), _random_kernel(rng, n)
        pi = rng.dirichlet(np.ones(n))
        kappa = (0.0, float(rng.uniform(0.0, 1.0)), 0.999)[trial % 3]
        assert _gap_prefactor(p, q, pi, kappa) == gap_prefactor_oracle(p, q, pi, kappa)


def test_gap_prefactor_matches_oracle_on_builtin_solves():
    for name in ("full2-bernoulli", "golden-zero", "golden-range2", "tribonacci-zero"):
        data = perron_data(*builtin_system(name))
        q = reverse_kernel(data.measure)
        assert data.c == gap_prefactor_oracle(data.p, q, data.pi, data.kappa)
        assert _gap_prefactor(data.p, q, data.pi, data.kappa) == data.c


def test_gap_prefactor_underflow_gives_inf_like_the_oracle():
    # pi is not stationary for p, so the iterate norms stay far above the
    # noise floor while kappa**n underflows to 0 well before n = 50
    rng = np.random.default_rng(7)
    p, q = _random_kernel(rng, 3), _random_kernel(rng, 3)
    pi = np.array([1.0, 0.0, 0.0])
    kappa = 1e-10
    assert kappa**GAP_PROBE_DEPTH == 0.0
    assert gap_prefactor_oracle(p, q, pi, kappa) == math.inf
    assert _gap_prefactor(p, q, pi, kappa) == math.inf


def test_successors_returns_a_fresh_list():
    shift = build_sft("abc", ["aa", "ab", "bc", "ca"])
    succ = shift.successors(0)
    succ.append(2)
    succ.clear()
    assert shift.successors(0) == [0, 1]
    assert shift.successors(0) is not shift.successors(0)
    assert shift.is_word((0, 1, 2, 0)) and not shift.is_word((0, 2))
    assert enumerate_words(shift, 2) == [(0, 0), (0, 1), (1, 2), (2, 0)]


def test_tables_follow_pruning_and_recoding():
    # d has no incoming edge and e no outgoing one: both are pruned
    shift = build_sft("abcde", ["aa", "ab", "ba", "bc", "ca", "da", "ae"])
    assert shift.states == ("a", "b", "c")
    assert matches_matrix(shift)
    assert shift._succ == ((0, 1), (0, 2), (0,))
    for ell in (2, 3, 4):
        rec = higher_block_recode(shift, ell)
        assert matches_matrix(rec.new)
        assert np.array_equal(rec.new.matrix, block_matrix_oracle(shift, list(rec.blocks)))


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_tables_do_not_alias_the_callers_array(dtype):
    m = np.array([[1, 1], [1, 0]], dtype=dtype)
    view = m[:]
    shift = TransitionMatrix(states=("a", "b"), matrix=m)
    assert m.flags.writeable
    view[1, 1] = 1
    assert shift.matrix[1, 1] == 0
    assert not shift.is_word((1, 1))
    kernel = np.array([[0.5, 0.5], [1.0, 0.0]])
    mu = MarkovMeasure(base=shift, kernel=kernel, initial=np.array([2 / 3, 1 / 3]))
    kernel[0, 0] = 0.0
    assert mu.word_probability((0, 0)) == word_probability_oracle(mu, (0, 0)) == 1 / 3
