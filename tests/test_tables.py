"""The plain-Python tables behind the per-word readers, against the numpy
per-element formulas they replaced (inlined below as oracles, compared with
==): admissibility, enumeration, word probabilities, cyclic Birkhoff sums,
the reversed kernel and the gap-prefactor probe.  Likewise the word-tree
routes of ``partition_sum`` and ``gibbs_certificate`` against the per-word
loops, the per-measure entropy caches against a fresh dynamic program, and
the safety of those caches."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoshift.bounds import reduction_step_norms
from thermoshift.measures import (
    MarkovMeasure,
    block_entropy,
    conditional_entropy,
    entropy_rate,
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
    EigensolverError,
    _gap_prefactor,
    gibbs_certificate,
    partition_sum,
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


def partition_sum_oracle(shift, phi, a, n):
    total = 0.0
    for w in enumerate_periodic(shift, n):
        if w[0] == a:
            total += math.exp(phi.birkhoff_sum(w, n, cyclic=True))
    return total


def gibbs_certificate_oracle(data, n_max):
    """(empirical, worst_ratio, worst_word) of the per-word loop."""
    r = data.phi.depth
    worst = 1.0
    worst_word = ()
    lo, hi = math.inf, 0.0
    for n in range(1, n_max + 1):
        for w in enumerate_words(data.shift, n):
            mw = data.measure.word_probability(w)
            k = n if r == 1 else n - 1
            s = data.phi.birkhoff_sum(w, k) if k >= 1 else 0.0
            ratio = mw * math.exp(k * data.pressure - s)
            lo, hi = min(lo, ratio), max(hi, ratio)
            if max(ratio, 1.0 / ratio) > max(worst, 1.0 / worst):
                worst, worst_word = ratio, w
    return max(hi, 1.0 / lo), worst, worst_word


def block_entropy_oracle(mu, n):
    """(value, closed form) of the block-entropy DP run from scratch."""
    pi, p = mu.initial, mu.kernel
    logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    mass = pi.copy()
    slog = np.where(pi > 0.0, pi * np.log(np.where(pi > 0.0, pi, 1.0)), 0.0)
    for _ in range(n - 1):
        slog = slog @ p + mass @ (p * logp)
        mass = mass @ p
    return float(-slog.sum()), shannon_oracle(pi) + (n - 1) * row_entropy_oracle(pi, p)


def shannon_oracle(w):
    mask = w > 0.0
    return float(-np.sum(w[mask] * np.log(w[mask])))


def row_entropy_oracle(pi, p):
    mask = p > 0.0
    plogp = np.zeros_like(p)
    plogp[mask] = p[mask] * np.log(p[mask])
    return float(-pi @ plogp.sum(axis=1))


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


# -- word-tree routes and per-object caches ------------------------------------


@st.composite
def potentials(draw):
    """Range-1 or range-2 potentials with values in [-1, 1] on random shifts."""
    shift = draw(pruned_shifts())
    depth = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_function(shift, depth, np.random.default_rng(seed))


@given(potentials(), st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_partition_sum_matches_per_word_oracle(phi, n):
    shift = phi.base
    for a in range(shift.n):
        ps = partition_sum(shift, phi, a, n)
        assert ps.enumeration == partition_sum_oracle(shift, phi, a, n)


@given(potentials(), st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_gibbs_certificate_matches_per_word_oracle(phi, n_max):
    assume(is_topologically_mixing(phi.base))
    try:
        data = perron_data(phi.base, phi)
    except EigensolverError:
        assume(False)
    cert = gibbs_certificate(data, n_max)
    expected = gibbs_certificate_oracle(data, n_max)
    assert (cert.empirical, cert.worst_ratio, cert.worst_word) == expected


@pytest.mark.parametrize("depth", [1, 2])
def test_word_tree_routes_at_length_one_read_the_self_loop(depth):
    # only a has a self-loop: period 1 sees a alone, through its loop value
    shift = build_sft("ab", ["aa", "ab", "ba"])
    phi = random_function(shift, depth, np.random.default_rng(depth))
    assert partition_sum(shift, phi, "a", 1).enumeration == partition_sum_oracle(shift, phi, 0, 1)
    assert partition_sum(shift, phi, "a", 1).enumeration == math.exp(phi.table[(0,) * depth])
    assert partition_sum(shift, phi, "b", 1).enumeration == 0.0
    data = perron_data(shift, phi)
    cert = gibbs_certificate(data, 1)
    assert (cert.empirical, cert.worst_ratio, cert.worst_word) == gibbs_certificate_oracle(data, 1)


@given(measures(), st.permutations(range(1, 9)))
@settings(max_examples=100, deadline=None)
def test_cached_entropies_match_a_fresh_dp_in_any_order(mu, shuffled):
    for order in (range(1, 9), range(8, 0, -1), shuffled):
        # a fresh instance per order, so each starts with empty caches
        fresh = MarkovMeasure(base=mu.base, kernel=mu.kernel, initial=mu.initial)
        for n in order:
            value, closed = block_entropy_oracle(fresh, n)
            if abs(value - closed) > 1e-10:
                with pytest.raises(RuntimeError, match="chain rule"):
                    block_entropy(fresh, n)
            else:
                assert block_entropy(fresh, n) == value
        assert entropy_rate(fresh) == row_entropy_oracle(fresh.initial, fresh.kernel)
        assert conditional_entropy(fresh, 1) == shannon_oracle(fresh.initial)
        q = reverse_kernel_oracle(fresh)
        assert conditional_entropy(fresh, 3) == row_entropy_oracle(fresh.initial, q)


def test_block_entropy_chain_rule_check_runs_on_every_new_length():
    shift = build_sft("ab", ["aa", "ab", "ba", "bb"])
    mu = make_markov_measure(shift, [[0.3, 0.7], [0.6, 0.4]])
    block_entropy(mu, 5)
    # a wrong entropy rate must be caught for lengths the DP has already run
    mu.__dict__["_entropy_rate"] = entropy_rate(mu) + 1e-6
    with pytest.raises(RuntimeError, match="chain rule"):
        block_entropy(mu, 3)


def test_reverse_kernel_is_read_only():
    shift = build_sft("ab", ["aa", "ab", "ba"])
    mu = make_markov_measure(shift, [[0.5, 0.5], [1.0, 0.0]])
    q = reverse_kernel(mu)
    with pytest.raises(ValueError, match="read-only"):
        q[0, 0] = 1.0
    assert reverse_kernel(mu) is q
    assert q.tobytes() == reverse_kernel_oracle(mu).tobytes()


def test_measures_with_equal_kernels_share_no_cache():
    shift = build_sft("ab", ["aa", "ab", "ba", "bb"])
    kernel = np.array([[0.3, 0.7], [0.6, 0.4]])
    one = make_markov_measure(shift, kernel)
    two = MarkovMeasure(base=shift, kernel=one.kernel, initial=one.initial)
    assert block_entropy(one, 4) == block_entropy_oracle(one, 4)[0]
    assert two._block_entropies.state[0] == (block_entropy_oracle(two, 1)[0],)
    assert one._block_entropies is not two._block_entropies
    q1, q2 = reverse_kernel(one), reverse_kernel(two)
    assert q1 is not q2 and not np.shares_memory(q1, q2)
    assert q1.tobytes() == q2.tobytes()
    assert perron_data(*builtin_system("golden-range2"))._step_norms is not (
        perron_data(*builtin_system("golden-range2"))._step_norms
    )


def test_reduction_step_norms_extend_their_cache_like_a_fresh_computation():
    shift, phi = builtin_system("tribonacci-zero")
    data = perron_data(shift, phi)
    two = reduction_step_norms(data, 2)
    three = reduction_step_norms(data, 3)
    assert three == reduction_step_norms(perron_data(shift, phi), 3)
    assert two == reduction_step_norms(perron_data(shift, phi), 2) == three[1:]
    three.clear()
    assert reduction_step_norms(data, 3) == reduction_step_norms(perron_data(shift, phi), 3)
    assert reduction_step_norms(data, 1) == []


def test_gibbs_certificate_needs_a_word_length():
    data = perron_data(*builtin_system("golden-range2"))
    for n_max in (0, -2):
        with pytest.raises(ValueError, match="n_max"):
            gibbs_certificate(data, n_max)


def test_measures_pickle_with_their_caches():
    shift, phi = builtin_system("golden-range2")
    mu = perron_data(shift, phi).measure
    values = [block_entropy(mu, n) for n in (4, 2)] + [conditional_entropy(mu, 2)]
    copy = pickle.loads(pickle.dumps(mu))
    assert [block_entropy(copy, n) for n in (4, 2)] + [conditional_entropy(copy, 2)] == values
    assert block_entropy(copy, 6) == block_entropy(mu, 6)


def test_pickled_measures_stay_read_only():
    mu = perron_data(*builtin_system("golden-range2")).measure
    reverse_kernel(mu)
    copy = pickle.loads(pickle.dumps(mu))
    for array in (copy.kernel, copy.initial, reverse_kernel(copy)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    assert copy.kernel.tobytes() == mu.kernel.tobytes()
    assert copy.initial.tobytes() == mu.initial.tobytes()
