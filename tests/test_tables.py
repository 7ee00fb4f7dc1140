"""The plain-Python tables behind the per-word readers, against the numpy
per-element formulas they replaced (inlined below as oracles, compared with
==): admissibility, enumeration, word probabilities, cyclic Birkhoff sums,
the reversed kernel, the gap-prefactor probe and the reduction-step norms.
Likewise the word-tree routes of ``partition_sum`` and ``gibbs_certificate``
against the per-word loops, the per-measure entropy caches against a fresh
dynamic program, and the safety of those caches.  The list-validated
``kl_divergence``, the table-read ``same_shift`` and the one-pass
``_recurrent_classes`` are held to the numpy versions they replaced the same
way, and so are the gamma-row ``random_markov_measure``, the min/max
validation of measures, the per-shift components, mixing verdicts and word
counts, the per-measure integrals and the per-function norms."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoshift import cli
from thermoshift import measures as measures_module
from thermoshift import shift as shift_module
from thermoshift.bounds import block_entropy_gap_bound, reduction_step_norms
from thermoshift.measures import (
    MarkovMeasure,
    _pairwise_sum,
    _recurrent_classes,
    _rel_entr,
    block_entropy,
    conditional_entropy,
    entropy_rate,
    integrate,
    kl_divergence,
    make_markov_measure,
    random_markov_measure,
    reverse_kernel,
)
from thermoshift.potential import LocallyConstantFunction, random_function
from thermoshift.shift import (
    EmptyShiftError,
    EnumerationLimitError,
    TransitionMatrix,
    _count_words,
    build_sft,
    enumerate_periodic,
    enumerate_words,
    higher_block_recode,
    is_topologically_mixing,
    strong_components,
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
    transfer_matrix,
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


def reduction_step_norms_oracle(data, depth):
    """The per-word loop: for k = depth..2, the largest reversed-kernel row
    sum over the first symbols of the admissible (k-1)-words."""
    q = reverse_kernel(data.measure).tolist()
    rows = data.shift._rows
    norms = []
    for k in range(depth, 1, -1):
        worst = 0.0
        for w in enumerate_words(data.shift, k - 1):
            row = sum(abs(q[w[0]][s]) for s in range(data.shift.n) if rows[s][w[0]])
            worst = max(worst, row)
        norms.append(worst)
    return norms


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


def kl_divergence_oracle(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("length mismatch")
    ps, qs = p.tolist(), q.tolist()
    for name, v in (("p", ps), ("q", qs)):
        if not all(map(math.isfinite, v)):
            raise ValueError(f"{name} has non-finite entries")
    if np.any(p < 0.0) or np.any(q < 0.0):
        raise ValueError("negative entries")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("arguments must be probability vectors")
    total = float(np.array([_rel_entr(x, y) for x, y in zip(qs, ps)]).sum())
    if -1e-12 < total < 0.0:
        total = 0.0
    return total


def same_shift_oracle(one, other):
    return one.states == other.states and np.array_equal(one.matrix, other.matrix)


def recurrent_classes_oracle(adjacency):
    ncomp, comp = strong_components(adjacency)
    closed = []
    for c in range(ncomp):
        members = np.flatnonzero(comp == c)
        outside = adjacency[np.ix_(members, np.flatnonzero(comp != c))]
        if outside.size == 0 or not np.any(outside):
            closed.append(members.tolist())
    return closed


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "raises", type(exc), str(exc)


def matches_matrix(shift):
    """The cached tables say exactly what ``matrix`` says."""
    rows = tuple(tuple(bool(x) for x in row) for row in shift.matrix.tolist())
    return shift._rows == rows and all(
        list(shift._succ[i]) == successors_oracle(shift, i) for i in range(shift.n)
    )


# -- strategies ----------------------------------------------------------------


@st.composite
def pruned_shifts(draw, max_states=5):
    """build_sft on random edges over 2-5 states (or up to max_states), so
    pruning is exercised."""
    n = draw(st.integers(min_value=2, max_value=max_states))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    states = "abcdef"[:n]
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
    block_shift, blocks = higher_block_recode(shift, ell)
    expected = block_matrix_oracle(shift, blocks)
    assert np.array_equal(block_shift.matrix, expected)
    assert matches_matrix(block_shift)


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
        p, pi = data.measure.kernel, data.measure.initial
        q = reverse_kernel(data.measure)
        assert data.c == gap_prefactor_oracle(p, q, pi, data.kappa)
        assert _gap_prefactor(p, q, pi, data.kappa) == data.c


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
        block_shift, blocks = higher_block_recode(shift, ell)
        assert matches_matrix(block_shift)
        assert np.array_equal(block_shift.matrix, block_matrix_oracle(shift, blocks))


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


# one word tree serves a range of periods, and restarts where a period is
# shorter than the one before
PERIOD_LISTS = st.one_of(
    st.just([3, 1, 4]), st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4)
)


@given(potentials(), PERIOD_LISTS)
@settings(max_examples=150, deadline=None)
def test_partition_sum_matches_per_word_oracle(phi, periods):
    shift = phi.base
    b = transfer_matrix(shift, phi)
    for a in range(shift.n):
        sums = partition_sum(shift, phi, shift.states[a], periods)
        assert len(sums) == len(periods)
        for n, ps in zip(periods, sums):
            assert ps.enumeration == partition_sum_oracle(shift, phi, a, n)
            assert ps.matrix == np.linalg.matrix_power(b, n)[a, a]


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
    (at_a,) = partition_sum(shift, phi, "a", [1])
    assert at_a.enumeration == partition_sum_oracle(shift, phi, 0, 1)
    assert at_a.enumeration == math.exp(phi.table[(0,) * depth])
    assert partition_sum(shift, phi, "b", [1])[0].enumeration == 0.0
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
            # the DP's value, also where it strays from the chain rule
            assert block_entropy(fresh, n) == block_entropy_oracle(fresh, n)[0]
        assert entropy_rate(fresh) == row_entropy_oracle(fresh.initial, fresh.kernel)
        assert conditional_entropy(fresh, 1) == shannon_oracle(fresh.initial)
        q = reverse_kernel_oracle(fresh)
        assert conditional_entropy(fresh, 3) == row_entropy_oracle(fresh.initial, q)


def test_block_entropy_chain_rule_check_runs_on_every_new_length():
    shift = build_sft("ab", ["aa", "ab", "ba", "bb"])
    mu = make_markov_measure(shift, [[0.3, 0.7], [0.6, 0.4]])
    data = perron_data(shift, LocallyConstantFunction.zero(shift))
    f = LocallyConstantFunction.indicator(shift, (0,))
    block_entropy(mu, 5)
    # a wrong entropy rate must show in the chain_dev of lengths the DP has
    # already run, and of new ones; block_entropy still returns the DP's value
    mu.__dict__["_entropy_rate"] = entropy_rate(mu) + 1e-6
    for n in (3, 5, 7):
        rep = block_entropy_gap_bound(data, mu, f, n, 1)
        assert rep.terms["chain_dev"] == pytest.approx((n - 1) * 1e-6, rel=1e-6)
        assert block_entropy(mu, n) == block_entropy_oracle(mu, n)[0]


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


def _assert_step_norms_match_oracle(data):
    for depth in range(1, 5):
        assert reduction_step_norms(data, depth) == reduction_step_norms_oracle(data, depth)


def test_reduction_step_norms_match_per_word_oracle_on_builtins():
    for name in BUILTINS:
        _assert_step_norms_match_oracle(perron_data(*builtin_system(name)))


@given(
    pruned_shifts(max_states=6),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_reduction_step_norms_match_per_word_oracle(shift, depth, seed):
    assume(is_topologically_mixing(shift))
    phi = random_function(shift, depth, np.random.default_rng(seed))
    try:
        data = perron_data(shift, phi)
    except EigensolverError:
        assume(False)
    _assert_step_norms_match_oracle(data)


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


# -- list-validated divergence, table-read shift equality, one-pass classes ----


@st.composite
def divergence_arguments(draw):
    """Probability vectors of length 1-200 with zero entries, across numpy's
    8- and 128-element pairwise-summation boundaries; sometimes spoiled with
    a negative or non-finite entry, a length mismatch or a wrong total."""
    n = draw(st.integers(min_value=1, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.2, 0.6]))

    def vector():
        w = rng.random(n) * (rng.random(n) >= zeros)
        total = w.sum()
        return w / total if total > 0.0 else w

    p, q = vector(), vector()
    spoil = draw(st.sampled_from(["none", "none", "negative", "nan", "inf", "short", "scale"]))
    target = p if draw(st.booleans()) else q
    k = draw(st.integers(min_value=0, max_value=n - 1))
    if spoil == "negative":
        target[k] = -draw(st.floats(min_value=1e-300, max_value=1.0))
    elif spoil in ("nan", "inf"):
        target[k] = float(spoil)
    elif spoil == "scale":
        target *= draw(st.floats(min_value=0.5, max_value=2.0))
    elif spoil == "short":
        return p, q[: n - 1]
    return p, q


@given(divergence_arguments())
@settings(max_examples=400, deadline=None)
def test_kl_divergence_matches_numpy_validated_oracle(args):
    p, q = args
    assert outcome(kl_divergence, p, q) == outcome(kl_divergence_oracle, p, q)
    assert outcome(kl_divergence, p.tolist(), q.tolist()) == outcome(kl_divergence_oracle, p, q)


@pytest.mark.parametrize(
    "p, q, message",
    [
        ([], [], "arguments must be probability vectors"),
        ([1.5, -0.5], [0.5, 0.5], "negative entries"),
        ([0.5, 0.5], [1.5, -0.5], "negative entries"),
        ([0.5, math.nan], [0.5, 0.5], "p has non-finite entries"),
        ([0.5, 0.5], [-math.inf, 0.5], "q has non-finite entries"),
        ([0.5, 0.5], [1.0], "length mismatch"),
        ([0.5, 0.25], [0.5, 0.5], "arguments must be probability vectors"),
        (np.full((2, 2), 0.25), np.full(4, 0.25), "length mismatch"),
        (np.full(4, 0.25), np.full((1, 4), 0.25), "length mismatch"),
        ([[0.5, 0.5]], [0.5, 0.5], "length mismatch"),
        ([0.5, 0.5], [None, 0.5], "q has non-finite entries"),
    ],
)
def test_kl_divergence_refusals_match_oracle(p, q, message):
    expected = ("raises", ValueError, message)
    assert outcome(kl_divergence, p, q) == outcome(kl_divergence_oracle, p, q) == expected


def test_pairwise_sum_adds_in_numpy_order():
    rng = np.random.default_rng(53)
    for n in [*range(301), 500, 1000, 4097]:
        # magnitudes over 20 decades and both signs, so the order shows
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-10, 10, n)
        assert _pairwise_sum(v.tolist()) == np.add.reduce(v)
        assert _pairwise_sum([abs(x) for x in v.tolist()]) == np.add.reduce(np.abs(v))


def test_kl_divergence_on_lists_matches_the_array_route():
    rng = np.random.default_rng(59)
    for _ in range(2000):
        dim = int(rng.integers(2, 9))
        p, q = rng.dirichlet([1.0] * dim), rng.dirichlet([1.0] * dim)
        # zeros on either side: 0 log 0 terms, and infinite divergences
        for v in (p, q):
            if rng.random() < 0.3:
                v[int(rng.integers(dim))] = 0.0
                v /= v.sum()
        want = outcome(kl_divergence_oracle, p, q)
        assert outcome(kl_divergence, p.tolist(), q.tolist()) == want
        assert outcome(kl_divergence, p, q) == want


def test_kl_divergence_takes_negative_zero_as_zero():
    p, q = [0.5, 0.5], [1.0, -0.0]
    assert outcome(kl_divergence, p, q) == outcome(kl_divergence_oracle, p, q)
    assert kl_divergence(p, q) == math.log(2.0)


@given(pruned_shifts(), pruned_shifts(), st.integers(min_value=0, max_value=24))
@settings(max_examples=150, deadline=None)
def test_same_shift_matches_array_equal(one, other, flip):
    copy = TransitionMatrix(states=one.states, matrix=one.matrix.copy())
    m = one.matrix.copy()
    m.flat[flip % m.size] ^= 1
    flipped = TransitionMatrix(states=one.states, matrix=m)
    pairs = [(one, one), (one, copy), (one, other), (other, one), (one, flipped)]
    pairs += [(one, higher_block_recode(one, ell)[0]) for ell in (2, 3)]
    for a, b in pairs:
        assert a.same_shift(b) == same_shift_oracle(a, b)
    assert one.same_shift(copy) and not one.same_shift(flipped)
    # with one-letter labels, 2-blocks relabel nothing
    assert one.same_shift(higher_block_recode(one, 2)[0])


def _kernel_with_classes(rng):
    """A random kernel with 1-3 closed classes and 0-3 transient states on
    shuffled indices, and its closed classes in the order of their smallest
    state."""
    sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
    transient = int(rng.integers(0, 4))
    n = sum(sizes) + transient
    order = rng.permutation(n).tolist()
    w = np.zeros((n, n))
    classes, start = [], 0
    for size in sizes:
        members = order[start:start + size]
        start += size
        for a, b in zip(members, members[1:] + members[:1]):
            w[a, b] = 1.0  # a cycle through the class
        for a in members:
            for b in members:
                if rng.random() < 0.3:
                    w[a, b] = 1.0
        classes.append(sorted(members))
    recurrent = [i for cls in classes for i in cls]
    for a in order[start:]:
        w[a, recurrent[int(rng.integers(len(recurrent)))]] = 1.0  # a way out
        for b in range(n):
            if b not in recurrent and rng.random() < 0.4:
                w[a, b] = 1.0
    w *= rng.uniform(0.1, 1.0, size=(n, n))
    return w / w.sum(axis=1, keepdims=True), sorted(classes)


def test_recurrent_classes_match_submatrix_oracle():
    rng = np.random.default_rng(31)
    for _ in range(400):
        p, classes = _kernel_with_classes(rng)
        adjacency = p > 0.0
        assert _recurrent_classes(adjacency) == recurrent_classes_oracle(adjacency) == classes


def _irreducible_kernel(rng, n, density):
    """A random kernel on n states whose support is a cycle through every
    state plus each other edge with probability ``density``."""
    order = rng.permutation(n).tolist()
    w = (rng.random((n, n)) < density) * rng.uniform(0.1, 1.0, size=(n, n))
    for a, b in zip(order, order[1:] + order[:1]):
        w[a, b] = rng.uniform(0.1, 1.0)
    return w / w.sum(axis=1, keepdims=True)


def test_make_markov_measure_solves_as_the_submatrix_route_did():
    rng = np.random.default_rng(61)
    kinds = {"full support": 0, "partial support": 0, "transient states": 0}
    while min(kinds.values()) < 150:
        kind = min(kinds, key=kinds.get)
        if kind == "transient states":
            p, classes = _kernel_with_classes(rng)
            if len(classes) != 1 or len(classes[0]) == len(p):
                continue
            n = len(p)
            shift = TransitionMatrix(states=tuple(range(n)), matrix=np.ones((n, n)))
        else:
            n = int(rng.integers(1, 7))
            p = _irreducible_kernel(rng, n, 0.5)
            # the shift allows exactly the kernel's edges, or every edge
            matrix = (p > 0.0) if kind == "full support" else np.ones((n, n))
            shift = TransitionMatrix(states=tuple(range(n)), matrix=matrix)
        want = _measure_outcome(make_markov_measure_oracle, shift, p)
        assert want[0] == "value"
        assert _measure_outcome(make_markov_measure, shift, p) == want
        kinds[kind] += 1


# -- per-shift, per-measure and per-function caches ------------------------------
#
# The code before the caches, inlined: Dirichlet rows drawn one fancy
# assignment at a time, validation with separate isfinite and sign passes,
# strong components searched on every kernel, and np.isin for 0/1 entries.


def random_markov_measure_oracle(shift, rng):
    p = np.zeros((shift.n, shift.n))
    for i in range(shift.n):
        succ = shift.successors(i)
        p[i, succ] = rng.dirichlet([1.0] * len(succ))
    return make_markov_measure_oracle(shift, p)


def make_markov_measure_oracle(shift, kernel):
    p = np.asarray(kernel, dtype=float)
    if p.shape != (shift.n, shift.n):
        raise ValueError(f"kernel must be {shift.n}x{shift.n}")
    if not np.isfinite(p).all():
        raise ValueError("kernel has non-finite entries")
    if (p < 0.0).any():
        raise ValueError("kernel has negative entries")
    if ((p > 0.0) & (shift.matrix == 0)).any():
        raise ValueError("kernel puts mass on a forbidden transition")
    rows = p.sum(axis=1)
    if (np.abs(rows - 1.0) > 1e-9).any():
        raise ValueError("kernel rows must sum to 1")
    p = p / rows[:, None]
    classes = recurrent_classes_oracle(p > 0.0)
    if len(classes) != 1:
        names = [", ".join(shift.states[i] for i in cls) for cls in classes]
        raise ValueError(
            "kernel has %d recurrent classes ({%s}); stationary vector is ambiguous"
            % (len(classes), "}, {".join(names))
        )
    members = classes[0]
    sub = p[np.ix_(members, members)]
    k = len(members)
    lhs = (sub - np.eye(k)).T
    lhs[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    sol = np.linalg.solve(lhs, rhs)
    sol = np.maximum(sol, 0.0)
    sol /= sol.sum()
    pi = np.zeros(shift.n)
    pi[members] = sol
    markov_measure_checks_oracle(shift, p, pi)
    return p, pi


def markov_measure_checks_oracle(shift, kernel, initial):
    n = shift.n
    p = np.array(kernel, dtype=float)
    pi = np.array(initial, dtype=float)
    if p.shape != (n, n) or pi.shape != (n,):
        raise ValueError("kernel or stationary vector has the wrong shape")
    for name, v in (("kernel", p), ("initial", pi)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} has non-finite entries")
    if (p < 0.0).any() or (pi < 0.0).any():
        raise ValueError("negative probabilities")
    if ((p > 0.0) & (shift.matrix == 0)).any():
        raise ValueError("kernel puts mass on a forbidden transition")
    rows = p.sum(axis=1)
    live = pi > 0.0
    if (np.abs(rows[live] - 1.0) > 1e-12).any():
        raise ValueError("kernel rows on the support do not sum to 1")
    bad = ~live & (np.abs(rows - 1.0) > 1e-12) & (rows != 0.0)
    if bad.any():
        raise ValueError("off-support kernel rows must be stochastic or zero")
    if abs(pi.sum() - 1.0) > 1e-10:
        raise ValueError("stationary vector does not sum to 1")
    if np.abs(pi @ p - pi).max() > 1e-10:
        raise ValueError("vector is not stationary for the kernel")


def markov_measure_oracle(shift, kernel, initial):
    markov_measure_checks_oracle(shift, kernel, initial)
    return kernel, initial


def transition_matrix_check_oracle(states, matrix):
    m = np.array(matrix, dtype=np.int8)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(states):
        raise ValueError("matrix shape does not match the state count")
    if not np.isin(m, (0, 1)).all():
        raise ValueError("transition matrix entries must be 0 or 1")
    return m.tolist()


def integrate_oracle(mu, f):
    if f.depth == 1:
        return float(sum(mu.initial[i] * f.table[(i,)] for i in range(mu.base.n)))
    total = 0.0
    for w in enumerate_words(mu.base, f.depth):
        pw = mu.word_probability(w)
        if pw > 0.0:
            total += pw * f.table[w]
    return float(total)


def norms_oracle(f):
    sup = float(max(abs(v) for v in f.table.values()))
    return sup, f.holder_constant()


def fmt_oracle(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


BUILTINS = ("full2-zero", "full2-bernoulli", "golden-zero", "golden-range2", "tribonacci-zero")


def _random_shift(rng):
    """build_sft on random edges over 2-6 states; None when nothing survives."""
    n = int(rng.integers(2, 7))
    states = "abcdef"[:n]
    edges = [(a, b) for a in states for b in states if rng.random() < 0.45]
    try:
        return build_sft(states, edges)
    except EmptyShiftError:
        return None


def _measure_outcome(fn, *args):
    """The kernel and stationary bytes a construction gives, or its refusal."""
    try:
        got = fn(*args)
    except ValueError as exc:
        return "raises", str(exc)
    p, pi = (got.kernel, got.initial) if isinstance(got, MarkovMeasure) else got
    return "value", p.tobytes(), pi.tobytes()


def test_random_markov_measure_draws_the_dirichlet_rows_bit_for_bit():
    shifts = [builtin_system(name)[0] for name in BUILTINS]
    rng = np.random.default_rng(41)
    while len(shifts) < 5 + 200:
        shift = _random_shift(rng)
        if shift is not None:
            shifts.append(shift)
    for shift in shifts:
        for seed in range(20):
            one = np.random.default_rng([seed, 4])
            two = np.random.default_rng([seed, 4])
            want = _measure_outcome(random_markov_measure_oracle, shift, one)
            assert _measure_outcome(random_markov_measure, shift, two) == want
            assert two.bit_generator.state == one.bit_generator.state


def test_random_markov_measure_takes_no_concentration():
    shift = builtin_system("golden-zero")[0]
    with pytest.raises(TypeError):
        random_markov_measure(shift, np.random.default_rng(1), 0.05)


def _spoiled_kernels(shift, rng):
    """Kernels on the shift charging every edge or some, each spoiled by a
    random subset of: nan, inf, a negative entry, mass off the edges, a
    scaled row."""
    n = shift.n
    w = rng.uniform(0.1, 1.0, size=(n, n)) * shift.matrix
    if rng.random() < 0.5:
        w *= rng.random((n, n)) < 0.6  # a support that differs from the graph
    rows = w.sum(axis=1, keepdims=True)
    w = np.divide(w, rows, out=np.zeros_like(w), where=rows > 0.0)
    for spoil in ("nan", "inf", "-inf", "negative", "forbidden", "scale"):
        if rng.random() >= 0.2:
            continue
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if spoil == "nan":
            w[i, j] = math.nan
        elif spoil == "inf":
            w[i, j] = math.inf
        elif spoil == "-inf":
            w[i, j] = -math.inf
        elif spoil == "negative":
            w[i, j] = -0.25
        elif spoil == "forbidden" and not shift.matrix.all():
            i, j = map(int, np.argwhere(shift.matrix == 0)[0])
            w[i, j] = 0.5
        elif spoil == "scale":
            w[i] *= 1.5
    return w


def test_make_markov_measure_refuses_as_before_in_the_same_order():
    rng = np.random.default_rng(43)
    seen = set()
    for _ in range(3000):
        shift = _random_shift(rng)
        if shift is None:
            continue
        p = _spoiled_kernels(shift, rng)
        want = _measure_outcome(make_markov_measure_oracle, shift, p)
        assert _measure_outcome(make_markov_measure, shift, p) == want
        seen.add(want[1].split(" ")[1] if want[0] == "raises" else "value")
    # every refusal came up, and so did answers
    assert seen == {"has", "puts", "rows", "value"}


def test_two_closed_classes_are_named_in_state_order():
    shift = build_sft("abcd", ["ab", "ba", "bc", "cc", "dd", "da", "ad"])
    kernel = np.zeros((4, 4))
    for i, j in ((0, 1), (1, 0), (2, 2), (3, 3)):
        kernel[i, j] = 1.0
    want = _measure_outcome(make_markov_measure_oracle, shift, kernel)
    assert want == ("raises", "kernel has 3 recurrent classes ({a, b}, {c}, {d}); "
                    "stationary vector is ambiguous")
    assert _measure_outcome(make_markov_measure, shift, kernel) == want
    kernel[1] = (0.0, 0.0, 1.0, 0.0)  # b now leaks into c: {a, b} is transient
    kernel[0] = (0.0, 1.0, 0.0, 0.0)
    got = _measure_outcome(make_markov_measure, shift, kernel)
    assert got == _measure_outcome(make_markov_measure_oracle, shift, kernel)
    assert got[1] == "kernel has 2 recurrent classes ({c}, {d}); stationary vector is ambiguous"


def test_markov_measure_refuses_as_before_in_the_same_order():
    rng = np.random.default_rng(47)
    shift = build_sft("abc", ["aa", "ab", "bc", "ca", "cb", "cc"])
    bases = [
        make_markov_measure(shift, [[0.5, 0.5, 0], [0, 0, 1], [0.5, 0.5, 0]]),
        # b and c are transient: their rows may be stochastic or zero
        make_markov_measure(shift, [[1, 0, 0], [0, 0, 1], [1, 0, 0]]),
    ]
    seen = set()
    for trial in range(3000):
        base = bases[trial % 2]
        p, pi = base.kernel.copy(), base.initial.copy()
        if trial % 4 == 1:
            p[2] = 0.0  # a zero row off the support
        if trial % 4 == 2:
            pi = np.array([0.5, 0.25, 0.25])  # sums to 1, not stationary
        for spoil in rng.integers(0, 7, size=int(rng.integers(0, 4))):
            i, j = int(rng.integers(3)), int(rng.integers(3))
            target = p if rng.random() < 0.5 else pi
            index = (i, j) if target is p else (i,)
            target[index] = (math.nan, math.inf, -0.1, 0.3, 0.0, 1e-11, -0.0)[spoil]
        want = _measure_outcome(markov_measure_oracle, shift, p, pi)
        assert _measure_outcome(MarkovMeasure, shift, p, pi) == want
        seen.add(want[1] if want[0] == "raises" else "value")
    assert len(seen) == 9  # every refusal but the shape, and answers


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 2], [1, 1]],
        [[1, -1], [1, 1]],
        np.array([[1, 256], [1, 1]]),  # wraps to 0 as an int8, as before
        np.array([[1, 257], [258, 1]]),
        np.array([[1, 255], [1, 1]]),  # wraps to -1
        np.array([[True, False], [True, True]]),
        np.zeros((0, 0)),
        np.zeros((2, 3)),
    ],
)
def test_transition_matrix_refuses_the_entries_it_refused(matrix):
    states = ("a", "b")[: len(matrix)]
    want = outcome(transition_matrix_check_oracle, states, matrix)
    got = outcome(TransitionMatrix, states, matrix)
    if got[0] == "value":
        got = ("value", got[1].matrix.tolist())
    assert got == want


def test_shift_caches_match_fresh_computations():
    rng = np.random.default_rng(53)
    shifts = [builtin_system(name)[0] for name in BUILTINS]
    shifts += [s for s in (_random_shift(rng) for _ in range(300)) if s is not None]
    for shift in shifts:
        count, labels = strong_components(shift.matrix)
        assert shift._components[0] == count
        assert shift._components[1].tolist() == labels.tolist()
        assert shift._components is shift._components
        verdict = is_topologically_mixing(shift)
        assert verdict == is_mixing_oracle(shift) == is_topologically_mixing(shift)
        for n in (3, 1, 5, 3):
            power = np.linalg.matrix_power(shift.matrix.astype(np.float64), n - 1)
            assert _count_words(shift, n) == float(power.sum())
            assert len(enumerate_words(shift, n)) == _count_words(shift, n)
    with pytest.raises(ValueError, match="read-only"):
        shifts[0]._components[1][0] = 5


def test_word_count_cap_is_still_checked_on_every_call(monkeypatch):
    shift = builtin_system("full2-zero")[0]
    monkeypatch.setattr(shift_module, "WORD_CAP", 16)
    assert len(enumerate_words(shift, 4)) == 16
    monkeypatch.setattr(shift_module, "WORD_CAP", 15)
    for _ in range(2):
        with pytest.raises(EnumerationLimitError, match="about 16 words of length 4, cap is 15"):
            enumerate_words(shift, 4)


def test_cached_integrals_and_norms_match_fresh_calls():
    rng = np.random.default_rng(59)
    for name in BUILTINS:
        shift, phi = builtin_system(name)
        data = perron_data(shift, phi)
        for trial in range(10):
            mu = random_markov_measure(shift, rng)
            f = random_function(shift, int(rng.integers(1, 4)), rng)
            for measure in (mu, data.measure):
                first = integrate(measure, f)
                assert first == integrate_oracle(measure, f)
                assert integrate(measure, f) == first
                assert integrate(measure, phi) == integrate_oracle(measure, phi)
            norms = f.norms()
            assert (norms.sup, norms.lip) == norms_oracle(f)
            assert norms.total == norms.sup + norms.lip
            assert f.norms() is norms
        assert data.eigennorm == float(np.max(data.h) * np.max(1.0 / data.h))
    # equal tables are different functions, each with its own entry
    g = LocallyConstantFunction(base=shift, depth=1, table={(i,): 1.0 for i in range(shift.n)})
    h = LocallyConstantFunction(base=shift, depth=1, table=dict(g.table))
    assert integrate(mu, g) == integrate(mu, h) == integrate_oracle(mu, g)
    assert g in mu._integrals and h in mu._integrals


def test_caches_are_read_back_without_recomputing(monkeypatch):
    shift, phi = builtin_system("tribonacci-zero")
    mu = random_markov_measure(shift, np.random.default_rng(5))
    value, count, verdict = integrate(mu, phi), _count_words(shift, 6), is_topologically_mixing(shift)
    norms = phi.norms()

    def recomputed(*args):
        raise AssertionError("a kept quantity was computed again")

    monkeypatch.setattr(measures_module, "_cylinder_sum", recomputed)
    monkeypatch.setattr(shift_module, "strong_components", recomputed)
    monkeypatch.setattr(measures_module, "strong_components", recomputed)
    monkeypatch.setattr(np.linalg, "matrix_power", recomputed)
    monkeypatch.setattr(LocallyConstantFunction, "holder_constant", recomputed)
    assert integrate(mu, phi) == value
    assert _count_words(shift, 6) == count
    assert is_topologically_mixing(shift) == verdict
    assert phi.norms() is norms
    # a kernel on every edge reads the shift's components
    assert make_markov_measure(shift, mu.kernel).initial.tobytes() == mu.initial.tobytes()


def test_integral_cache_refuses_a_function_on_another_shift():
    mu = random_markov_measure(builtin_system("golden-zero")[0], np.random.default_rng(3))
    f = LocallyConstantFunction.zero(builtin_system("full2-zero")[0])
    for _ in range(2):
        with pytest.raises(ValueError, match="different shifts"):
            integrate(mu, f)
    assert mu._integrals == {}


def test_pickled_measure_starts_with_an_empty_integral_cache():
    shift, phi = builtin_system("tribonacci-zero")
    mu = random_markov_measure(shift, np.random.default_rng(7))
    value = integrate(mu, phi)
    assert mu._integrals == {phi: value}
    copy = pickle.loads(pickle.dumps(mu))
    assert copy._integrals == {}
    assert integrate(copy, phi) == value == integrate_oracle(copy, phi)


@pytest.mark.parametrize(
    "value",
    [True, False, np.True_, np.False_, 0, 7, -3, np.int64(5), np.int8(-2), 1.5, -0.0,
     math.inf, -math.inf, math.nan, 1e-300, 0.1 + 0.2, np.float64(0.1 + 0.2),
     np.float64(math.nan), np.float32(0.1), "golden", ""],
)
def test_fmt_writes_what_it_wrote(value):
    assert cli._fmt(value) == fmt_oracle(value)
