import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import encode_cycle
from thermoshift import shift as shift_module
from thermoshift.shift import (
    EmptyShiftError,
    EnumerationLimitError,
    TransitionMatrix,
    build_sft,
    enumerate_periodic,
    enumerate_words,
    higher_block_recode,
    is_topologically_mixing,
    strong_components,
)
from thermoshift.systems import builtin_shift

GOLDEN_EDGES = [("a", "a"), ("a", "b"), ("b", "a")]


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def test_build_golden_mean():
    shift = build_sft(["a", "b"], GOLDEN_EDGES)
    assert shift.n == 2
    assert shift.is_word((0, 0, 1, 0))
    assert not shift.is_word((1, 1))
    assert shift.removed == ()


@pytest.mark.parametrize("private", ["_index", "_rows", "_succ"])
def test_row_tables_are_not_constructor_arguments(private):
    shift = build_sft(["a", "b"], GOLDEN_EDGES)
    with pytest.raises(TypeError):
        type(shift)(shift.states, shift.matrix, **{private: ()})


def test_build_prunes_stranded_states():
    # c has no outgoing edge, d is unreachable after c goes
    shift = build_sft(
        ["a", "b", "c", "d"],
        [("a", "a"), ("a", "b"), ("b", "a"), ("a", "c"), ("d", "c")],
    )
    assert shift.states == ("a", "b")
    assert set(shift.removed) == {"c", "d"}


def test_build_empty_shift_raises():
    with pytest.raises(EmptyShiftError):
        build_sft(["a", "b"], [("a", "b")])


def test_mixing_classification():
    assert is_topologically_mixing(builtin_shift("golden-mean"))
    assert is_topologically_mixing(builtin_shift("tribonacci"))
    # pure 2-cycle: irreducible but period 2
    cycle = build_sft(["a", "b"], [("a", "b"), ("b", "a")])
    assert not is_topologically_mixing(cycle)


def test_word_counts_are_fibonacci_on_golden():
    shift = builtin_shift("golden-mean")
    for n in range(1, 11):
        assert len(enumerate_words(shift, n)) == fib(n + 2)


def test_word_count_equals_matrix_power_sum():
    for name in ("full-2", "golden-mean", "tribonacci"):
        shift = builtin_shift(name)
        a = shift.matrix.astype(np.int64)
        for n in range(1, 11):
            expected = int(np.sum(np.linalg.matrix_power(a, n - 1)))
            assert len(enumerate_words(shift, n)) == expected


def test_periodic_counts_equal_traces():
    for name in ("full-2", "golden-mean", "tribonacci"):
        shift = builtin_shift(name)
        a = shift.matrix.astype(np.int64)
        for k in range(1, 13):
            expected = int(np.trace(np.linalg.matrix_power(a, k)))
            assert len(enumerate_periodic(shift, k)) == expected


def test_tribonacci_periodic_sequence():
    shift = builtin_shift("tribonacci")
    got = [len(enumerate_periodic(shift, k)) for k in range(1, 13)]
    assert got == [1, 3, 7, 11, 21, 39, 71, 131, 241, 443, 815, 1499]


def test_enumeration_cap():
    shift = build_sft(
        [str(i) for i in range(4)],
        [(str(i), str(j)) for i in range(4) for j in range(4)],
    )
    with pytest.raises(EnumerationLimitError):
        enumerate_words(shift, 13)


def test_higher_block_recode_golden():
    shift = builtin_shift("golden-mean")
    block_shift, blocks = higher_block_recode(shift, 3)
    assert block_shift.n == 3 and blocks == [(0, 0), (0, 1), (1, 0)]  # aa, ab, ba
    assert block_shift.states == ("aa", "ab", "ba")
    # admissible n-words of the recoded shift biject with (n+ell-2)-words
    for n in range(1, 8):
        assert len(enumerate_words(block_shift, n)) == len(enumerate_words(shift, n + 1))


def test_higher_block_recode_counts_its_states_before_listing_them(monkeypatch):
    shift = builtin_shift("full-2")
    assert higher_block_recode(shift, 11)[0].n == shift_module.STATE_CAP

    def listing(*args):
        raise AssertionError("blocks were listed before they were counted")

    monkeypatch.setattr(shift_module, "enumerate_words", listing)
    for ell in (12, 16):
        with pytest.raises(ValueError, match=f"range {ell} recodes to {2 ** (ell - 1)} states"):
            higher_block_recode(shift, ell)


def test_recode_cycles():
    shift = builtin_shift("golden-mean")
    for ell in (2, 3):
        block_shift, blocks = higher_block_recode(shift, ell)
        for k in range(1, 7):
            cycles = enumerate_periodic(shift, k)
            encoded = {encode_cycle(blocks, c) for c in cycles}
            assert encoded == set(enumerate_periodic(block_shift, k))
            for c in cycles:
                assert tuple(blocks[s][0] for s in encode_cycle(blocks, c)) == c


def test_same_shift_is_content_based():
    one = build_sft(["a", "b"], GOLDEN_EDGES)
    two = build_sft(["a", "b"], GOLDEN_EDGES)
    assert one is not two
    assert one.same_shift(two)
    assert not one.same_shift(builtin_shift("tribonacci"))


def test_a_shift_carries_its_metric_parameter():
    shift = build_sft(["a", "b"], GOLDEN_EDGES, theta=0.3)
    assert shift.theta == 0.3 and build_sft(["a", "b"], GOLDEN_EDGES).theta == 0.5
    assert not shift.same_shift(build_sft(["a", "b"], GOLDEN_EDGES))
    assert shift.same_shift(build_sft(["a", "b"], GOLDEN_EDGES, theta=0.3))
    assert higher_block_recode(shift, 3)[0].theta == 0.3


@pytest.mark.parametrize("theta", [0.0, 1.0, float("nan")])
def test_theta_outside_the_open_unit_interval_is_refused(theta):
    with pytest.raises(ValueError, match=r"^theta must lie in \(0, 1\)$"):
        build_sft(["a", "b"], GOLDEN_EDGES, theta)
    with pytest.raises(ValueError, match=r"^theta must lie in \(0, 1\)$"):
        TransitionMatrix(("a", "b"), np.ones((2, 2)), theta=theta)


@st.composite
def small_transition_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    bits = draw(
        st.lists(st.booleans(), min_size=n * n, max_size=n * n).filter(any)
    )
    return [str(i) for i in range(n)], [
        (str(i), str(j)) for i in range(n) for j in range(n) if bits[i * n + j]
    ]


@given(small_transition_matrices())
@settings(max_examples=60, deadline=None)
def test_enumerated_words_are_admissible(states_edges):
    states, edges = states_edges
    try:
        shift = build_sft(states, edges)
    except EmptyShiftError:
        return
    a = shift.matrix.astype(np.int64)
    for n in range(1, 5):
        words = enumerate_words(shift, n)
        assert len(set(words)) == len(words)
        assert len(words) == int(np.sum(np.linalg.matrix_power(a, n - 1)))
        for w in words:
            assert shift.is_word(w)


def mutual_reachability_labels(adjacency):
    """Oracle: i and j share a component when each reaches the other by a
    path of length >= 0; components numbered by their smallest state."""
    n = len(adjacency)
    reach = (np.asarray(adjacency) != 0) | np.eye(n, dtype=bool)
    for k in range(n):  # Warshall's transitive closure
        reach |= reach[:, [k]] & reach[[k], :]
    same = reach & reach.T
    labels = -np.ones(n, dtype=np.int64)
    count = 0
    for i in range(n):
        if labels[i] < 0:
            labels[same[i]] = count
            count += 1
    return count, labels


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
            lambda bits: np.array(bits, dtype=np.int8).reshape(n, n)
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_strong_components_match_mutual_reachability(adjacency):
    count, labels = strong_components(adjacency)
    want_count, want = mutual_reachability_labels(adjacency)
    assert count == want_count
    assert labels.tolist() == want.tolist()


def test_mixing_on_a_long_cycle_needs_no_recursion():
    # 2000 states in one cycle: a recursive search would pass Python's
    # default recursion limit of 1000
    n = 2000
    states = [f"s{i}" for i in range(n)]
    edges = [(states[i], states[(i + 1) % n]) for i in range(n)]
    assert not is_topologically_mixing(build_sft(states, edges))
    assert is_topologically_mixing(build_sft(states, edges + [("s7", "s7")]))
