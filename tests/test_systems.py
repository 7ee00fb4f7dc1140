"""The builtin tables against the factory functions they replaced.

The oracles below are the earlier factories, written out: one per shift and
one per system potential.  The tables must rebuild the same labels, 0/1
matrices and function tables, bit for bit.
"""

import math

import numpy as np
import pytest

from thermoshift.potential import LocallyConstantFunction
from thermoshift.shift import build_sft
from thermoshift.systems import BUILTIN_SHIFTS, BUILTIN_SYSTEMS, builtin_shift, builtin_system


def _full_shift_2():
    return build_sft(["a", "b"], [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")])


def _golden_mean_shift():
    return build_sft(["a", "b"], [("a", "a"), ("a", "b"), ("b", "a")])


def _tribonacci_shift():
    edges = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "a")]
    return build_sft(["a", "b", "c"], edges)


ORACLE_SHIFTS = {
    "full-2": _full_shift_2,
    "golden-mean": _golden_mean_shift,
    "tribonacci": _tribonacci_shift,
}


def _zero_system(factory):
    def make(theta):
        shift = factory()
        return shift, LocallyConstantFunction.zero(shift, theta=theta)

    return make


def _full2_bernoulli(theta):
    shift = _full_shift_2()
    phi = LocallyConstantFunction.from_values(
        shift, 1, {("a",): math.log(0.3), ("b",): math.log(0.7)}, theta=theta
    )
    return shift, phi


def _golden_range2(theta):
    shift = _golden_mean_shift()
    phi = LocallyConstantFunction.from_values(
        shift, 2, {("a", "a"): 0.25, ("a", "b"): -0.4, ("b", "a"): 0.1}, theta=theta
    )
    return shift, phi


ORACLE_SYSTEMS = {
    "full2-zero": _zero_system(_full_shift_2),
    "full2-bernoulli": _full2_bernoulli,
    "golden-zero": _zero_system(_golden_mean_shift),
    "golden-range2": _golden_range2,
    "tribonacci-zero": _zero_system(_tribonacci_shift),
}


def _assert_same_shift(got, want):
    assert got.states == want.states
    assert got.removed == want.removed
    assert got.matrix.dtype == want.matrix.dtype
    assert np.array_equal(got.matrix, want.matrix)


def test_tables_name_the_same_builtins():
    assert sorted(BUILTIN_SHIFTS) == sorted(ORACLE_SHIFTS)
    assert sorted(BUILTIN_SYSTEMS) == sorted(ORACLE_SYSTEMS)


@pytest.mark.parametrize("name", sorted(ORACLE_SHIFTS))
def test_builtin_shift_matches_its_factory(name):
    _assert_same_shift(builtin_shift(name), ORACLE_SHIFTS[name]())


@pytest.mark.parametrize("theta", [0.3, 0.5])
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_builtin_system_matches_its_factory(name, theta):
    shift, phi = builtin_system(name, theta)
    want_shift, want_phi = ORACLE_SYSTEMS[name](theta)
    _assert_same_shift(shift, want_shift)
    assert phi.base is shift
    assert (phi.depth, phi.theta) == (want_phi.depth, want_phi.theta)
    # same keys in the same order, and every value equal as a float
    assert list(phi.table.items()) == list(want_phi.table.items())
    assert all(type(v) is float for v in phi.table.values())


def test_builtin_system_theta_defaults_to_one_half():
    assert builtin_system("golden-range2")[1].theta == 0.5


@pytest.mark.parametrize(
    "build, name, message",
    [
        (builtin_shift, "golden", "unknown shift 'golden'; have ['full-2', 'golden-mean', 'tribonacci']"),
        (
            builtin_system,
            "golden",
            "unknown system 'golden'; have ['full2-bernoulli', 'full2-zero', "
            "'golden-range2', 'golden-zero', 'tribonacci-zero']",
        ),
    ],
)
def test_unknown_builtin_names_are_refused(build, name, message):
    with pytest.raises(ValueError) as info:
        build(name)
    assert str(info.value) == message


def test_each_call_builds_a_fresh_shift():
    assert builtin_shift("full-2") is not builtin_shift("full-2")
    assert builtin_system("full2-zero")[0] is not builtin_system("full2-zero")[0]
