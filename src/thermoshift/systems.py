"""Built-in shifts and example systems used by the CLI and the test batteries."""

from __future__ import annotations

import math

from .potential import DEFAULT_THETA, LocallyConstantFunction
from .shift import TransitionMatrix, build_sft


def full_shift_2() -> TransitionMatrix:
    return build_sft(["a", "b"], [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")])


def golden_mean_shift() -> TransitionMatrix:
    """Two states, the pair bb forbidden."""
    return build_sft(["a", "b"], [("a", "a"), ("a", "b"), ("b", "a")])


def tribonacci_shift() -> TransitionMatrix:
    """Three states with a longer cycle through c; second eigenvalue complex."""
    edges = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "a")]
    return build_sft(["a", "b", "c"], edges)


BUILTIN_SHIFTS = {
    "full-2": full_shift_2,
    "golden-mean": golden_mean_shift,
    "tribonacci": tribonacci_shift,
}


def _zero_system(factory):
    def make(theta):
        shift = factory()
        return shift, LocallyConstantFunction.zero(shift, theta=theta)

    return make


def _full2_bernoulli(theta):
    shift = full_shift_2()
    phi = LocallyConstantFunction.from_values(
        shift, 1, {("a",): math.log(0.3), ("b",): math.log(0.7)}, theta=theta
    )
    return shift, phi


def _golden_range2(theta):
    shift = golden_mean_shift()
    phi = LocallyConstantFunction.from_values(
        shift, 2, {("a", "a"): 0.25, ("a", "b"): -0.4, ("b", "a"): 0.1}, theta=theta
    )
    return shift, phi


BUILTIN_SYSTEMS = {
    "full2-zero": _zero_system(full_shift_2),
    "full2-bernoulli": _full2_bernoulli,
    "golden-zero": _zero_system(golden_mean_shift),
    "golden-range2": _golden_range2,
    "tribonacci-zero": _zero_system(tribonacci_shift),
}


def builtin_shift(name: str) -> TransitionMatrix:
    try:
        return BUILTIN_SHIFTS[name]()
    except KeyError:
        raise ValueError(
            f"unknown shift {name!r}; have {sorted(BUILTIN_SHIFTS)}"
        ) from None


def builtin_system(name: str, theta: float = DEFAULT_THETA):
    """A builtin shift and its potential, measured in the metric d_theta."""
    try:
        make = BUILTIN_SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; have {sorted(BUILTIN_SYSTEMS)}"
        ) from None
    return make(theta)
