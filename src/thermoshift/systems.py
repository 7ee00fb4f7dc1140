"""Built-in shifts and example systems used by the CLI and the test batteries."""

from __future__ import annotations

import math

from .potential import DEFAULT_THETA, LocallyConstantFunction
from .shift import TransitionMatrix, build_sft

# name -> (state labels, admissible two-letter words)
BUILTIN_SHIFTS = {
    "full-2": ("ab", ("aa", "ab", "ba", "bb")),
    # the pair bb forbidden
    "golden-mean": ("ab", ("aa", "ab", "ba")),
    # a longer cycle through c; second eigenvalue complex
    "tribonacci": ("abc", ("aa", "ab", "ba", "bc", "ca")),
}

# name -> (shift name, range, potential value per word; unlisted words are 0)
BUILTIN_SYSTEMS = {
    "full2-zero": ("full-2", 1, {}),
    "full2-bernoulli": ("full-2", 1, {"a": math.log(0.3), "b": math.log(0.7)}),
    "golden-zero": ("golden-mean", 1, {}),
    "golden-range2": ("golden-mean", 2, {"aa": 0.25, "ab": -0.4, "ba": 0.1}),
    "tribonacci-zero": ("tribonacci", 1, {}),
}


def builtin_shift(name: str) -> TransitionMatrix:
    try:
        labels, edges = BUILTIN_SHIFTS[name]
    except KeyError:
        raise ValueError(
            f"unknown shift {name!r}; have {sorted(BUILTIN_SHIFTS)}"
        ) from None
    return build_sft(labels, edges)


def builtin_system(name: str, theta: float = DEFAULT_THETA):
    """A builtin shift and its potential, measured in the metric d_theta."""
    try:
        shift_name, depth, values = BUILTIN_SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; have {sorted(BUILTIN_SYSTEMS)}"
        ) from None
    shift = build_sft(*BUILTIN_SHIFTS[shift_name])
    build = LocallyConstantFunction.from_values
    return shift, build(shift, depth, values, default=0.0, theta=theta)
