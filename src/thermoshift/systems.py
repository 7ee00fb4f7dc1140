"""Built-in shifts and example systems used by the CLI and the test batteries."""

from __future__ import annotations

import math

from .potential import LocallyConstantFunction
from .shift import DEFAULT_THETA, TransitionMatrix, build_sft

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


def builtin_shift(name: str, theta: float = DEFAULT_THETA) -> TransitionMatrix:
    """A builtin shift in the metric d_theta."""
    try:
        labels, edges = BUILTIN_SHIFTS[name]
    except KeyError:
        raise ValueError(
            f"unknown shift {name!r}; have {sorted(BUILTIN_SHIFTS)}"
        ) from None
    return build_sft(labels, edges, theta)


def builtin_system(name: str, theta: float = DEFAULT_THETA):
    """A builtin shift in the metric d_theta, and its potential."""
    try:
        shift_name, depth, values = BUILTIN_SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; have {sorted(BUILTIN_SYSTEMS)}"
        ) from None
    shift = build_sft(*BUILTIN_SHIFTS[shift_name], theta)
    return shift, LocallyConstantFunction.from_values(shift, depth, values, default=0.0)


def builtin_systems() -> list:
    """Every builtin system as (name, shift, potential), in sorted name order,
    in the default metric.

    Systems on one builtin shift share one shift object, and with it the
    components, mixing verdict and word counts it keeps once computed.
    """
    shifts = {name: builtin_shift(name) for name in BUILTIN_SHIFTS}
    systems = []
    for name, (shift_name, depth, values) in sorted(BUILTIN_SYSTEMS.items()):
        shift = shifts[shift_name]
        phi = LocallyConstantFunction.from_values(shift, depth, values, default=0.0)
        systems.append((name, shift, phi))
    return systems
