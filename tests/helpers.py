"""Test-side helpers: a point-mass measure and the Pinsker pair, which only
tests use, and the cyclic coding of words into a higher-block shift."""

import math

import numpy as np

from thermoshift.measures import MarkovMeasure, kl_divergence
from thermoshift.shift import TransitionMatrix


def point_mass(shift: TransitionMatrix, state) -> MarkovMeasure:
    """The invariant measure sitting on the fixed point of a self-looping state.

    Other states are routed deterministically toward that state along shortest
    admissible paths, so the kernel is stochastic everywhere but only the loop
    carries mass.
    """
    a = shift.index(state)
    if not shift.matrix[a, a]:
        raise ValueError(f"state {shift.states[a]!r} has no self-loop")
    # next_step[i] = first move of a shortest path i -> a
    next_step = {a: a}
    frontier = [a]
    while frontier:
        new = []
        for v in frontier:
            for u in range(shift.n):
                if shift.matrix[u, v] and u not in next_step:
                    next_step[u] = v
                    new.append(u)
        frontier = new
    if len(next_step) < shift.n:
        stranded = [shift.states[i] for i in range(shift.n) if i not in next_step]
        raise ValueError(f"states {stranded} cannot reach {shift.states[a]!r}")
    p = np.zeros((shift.n, shift.n))
    for i, j in next_step.items():
        p[i, j] = 1.0
    pi = np.zeros(shift.n)
    pi[a] = 1.0
    return MarkovMeasure(base=shift, kernel=p, initial=pi)


def pinsker_gap(p, q):
    """The pair (l1 distance, sqrt(2 KL)); the first never exceeds the second."""
    l1 = float(np.abs(np.asarray(q, dtype=float) - np.asarray(p, dtype=float)).sum())
    return l1, math.sqrt(2.0 * kl_divergence(p, q))


def encode_cycle(blocks, word) -> tuple:
    """The block-shift image of a cyclically admissible word: position i
    reads the block that starts at word[i], with wrap-around.  ``blocks`` is
    the list ``higher_block_recode`` returns."""
    position = {b: u for u, b in enumerate(blocks)}
    k, length = len(word), len(blocks[0])
    return tuple(position[tuple(word[(i + j) % k] for j in range(length))] for i in range(k))
