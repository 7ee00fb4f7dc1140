"""Subshifts of finite type over a finite alphabet.

A shift space is described by a 0/1 transition matrix over named states.
Everything downstream (potentials, transfer operators, measures) works with
words, i.e. tuples of state indices whose consecutive pairs are admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

WORD_CAP = 10_000_000
# dense matrices over more states than this take too long and too much memory
# to solve; range 11 on the full 2-shift recodes to exactly this many
STATE_CAP = 1024
DEFAULT_THETA = 0.5


class EmptyShiftError(ValueError):
    """Raised when pruning stranded states leaves no state behind."""


class EnumerationLimitError(RuntimeError):
    """Raised before an enumeration whose estimated size exceeds the cap."""


class NotMixingError(ValueError):
    """Raised when an operation requires an irreducible aperiodic matrix."""


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Finite state set plus a 0/1 adjacency matrix, in the metric d_theta.

    ``matrix[i, j] == 1`` means the two-letter word (i, j) is admissible.
    ``theta`` in (0, 1) gives the metric d(x, y) = theta**(first disagreement).
    ``removed`` records the labels pruned away during construction because
    they had no outgoing or no incoming edge.  The shift is immutable; the
    per-word readers use plain-Python copies of ``matrix`` built here once:
    ``_rows[i][j]`` (a bool) and ``_succ[i]`` (the successors of i, sorted).
    Its strong components, its mixing verdict and its word count per length
    are computed on first use and kept on the instance.
    """

    states: tuple
    matrix: np.ndarray
    removed: tuple = ()
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        # a private copy: the tables below must keep agreeing with it
        m = np.array(self.matrix, dtype=np.int8)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(self.states):
            raise ValueError("matrix shape does not match the state count")
        # read as unsigned bytes, -1 is 255: one reduction refuses both sides
        if np.max(m.view(np.uint8), initial=0) > 1:
            raise ValueError("transition matrix entries must be 0 or 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.states)})
        rows = tuple(tuple(bool(x) for x in row) for row in m.tolist())
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(
            self, "_succ", tuple(tuple(j for j, x in enumerate(row) if x) for row in rows)
        )

    @property
    def n(self) -> int:
        return len(self.states)

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown state {label!r}") from None

    def successors(self, i: int) -> list:
        return list(self._succ[i])

    def labels(self, word) -> tuple:
        return tuple(self.states[i] for i in word)

    def is_word(self, word) -> bool:
        """True when ``word`` is a nonempty admissible index tuple."""
        if len(word) == 0:
            return False
        rows = self._rows
        if min(word) < 0 or max(word) >= len(rows):
            return False
        return all(rows[a][b] for a, b in zip(word, word[1:]))

    def is_cycle(self, word) -> bool:
        """True when ``word`` reads admissibly with wrap-around."""
        return self.is_word(word) and self._rows[word[-1]][word[0]]

    @cached_property
    def _components(self) -> tuple:
        """``strong_components(matrix)``, its labels read-only."""
        count, labels = strong_components(self.matrix)
        labels.setflags(write=False)
        return count, labels

    @cached_property
    def _mixing(self) -> bool:
        """Irreducible plus aperiodic."""
        if self._components[0] != 1:
            return False
        # gcd of cycle lengths via BFS levels: for every edge (u, v) the value
        # d[u] + 1 - d[v] is a multiple of the period.
        succ = self._succ
        dist = [-1] * self.n
        dist[0] = 0
        queue = [0]
        g = 0
        while queue:
            u = queue.pop()
            for v in succ[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for u in range(self.n):
            for v in succ[u]:
                g = math.gcd(g, dist[u] + 1 - dist[v])
        return g == 1

    @cached_property
    def _word_counts(self) -> dict:
        """Number of admissible words per length, filled by ``_count_words``."""
        return {}

    def same_shift(self, other: "TransitionMatrix") -> bool:
        """Same labels, same admissible pairs and the same metric parameter theta."""
        # equal labels give equal shapes, so the row tables say what array_equal would
        return self is other or (
            self.theta == other.theta and self.states == other.states and self._rows == other._rows
        )


def build_sft(states, edges, theta: float = DEFAULT_THETA) -> TransitionMatrix:
    """Build a shift in the metric d_theta from state labels and admissible label pairs.

    States that cannot occur in any bi-infinite sequence (no outgoing or no
    incoming edge, iterated to a fixed point) are dropped and recorded in
    ``removed``.  An empty result raises EmptyShiftError.
    """
    states = tuple(states)
    if len(set(states)) != len(states):
        raise ValueError("duplicate state labels")
    idx = {s: i for i, s in enumerate(states)}
    m = np.zeros((len(states), len(states)), dtype=np.int8)
    for e in edges:
        a, b = e
        if a not in idx or b not in idx:
            raise ValueError(f"edge {e!r} mentions an unknown state")
        m[idx[a], idx[b]] = 1

    alive = list(range(len(states)))
    removed = []
    while alive:
        sub = m[np.ix_(alive, alive)]
        out_ok = sub.sum(axis=1) > 0
        in_ok = sub.sum(axis=0) > 0
        keep = out_ok & in_ok
        if keep.all():
            break
        removed.extend(states[alive[k]] for k in range(len(alive)) if not keep[k])
        alive = [alive[k] for k in range(len(alive)) if keep[k]]
    if not alive:
        raise EmptyShiftError(
            f"no state survives pruning; removed {tuple(states)!r}"
        )

    return TransitionMatrix(
        states=tuple(states[i] for i in alive),
        matrix=m[np.ix_(alive, alive)],
        removed=tuple(removed),
        theta=theta,
    )


def strong_components(adjacency) -> tuple:
    """Strongly connected components of the directed graph with the given
    square adjacency matrix (nonzero entry = edge), as (count, labels).

    Kosaraju's two searches, iterative, O(n + e): one over the edges for a
    finishing order, one over the reversed edges in reverse finishing order.
    Components are numbered 0, 1, ... in the order of their smallest state.
    """
    a = np.asarray(adjacency) != 0
    n = a.shape[0]
    heads, tails = np.nonzero(a)
    by_tail = np.argsort(tails, kind="stable")
    succ = _adjacency_lists(n, heads, tails)
    pred = _adjacency_lists(n, tails[by_tail], heads[by_tail])

    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, edges = stack[-1]
            for w in edges:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)

    found = [-1] * n
    count = 0
    for root in reversed(order):
        if found[root] >= 0:
            continue
        found[root] = count
        stack = [root]
        while stack:
            for w in pred[stack.pop()]:
                if found[w] < 0:
                    found[w] = count
                    stack.append(w)
        count += 1

    renumber = {}
    labels = np.array([renumber.setdefault(c, len(renumber)) for c in found], dtype=np.int64)
    return count, labels


def _adjacency_lists(n: int, heads: np.ndarray, tails: np.ndarray) -> list:
    """Per-state lists of tails, from edge arrays sorted by head."""
    bounds = np.searchsorted(heads, np.arange(n + 1)).tolist()
    tails = tails.tolist()
    return [tails[bounds[i]:bounds[i + 1]] for i in range(n)]


def is_topologically_mixing(shift: TransitionMatrix) -> bool:
    """Irreducible plus aperiodic; equivalently some power is entrywise positive.
    The verdict is kept on the shift."""
    return shift._mixing


def _count_words(shift: TransitionMatrix, n: int) -> float:
    counts = shift._word_counts
    if n not in counts:
        if n == 1:
            counts[n] = float(shift.n)
        else:
            p = np.linalg.matrix_power(shift.matrix.astype(np.float64), n - 1)
            counts[n] = float(p.sum())
    return counts[n]


def check_word_count(shift: TransitionMatrix, n: int):
    """Refuse, before listing them, more than WORD_CAP words of length n."""
    est = _count_words(shift, n)
    if est > WORD_CAP:
        raise EnumerationLimitError(
            f"about {est:.3g} words of length {n}, cap is {WORD_CAP}"
        )


def check_state_count(shift: TransitionMatrix, length: int = 1):
    """Refuse, before anything is built over them, more than STATE_CAP states:
    the shift's own (length 1), or its admissible length-words, the states of
    its recoding to range length + 1."""
    count = _count_words(shift, length)
    if count > STATE_CAP:
        what = "the shift has" if length == 1 else f"range {length + 1} recodes to"
        raise ValueError(f"{what} {count:.0f} states, the dense-solve limit is {STATE_CAP}")


def enumerate_words(shift: TransitionMatrix, n: int) -> list:
    """All admissible words of length n, in lexicographic index order."""
    if n < 1:
        raise ValueError("word length must be at least 1")
    check_word_count(shift, n)
    succ = shift._succ
    words = [(i,) for i in range(shift.n)]
    for _ in range(n - 1):
        words = [w + (j,) for w in words for j in succ[w[-1]]]
    return words


def enumerate_periodic(shift: TransitionMatrix, k: int) -> list:
    """All length-k words admissible with wrap-around (period-k points)."""
    if k < 1:
        raise ValueError("period must be at least 1")
    words = enumerate_words(shift, k)
    rows = shift._rows
    return [w for w in words if rows[w[-1]][w[0]]]


@dataclass(frozen=True, eq=False)
class Recoding:
    """Conjugacy between a shift and its higher-block presentation.

    States of ``new`` are the admissible ``block_length``-words of ``base``;
    two blocks are adjacent when they overlap in all but one symbol and the
    combined word is admissible.
    """

    base: TransitionMatrix
    new: TransitionMatrix
    block_length: int
    blocks: tuple

    def block_index(self, block) -> int:
        return self.new.index(self._label(block))

    def _label(self, block):
        return _block_label(self.base, block)

    def encode(self, word) -> tuple:
        """Image of an admissible base word of length >= block_length."""
        b = self.block_length
        if len(word) < b:
            raise ValueError(f"need at least {b} symbols to encode")
        if not self.base.is_word(word):
            raise ValueError("inadmissible word")
        return tuple(
            self.block_index(tuple(word[i : i + b])) for i in range(len(word) - b + 1)
        )

    def decode(self, word) -> tuple:
        first = self.blocks[word[0]]
        return tuple(first) + tuple(self.blocks[s][-1] for s in word[1:])

    def encode_cycle(self, word) -> tuple:
        """Image of a cyclically admissible word, read with wrap-around."""
        if not self.base.is_cycle(word):
            raise ValueError("not a cyclically admissible word")
        k = len(word)
        b = self.block_length
        return tuple(
            self.block_index(tuple(word[(i + j) % k] for j in range(b)))
            for i in range(k)
        )

    def decode_cycle(self, word) -> tuple:
        return tuple(self.blocks[s][0] for s in word)


def _block_label(shift: TransitionMatrix, block) -> str:
    labels = shift.labels(block)
    if all(isinstance(s, str) and len(s) == 1 for s in labels):
        return "".join(labels)
    return "|".join(str(s) for s in labels)


def higher_block_recode(shift: TransitionMatrix, ell: int) -> Recoding:
    """Recode to the shift whose states are admissible (ell - 1)-words.

    ell = 2 reproduces the original shift up to state relabelling.
    """
    if ell < 2:
        raise ValueError("block length must be at least 2")
    check_state_count(shift, ell - 1)
    blocks = enumerate_words(shift, ell - 1)
    nb = len(blocks)
    # block u is followed by each admissible one-symbol extension of its tail
    position = {b: u for u, b in enumerate(blocks)}
    m = np.zeros((nb, nb), dtype=np.int8)
    for u, bu in enumerate(blocks):
        for s in shift._succ[bu[-1]]:
            m[u, position[bu[1:] + (s,)]] = 1
    new = TransitionMatrix(
        states=tuple(_block_label(shift, b) for b in blocks),
        matrix=m,
        theta=shift.theta,
    )
    return Recoding(base=shift, new=new, block_length=ell - 1, blocks=tuple(blocks))
