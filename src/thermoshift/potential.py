"""Locally constant functions (potentials and observables) on a shift.

A function of range r is stored as a table over all admissible r-words.
The shift carries the metric d(x, y) = theta**(first disagreement index), so
the Lipschitz seminorm of a range-r function is max_k var_k / theta**k over
1 <= k < r, with theta read from ``base.theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .shift import TransitionMatrix, enumerate_words, higher_block_recode


class Norms(NamedTuple):
    sup: float
    lip: float
    total: float


@dataclass(frozen=True, eq=False)
class LocallyConstantFunction:
    """A real function on the shift depending on the first ``depth`` symbols.

    The function is immutable; its norms are computed once and kept.
    """

    base: TransitionMatrix
    depth: int
    table: dict

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        words = enumerate_words(self.base, self.depth)
        missing = [w for w in words if w not in self.table]
        if missing:
            raise ValueError(
                f"table is missing {len(missing)} admissible words, "
                f"first {self.base.labels(missing[0])!r}"
            )
        if len(self.table) != len(words):
            extra = set(self.table) - set(words)
            w = next(iter(extra))
            raise ValueError(f"table key {w!r} is not an admissible word")
        object.__setattr__(self, "table", dict(self.table))

    @classmethod
    def constant(cls, base, value, depth=1):
        table = {w: float(value) for w in enumerate_words(base, depth)}
        return cls(base=base, depth=depth, table=table)

    @classmethod
    def zero(cls, base):
        return cls.constant(base, 0.0, depth=1)

    @classmethod
    def indicator(cls, base, word):
        """Indicator of the cylinder fixed by ``word`` (a tuple of indices)."""
        word = tuple(word)
        if not base.is_word(word):
            raise ValueError("indicator word is not admissible")
        table = {w: (1.0 if w == word else 0.0) for w in enumerate_words(base, len(word))}
        return cls(base=base, depth=len(word), table=table)

    @classmethod
    def from_values(cls, base, depth, values, default=None):
        """Build from a partial mapping of label words, filling ``default``."""
        by_index = {}
        for word, v in values.items():
            w = tuple(base.index(s) for s in word)
            if not base.is_word(w):
                raise ValueError(f"word {tuple(word)!r} is not admissible")
            if len(w) != depth:
                raise ValueError(f"word {tuple(word)!r} does not have length {depth}")
            by_index[w] = float(v)
        table = {}
        for w in enumerate_words(base, depth):
            if w in by_index:
                table[w] = by_index[w]
            elif default is not None:
                table[w] = float(default)
            else:
                raise ValueError(f"no value for admissible word {base.labels(w)!r}")
        return cls(base=base, depth=depth, table=table)

    def evaluate(self, word) -> float:
        if len(word) < self.depth:
            raise ValueError(f"word shorter than range {self.depth}")
        key = tuple(word[: self.depth])
        try:
            return self.table[key]
        except KeyError:
            raise ValueError(f"inadmissible word {tuple(word)!r}") from None

    def birkhoff_sum(self, word, n: int, cyclic: bool = False) -> float:
        """Sum of the function along the first n shifts of ``word``.

        Cyclic sums read the word with wrap-around and need len(word) == n
        and cyclic admissibility; plain sums need len(word) >= n + depth - 1.
        """
        word = tuple(word)
        r = self.depth
        if cyclic:
            if len(word) != n:
                raise ValueError("cyclic sum needs a word of length exactly n")
            if not self.base.is_cycle(word):
                raise ValueError("word is not cyclically admissible")
            # enough copies that every window word[i:i+r], i < n, wraps around
            word = word * -(-(n + r - 1) // n)
            return float(sum(self.table[word[i : i + r]] for i in range(n)))
        if len(word) < n + r - 1:
            raise ValueError(f"need at least {n + r - 1} symbols, got {len(word)}")
        if not self.base.is_word(word):
            raise ValueError("inadmissible word")
        return float(sum(self.table[word[i : i + r]] for i in range(n)))

    def variation(self, n: int) -> float:
        """Largest gap between values on words sharing their first n symbols."""
        if n < 1:
            raise ValueError("variation index must be at least 1")
        if n >= self.depth:
            return 0.0
        lo, hi = {}, {}
        for w, v in self.table.items():
            p = w[:n]
            if p not in lo:
                lo[p] = hi[p] = v
            else:
                lo[p] = min(lo[p], v)
                hi[p] = max(hi[p], v)
        return float(max(hi[p] - lo[p] for p in lo))

    def tail_constant(self, n: int) -> float:
        """2 * sum of variations from index n on (zero once n >= depth)."""
        if n < 1:
            raise ValueError("tail index must be at least 1")
        return 2.0 * sum(self.variation(k) for k in range(n, self.depth))

    def norms(self) -> Norms:
        return self._norms

    @cached_property
    def _norms(self) -> Norms:
        sup = float(max(abs(v) for v in self.table.values()))
        lip = self.holder_constant()
        return Norms(sup=sup, lip=lip, total=sup + lip)

    def holder_constant(self) -> float:
        """Smallest A with var_n <= A * theta**n for all n >= 1, theta the shift's.
        A zero var_n adds nothing; a positive one whose quotient is past the
        float range (theta**n may underflow to 0.0) is refused."""
        a = 0.0
        for k in range(1, self.depth):
            v, power = self.variation(k), self.base.theta**k
            if v and not (power and v / power < math.inf):
                raise ValueError(
                    f"var_{k} / theta**{k} of a range-{self.depth} function is past "
                    f"the float range at theta = {self.base.theta!r}"
                )
            if v:
                a = max(a, v / power)
        return a

    def plus_constant(self, c: float) -> "LocallyConstantFunction":
        table = {w: v + float(c) for w, v in self.table.items()}
        return LocallyConstantFunction(self.base, self.depth, table)

    def with_depth(self, depth: int) -> "LocallyConstantFunction":
        """Same function written with a longer (or equal) range."""
        if depth < self.depth:
            raise ValueError("cannot shorten the range of a table")
        if depth == self.depth:
            return self
        table = {w: self.table[w[: self.depth]] for w in enumerate_words(self.base, depth)}
        return LocallyConstantFunction(self.base, depth, table)


def _check_compatible(f: LocallyConstantFunction, g: LocallyConstantFunction):
    if not f.base.same_shift(g.base):
        raise ValueError("functions live on different shifts")


def add(f: LocallyConstantFunction, g: LocallyConstantFunction) -> LocallyConstantFunction:
    _check_compatible(f, g)
    r = max(f.depth, g.depth)
    fr, gr = f.with_depth(r), g.with_depth(r)
    table = {w: fr.table[w] + gr.table[w] for w in fr.table}
    return LocallyConstantFunction(f.base, r, table)


def sup_diff(f: LocallyConstantFunction, g: LocallyConstantFunction) -> float:
    """Sup norm of f - g over the shift."""
    _check_compatible(f, g)
    r = max(f.depth, g.depth)
    fr, gr = f.with_depth(r), g.with_depth(r)
    return float(max(abs(fr.table[w] - gr.table[w]) for w in fr.table))


def random_function(shift, depth, rng, low=-1.0, high=1.0):
    """Table with independent uniform values on every admissible word."""
    words = enumerate_words(shift, depth)
    vals = rng.uniform(low, high, size=len(words))
    table = dict(zip(words, map(float, vals)))
    return LocallyConstantFunction(base=shift, depth=depth, table=table)


def recode_to_markovian(f: LocallyConstantFunction) -> LocallyConstantFunction:
    """Rewrite a range-r function as a range-2 function on the block shift.

    Functions of range <= 2 come back unchanged.  Otherwise the result lives
    on ``higher_block_recode(f.base, f.depth)[0]``, and g(u, v) equals f on
    the unique r-word the adjacent blocks u, v spell out, so Birkhoff sums
    are preserved along encoded words.
    """
    if f.depth <= 2:
        return f
    block_shift, blocks = higher_block_recode(f.base, f.depth)
    table = {}
    for u, bu in enumerate(blocks):
        for v in block_shift.successors(u):
            table[(u, v)] = f.table[bu + (blocks[v][-1],)]
    return LocallyConstantFunction(base=block_shift, depth=2, table=table)
