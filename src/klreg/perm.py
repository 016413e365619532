"""Permutation primitives: one-line words, ranks, Rothe diagrams, Lehmer
codes, Demazure products, Bruhat order and the 321 test; no pair checks.

Conventions: everything is 1-indexed and uses matrix coordinates, so cell
(1, 1) is the northwest corner of the n x n grid.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ValidationError

Cell = tuple[int, int]


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n], stored as its one-line word of ints.

    >>> Permutation((2, 1, 3)).n
    3
    """

    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if not set(map(type, word)) <= {int} or sorted(word) != list(range(1, len(word) + 1)):
            raise ValidationError(f"not a permutation of [{len(word)}]: {word!r}")

    @property
    def n(self) -> int:
        return len(self.word)

    def __repr__(self):
        return f"Permutation({self.word!r})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def _free_values(word: Sequence[int]) -> Iterator[tuple[int, list[int]]]:
    """The one pass behind the Rothe diagram of a one-line word.

    For each position i in order, yield (k, free): free is the sorted list
    of the values not among word[:i], and free[:k] are those below word[i],
    which are the columns of the cells in row i.  free is shared and loses
    word[i] when the pass moves on, so read it before the next step.  One
    bisect per row, so the pass costs O(n log n) plus n list deletes.
    """
    free = list(range(1, len(word) + 1))
    for x in word:
        k = bisect_left(free, x)
        yield k, free
        del free[k]


def coxeter_length(u: Permutation) -> int:
    """Number of inversions of u, which equals #rothe_diagram(u): the sum
    of the row sizes of one free-values pass, O(n log n) with no cells.

    >>> coxeter_length(Permutation((3, 1, 2)))
    2
    """
    return sum(k for k, _ in _free_values(u.word))


def rank(u: Permutation, i: int, j: int) -> int:
    """Number of k <= i with u(k) <= j.

    >>> rank(Permutation((2, 1)), 1, 1)
    0
    """
    if not (1 <= i <= u.n and 1 <= j <= u.n):
        raise ValidationError(f"cell ({i}, {j}) out of range for S_{u.n}")
    return sum(1 for k in range(i) if u.word[k] <= j)


def rothe_diagram(u: Permutation) -> tuple[Cell, ...]:
    """Cells (i, j) with u(i) > j and u^-1(j) > i, in row-major order.

    Row i holds the values below u(i) not used by u(1), ..., u(i-1), so one
    left-to-right free-values pass builds it in O(n log n + ell(u)) plus n
    list deletes, with no n x n scan.

    >>> rothe_diagram(Permutation((2, 1)))
    ((1, 1),)
    >>> rothe_diagram(Permutation((3, 2, 1)))
    ((1, 1), (1, 2), (2, 1))
    """
    return tuple((i, j) for i, (k, free) in enumerate(_free_values(u.word), 1) for j in free[:k])


def lehmer_code(u: Permutation) -> tuple[int, ...]:
    """c_i = number of j > i with u(j) < u(i), i.e. boxes in row i of the
    Rothe diagram: the row sizes of one free-values pass.

    >>> lehmer_code(Permutation((3, 2, 1)))
    (2, 1, 0)
    """
    return tuple(k for k, _ in _free_values(u.word))


def from_lehmer_code(code: Sequence[int]) -> Permutation:
    """Invert lehmer_code.

    >>> from_lehmer_code((1, 0)).word
    (2, 1)
    """
    n = len(code)
    remaining = list(range(1, n + 1))
    word = []
    for i, c in enumerate(code):
        if not 0 <= c <= n - i - 1:
            raise ValidationError(f"invalid Lehmer code entry c_{i + 1} = {c} for n = {n}")
        word.append(remaining.pop(c))
    return Permutation(tuple(word))


def is_321_avoiding(u: Permutation) -> bool:
    """True iff there are no positions i < j < k with u(i) > u(j) > u(k):
    iff the entries below an earlier entry increase, since the last two of
    a 321 are such entries.  One pass keeps the running maximum and the
    last entry below it."""
    top = low = 0
    for x in u.word:
        if x > top:
            top = x
        elif x < low:
            return False
        else:
            low = x
    return True


def right_mult_s(u: Permutation, i: int) -> Permutation:
    """u * s_i: swap the entries in positions i and i+1."""
    if not 1 <= i <= u.n - 1:
        raise ValidationError(f"generator index {i} out of range for S_{u.n}")
    w = list(u.word)
    w[i - 1], w[i] = w[i], w[i - 1]
    return Permutation(tuple(w))


def demazure_step(u: Permutation, i: int) -> Permutation:
    """u * s_i if that is longer than u, otherwise u.

    >>> demazure_step(Permutation((2, 1)), 1).word
    (2, 1)
    """
    if not 1 <= i <= u.n - 1:
        raise ValidationError(f"generator index {i} out of range for S_{u.n}")
    if u.word[i - 1] < u.word[i]:
        return right_mult_s(u, i)
    return u


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """u <= w in Bruhat order, tested by rank dominance:
    rank_u(i, j) >= rank_w(i, j) for all (i, j).

    One pass over the rows keeps gap[j] = rank_u(i, j) - rank_w(i, j).
    Row i changes only the columns j with min(u(i), w(i)) <= j <
    max(u(i), w(i)), and they fall only when w(i) < u(i), so only those are
    checked, and the first negative gap answers False.

    >>> bruhat_leq(Permutation((1, 3, 2)), Permutation((3, 1, 2)))
    True
    >>> bruhat_leq(Permutation((2, 1, 3)), Permutation((1, 3, 2)))
    False
    """
    if u.n != w.n:
        raise ValidationError("size mismatch in Bruhat comparison")
    gap = [0] * (u.n + 1)
    for x, y in zip(u.word, w.word):
        if x < y:
            for j in range(x, y):
                gap[j] += 1
        else:
            for j in range(y, x):
                gap[j] -= 1
                if gap[j] < 0:
                    return False
    return True

